"""The fixed piece of interpreter-bound work every timing is read against.

A module of its own, importing only ``time``: ``cold_start.py`` runs it in
an interpreter that must not have imported anything the CLI would not.
"""

import time

#: Seconds one loop is taken to cost; fixes the scale of every compensated
#: time.  (The reference VM runs it in 21-44 ms.)
NOMINAL_S = 0.025
#: Measured work between two loops.
EVERY_S = 0.1


def loop() -> float:
    start = time.perf_counter()
    total = 0
    for value in range(400_000):
        total += value * value % 7
    return time.perf_counter() - start
