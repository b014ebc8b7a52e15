"""One cold ``vxunzip extract``, run member by member in this fresh process.

``python cold_start.py ARCHIVE OUT [--vxa] -- MEMBER...`` imports
``repro.cli`` and calls its ``main`` once per member -- the code path of
``python -m repro.cli extract``, argument parsing and report lines included
-- with a calibration loop before the import, after it and between members.
Every member of the archive has a decoder of its own, so each call pays that
decoder's image parse, analysis, VM construction and translation exactly
once, as the single six-member command does.

Prints one JSON line: the units' seconds, the loops' seconds, the exit codes
and the time from the first statement to the last.
"""

import time

BEGIN = time.perf_counter()

import contextlib      # noqa: E402
import json            # noqa: E402
import os              # noqa: E402
import sys             # noqa: E402

import calibration     # noqa: E402


def main(argv: list[str]) -> int:
    split = argv.index("--")
    archive, out, *flags = argv[:split]
    members = argv[split + 1:]
    loops = [calibration.loop()]
    start = time.perf_counter()
    import repro.cli
    units = [time.perf_counter() - start]
    loops.append(calibration.loop())
    codes = []
    since = 0.0
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for member in members:
            start = time.perf_counter()
            codes.append(repro.cli.main(
                ["extract", archive, member, "-o", out, *flags]))
            units.append(time.perf_counter() - start)
            since += units[-1]
            if since >= calibration.EVERY_S:
                loops.append(calibration.loop())
                since = 0.0
    loops.append(calibration.loop())
    print(json.dumps({"units": units, "loops": loops, "codes": codes,
                      "inside": time.perf_counter() - BEGIN}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
