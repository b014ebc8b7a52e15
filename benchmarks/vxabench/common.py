"""Shared plumbing for vxabench: statistics, spans, children, leak checks.

Nothing here imports ``repro``: the driver process stays a plain load
generator, and every measurement that touches the library runs in a child
started with :func:`run_child`.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import multiprocessing
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import calibration

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"

DECODERS = ("vxz", "vxbwt", "vximg", "vxjp2", "vxflac", "vxsnd")
WORKLOADS = ("extract_mixed", "cold_cli", "archive_io", "serve_roundtrip")

#: No single child may outlive this; the contract allows a run 180 s in all.
CHILD_TIMEOUT = 150.0


class BenchFailure(Exception):
    """The benchmark itself could not produce a trustworthy result."""


# -- statistics -------------------------------------------------------------

def summarize(samples) -> dict:
    """Sample count, median and quartiles of ``samples``."""
    samples = [float(value) for value in samples]
    if not samples:
        raise BenchFailure("no samples to summarise")
    if len(samples) == 1:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"n": len(samples), "median": statistics.median(samples),
            "q1": q1, "q3": q3}


def spread(samples) -> float:
    """Distance between the quartiles (0 for fewer than two samples)."""
    stats = summarize(samples)
    return stats["q3"] - stats["q1"]


# -- the clock: timed units read against interleaved calibration loops --------

class Clock:
    """Times named units of work and compensates them for machine speed.

    On the reference machine (a 2-vCPU VM with busy neighbours) identical
    work takes 0.6x to 1.4x its median from one 100 ms window to the next,
    and raw medians of whole 20 s runs spread 5-19% over ten repeats.  So the clock runs a
    fixed calibration loop before the first unit and after every
    ``calibration.EVERY_S`` of timed work, and reads each unit against its
    two nearest loops: ``durations()`` are "seconds at the speed where the
    loop takes ``calibration.NOMINAL_S``".  That brings repeat runs of
    finely interleaved work within 2-4%; ``raw=True`` gives plain wall time.

    Every unit is also a span, ``{name, layer, start, end, parent, workload,
    op_id}`` with raw ``time.perf_counter()`` stamps, which the traced run
    writes out as JSONL.  Units never overlap in time -- the traced run calls
    each level of a request directly on the same input, one after the other,
    and ``parent`` names the level that contains it in the real call chain
    -- which is what leaves room for a loop between any two of them.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.records: list[dict] = []
        self._since = calibration.EVERY_S       # calibrate before the first

    def calibrate(self) -> None:
        start = time.perf_counter()
        calibration.loop()
        self.records.append({"name": "calibration", "layer": "bench",
                             "start": start, "end": time.perf_counter(),
                             "parent": None, "workload": self.workload,
                             "op_id": None})
        self._since = 0.0

    @contextlib.contextmanager
    def unit(self, name: str, *, parent: str | None = None,
             op_id: int | None = None):
        """Time the body of a ``with`` block as one unit."""
        if self._since >= calibration.EVERY_S:
            self.calibrate()
        record = {"name": name, "layer": name.split(".", 1)[0],
                  "start": time.perf_counter(), "end": None, "parent": parent,
                  "workload": self.workload, "op_id": op_id}
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._since += record["end"] - record["start"]
            self.records.append(record)

    def timed(self, name: str, call, **kwargs):
        """Run ``call()`` as one timed unit; return its result."""
        with self.unit(name, **kwargs):
            return call()

    def correction(self) -> float:
        """Seconds to add to a wall-clock span that contains this clock's
        units to compensate them: the units' compensated minus raw time,
        minus the calibration loops themselves."""
        compensated = sum(seconds for _, seconds in self._units(raw=False))
        raw = sum(seconds for _, seconds in self._units(raw=True))
        loops = sum(record["end"] - record["start"] for record in self.records
                    if record["name"] == "calibration")
        return compensated - raw - loops

    def _units(self, raw: bool) -> list[tuple[dict, float]]:
        """Every unit with its duration, compensated unless ``raw``."""
        if self.records and self.records[-1]["name"] != "calibration":
            self.calibrate()
        loops = [record for record in self.records
                 if record["name"] == "calibration"]
        starts = [record["start"] for record in loops]
        result = []
        for record in self.records:
            if record["name"] == "calibration":
                continue
            seconds = record["end"] - record["start"]
            if not raw:
                after = bisect.bisect_left(starts, record["end"])
                near = loops[max(0, after - 1):after + 1]
                seconds *= calibration.NOMINAL_S / statistics.fmean(
                    loop["end"] - loop["start"] for loop in near)
            result.append((record, seconds))
        return result

    def durations(self, name: str, *, raw: bool = False) -> list[float]:
        return [seconds for record, seconds in self._units(raw)
                if record["name"] == name]

    def totals_by_op(self, *names: str, raw: bool = False) -> list[float]:
        """Per-``op_id`` sums over the named units (one sample per pass)."""
        sums: dict = {}
        for record, seconds in self._units(raw):
            if record["name"] in names:
                sums[record["op_id"]] = sums.get(record["op_id"], 0.0) + seconds
        return [sums[key] for key in sorted(sums)]

    def dump(self, path) -> None:
        with open(path, "a", encoding="utf-8") as sink:
            for record in self.records:
                sink.write(json.dumps(record) + "\n")


# -- process hygiene --------------------------------------------------------

def leaked() -> list[str]:
    """Whatever this process would leave behind if it exited now."""
    problems = []
    # Pool threads finish asynchronously after shutdown(); give them a moment.
    deadline = time.monotonic() + 5.0
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    extra = [thread.name for thread in threading.enumerate()
             if thread is not threading.main_thread()]
    if extra:
        problems.append(f"threads still running: {extra}")
    children = multiprocessing.active_children()
    if children:
        problems.append(f"multiprocessing children alive: {children}")
    for listing in pathlib.Path("/proc/self/task").glob("*/children"):
        try:
            pids = listing.read_text().split()
        except OSError:
            continue
        if pids:
            problems.append(f"child processes alive: {pids}")
    return problems


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    waited = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, waited) / 1024.0      # Linux reports KiB


def fingerprint() -> dict:
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = float("nan")
    return {"nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg_1m_at_start": load}


def child_environment() -> dict:
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (f"{SRC_DIR}{os.pathsep}{previous}" if previous
                         else str(SRC_DIR))
    return env


def new_run() -> dict:
    """The pooled outcome of one run's children."""
    return {"samples": {}, "attempted": 0, "failed": 0, "problems": []}


def run_children(child: str, count: int, seed: int, seconds: float,
                 shape: str, scratch: pathlib.Path, run: dict):
    """Start ``count`` fresh children of ``child``, one after the other.

    Each gets a scratch directory of its own; its samples and correctness
    tally are pooled into ``run``.  Yields ``(result, spawned)`` per child
    for whatever else the caller wants from it.
    """
    for index in range(count):
        child_scratch = scratch / f"{child}-{index}"
        child_scratch.mkdir()
        result, spawned = run_child([
            "--child", child, "--seed", str(seed), "--shape", shape,
            "--seconds", repr(seconds), "--scratch", str(child_scratch)])
        shutil.rmtree(child_scratch)
        for key, values in result["samples"].items():
            run["samples"].setdefault(key, []).extend(values)
        run["attempted"] += result["attempted"]
        run["failed"] += result["failed"]
        run["problems"].extend(result["problems"])
        yield result, spawned


def run_child(arguments: list[str]) -> tuple[dict, float]:
    """Run one fresh child of this benchmark, wait for it, parse its result.

    Returns the JSON object on the child's last stdout line and the
    system-wide monotonic time at which it was started (the child reports
    the same clock when its set-up ends).
    """
    command = [sys.executable, str(BENCH_DIR / "run.py"), *arguments]
    started = time.monotonic()
    # Its own process group, so that whatever the child failed to reap can
    # be killed with it: no descendant survives, success or failure.
    child = subprocess.Popen(command, env=child_environment(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT)
        timed_out = False
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        if child.poll() is None:
            stdout, stderr = child.communicate()
    if timed_out:
        raise BenchFailure(f"child timed out: {' '.join(arguments)}")
    if child.returncode != 0:
        raise BenchFailure(
            f"child {' '.join(arguments)} exited {child.returncode}:\n"
            f"{stderr.decode('utf-8', 'replace')[-2000:]}")
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    if not lines:
        raise BenchFailure(f"child {' '.join(arguments)} printed nothing")
    return json.loads(lines[-1]), started
