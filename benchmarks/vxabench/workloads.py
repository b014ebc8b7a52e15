"""The four untraced workloads.  Each function runs inside a fresh child.

All four are closed loops driven by this one process: the next operation
starts when the previous one has returned.  Every operation is timed in
small units (one member, one request, one import) on a :class:`common.Clock`,
which compensates each unit for the machine's speed at that moment; the raw
wall time is kept beside it as ``*_wall_s``.  Each function returns

``{"ready": t, "samples": {name: [seconds, ...]}, "attempted": n,
   "failed": n, "problems": [text, ...]}``

plus ``ready`` and ``setup_correction``: ``time.monotonic()`` at the end of
set-up (imports, input generation, archive build, service start, warm-up),
from which the driver subtracts the moment it spawned the child, and what
to add to that wall-clock span to compensate it like every other time.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import threading
import time

import repro.api as vxa
from repro.client import VxServeClient, VxServeError
from repro.codecs.registry import default_registry
from repro.core.integrity import assess_media
from repro.parallel.service import BatchService

import calibration
import inputs
from common import BENCH_DIR, Clock, child_environment

#: Native passes per round of ``extract_mixed``: one is 0.15 s, too little
#: measured work for a steady median.
NATIVE_PASSES = 8


class Outcome:
    """Samples and the correctness tally of one child."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ready = 0.0
        self.setup_correction = 0.0

    def set_up(self, setup: Clock, correction: float = 0.0) -> None:
        """Set-up ends here."""
        self.setup_correction = setup.correction() + correction
        self.ready = time.monotonic()

    def add(self, name: str, compensated: float, wall: float) -> None:
        self.samples.setdefault(name, []).append(compensated)
        self.samples.setdefault(name[:-2] + "_wall_s", []).append(wall)

    def add_passes(self, name: str, clock: Clock, *units: str) -> None:
        """One sample per pass (``op_id``) of ``clock``: the sum of its units."""
        for compensated, wall in zip(clock.totals_by_op(*units),
                                     clock.totals_by_op(*units, raw=True)):
            self.add(name, compensated, wall)

    def check_tree(self, label: str, directory, expected: dict) -> None:
        wrong = inputs.tree_mismatches(directory, expected)
        self.attempted += len(expected)
        self.failed += len(wrong)
        if wrong:
            self.problems.append(f"{label}: wrong or missing output {wrong[:4]}")

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(label)

    def as_dict(self) -> dict:
        return {"ready": self.ready,
                "setup_correction": self.setup_correction,
                "samples": self.samples,
                "attempted": self.attempted, "failed": self.failed,
                "problems": self.problems}


def _rounds(seconds: float):
    """Yield round numbers until another round would overrun ``seconds``.

    Always yields at least once; the driver runs three children per run, so
    every timing has at least three passes.
    """
    start = time.perf_counter()
    count = 0
    while True:
        round_start = time.perf_counter()
        yield count
        count += 1
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            return


def _extract_by_member(clock: Clock, unit: str, op_id: int, archive_path,
                       options, names, out) -> None:
    """``vxa.open`` + ``extract_into``, one timed unit per member.

    One session extracts every member in archive order, exactly as a single
    ``extract_into`` call does; only the clock is finer, so that a
    calibration loop fits between members.
    """
    archive = clock.timed(unit, lambda: vxa.open(archive_path, options),
                          op_id=op_id)
    with archive:
        for name in names:
            clock.timed(unit, lambda: archive.extract_into(out, [name]),
                        op_id=op_id)


def extract_mixed(seed: int, seconds: float, shape, scratch: pathlib.Path,
                  setup: Clock) -> dict:
    outcome = Outcome()
    clock = Clock("extract_mixed")
    archive_path = scratch / "mixed.zip"
    with setup.unit("inputs"):
        members = inputs.mixed_members(seed, shape)
    with setup.unit("build"):
        inputs.build_archive(archive_path, members)
        expected = inputs.expected_outputs(archive_path, members)
    names = [member.name for member in members]
    archived = vxa.ReadOptions(mode=vxa.MODE_VXA,
                               reuse=vxa.VmReusePolicy.REUSE_SAME_ATTRIBUTES)
    native = archived.with_changes(mode=vxa.MODE_NATIVE)
    # Warm-up: one member per decoder through its archived decoder fills the
    # process-wide analysis and compiled-fragment memos, which a user's
    # second member finds filled too.
    first_of = {}
    for member in members:
        first_of.setdefault(member.codec, member.name)
    with vxa.open(archive_path, archived) as archive:
        for name in first_of.values():
            setup.timed("warmup", lambda: archive.extract_to(name, io.BytesIO()))
    outcome.set_up(setup)

    # The two configurations alternate round by round, so machine drift hits
    # them equally: the archived decoders (the paper's Figure-7 numerator),
    # then native decoders over the same bytes (its denominator).
    for number in _rounds(seconds):
        out = scratch / f"out-vxa-{number}"
        _extract_by_member(clock, "vxa", number, archive_path, archived,
                           names, out)
        outcome.check_tree(f"vxa pass {number}", out, expected)
        shutil.rmtree(out)
        for repeat in range(NATIVE_PASSES):
            out = scratch / f"out-native-{number}-{repeat}"
            _extract_by_member(clock, "native", number * NATIVE_PASSES + repeat,
                               archive_path, native, names, out)
            outcome.check_tree(f"native pass {number}.{repeat}", out, expected)
            shutil.rmtree(out)
    outcome.add_passes("op_s", clock, "vxa")
    outcome.add_passes("alt_op_s", clock, "native")
    return outcome.as_dict()


def cold_cli(seed: int, seconds: float, shape, scratch: pathlib.Path,
             setup: Clock) -> dict:
    outcome = Outcome()
    archive_path = scratch / "tiny.zip"
    with setup.unit("inputs"):
        members = inputs.tiny_members(seed, shape)
        inputs.build_archive(archive_path, members)
        expected = inputs.expected_outputs(archive_path, members)
    names = [member.name for member in members]
    environment = child_environment()

    def cold(out, *flags) -> tuple[float, float, bool]:
        """One fresh interpreter; (compensated s, wall s, every exit was 0)."""
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "cold_start.py"),
             str(archive_path), str(out), *flags, "--", *names],
            env=environment, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, check=False)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            return elapsed, elapsed, False
        report = json.loads(done.stdout.decode().strip().splitlines()[-1])
        # The CLI's work in there, plus interpreter start and exit around it;
        # the calibration loops and the launcher's own lines are left out.
        wall = sum(report["units"]) + (elapsed - report["inside"])
        speed = statistics.fmean(report["loops"]) / calibration.NOMINAL_S
        return wall / speed, wall, not any(report["codes"])

    # Warm-up (bytecode files, page cache): a run that compensates itself,
    # so its correction is its compensated time minus all it took here.
    start = time.perf_counter()
    compensated, _, _ = cold(scratch / "warmup", "--vxa")
    correction = compensated - (time.perf_counter() - start)
    shutil.rmtree(scratch / "warmup", ignore_errors=True)
    outcome.set_up(setup, correction)

    for number in _rounds(seconds):
        # op_s: archived decoders.  alt_op_s: the same command on native
        # decoders -- interpreter start, imports, zipformat and output, but
        # no analysis, VM construction or translation.
        for name, flags in (("op_s", ("--vxa",)), ("alt_op_s", ())):
            out = scratch / f"out-{name}-{number}"
            compensated, wall, ok = cold(out, *flags)
            outcome.add(name, compensated, wall)
            outcome.check(f"{name} run {number} exited non-zero", ok)
            outcome.check_tree(f"{name} run {number}", out, expected)
            shutil.rmtree(out, ignore_errors=True)
    return outcome.as_dict()


def archive_io(seed: int, seconds: float, shape, scratch: pathlib.Path,
               setup: Clock) -> dict:
    outcome = Outcome()
    clock = Clock("archive_io")
    with setup.unit("inputs"):
        members = inputs.bulk_members(seed, shape)
    names = [member.name for member in members]
    expected = {member.name: member.data for member in members}
    registry = default_registry()
    for codec in sorted({member.codec for member in members if member.codec}):
        # Built once per process.
        setup.timed("images", registry.get(codec).guest_decoder_image)
    archive_path = scratch / "bulk.zip"
    outcome.set_up(setup)

    for number in _rounds(seconds):
        builder = clock.timed("create", lambda: vxa.create(archive_path),
                              op_id=number)
        with builder:
            for member in members:
                clock.timed("create", op_id=number,
                            call=lambda: inputs.add_member(builder, member))
            # Directory, commit record, fsync, rename.
            clock.timed("create", builder.close, op_id=number)
        out = scratch / f"out-{number}"
        # Strict open (commit record verified), default auto mode, durable.
        _extract_by_member(clock, "extract", number, archive_path, None,
                           names, out)
        outcome.check_tree(f"extract {number}", out, expected)
        shutil.rmtree(out)
        verdict = clock.timed("assess_media", op_id=number,
                              call=lambda: assess_media(str(archive_path)))
        outcome.check(f"assess_media {number}: {verdict.classification()}",
                      verdict.classification() == "clean")
    outcome.add_passes("op_s", clock, "extract")
    outcome.add_passes("alt_op_s", clock, "create")
    outcome.add_passes("assess_media_s", clock, "assess_media")
    return outcome.as_dict()


class Served:
    """One in-process ``BatchService`` on a unix socket, fully torn down.

    ``executor="thread"`` is not a detail: the default ``auto`` becomes a
    forkserver process pool on any multi-core machine, and its helper
    processes outlive ``close()``.
    """

    def __init__(self, scratch: pathlib.Path):
        self.service = BatchService(jobs=2, executor=vxa.EXECUTOR_THREAD,
                                    max_inflight=8)
        # AF_UNIX paths are capped near 100 bytes and checkouts can be deep.
        self.socket_path = os.path.relpath(scratch / "s")
        self._thread = threading.Thread(target=self.service.serve_socket,
                                        args=(self.socket_path,),
                                        name="vxserve-accept")
        self._thread.start()
        deadline = time.monotonic() + 10
        while not os.path.exists(self.socket_path):
            if time.monotonic() > deadline:
                raise RuntimeError("vxserve socket never appeared")
            time.sleep(0.005)

    def client(self, name: str) -> VxServeClient:
        # retries=0: a refusal is a failed operation, not something to hide.
        return VxServeClient(self.socket_path, client_id=name, retries=0,
                             timeout=120)

    def close(self) -> None:
        with self.client("teardown") as client:
            client.shutdown()
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            raise RuntimeError("vxserve accept loop did not stop")
        self.service.close()


def serve_roundtrip(seed: int, seconds: float, shape,
                    scratch: pathlib.Path, setup: Clock) -> dict:
    outcome = Outcome()
    clock = Clock("serve_roundtrip")
    archive_path = scratch / "hot.zip"
    with setup.unit("inputs"):
        members = inputs.hot_members(seed, shape)
        inputs.build_archive(archive_path, members)
        expected = inputs.expected_outputs(archive_path, members)
    with setup.unit("service"):
        served = Served(scratch)
    destinations = []
    try:
        with served.client("bench") as client:
            for index in range(2):
                setup.timed("warmup", lambda: client.extract(
                    archive_path, scratch / f"warm-{index}",
                    mode=vxa.MODE_VXA))
            outcome.set_up(setup)

            def request(unit: str, call) -> dict | None:
                try:
                    return clock.timed(unit, call)
                except VxServeError as error:
                    outcome.check(f"{unit} request not ok: {error!r}", False)
                    return None

            # One closed-loop client: with two, the requests share the
            # service's interpreter lock and no calibration loop fits
            # between them (their spread is 7-9%; the traced run reports
            # the two-client figures).
            for number in _rounds(seconds):
                dest = scratch / f"dest-{number}"
                destinations.append(dest)
                request("extract", lambda: client.extract(
                    archive_path, dest, mode=vxa.MODE_VXA))
                # alt_op_s: ``check`` -- the same members through the same
                # archived decoders, nothing written: what is left of the
                # round trip without output and fsync.  (A native-mode
                # extract, 13 ms, would isolate the service path better, but
                # its ten-run spread is 11-14%: six threads handing over one
                # interpreter lock.)
                verdict = request("check", lambda: client.check(archive_path))
                outcome.check(f"check {number} did not pass",
                              verdict is not None and verdict["ok"]
                              and verdict["passed"] == len(members))
    finally:
        served.close()

    for dest in destinations:
        outcome.check_tree(f"response {dest.name}", dest, expected)
    for name, unit in (("op_s", "extract"), ("alt_op_s", "check")):
        for compensated, wall in zip(clock.durations(unit),
                                     clock.durations(unit, raw=True)):
            outcome.add(name, compensated, wall)
    return outcome.as_dict()


WORKLOADS = {
    "extract_mixed": extract_mixed,
    "cold_cli": cold_cli,
    "archive_io": archive_io,
    "serve_roundtrip": serve_roundtrip,
}
