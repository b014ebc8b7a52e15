"""Driver side of the traced run: start the probes, derive the layer table.

Self times come out of subtraction -- a level minus the level below it --
so every top figure equals the sum of its rows by construction.  A
difference smaller than the quartile spread of either operand is listed in
``unresolved`` and the table prints it as such, not as a number.
"""

from __future__ import annotations

import math
import pathlib
import time
from statistics import fmean, median, quantiles

from common import (
    DECODERS,
    BenchFailure,
    Clock,
    new_run,
    run_children,
    spread,
)

#: Fresh interpreters for the once-per-process rows (cold decode, analysis
#: without its memo, image build): one sample each, never fewer than three.
COLD_CHILDREN = 3

#: Probe -> the workload whose layers it takes apart.
PROBES = {"probe_cold": "cold_cli", "probe_extract": "extract_mixed",
          "probe_archive": "archive_io", "probe_serve": "serve_roundtrip"}


def span_cost() -> float:
    """Seconds one recorded span adds, measured on the recorder itself."""
    recorder = Clock("overhead")
    recorder.calibrate()
    count = 5000
    start = time.perf_counter()
    for _ in range(count):
        recorder.timed("empty", int)
    return (time.perf_counter() - start) / count


def collect(seed: int, seconds: float, shape: str,
            scratch: pathlib.Path) -> dict:
    """One traced run: every probe in fresh children, then the arithmetic."""
    run = new_run()
    samples = run["samples"]
    traced: dict[str, tuple[int, float]] = {}
    for probe, workload in PROBES.items():
        children = (COLD_CHILDREN if probe == "probe_cold" and shape != "smoke"
                    else 1)
        for result, _ in run_children(probe, children, seed, seconds, shape,
                                      scratch, run):
            samples.setdefault("api.import_s", []).append(result["import_s"])
            count, busy = traced.get(workload, (0, 0.0))
            traced[workload] = (count + result["span_count"],
                                busy + result["span_seconds"])
    run["unresolved"] = derive(samples, traced)
    return run


def derive(samples: dict, traced: dict) -> set[str]:
    """Add the rows that are arithmetic on measured ones; name the unresolved."""
    unresolved: set[str] = set()

    def minus(row: str, upper: str, *lowers: str) -> None:
        """``row = median(upper) - sum of median(lower)``."""
        value = median(samples[upper])
        noise = spread(samples[upper])
        for lower in lowers:
            value -= median(samples[lower])
            noise = max(noise, spread(samples[lower]))
        samples[row] = [value]
        if abs(value) <= noise:
            unresolved.add(row)

    ratios = []
    for decoder in DECODERS:
        warm = samples[f"vm.warm_decode_s.{decoder}"]
        minus(f"vm.translate_s.{decoder}", f"vm.cold_decode_s.{decoder}",
              f"vm.warm_decode_s.{decoder}")
        instructions = _exact(samples, f"vm.guest_insns.{decoder}")
        samples[f"vm.ns_per_guest_insn.{decoder}"] = [
            value / instructions * 1e9 for value in warm]
        ratios.append(median(warm)
                      / median(samples[f"codecs.native_decode_s.{decoder}"]))
        for count in ("analysis.proved_sites", "vm.fragments", "vm.chained",
                      "vm.guards_elided", "vm.syscalls",
                      "vm.syscalls_per_out_kb"):
            _exact(samples, f"{count}.{decoder}")
    samples["vm.native_ratio_geomean"] = [
        math.exp(fmean(math.log(ratio) for ratio in ratios))]

    # extract: durable = fsync + write + member overhead + decode + zip read
    minus("output.fsync_s", "level.extract_durable", "level.extract_plain")
    minus("output.write_s", "level.extract_plain", "level.extract_to")
    minus("api.member_overhead_s", "level.extract_to", "level.vm_decode",
          "level.zip_read")
    minus("output.finalize_fsync_s", "level.create_durable",
          "level.create_plain")

    # parallel: jobs=2 pass = slowest shard's busy time + everything else
    shards = sorted(key for key in samples if key.startswith("level.shard_alone."))
    busy = [median(samples[key]) for key in shards]
    samples["parallel.busy_imbalance"] = [max(busy) / fmean(busy)]
    samples["level.slowest_shard"] = samples[shards[busy.index(max(busy))]]
    minus("parallel.overhead_s", "level.extract_jobs2", "level.slowest_shard")
    samples["parallel.speedup_jobs2"] = [
        median(samples["level.extract_durable"])
        / median(samples["level.extract_jobs2"])]

    # vxserve: rtt = wire + handle; handle > shard > decode
    rtt = samples["level.serve_rtt"]
    samples["client.rtt_1client_s"] = rtt
    samples["service.handle_s"] = samples["level.serve_handle"]
    samples["service.shard_s"] = samples["level.serve_shard"]
    minus("service.wire_s", "level.serve_rtt", "level.serve_handle")
    samples["service.rtt_p90_s"] = [quantiles(rtt, n=10)[-1]]
    samples["service.decode_share"] = [
        median(samples["level.serve_vm_decode"]) / median(rtt)]

    # What the span recorder itself costs, as a share of the traced work.
    cost = span_cost()
    for workload, (count, busy_seconds) in traced.items():
        samples[f"trace.overhead_frac.{workload}"] = [
            count * cost / busy_seconds]
    return unresolved


def _exact(samples: dict, row: str):
    """A count: every child must have reported the same value."""
    values = set(samples[row])
    if len(values) != 1:
        raise BenchFailure(f"count {row} did not repeat exactly: {sorted(values)}")
    samples[row] = [samples[row][0]]
    return samples[row][0]
