"""Time the six Figure-7 decoders and write machine-readable ``BENCH_vm.json``.

Stand-alone perf tracker for the VM translation engine (run it from the repo
root)::

    PYTHONPATH=src python benchmarks/bench_vm.py

Each decoder's workload is decoded natively and under the VXA VM's
superblock translator.  Two VM timings are recorded:

* ``vm_cold_seconds`` -- a fresh VM, first decode: includes superblock
  translation and compilation,
* ``vm_warm_seconds`` -- the same VM decoding again with its code cache
  populated: the steady state an archive session reaches after its first
  member, and the closest analogue of the paper's measurement.

Each decoder is additionally timed with analysis-driven guard elision
disabled (``analysis_elision=False``), isolating what the static verifier's
proofs buy at run time; ``elision_speedup_warm`` is the ratio of the two
warm timings (> 1 means elision helps).

The output lands in ``BENCH_vm.json`` at the repository root so successive
PRs can track the VM/native trajectory; the headline ``geomean`` ratios are
the ones the ROADMAP's "VM performance" section quotes.
"""

from __future__ import annotations

import json
import math
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.harness import standard_workloads, time_callable  # noqa: E402
from repro.vm.machine import ENGINE_TRANSLATOR, VirtualMachine     # noqa: E402

DECODER_ORDER = ("vxz", "vxbwt", "vximg", "vxjp2", "vxflac", "vxsnd")


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(value) for value in values) / len(values))


def _time_vm(image: bytes, encoded: bytes, *, analysis_elision: bool,
             warm_repeats: int = 3):
    # A bare VM starts on an empty fragment table of its own (cold however
    # warm the process is) and keeps it across the resets between decodes.
    vm = VirtualMachine(image, engine=ENGINE_TRANSLATOR,
                        analysis_elision=analysis_elision)
    start = time.perf_counter()
    cold = vm.decode(encoded)
    cold_seconds = time.perf_counter() - start
    # Best-of-N warm runs: the minimum is the least noise-contaminated
    # estimate of the steady state on a busy box.
    warm_seconds = float("inf")
    for _ in range(warm_repeats):
        start = time.perf_counter()
        warm = vm.decode(encoded)
        warm_seconds = min(warm_seconds, time.perf_counter() - start)
    return cold, warm, cold_seconds, warm_seconds


def bench_decoder(workload) -> dict:
    codec = workload.codec
    encoded = workload.encoded
    native_seconds = time_callable(lambda: codec.decode(encoded), repeats=3)

    image = codec.guest_decoder_image()
    cold, warm, vm_cold_seconds, vm_warm_seconds = _time_vm(
        image, encoded, analysis_elision=True)
    if cold.exit_code != 0:
        raise RuntimeError(f"guest decoder {codec.name} failed: {cold.stderr!r}")
    if warm.output != cold.output:
        raise RuntimeError(f"warm decode diverged for {codec.name}")

    # Elision ablation: identical VM with every dynamic bounds guard kept.
    plain_cold, plain_warm, _, plain_warm_seconds = _time_vm(
        image, encoded, analysis_elision=False)
    if plain_warm.output != cold.output:
        raise RuntimeError(f"no-elision decode diverged for {codec.name}")
    if plain_cold.stats.guards_elided != 0:
        raise RuntimeError(f"ablation leaked elision for {codec.name}")

    stats = cold.stats
    return {
        "native_seconds": round(native_seconds, 6),
        "vm_cold_seconds": round(vm_cold_seconds, 6),
        "vm_warm_seconds": round(vm_warm_seconds, 6),
        "vm_warm_seconds_no_elision": round(plain_warm_seconds, 6),
        "vm_native_ratio_cold": round(vm_cold_seconds / native_seconds, 2),
        "vm_native_ratio_warm": round(vm_warm_seconds / native_seconds, 2),
        "elision_speedup_warm": round(plain_warm_seconds / vm_warm_seconds, 3),
        "guards_elided": stats.guards_elided,
        "guest_instructions": stats.instructions,
        "fragments_translated": stats.fragments_translated,
        "chained_branches": stats.chained_branches,
        "output_bytes": stats.bytes_written,
    }


def main() -> int:
    workloads = standard_workloads()
    decoders = {}
    for name in DECODER_ORDER:
        decoders[name] = bench_decoder(workloads[name])
        row = decoders[name]
        print(f"{name:7s} native {row['native_seconds'] * 1000:7.1f}ms  "
              f"vm cold {row['vm_cold_seconds'] * 1000:7.1f}ms "
              f"({row['vm_native_ratio_cold']:.1f}x)  "
              f"warm {row['vm_warm_seconds'] * 1000:7.1f}ms "
              f"({row['vm_native_ratio_warm']:.1f}x)  "
              f"elision {row['elision_speedup_warm']:.2f}x "
              f"({row['guards_elided']} guard(s))")

    payload = {
        "schema": "vxa-bench-vm/1",
        "generated_unix_time": round(time.time(), 1),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "engine": ENGINE_TRANSLATOR,
        "decoders": decoders,
        "geomean_vm_native_ratio_cold": round(_geomean(
            row["vm_native_ratio_cold"] for row in decoders.values()), 2),
        "geomean_vm_native_ratio_warm": round(_geomean(
            row["vm_native_ratio_warm"] for row in decoders.values()), 2),
        "geomean_elision_speedup_warm": round(_geomean(
            row["elision_speedup_warm"] for row in decoders.values()), 3),
    }
    target = REPO_ROOT / "BENCH_vm.json"
    target.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"geomean VM/native: cold {payload['geomean_vm_native_ratio_cold']}x, "
          f"warm {payload['geomean_vm_native_ratio_warm']}x, "
          f"elision speedup {payload['geomean_elision_speedup_warm']}x  -> {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
