"""Plumbing check for vxabench: names, units, exact counts, no survivors.

Runs the driver on the tiny ``--smoke`` shape, always with the same seed.
It asserts no timing -- timings are the benchmark's business, not tier-1's.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
DECLARATION = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

#: Per-layer rows that are counts of deterministic guest work.
EXACT = ("analysis.proved_sites.", "vm.guest_insns.", "vm.fragments.",
         "vm.chained.", "vm.guards_elided.", "vm.syscalls.",
         "vm.syscalls_per_out_kb.")


def _descendants(pid: int) -> list[int]:
    found = []
    for listing in pathlib.Path(f"/proc/{pid}/task").glob("*/children"):
        for child in listing.read_text().split():
            found.append(int(child))
            found.extend(_descendants(int(child)))
    return found


def _run(*arguments: str) -> str:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--seed", "7",
         *arguments],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done.stdout


def _contract_line(stdout: str, declared: list[dict]) -> dict:
    """The last line of a ``--workload`` run, checked against the contract."""
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    return result["metrics"]


def test_vxabench_smoke(tmp_path):
    # Earlier tests of this session may own helper processes of their own.
    before = set(_descendants(os.getpid()))

    # All four workloads and the layer table: every declared name is
    # printed, with its unit, and every output was correct.
    out = tmp_path / "all.json"
    stdout = _run("--traced", "--out", str(out))
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == {
        workload["name"] for workload in DECLARATION["workloads"]}
    for workload in report["workloads"].values():
        assert workload["failed"] == 0 and workload["attempted"] > 0
        for entry in DECLARATION["end_to_end"]:
            assert workload["metrics"][entry["name"]]["unit"] == entry["unit"]
    assert report["layers"]["failed"] == 0
    for entry in DECLARATION["per_layer"]:
        assert report["layers"]["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert f"\n{entry['name']} " in stdout
    assert set(report["machine"]) == {"nproc", "python", "platform",
                                      "loadavg_1m_at_start"}

    # The two result lines the contract asks for.
    _contract_line(_run("--workload", "serve_roundtrip", "--trace", "0"),
                   DECLARATION["end_to_end"])
    layers = _contract_line(_run("--workload", "archive_io", "--trace", "1"),
                            DECLARATION["per_layer"])

    # Counts of guest work repeat exactly between two runs of one seed.
    exact = [entry["name"] for entry in DECLARATION["per_layer"]
             if entry["name"].startswith(EXACT)]
    assert len(exact) == 7 * 6
    for name in exact:
        assert (layers[name]["value"]
                == report["layers"]["metrics"][name]["value"]), name

    # --compare reads what --out wrote; a run is never worse than itself.
    assert "worse" not in _run("--compare", str(out), str(out))

    # Nothing the benchmark started outlives it, and it left no scratch.
    assert set(_descendants(os.getpid())) - before == set()
    assert not list(REPO_ROOT.glob(".vxabench-*"))
