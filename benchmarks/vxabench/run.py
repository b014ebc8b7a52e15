"""vxabench: one benchmark for extract, cold start, archive I/O and vxserve.

Contract mode (what ``BENCHMARK.json`` runs)::

    python3 benchmarks/vxabench/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

runs one workload and prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer table with ``--trace 1``.

Without ``--workload`` the four workloads run one after another (add
``--traced`` for the layer table) and ``--out FILE`` saves every sample for
``--compare A.json B.json``.

The driver process never imports ``repro``.  Every measurement runs in a
fresh child that is waited for; each child, and the driver, ends by checking
that it leaves no process or thread behind, and exits non-zero otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import signal
import sys
import tempfile
import time

import compare
import table
from common import (
    REPO_ROOT,
    SRC_DIR,
    WORKLOADS,
    BenchFailure,
    Clock,
    fingerprint,
    leaked,
    new_run,
    peak_rss_mb,
    run_children,
    summarize,
)

#: Children per untraced run.  Set-up happens once per child, so a run sets
#: up three times and reports the median; pooling three interpreters also
#: averages out per-process layout and hash-seed luck.
CHILDREN = 3


def load_declaration() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# -- child side -------------------------------------------------------------

def child_main(args) -> int:
    """Run one workload (or one layer probe) in this fresh process."""
    # Set-up is timed in units like everything else, so that ``setup_s``
    # can be compensated: imports first, the workload adds its own.
    setup = Clock("setup")
    with setup.unit("import"):      # what every cold start pays first
        import repro.api  # noqa: F401
    probe = args.child in table.PROBES
    with setup.unit("import_rest"):
        import inputs
        if probe:
            import layers
        else:
            import workloads

    scratch = pathlib.Path(args.scratch)
    shape = inputs.SHAPES[args.shape]
    if probe:
        result = layers.PROBES[args.child](args.seed, args.seconds, shape,
                                           scratch)
    else:
        result = workloads.WORKLOADS[args.child](args.seed, args.seconds,
                                                 shape, scratch, setup)
    result["import_s"] = setup.durations("import")[0]
    result["peak_rss_mb"] = peak_rss_mb()
    result["leaked"] = leaked()
    print(json.dumps(result))
    return 1 if result["leaked"] else 0


# -- driver side ------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, shape: str,
                 scratch: pathlib.Path) -> dict:
    """One untraced run: ``CHILDREN`` fresh children, samples pooled."""
    run = new_run()
    children = 1 if shape == "smoke" else CHILDREN
    for result, spawned in run_children(name, children, seed,
                                        seconds / children, shape, scratch,
                                        run):
        run["samples"].setdefault("setup_s", []).append(
            result["ready"] - spawned + result["setup_correction"])
        run["samples"].setdefault("setup_wall_s", []).append(
            result["ready"] - spawned)
        run["samples"].setdefault("peak_rss_mb", []).append(
            result["peak_rss_mb"])
    return run


def metric_table(declared: list[dict], samples: dict) -> dict:
    """``{name: {value, unit, n, q1, q3}}`` for every declared metric."""
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in samples:
            raise BenchFailure(f"declared metric {name!r} was not measured")
        stats = summarize(samples[name])
        metrics[name] = {"value": stats["median"], "unit": entry["unit"],
                         "n": stats["n"], "q1": stats["q1"], "q3": stats["q3"]}
    return metrics


def print_table(title: str, metrics: dict, unresolved) -> None:
    print(f"== {title}")
    print(f"{'metric':42s} {'unit':>8s} {'n':>5s} {'median':>14s} "
          f"{'q1':>14s} {'q3':>14s}")
    for name, row in metrics.items():
        if name in unresolved:
            print(f"{name:42s} {row['unit']:>8s} {row['n']:5d} "
                  f"{'unresolved':>14s} (|{row['value']:.6g}| is inside the "
                  f"spread of its operands)")
        else:
            print(f"{name:42s} {row['unit']:>8s} {row['n']:5d} "
                  f"{row['value']:14.6g} {row['q1']:14.6g} {row['q3']:14.6g}")


def contract_line(run: dict, metrics: dict) -> str:
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in metrics.items()},
    })


def benchmark(args) -> int:
    declaration = load_declaration()
    if not (SRC_DIR / "repro").is_dir():
        raise BenchFailure(f"no program to measure: {SRC_DIR}/repro is missing")
    shape = "smoke" if args.smoke else "bench"
    seconds = args.seconds
    if seconds is None:
        seconds = 0.3 if args.smoke else float(declaration["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    traced = bool(args.trace) or args.traced
    contract = args.workload is not None

    # Inside the checkout, never outside it: the contract confines the
    # benchmark's reads and writes to the tree it was started in.
    scratch = pathlib.Path(tempfile.mkdtemp(prefix=".vxabench-", dir=REPO_ROOT))
    report = {"schema": "vxabench/1", "seed": args.seed, "shape": shape,
              "seconds": seconds, "machine": fingerprint(), "workloads": {}}
    failed = 0
    final_line = None

    def record(title: str, declared: list[dict], run: dict) -> dict:
        """Print one run's table; returns what ``--out`` keeps of it."""
        nonlocal failed, final_line
        metrics = metric_table(declared, run["samples"])
        unresolved = sorted(run.get("unresolved", ()))
        print_table(f"{title}, seed {args.seed}", metrics, unresolved)
        for problem in run["problems"]:
            print(f"!! {title}: {problem}")
        failed += run["failed"]
        final_line = contract_line(run, metrics)
        return {"metrics": metrics, "samples": run["samples"],
                "unresolved": unresolved, "attempted": run["attempted"],
                "failed": run["failed"]}

    try:
        if not (contract and traced):
            for name in names:
                report["workloads"][name] = record(
                    f"{name} (untraced)", declaration["end_to_end"],
                    run_workload(name, args.seed, seconds, shape, scratch))
        if traced:
            report["layers"] = record(
                "layers (traced)", declaration["per_layer"],
                table.collect(args.seed, seconds, shape, scratch))
            if args.spans_out:
                shutil.copyfile(scratch / "spans.jsonl", args.spans_out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if contract:
        print(final_line)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="vxabench: extract, cold start, archive I/O and vxserve")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and end with the contract's "
                             "JSON line (default: all four, tables only)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 prints the per-layer table "
                             "instead of the end-to-end metrics")
    parser.add_argument("--traced", action="store_true",
                        help="also print the per-layer table")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass: checks the plumbing")
    parser.add_argument("--out", help="write every sample as JSON here")
    parser.add_argument("--spans-out", help="copy the traced run's spans "
                                            "(JSONL) here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files and exit")
    # Internal: the fresh-child entry point.
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--shape", default="bench", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # A terminated run unwinds like an interrupted one: children killed,
    # scratch removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.child:
        return child_main(args)
    if args.compare:
        return compare.main(*args.compare, load_declaration())
    try:
        code = benchmark(args)
    except BenchFailure as error:
        print(f"vxabench: {error}", file=sys.stderr)
        return 2
    problems = leaked()
    if problems:
        print(f"vxabench: left behind: {problems}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
