"""``run.py --compare A.json B.json``: did B get worse than A?

Per workload and metric: both medians, the change with its base, the bound
fixed in ``BENCHMARK.json`` and a verdict:

* ``worse``      -- B's median is worse than A's by more than the bound;
* ``better``     -- B's median is better and the quartile ranges are apart;
* ``same``       -- neither;
* ``unresolved`` -- the quartile ranges overlap and either of them is wider
  than the bound: the run-to-run spread hides a change of that size (unless
  every sample of B beats every sample of A, which is ``better``).

Exit status 1 when any row is ``worse``.
"""

from __future__ import annotations

import json

from common import summarize


def verdict(a: list[float], b: list[float], better: str,
            bound: float | None) -> tuple[str, float]:
    stats_a, stats_b = summarize(a), summarize(b)
    base = stats_a["median"]
    change = (stats_b["median"] - base) / base if base else 0.0
    worsening = change if better == "lower" else -change
    if better == "lower":
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if all_better:
        return "better", change
    apart = (stats_a["q3"] < stats_b["q1"] or stats_b["q3"] < stats_a["q1"])
    if bound is not None and base:
        widest = max(stats_a["q3"] - stats_a["q1"],
                     stats_b["q3"] - stats_b["q1"]) / abs(base)
        if not apart and widest > bound:
            return "unresolved", change
        if worsening > bound:
            return "worse", change
    if apart and worsening < 0:
        return "better", change
    return "same", change


def rows(report: dict, declaration: dict):
    """``(section, metric, samples, better, bound)`` for every declared metric."""
    for name, workload in report.get("workloads", {}).items():
        for entry in declaration["end_to_end"]:
            yield (name, entry["name"], workload["samples"][entry["name"]],
                   entry["better"], entry["bound"])
    if "layers" in report:
        for entry in declaration["per_layer"]:
            yield ("layers", entry["name"],
                   report["layers"]["samples"][entry["name"]],
                   entry["better"], None)


def main(path_a: str, path_b: str, declaration: dict) -> int:
    with open(path_a, encoding="utf-8") as file:
        report_a = json.load(file)
    with open(path_b, encoding="utf-8") as file:
        report_b = json.load(file)
    other = {(section, metric): samples
             for section, metric, samples, _, _ in rows(report_b, declaration)}
    print(f"A = {path_a}  {report_a['machine']}")
    print(f"B = {path_b}  {report_b['machine']}")
    print(f"{'workload':16s} {'metric':34s} {'median A':>12s} {'median B':>12s} "
          f"{'change':>9s} {'bound':>6s}  verdict")
    worse = 0
    for section, metric, a, better, bound in rows(report_a, declaration):
        b = other.get((section, metric))
        if b is None:
            continue
        word, change = verdict(a, b, better, bound)
        worse += word == "worse"
        limit = "-" if bound is None else f"{bound:.2f}"
        print(f"{section:16s} {metric:34s} {summarize(a)['median']:12.6g} "
              f"{summarize(b)['median']:12.6g} {change:+8.1%} of A "
              f"{limit:>6s}  {word}")
    return 1 if worse else 0
