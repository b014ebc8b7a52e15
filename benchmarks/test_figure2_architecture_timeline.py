"""Figure 2: timeline of processor architectures.

The counterpart to Figure 1: across the same decades the dominant x86
architecture absorbed only a few backward-compatible changes (32-bit in
1985, vector extensions from 1996, 64-bit in 2003), and no competing
architecture displaced it.  Instruction encodings are therefore historically
more durable than data encodings -- the observation VXA is built on.
"""

from repro.bench.reporting import format_table
from repro.bench.timelines import (
    COMPRESSION_FORMATS,
    PROCESSOR_ARCHITECTURES,
    format_churn_summary,
)


def test_figure2_architecture_timeline(benchmark, emit_report):
    summary = benchmark(format_churn_summary)

    rows = [[event.year, event.name, event.category] for event in PROCESSOR_ARCHITECTURES]
    table = format_table(
        ["Year", "Milestone", "Category"],
        rows,
        title="Figure 2: Timeline of Processor Architectures (reproduction)",
    )
    table += (
        "\n\nHeadline comparison (the durability argument of section 1):\n"
        f"  new compression formats 1977-2005   : {summary['compression_formats_total']}\n"
        f"  x86 architectural changes 1978-2005 : {summary['x86_architectural_changes_total']}\n"
        f"  churn ratio (formats per x86 change): {summary['churn_ratio']}"
    )
    emit_report("figure2_architecture_timeline", table)

    x86_changes = [e for e in PROCESSOR_ARCHITECTURES if e.category == "x86-change"]
    other = [e for e in PROCESSOR_ARCHITECTURES if e.category == "other"]
    # Shape assertions: only a handful of x86 changes (the paper names three
    # classes: 32-bit, vector extensions, 64-bit), several non-x86 contenders,
    # and format churn far exceeding architecture churn.
    assert 3 <= len(x86_changes) <= 6
    assert any("32-bit" in e.name for e in x86_changes)
    assert any("64" in e.name for e in x86_changes)
    assert any("MMX" in e.name or "SSE" in e.name for e in x86_changes)
    assert len(other) >= 4
    assert len(COMPRESSION_FORMATS) > 2 * len(x86_changes)
    assert summary["churn_ratio"] >= 2.0
