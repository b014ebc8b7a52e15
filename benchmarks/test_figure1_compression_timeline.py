"""Figure 1: timeline of data compression formats.

The figure's argument is that popular compression formats change every few
years, with the lossy-multimedia explosion of the 1990s accelerating the
churn.  This benchmark regenerates the timeline series and the per-decade
churn statistics derived from it.
"""

from repro.bench.reporting import format_table
from repro.bench.timelines import COMPRESSION_FORMATS, events_per_decade, format_churn_summary


def test_figure1_compression_timeline(benchmark, emit_report):
    summary = benchmark(format_churn_summary)

    rows = [[event.year, event.name, event.category] for event in COMPRESSION_FORMATS]
    table = format_table(
        ["Year", "Format", "Category"],
        rows,
        title="Figure 1: Timeline of Data Compression Formats (reproduction)",
    )
    per_decade = events_per_decade(COMPRESSION_FORMATS)
    decade_rows = [[decade, count] for decade, count in per_decade.items()]
    table += "\n\n" + format_table(
        ["Decade", "New formats introduced"], decade_rows,
        title="Format churn per decade",
    )
    table += (
        f"\n\nNew compression formats per year (1977-2005): "
        f"{summary['formats_per_year']}"
    )
    emit_report("figure1_compression_timeline", table)

    # Shape assertions: the timeline spans the PC era, covers all four content
    # categories, and the 1990s/2000s show the multimedia acceleration the
    # paper describes (more new formats than the preceding decades combined).
    years = [event.year for event in COMPRESSION_FORMATS]
    assert min(years) <= 1980 and max(years) >= 2003
    categories = {event.category for event in COMPRESSION_FORMATS}
    assert categories == {"general", "image", "audio", "video"}
    early = sum(count for decade, count in per_decade.items() if decade in ("1970s", "1980s"))
    late = sum(count for decade, count in per_decade.items() if decade in ("1990s", "2000s"))
    assert late > early
    assert summary["compression_formats_total"] >= 15
