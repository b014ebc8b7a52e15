"""Table 2: code size of virtualised decoders.

Paper Table 2 reports, for each decoder: total code size, the split between
the decoder proper and the statically-linked C library, and the
deflate-compressed size in which the decoder is actually stored inside a
vxZIP archive (46-233 KB total, 26-130 KB compressed; the library accounts
for 10-30% of each image).

Here the decoders are vxc programs linked against the vxc runtime and shared
guest libraries; the compiler records the same provenance split, and the
compressed size uses the same fixed deflate algorithm vxZIP embeds decoders
with.  Absolute sizes are smaller than the paper's (our codecs are leaner
than libjpeg/JasPer/libvorbis); the shape preserved is the ordering (image
and audio decoders larger than the general-purpose ones), the library share,
and the roughly 2x deflate saving.
"""

from conftest import emit_report

from repro.bench.harness import decoder_size_rows
from repro.bench.reporting import format_kb, format_percent, format_table

#: Paper Table 2 (total KB, compressed KB) for the side-by-side column.
PAPER_TABLE2 = {
    "vxz": (46.0, 26.2),       # zlib
    "vxbwt": (71.1, 29.9),     # bzip2
    "vximg": (103.3, 48.6),    # jpeg
    "vxjp2": (220.2, 105.9),   # jp2
    "vxflac": (102.5, 47.6),   # flac
    "vxsnd": (233.4, 129.7),   # vorbis
}


def test_table2_decoder_sizes(benchmark, registry):
    rows_raw = benchmark.pedantic(
        lambda: decoder_size_rows(registry=registry), rounds=1, iterations=1
    )

    rows = []
    for row in rows_raw:
        paper_total, paper_compressed = PAPER_TABLE2[row["decoder"]]
        rows.append(
            [
                row["decoder"],
                format_kb(row["total_bytes"]),
                f"{format_kb(row['decoder_bytes'])} ({format_percent(row['decoder_share'])})",
                f"{format_kb(row['library_bytes'])} ({format_percent(row['library_share'])})",
                format_kb(row["compressed_bytes"]),
                f"{paper_total:.0f}KB / {paper_compressed:.0f}KB",
            ]
        )
    table = format_table(
        ["Decoder", "Total", "Decoder", "Runtime library", "Compressed (deflate)",
         "Paper total/compressed"],
        rows,
        title="Table 2: Code Size of Virtualized Decoders (reproduction)",
    )
    # The split is by emitted function (br_bit, out_byte, tk_byte, ... are
    # mostly generated into their callers), so say what the columns count.
    table += ("\nLibrary code generated in place of a call counts under the "
              "function it was generated into (vxc 0.3).\n")
    emit_report("table2_decoder_sizes", table)

    by_name = {row["decoder"]: row for row in rows_raw}
    # Shape assertions mirroring the paper's table:
    # 1. every decoder carries both decoder code and library code;
    for row in rows_raw:
        assert row["decoder_bytes"] > 0
        assert row["library_bytes"] > 0
        # 2. deflate shrinks each decoder image substantially (paper: ~2x).
        assert row["compressed_bytes"] < row["image_bytes"] * 0.8
    # 3. media decoders are bigger than the general-purpose pair, with the
    #    wavelet (jp2-class) decoder among the largest, as in the paper.
    general_max = max(by_name["vxz"]["total_bytes"], by_name["vxbwt"]["total_bytes"])
    assert by_name["vxjp2"]["total_bytes"] > general_max
    assert by_name["vximg"]["total_bytes"] > general_max
