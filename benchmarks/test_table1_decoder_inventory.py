"""Table 1: decoders implemented in the vxZIP/vxUnZIP prototype.

Paper Table 1 lists six decoders (two general-purpose, two still-image, two
audio), where each comes from, and the uncompressed format its decoder
produces.  This benchmark regenerates the same rows from the live codec
registry and times a full registry + guest-decoder build.
"""

from repro.bench.reporting import format_table
from repro.codecs.registry import CodecRegistry


def test_table1_decoder_inventory(benchmark, registry, emit_report):
    def build_inventory():
        # Rebuild a registry from scratch so the benchmark measures the cost
        # of assembling the codec plug-in set the archiver starts from.
        fresh = CodecRegistry()
        return fresh.inventory()

    rows_raw = benchmark(build_inventory)

    category_titles = {
        "general": "General-Purpose Codecs",
        "image": "Still Image Codecs",
        "audio": "Audio Codecs",
    }
    rows = []
    for category in ("general", "image", "audio"):
        rows.append([f"-- {category_titles[category]} --", "", "", ""])
        for row in rows_raw:
            if row["category"] != category:
                continue
            rows.append(
                [
                    row["decoder"],
                    row["description"],
                    row["availability"],
                    row["output_format"],
                ]
            )
    table = format_table(
        ["Decoder", "Description", "Availability", "Output Format"],
        rows,
        title="Table 1: Decoders Implemented in the vxZIP/vxUnZIP Prototype (reproduction)",
    )
    emit_report("table1_decoder_inventory", table)

    # The paper's shape: six decoders, 2 general / 2 image / 2 audio, and the
    # three uncompressed output formats (raw data, BMP, WAV).
    assert len(rows_raw) == 6
    categories = [row["category"] for row in rows_raw]
    assert categories.count("general") == 2
    assert categories.count("image") == 2
    assert categories.count("audio") == 2
    assert {row["output_format"] for row in rows_raw} == {
        "raw data",
        "BMP image",
        "WAV audio",
    }
