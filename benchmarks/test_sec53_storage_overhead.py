"""Section 5.3: decoder storage overhead and its amortisation.

The paper's worked example: a 2.5-minute song compressed with the lossy Ogg
codec occupies 2.2 MB, so the 130 KB archived Vorbis decoder is a 6% space
overhead for a single-song archive, 0.6% for a ten-song album, and the FLAC
decoder against a 24 MB lossless file is a negligible 0.2%.

This benchmark rebuilds that table with the reproduction's codecs: archives
holding 1 and 10 synthetic songs, lossy (vxsnd) and lossless (vxflac), and
reports decoder-bytes / archive-bytes.  The absolute sizes differ (shorter
songs, leaner decoders) but the amortisation shape -- overhead falling
roughly as 1/N and the lossless case being far below the lossy one -- is the
reproduced result.
"""

import io

import repro.api as vxa
from repro.bench.reporting import format_kb, format_percent, format_table
from repro.formats.wav import write_wav
from repro.workloads.audio import synthetic_music

SONG_SECONDS = 1.5
SAMPLE_RATE = 22050


def _songs(count: int) -> dict[str, bytes]:
    return {
        f"album/track{index:02d}.wav": write_wav(
            synthetic_music(seconds=SONG_SECONDS, sample_rate=SAMPLE_RATE,
                            channels=2, seed=100 + index)
        )
        for index in range(count)
    }


def _build_archive(files: dict[str, bytes], *, lossy: bool):
    buffer = io.BytesIO()
    with vxa.create(buffer, vxa.WriteOptions(allow_lossy=lossy)) as builder:
        for name, data in files.items():
            builder.add(name, data, codec="vxsnd" if lossy else "vxflac")
        manifest = builder.finish()
    return buffer.getvalue(), manifest


def test_sec53_storage_overhead(benchmark, emit_report):
    one_song = _songs(1)
    ten_songs = _songs(10)

    def build_all():
        return {
            ("lossy", 1): _build_archive(one_song, lossy=True),
            ("lossy", 10): _build_archive(ten_songs, lossy=True),
            ("lossless", 1): _build_archive(one_song, lossy=False),
            ("lossless", 10): _build_archive(ten_songs, lossy=False),
        }

    archives = benchmark.pedantic(build_all, rounds=1, iterations=1)

    paper_reference = {
        ("lossy", 1): "6% (130KB Ogg decoder vs 2.2MB song)",
        ("lossy", 10): "0.6% (ten-song album)",
        ("lossless", 1): "0.2% (48KB FLAC decoder vs 24MB file)",
        ("lossless", 10): "(not reported)",
    }
    rows = []
    overheads = {}
    for (kind, count), (archive, manifest) in archives.items():
        overhead = manifest.decoder_overhead_fraction
        overheads[(kind, count)] = overhead
        rows.append(
            [
                kind,
                count,
                format_kb(len(archive)),
                format_kb(manifest.decoder_overhead_bytes),
                format_percent(overhead),
                paper_reference[(kind, count)],
            ]
        )
    table = format_table(
        ["Codec class", "Songs", "Archive size", "Decoder bytes", "Decoder overhead",
         "Paper reference point"],
        rows,
        title="Section 5.3: Decoder Storage Overhead (reproduction)",
    )
    emit_report("sec53_storage_overhead", table)

    # Shape assertions: overhead is modest for a single file, amortises by
    # roughly the number of files sharing the decoder, and the lossless
    # archive (much larger payload per decoder byte) sits well below the
    # lossy one.
    assert overheads[("lossy", 1)] < 0.5
    assert overheads[("lossy", 10)] < overheads[("lossy", 1)] / 4
    assert overheads[("lossless", 1)] < overheads[("lossy", 1)]
    assert overheads[("lossless", 10)] < overheads[("lossless", 1)]
