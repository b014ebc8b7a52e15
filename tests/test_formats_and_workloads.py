"""Tests for the uncompressed container formats, workload generators and
bench-support modules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.reporting import banner, format_kb, format_percent, format_ratio, format_table
from repro.bench.timelines import (
    COMPRESSION_FORMATS,
    PROCESSOR_ARCHITECTURES,
    events_per_decade,
    format_churn_summary,
)
from repro.errors import FormatError
from repro.formats.bmp import is_bmp, read_bmp, write_bmp
from repro.formats.ppm import is_ppm, read_ppm, write_ppm
from repro.formats.wav import WavAudio, is_wav, read_wav, write_wav
from repro.workloads.audio import synthetic_music, synthetic_speech
from repro.workloads.images import synthetic_diagram, synthetic_photo
from repro.workloads.text import synthetic_log_bytes, synthetic_source_file, synthetic_source_tree_bytes


# -- BMP ---------------------------------------------------------------------------


def test_bmp_round_trip():
    pixels = synthetic_photo(37, 23, seed=1)
    data = write_bmp(pixels)
    assert is_bmp(data)
    assert np.array_equal(read_bmp(data), pixels)


def test_bmp_row_padding_and_bottom_up_layout():
    pixels = np.zeros((2, 3, 3), dtype=np.uint8)
    pixels[0, 0] = (255, 0, 0)            # top-left red
    data = write_bmp(pixels)
    # stride = 3*3 rounded up to 12; bottom row written first.
    assert len(data) == 54 + 12 * 2
    # Top-left pixel is the first pixel of the *second* stored row, BGR order.
    assert data[54 + 12 : 54 + 15] == bytes([0, 0, 255])


def test_bmp_rejects_garbage():
    with pytest.raises(FormatError):
        read_bmp(b"not a bitmap")
    with pytest.raises(FormatError):
        write_bmp(np.zeros((4, 4), dtype=np.uint8))


# -- WAV ---------------------------------------------------------------------------


def test_wav_round_trip_stereo():
    audio = synthetic_music(seconds=0.1, sample_rate=8000, channels=2, seed=2)
    data = write_wav(audio)
    assert is_wav(data)
    parsed = read_wav(data)
    assert parsed.sample_rate == 8000
    assert parsed.channels == 2
    assert np.array_equal(parsed.samples, audio.samples)
    assert parsed.duration_seconds == pytest.approx(0.1, abs=0.01)


def test_wav_mono_vector_is_reshaped():
    samples = np.arange(-50, 50, dtype=np.int16)
    data = write_wav(WavAudio(sample_rate=1000, samples=samples))
    parsed = read_wav(data)
    assert parsed.samples.shape == (100, 1)


def test_wav_rejects_non_pcm():
    audio = synthetic_music(seconds=0.05, sample_rate=8000, channels=1, seed=3)
    data = bytearray(write_wav(audio))
    data[20] = 3                        # format tag != PCM
    with pytest.raises(FormatError):
        read_wav(bytes(data))
    with pytest.raises(FormatError):
        read_wav(b"RIFFxxxxWAVE")


# -- PPM ---------------------------------------------------------------------------


def test_ppm_round_trip_and_comments():
    pixels = synthetic_diagram(19, 11, seed=4)
    data = write_ppm(pixels)
    assert is_ppm(data)
    assert np.array_equal(read_ppm(data), pixels)
    commented = b"P6\n# a comment line\n19 11\n255\n" + data.split(b"255\n", 1)[1]
    assert np.array_equal(read_ppm(commented), pixels)


def test_ppm_rejects_truncated():
    pixels = synthetic_photo(8, 8, seed=5)
    data = write_ppm(pixels)
    with pytest.raises(FormatError):
        read_ppm(data[:-10])


# -- workloads -----------------------------------------------------------------------


def test_source_tree_workload_is_deterministic_and_compressible():
    a = synthetic_source_tree_bytes(30000, seed=9)
    b = synthetic_source_tree_bytes(30000, seed=9)
    c = synthetic_source_tree_bytes(30000, seed=10)
    assert a == b
    assert a != c
    assert len(a) == 30000
    import zlib

    assert len(zlib.compress(a, 6)) < len(a) // 2      # source-like redundancy


def test_source_file_and_log_generators():
    source = synthetic_source_file(4000, seed=11)
    assert "static int" in source
    assert len(source) == 4000
    log = synthetic_log_bytes(5000, seed=12)
    assert len(log) == 5000
    assert b"kernel" in log or b"daemon" in log


def test_photo_and_diagram_workloads():
    photo = synthetic_photo(33, 17, seed=13)
    assert photo.shape == (17, 33, 3)
    assert photo.dtype == np.uint8
    assert photo.std() > 5                      # has actual structure
    diagram = synthetic_diagram(40, 20, seed=14)
    assert diagram.shape == (20, 40, 3)
    assert np.array_equal(synthetic_photo(33, 17, seed=13), photo)   # deterministic


def test_audio_workloads():
    music = synthetic_music(seconds=0.2, sample_rate=8000, channels=2, seed=15)
    assert music.samples.shape == (1600, 2)
    assert np.abs(music.samples).max() > 1000    # not silence
    speech = synthetic_speech(seconds=0.3, sample_rate=8000, seed=16)
    assert speech.samples.shape[1] == 1


# -- bench support ---------------------------------------------------------------------


def test_timeline_datasets_and_churn_summary():
    assert len(COMPRESSION_FORMATS) >= 15
    assert len(PROCESSOR_ARCHITECTURES) >= 10
    summary = format_churn_summary()
    assert summary["churn_ratio"] > 1.0
    per_decade = events_per_decade(COMPRESSION_FORMATS)
    assert sum(per_decade.values()) == len(COMPRESSION_FORMATS)


def test_reporting_helpers():
    table = format_table(["a", "b"], [[1, "xx"], [22, "y"]], title="T")
    assert "T" in table and "22" in table
    assert format_kb(2048) == "2.0KB"
    assert format_percent(0.125) == "12.5%"
    assert format_ratio(1.5) == "1.50x"
    assert "hello" in banner("hello")


@settings(max_examples=20)
@given(
    width=st.integers(min_value=1, max_value=24),
    height=st.integers(min_value=1, max_value=24),
)
def test_bmp_round_trip_property(width, height):
    rng = np.random.default_rng(width * 100 + height)
    pixels = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    assert np.array_equal(read_bmp(write_bmp(pixels)), pixels)
