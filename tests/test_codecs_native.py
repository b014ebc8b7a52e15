"""Round-trip tests for the native (Python) side of every codec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.api as vxa
from repro.codecs.vxbwt import VxbwtCodec
from repro.codecs.vxflac import VxflacCodec
from repro.codecs.vximg import VximgCodec, rgb_to_ycbcr, ycbcr_to_rgb
from repro.codecs.vxjp2 import Vxjp2Codec, rct_forward, rct_inverse
from repro.codecs.vxsnd import VxsndCodec
from repro.codecs.vxz import VxzCodec
from repro.errors import CodecError
from repro.formats.bmp import read_bmp
from repro.formats.ppm import write_ppm
from repro.formats.wav import WavAudio, read_wav, write_wav
from repro.workloads.audio import synthetic_music
from repro.workloads.images import synthetic_photo
from repro.workloads.text import synthetic_source_tree_bytes


# -- helpers -------------------------------------------------------------------


def sample_text(size: int = 20000) -> bytes:
    return synthetic_source_tree_bytes(size, seed=3)


# -- vxz -----------------------------------------------------------------------


def test_vxz_round_trip_text():
    codec = VxzCodec()
    data = sample_text()
    encoded = codec.encode(data)
    assert encoded[:4] == b"VXZ1"
    assert codec.decode(encoded) == data
    assert len(encoded) < len(data) // 2   # source-like text compresses well


def test_vxz_empty_and_tiny_inputs():
    codec = VxzCodec()
    for data in (b"", b"a", b"ab", b"abc", b"\x00" * 5):
        assert codec.decode(codec.encode(data)) == data


def test_vxz_incompressible_data_round_trips():
    rng = np.random.default_rng(5)
    data = rng.integers(0, 256, size=30000, dtype=np.uint8).tobytes()
    codec = VxzCodec()
    assert codec.decode(codec.encode(data)) == data


def test_vxz_rejects_corrupt_magic():
    codec = VxzCodec()
    encoded = bytearray(codec.encode(b"hello world"))
    encoded[0] = ord("X")
    with pytest.raises(CodecError):
        codec.decode(bytes(encoded))


def test_vxz_rejects_truncated_stream():
    codec = VxzCodec()
    encoded = codec.encode(sample_text(5000))
    with pytest.raises(CodecError):
        codec.decode(encoded[: len(encoded) // 2])


def test_vxz_detects_length_mismatch():
    codec = VxzCodec()
    encoded = bytearray(codec.encode(b"hello hello hello hello"))
    encoded[4:8] = (999).to_bytes(4, "little")
    with pytest.raises(CodecError):
        codec.decode(bytes(encoded))


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=3000))
def test_vxz_round_trip_property(data):
    codec = VxzCodec(max_chain=16)
    assert codec.decode(codec.encode(data)) == data


# -- vxbwt ----------------------------------------------------------------------


def test_vxbwt_round_trip_text():
    codec = VxbwtCodec(block_size=16 * 1024)
    data = sample_text(60000)
    encoded = codec.encode(data)
    assert encoded[:4] == b"VXB1"
    assert codec.decode(encoded) == data
    assert len(encoded) < len(data) // 2


def test_vxbwt_multiple_blocks():
    codec = VxbwtCodec(block_size=2048)
    data = sample_text(9000)
    encoded = codec.encode(data)
    assert codec.decode(encoded) == data


def test_vxbwt_empty_input():
    codec = VxbwtCodec()
    assert codec.decode(codec.encode(b"")) == b""


def test_vxbwt_degenerate_runs():
    codec = VxbwtCodec(block_size=4096)
    data = b"\x00" * 10000 + b"a" * 5000 + bytes(range(256)) * 4
    assert codec.decode(codec.encode(data)) == data


def test_vxbwt_rejects_bad_block_size():
    with pytest.raises(ValueError):
        VxbwtCodec(block_size=10)


def test_vxbwt_rejects_a_per_call_block_size_no_decoder_accepts(tmp_path):
    # The archived decoder refuses blocks over 900 KB, so the encoder must
    # refuse them before anything of the member is written.
    text = sample_text(5000)
    path = tmp_path / "a.zip"
    with vxa.create(path) as builder:
        for block_size in (1_000_000, 0, 1023):
            with pytest.raises(ValueError):
                builder.add("big.txt", text, codec="vxbwt",
                            encode_options={"block_size": block_size})
        for block_size in (1024, 4096, 30000):
            builder.add(f"{block_size}.txt", text, codec="vxbwt",
                        encode_options={"block_size": block_size})
    with vxa.open(path) as archive:
        assert archive.names() == ["1024.txt", "4096.txt", "30000.txt"]
        for name in archive.names():
            assert archive.extract(name).data == text


@settings(max_examples=15, deadline=None)
@given(st.binary(max_size=2000))
def test_vxbwt_round_trip_property(data):
    codec = VxbwtCodec(block_size=1024)
    assert codec.decode(codec.encode(data)) == data


# -- vximg ----------------------------------------------------------------------


def test_vximg_round_trip_quality():
    codec = VximgCodec(quality=85)
    pixels = synthetic_photo(96, 80, seed=1)
    encoded = codec.encode_pixels(pixels)
    assert encoded[:4] == b"VXI1"
    assert len(encoded) < pixels.nbytes // 3
    decoded = read_bmp(codec.decode(encoded))
    assert decoded.shape == pixels.shape
    error = np.abs(decoded.astype(int) - pixels.astype(int)).mean()
    assert error < 12.0        # lossy but close at quality 85


def test_vximg_lower_quality_is_smaller_and_worse():
    pixels = synthetic_photo(96, 96, seed=2)
    high = VximgCodec(quality=90).encode_pixels(pixels)
    low = VximgCodec(quality=20).encode_pixels(pixels)
    assert len(low) < len(high)
    error_high = np.abs(
        read_bmp(VximgCodec().decode(high)).astype(int) - pixels.astype(int)
    ).mean()
    error_low = np.abs(
        read_bmp(VximgCodec().decode(low)).astype(int) - pixels.astype(int)
    ).mean()
    assert error_low >= error_high


def test_vximg_accepts_ppm_input():
    pixels = synthetic_photo(40, 40, seed=3)
    codec = VximgCodec()
    encoded = codec.encode(write_ppm(pixels))
    decoded = read_bmp(codec.decode(encoded))
    assert decoded.shape == pixels.shape


def test_vximg_non_multiple_of_eight_dimensions():
    pixels = synthetic_photo(37, 29, seed=4)
    codec = VximgCodec(quality=90)
    decoded = read_bmp(codec.decode(codec.encode_pixels(pixels)))
    assert decoded.shape == (29, 37, 3)


def test_vximg_rejects_corrupt_stream():
    codec = VximgCodec()
    encoded = codec.encode_pixels(synthetic_photo(32, 32, seed=5))
    with pytest.raises(CodecError):
        codec.decode(encoded[:40])


def test_color_conversion_round_trip_is_close():
    rng = np.random.default_rng(0)
    rgb = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    ycc = rgb_to_ycbcr(rgb)
    back = ycbcr_to_rgb(ycc)
    assert np.abs(back.astype(int) - rgb.astype(int)).max() <= 4


# -- vxjp2 ----------------------------------------------------------------------


def test_vxjp2_lossless_at_quality_100():
    codec = Vxjp2Codec(quality=100, levels=3)
    pixels = synthetic_photo(64, 48, seed=6)
    decoded = read_bmp(codec.decode(codec.encode_pixels(pixels)))
    assert np.array_equal(decoded, pixels)


def test_vxjp2_lossy_round_trip():
    codec = Vxjp2Codec(quality=60, levels=3)
    pixels = synthetic_photo(80, 72, seed=7)
    encoded = codec.encode_pixels(pixels)
    assert encoded[:4] == b"VXJ2"
    decoded = read_bmp(codec.decode(encoded))
    assert decoded.shape == pixels.shape
    assert np.abs(decoded.astype(int) - pixels.astype(int)).mean() < 10.0
    assert len(encoded) < pixels.nbytes


def test_vxjp2_odd_dimensions_are_padded_and_cropped():
    codec = Vxjp2Codec(quality=100, levels=2)
    pixels = synthetic_photo(33, 21, seed=8)
    decoded = read_bmp(codec.decode(codec.encode_pixels(pixels)))
    assert np.array_equal(decoded, pixels)


def test_rct_round_trip_exact():
    rng = np.random.default_rng(1)
    rgb = rng.integers(0, 256, size=(20, 20, 3), dtype=np.uint8)
    assert np.array_equal(rct_inverse(rct_forward(rgb)), rgb)


def test_vxjp2_rejects_bad_levels():
    with pytest.raises(ValueError):
        Vxjp2Codec(levels=9)


# -- vxflac ----------------------------------------------------------------------


def test_vxflac_lossless_round_trip():
    codec = VxflacCodec(block_size=1024)
    audio = synthetic_music(seconds=1.0, sample_rate=22050, channels=2, seed=9)
    wav = write_wav(audio)
    encoded = codec.encode(wav)
    assert encoded[:4] == b"VXF1"
    assert len(encoded) < len(wav)          # music compresses losslessly
    decoded = read_wav(codec.decode(encoded))
    assert decoded.sample_rate == audio.sample_rate
    assert np.array_equal(decoded.samples, audio.samples)


def test_vxflac_mono_and_short_blocks():
    codec = VxflacCodec(block_size=256)
    audio = synthetic_music(seconds=0.3, sample_rate=8000, channels=1, seed=10)
    decoded = read_wav(codec.decode(codec.encode(write_wav(audio))))
    assert np.array_equal(decoded.samples, audio.samples)


def test_vxflac_handles_silence_and_noise():
    silence = WavAudio(8000, np.zeros((2000, 1), dtype=np.int16))
    rng = np.random.default_rng(2)
    noise = WavAudio(8000, rng.integers(-32768, 32767, size=(2000, 2), dtype=np.int16))
    codec = VxflacCodec(block_size=512)
    for audio in (silence, noise):
        decoded = read_wav(codec.decode(codec.encode(write_wav(audio))))
        assert np.array_equal(decoded.samples, audio.samples)
    # Silence should compress dramatically better than noise.
    assert len(codec.encode(write_wav(silence))) < len(codec.encode(write_wav(noise))) // 4


def test_vxflac_rejects_non_wav_input():
    with pytest.raises(Exception):
        VxflacCodec().encode(b"definitely not audio")


# -- vxsnd ----------------------------------------------------------------------


def test_vxsnd_lossy_round_trip():
    codec = VxsndCodec(block_size=512)
    audio = synthetic_music(seconds=0.5, sample_rate=16000, channels=2, seed=11)
    wav = write_wav(audio)
    encoded = codec.encode(wav)
    assert encoded[:4] == b"VXS1"
    # 4 bits per sample -> roughly 4x smaller than 16-bit PCM.
    assert len(encoded) < len(wav) // 3
    decoded = read_wav(codec.decode(encoded))
    assert decoded.samples.shape == audio.samples.shape
    # ADPCM is lossy but should track the waveform.
    original = audio.samples.astype(np.float64)
    restored = decoded.samples.astype(np.float64)
    noise = np.sqrt(np.mean((original - restored) ** 2))
    signal = np.sqrt(np.mean(original**2)) + 1e-9
    assert noise / signal < 0.2


def test_vxsnd_mono():
    codec = VxsndCodec(block_size=128)
    audio = synthetic_music(seconds=0.2, sample_rate=8000, channels=1, seed=12)
    decoded = read_wav(codec.decode(codec.encode(write_wav(audio))))
    assert decoded.samples.shape == audio.samples.shape


def test_vxsnd_rejects_corrupt_header():
    codec = VxsndCodec()
    with pytest.raises(CodecError):
        codec.decode(b"VXS1" + b"\x00" * 3)


# -- cross-codec behaviours ---------------------------------------------------------


def test_codecs_recognise_their_own_magic():
    from repro.codecs.registry import default_registry

    registry = default_registry()
    text = sample_text(4000)
    encoded = registry.get("vxz").encode(text)
    assert registry.recognize_compressed(encoded).name == "vxz"
    assert registry.recognize_compressed(text) is None


def test_registry_selects_media_codecs_for_media():
    from repro.codecs.registry import default_registry

    registry = default_registry()
    wav = write_wav(synthetic_music(seconds=0.1, sample_rate=8000, channels=1, seed=13))
    ppm = write_ppm(synthetic_photo(16, 16, seed=14))
    assert registry.select_for_raw(wav).name == "vxflac"       # lossless default
    assert registry.select_for_raw(b"plain text").name == "vxz"
    assert registry.select_for_raw(ppm, allow_lossy=True).name in ("vximg", "vxjp2")
    # Without permission for loss, raw images fall back to a lossless codec.
    assert not registry.select_for_raw(ppm, allow_lossy=False).info.lossy


def test_registry_inventory_matches_table1_shape():
    from repro.codecs.registry import default_registry

    rows = default_registry().inventory()
    assert len(rows) == 6
    names = {row["decoder"] for row in rows}
    assert names == {"vxz", "vxbwt", "vximg", "vxjp2", "vxflac", "vxsnd"}
    assert {row["output_format"] for row in rows} == {"raw data", "BMP image", "WAV audio"}


def _small_streams() -> dict[str, bytes]:
    from repro.codecs.registry import default_registry

    registry = default_registry()
    text = synthetic_source_tree_bytes(300, seed=3)[:300]
    photo = write_ppm(synthetic_photo(8, 8, seed=3))
    clip = write_wav(synthetic_music(seconds=0.01, sample_rate=8000, channels=1, seed=3))
    raw = {"vxz": text, "vxbwt": text, "vximg": photo, "vxjp2": photo,
           "vxflac": clip, "vxsnd": clip}
    return {name: registry.get(name).encode(data) for name, data in raw.items()}


@pytest.mark.parametrize("name", ["vxz", "vxbwt", "vximg", "vxjp2", "vxflac", "vxsnd"])
def test_native_decoders_fail_only_with_codec_error(name):
    # Every single-bit flip and every cut of one small stream either decodes
    # or raises CodecError: anything else escapes on_error="skip" and salvage.
    from repro.codecs.registry import default_registry

    codec = default_registry().get(name)
    stream = _small_streams()[name]
    variants = [stream[:cut] for cut in range(len(stream))]
    for bit in range(8 * len(stream)):
        flipped = bytearray(stream)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        variants.append(bytes(flipped))
    decoded = 0
    for variant in variants:
        try:
            codec.decode(variant)
            decoded += 1
        except CodecError:
            pass
    assert 0 < decoded < len(variants)
