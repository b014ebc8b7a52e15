"""Equivalence tests: archived guest decoders vs. native Python decoders.

This is the core correctness property of the VXA architecture: data encoded
by the archiver's native encoders must be decodable by the *archived* decoder
running inside the virtual machine -- without any codec knowledge on the
reader's side -- and the result must match what the native decoder produces.
"""

import numpy as np
import pytest

from repro.codecs.registry import default_registry
from repro.codecs.vxbwt import VxbwtCodec
from repro.codecs.vxflac import VxflacCodec
from repro.codecs.vximg import VximgCodec
from repro.codecs.vxjp2 import Vxjp2Codec
from repro.codecs.vxsnd import VxsndCodec
from repro.codecs.vxz import VxzCodec
from repro.elf.reader import is_vxa_executable, read_note
from repro.errors import GuestFault
from repro.formats.bmp import read_bmp
from repro.formats.wav import read_wav, write_wav
from repro.vm.machine import ENGINE_INTERPRETER, ENGINE_TRANSLATOR, VirtualMachine
from repro.workloads.audio import synthetic_music
from repro.workloads.images import synthetic_photo
from repro.workloads.text import synthetic_source_tree_bytes


def run_guest(codec, encoded: bytes, engine: str = ENGINE_TRANSLATOR):
    vm = VirtualMachine(codec.guest_decoder_image(), engine=engine)
    result = vm.decode(encoded)
    assert result.exit_code == 0, result.stderr
    return result


# -- decoder images are well-formed ELF executables ------------------------------


@pytest.mark.parametrize("name", ["vxz", "vxbwt", "vximg", "vxjp2", "vxflac", "vxsnd"])
def test_guest_decoder_is_valid_vxa_elf(name):
    codec = default_registry().get(name)
    image = codec.guest_decoder_image()
    assert is_vxa_executable(image)
    note = read_note(image)
    assert note["codec"] == name
    assert note["decoder_code_bytes"] > 0
    assert note["library_code_bytes"] > 0
    assert note["output_format"] == codec.info.output_format


# -- general-purpose codecs -------------------------------------------------------


def test_vxz_guest_matches_native_text():
    codec = VxzCodec()
    data = synthetic_source_tree_bytes(24000, seed=21)
    encoded = codec.encode(data)
    result = run_guest(codec, encoded)
    assert result.output == data
    assert result.output == codec.decode(encoded)


def test_vxz_guest_handles_tiny_and_empty_streams():
    codec = VxzCodec()
    for data in (b"", b"x", b"hello hello hello hello hello"):
        assert run_guest(codec, codec.encode(data)).output == data


def test_vxz_guest_incompressible_data():
    rng = np.random.default_rng(3)
    data = rng.integers(0, 256, size=8000, dtype=np.uint8).tobytes()
    codec = VxzCodec()
    assert run_guest(codec, codec.encode(data)).output == data


def test_vxbwt_guest_matches_native_text():
    codec = VxbwtCodec(block_size=8 * 1024)
    data = synthetic_source_tree_bytes(20000, seed=22)
    encoded = codec.encode(data)
    result = run_guest(codec, encoded)
    assert result.output == data


def test_vxbwt_guest_multi_block_and_runs():
    codec = VxbwtCodec(block_size=2048)
    data = b"abc" * 1000 + b"\x00" * 3000 + synthetic_source_tree_bytes(3000, seed=23)
    assert run_guest(codec, codec.encode(data)).output == data


def test_vxbwt_guest_empty_stream():
    codec = VxbwtCodec()
    assert run_guest(codec, codec.encode(b"")).output == b""


# -- image codecs ----------------------------------------------------------------


def test_vximg_guest_matches_native_bmp_exactly():
    codec = VximgCodec(quality=70)
    pixels = synthetic_photo(64, 56, seed=24)
    encoded = codec.encode_pixels(pixels)
    result = run_guest(codec, encoded)
    native = codec.decode(encoded)
    assert result.output == native
    decoded = read_bmp(result.output)
    assert decoded.shape == pixels.shape


def test_vximg_guest_odd_dimensions():
    codec = VximgCodec(quality=85)
    pixels = synthetic_photo(21, 13, seed=25)
    encoded = codec.encode_pixels(pixels)
    assert run_guest(codec, encoded).output == codec.decode(encoded)


def test_vxjp2_guest_matches_native_bmp_exactly():
    codec = Vxjp2Codec(quality=70, levels=3)
    pixels = synthetic_photo(48, 40, seed=26)
    encoded = codec.encode_pixels(pixels)
    result = run_guest(codec, encoded)
    assert result.output == codec.decode(encoded)


def test_vxjp2_guest_lossless_mode_recovers_pixels():
    codec = Vxjp2Codec(quality=100, levels=2)
    pixels = synthetic_photo(36, 28, seed=27)
    encoded = codec.encode_pixels(pixels)
    decoded = read_bmp(run_guest(codec, encoded).output)
    assert np.array_equal(decoded, pixels)


@pytest.mark.xfail(strict=True, raises=GuestFault,
                   reason="the runtime's bump allocator hands out heap through the "
                          "loader's stack once a decode needs about 3.7 MiB")
def test_vxjp2_guest_decodes_a_512_square_photo():
    # Native decodes it.  The archived decoder's three coefficient planes
    # take 3 MiB; memfill zeroes them through the live stack, its own return
    # address included, and returns to 0x0.
    codec = Vxjp2Codec(quality=50, levels=5)
    encoded = codec.encode_pixels(synthetic_photo(512, 512, seed=1))
    result = VirtualMachine(codec.guest_decoder_image()).decode(encoded)
    assert (result.exit_code, result.output) == (0, codec.decode(encoded))


# -- audio codecs ----------------------------------------------------------------


def test_vxflac_guest_matches_native_wav_exactly():
    codec = VxflacCodec(block_size=512)
    audio = synthetic_music(seconds=0.4, sample_rate=16000, channels=2, seed=28)
    encoded = codec.encode(write_wav(audio))
    result = run_guest(codec, encoded)
    assert result.output == codec.decode(encoded)
    decoded = read_wav(result.output)
    assert np.array_equal(decoded.samples, audio.samples)      # lossless end to end


def test_vxflac_guest_mono():
    codec = VxflacCodec(block_size=256)
    audio = synthetic_music(seconds=0.2, sample_rate=8000, channels=1, seed=29)
    encoded = codec.encode(write_wav(audio))
    assert run_guest(codec, encoded).output == codec.decode(encoded)


def test_vxsnd_guest_matches_native_wav_exactly():
    codec = VxsndCodec(block_size=512)
    audio = synthetic_music(seconds=0.3, sample_rate=16000, channels=2, seed=30)
    encoded = codec.encode(write_wav(audio))
    result = run_guest(codec, encoded)
    assert result.output == codec.decode(encoded)


# -- cross-engine agreement and VM reuse --------------------------------------------


def test_guest_decoder_interpreter_and_translator_agree():
    codec = VxzCodec()
    data = synthetic_source_tree_bytes(6000, seed=31)
    encoded = codec.encode(data)
    translated = run_guest(codec, encoded, engine=ENGINE_TRANSLATOR).output
    interpreted = run_guest(codec, encoded, engine=ENGINE_INTERPRETER).output
    assert translated == interpreted == data


def test_guest_decoder_done_protocol_for_multiple_streams():
    codec = VxzCodec()
    streams = [
        codec.encode(synthetic_source_tree_bytes(size, seed=40 + size))
        for size in (1500, 4000, 800)
    ]
    vm = VirtualMachine(codec.guest_decoder_image())
    results = vm.decode_many(streams)
    assert len(results) == 3
    for result, size in zip(results, (1500, 4000, 800)):
        assert len(result.output) == size


def test_guest_decoder_rejects_corrupt_stream_without_harming_host():
    codec = VxzCodec()
    data = synthetic_source_tree_bytes(3000, seed=32)
    encoded = bytearray(codec.encode(data))
    encoded[400] ^= 0xFF           # flip bits inside the Huffman-coded body
    vm = VirtualMachine(codec.guest_decoder_image())
    result = vm.decode(bytes(encoded))
    # The decoder either detects corruption (non-zero exit) or produces wrong
    # data; in no case does the host fault, and the VM remains reusable.
    if result.exit_code == 0:
        assert result.output != data
    clean = vm.decode(bytes(codec.encode(data)))
    assert clean.output == data
