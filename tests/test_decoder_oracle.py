"""The archived decoders decode exactly what the images vxc 0.3 built before
their hot loops were rewritten decode, in fewer instructions.

``tests/data/<codec>-vxc-0.3.elf`` are those images, built by the same
compiler: vxbwt, vximg and vxjp2 from the sources before the sparse IDCT, the
two-loop in-place lifting and the pointer-walk inverse move-to-front; vxz,
vxflac and vxsnd from the sources before their symbol and sample loops took
the reader into locals (and before the Huffman walk resumed past the primary
table and the move-to-front shifted words).  They are never regenerated.
"Exactly" means the same ``(exit_code, output)`` -- or the same fault -- on
fresh encodes of every kind of stream, on damaged ones and on streams built
to stop at each boundary of the rewritten loops.  The native image decoders
are checked here too: they refuse a header too large for the codec before
allocating for it.
"""

from __future__ import annotations

import functools
import hashlib
import pathlib
import random
import struct
import tracemalloc

import numpy as np
import pytest

from repro.codecs import bwt as bwt_codec
from repro.codecs import vxbwt as vxbwt_codec
from repro.codecs.bitio import BitWriter
from repro.codecs.huffman import HuffmanEncoder
from repro.codecs.lz77 import (
    NUM_DISTANCE_SYMBOLS,
    NUM_LITLEN_SYMBOLS,
    distance_to_slot,
    length_to_slot,
)
from repro.codecs.registry import default_registry
from repro.codecs.vximg import VximgCodec, _huffman_pack, _huffman_unpack
from repro.errors import CodecError, GuestFault, ResourceLimitExceeded
from repro.vm.limits import ExecutionLimits
from repro.formats.wav import WavAudio, write_wav
from repro.vm.machine import VirtualMachine
from repro.workloads.audio import synthetic_music
from repro.workloads.images import synthetic_photo
from repro.workloads.text import synthetic_log_bytes, synthetic_source_file

_DATA = pathlib.Path(__file__).parent / "data"

#: The images as vxc 0.3 built them from the sources before the rewrite.
ARCHIVED = {
    "vxbwt": "f9b55b1fbdc3d959ee7137a26eaaadaab29f383168abfbf185ba811b51541eb4",
    "vximg": "0ad21a88372afc4679a22ed08dcb3c68601657f493ec6d4fd1efc633955b6955",
    "vxjp2": "bd55b8a76ac18308df296d6139f0dfa87a942b947499a2fc2d1b7e70012f92f6",
    "vxz": "7bdb157d8d032e59c85d8e10eb83f0af177d7c027c6e9a09e19473e03f339b0c",
    "vxflac": "f68e19d073c39a21d4f4a859ee766ec35afd22deca63ecce8e6304843584fd20",
    "vxsnd": "158e2ee7453e152dc6fbfbf24bf9c9e54f115362931188f059ad0ba437f6fd39",
}


@functools.lru_cache(maxsize=None)
def _archived(name: str) -> bytes:
    return (_DATA / f"{name}-vxc-0.3.elf").read_bytes()


@functools.lru_cache(maxsize=None)
def _vms(name: str) -> tuple[VirtualMachine, VirtualMachine]:
    """The archived image's VM and the current image's, for ``name``."""
    current = default_registry().get(name).guest_decoder_image()
    return VirtualMachine(_archived(name)), VirtualMachine(current)


def _outcome(vm: VirtualMachine, payload: bytes, limits: ExecutionLimits | None = None):
    try:
        result = vm.decode(payload, limits=limits)
    except GuestFault as fault:
        return type(fault).__name__
    return result.exit_code, result.output


def _grayscale(stream: bytes) -> bytes:
    """A one-channel vximg stream: the first channel's tokens of ``stream``."""
    _, width, height, _, _ = struct.unpack_from("<4sHHBB", stream)
    tokens = _huffman_unpack(stream, 74)
    offset = previous_dc = 0
    for _ in range(((width + 7) // 8) * ((height + 7) // 8)):
        _, offset, previous_dc = VximgCodec._decode_block(tokens, offset, previous_dc)
    return stream[:9] + b"\x01" + stream[10:74] + _huffman_pack(tokens[:offset])


def test_archived_images_are_the_pinned_bytes():
    for name, digest in ARCHIVED.items():
        image = _archived(name)
        assert hashlib.sha256(image).hexdigest() == digest, name
        assert image != default_registry().get(name).guest_decoder_image()


# -- fresh encodes ---------------------------------------------------------------------

_SHAPES = [(1, 1), (7, 5), (9, 17), (13, 8), (24, 16), (33, 21)]


@pytest.mark.parametrize("quality", [1, 50, 75, 100])
def test_image_decoders_match_the_archived_images(quality):
    registry = default_registry()
    for index, (width, height) in enumerate(_SHAPES):
        photo = synthetic_photo(width, height, seed=quality * 10 + index)
        colour = registry.get("vximg").encode_pixels(photo, quality=quality)
        streams = {"vximg": [colour, _grayscale(colour)],
                   "vxjp2": [registry.get("vxjp2").encode_pixels(
                       photo, quality=quality, levels=1 + index)]}
        for name, payloads in streams.items():
            old, new = _vms(name)
            for payload in payloads:
                outcome = _outcome(new, payload)
                assert outcome == _outcome(old, payload), (name, quality, width, height)
                assert outcome[0] == 0
                assert outcome[1] == registry.get(name).decode(payload)


def test_grayscale_stream_decodes_grey():
    photo = synthetic_photo(12, 10, seed=3)
    stream = _grayscale(default_registry().get("vximg").encode_pixels(photo))
    assert stream[9] == 1
    exit_code, bmp = _outcome(_vms("vximg")[1], stream)
    pixels = bmp[54:]
    assert exit_code == 0 and pixels[0::3] == pixels[1::3] == pixels[2::3]


def test_bwt_decoder_matches_the_archived_image():
    codec = default_registry().get("vxbwt")
    rng = random.Random(27)
    texts = [b"", b"a", b"ab" * 700, bytes(range(256)) * 5, rng.randbytes(3000),
             bytes(rng.choice(b"xyz") for _ in range(2500)),
             synthetic_log_bytes(2500, seed=4),
             synthetic_source_file(4000, seed=6).encode()]
    old, new = _vms("vxbwt")
    for text in texts:
        for block_size in (1024, 4096):
            payload = codec.encode(text, block_size=block_size)
            assert _outcome(new, payload) == _outcome(old, payload) == (0, text)


def test_reused_sandbox_after_an_abandoned_block():
    # A stream that stops mid-block (exit 63: a run past the block) leaves
    # coefficient 1 behind in the sandbox.  The next stream on it is an 8 x 8
    # grey block with coefficients 0 and 9 only, whose extent (two rows, two
    # columns) holds coefficient 1: it decodes as on a fresh sandbox, as it
    # does on the archived image.
    codec = default_registry().get("vximg")
    header = _grayscale(codec.encode_pixels(synthetic_photo(8, 8, seed=8)))[:74]
    bad = header + _huffman_pack(bytes([2, 0, 41, 70, 1]))
    good = header + _huffman_pack(bytes([2, 3, 9, 255]))
    for vm in _vms("vximg"):
        assert vm.decode(bad).exit_code == 63
        reused = vm.decode(good, fresh=False)
        assert (reused.exit_code, reused.output) == (0, codec.decode(good))


# -- damaged payloads --------------------------------------------------------------------

#: A damaged header can send a decoder round a loop for tens of millions of
#: instructions.  A mutant that reaches this budget on either image is run
#: again with four times the budget, until neither image runs away or the
#: budget reaches ``_RUNAWAY_CAP`` -- where both must run away.
_RUNAWAY = 4_000_000
_RUNAWAY_CAP = 256_000_000


def _compare(name: str, payload: bytes):
    old, new = _vms(name)
    budget = _RUNAWAY
    while True:
        limits = ExecutionLimits(max_instructions=budget)
        outcome = _outcome(new, payload, limits)
        previous = _outcome(old, payload, limits)
        runaway = ResourceLimitExceeded.__name__ in (outcome, previous)
        if not runaway or budget >= _RUNAWAY_CAP:
            return outcome, previous
        budget *= 4


def _mutants(payload: bytes, rng: random.Random, count: int, start: int = 4) -> list[bytes]:
    """PR 25's damage: ``payload`` itself, then cuts and flipped bytes."""
    mutants = [payload]
    for _ in range(count - 1):
        damaged = bytearray(payload)
        if rng.random() < 0.25:
            damaged = damaged[: rng.randrange(len(damaged))]
        else:
            for _ in range(rng.choice((1, 1, 2, 4))):
                damaged[rng.randrange(start, len(damaged))] ^= rng.randrange(1, 256)
        mutants.append(bytes(damaged))
    return mutants


def _tier1_payloads() -> dict[str, bytes]:
    registry = default_registry()
    photo = synthetic_photo(24, 16, seed=5)
    text = synthetic_source_file(1500, seed=5).encode()
    clip = write_wav(synthetic_music(seconds=0.05, sample_rate=8000, channels=2, seed=5))
    return {
        "vxbwt": registry.get("vxbwt").encode(text),
        "vximg": registry.get("vximg").encode_pixels(photo),
        "vxjp2": registry.get("vxjp2").encode_pixels(photo),
        "vxz": registry.get("vxz").encode(text),
        "vxflac": registry.get("vxflac").encode(clip, block_size=256),
        "vxsnd": registry.get("vxsnd").encode(clip, block_size=64),
    }


#: The header bytes past the magic of the vxz and audio streams: lengths,
#: channel counts, frame counts and block sizes.
_HEADERS = {"vxz": (4, 8), "vxflac": (8, 16), "vxsnd": (8, 15)}


def _damaged(name: str, payload: bytes, rng: random.Random) -> list[bytes]:
    """Damage anywhere, then damage past the entropy layer: the image
    decoders' coefficient tokens, cut and flipped and packed again (runs past
    a block, values of up to 35 bits), vxbwt's block header, and the header
    fields of vxz and the audio streams."""
    mutants = _mutants(payload, rng, 40)
    if name in _HEADERS:
        start, end = _HEADERS[name]
        for _ in range(20):
            damaged = bytearray(payload)
            damaged[rng.randrange(start, end)] ^= 1 << rng.randrange(8)
            mutants.append(bytes(damaged))
        return mutants
    if name == "vxbwt":
        for _ in range(20):
            damaged = bytearray(payload)
            damaged[rng.randrange(8, 24)] ^= 1 << rng.randrange(8)
            mutants.append(bytes(damaged))
        transformed_length = struct.unpack_from("<I", payload, 16)[0]
        return mutants + [payload[:20] + struct.pack("<I", transformed_length + 1)
                          + payload[24:]]
    header = 74 if name == "vximg" else 11
    tokens = _huffman_unpack(payload, header)
    return mutants + [payload[:header] + _huffman_pack(damaged)
                      for damaged in _mutants(tokens, rng, 40, start=0)[1:]]


def test_damaged_payloads_decode_as_on_the_archived_images():
    rng = random.Random(27)
    exits = {}
    for name, payload in _tier1_payloads().items():
        for index, mutant in enumerate(_damaged(name, payload, rng)):
            outcome, previous = _compare(name, mutant)
            assert outcome == previous, (name, index)
            exits.setdefault(name, set()).add(
                outcome if isinstance(outcome, str) else outcome[0])
    # The damage reached each decoder's own exits, not only the entropy layer's.
    assert {0, 52, 53, 54, 55} <= exits["vxbwt"]
    assert {0, 36, 63} <= exits["vximg"]
    assert {0, 36, 70} <= exits["vxjp2"]
    assert {0, 12, 33, 43, 44, 45} <= exits["vxz"]
    assert {0, 33, 84} <= exits["vxflac"]
    assert {0, 92, 93, 94} <= exits["vxsnd"]


# -- outputs past one output buffer ------------------------------------------------------
#
# The decoders buffer 64 KB of output and write it out when a byte meets a
# full buffer.  Every input above is smaller than that; these are not, so the
# buffer is written mid-stream: mid-row for the images, and inside an
# expanded run for vxbwt, where a damaged block stops the decode after the
# first write.  The write-syscall counts are reported (``pytest -s``) and
# compared.

_OUT_BUFFER = 65536


def _past_one_buffer(name: str, payload: bytes):
    """The current image's ``(exit_code, output)``, once it is checked to be
    the archived image's, with the same number of write syscalls."""
    results = [vm.decode(payload) for vm in _vms(name)]
    writes = [result.stats.syscalls["write"] for result in results]
    print(f"{name}: {len(payload)} B in, write syscalls old {writes[0]}, new {writes[1]}")
    old, new = [(result.exit_code, result.output) for result in results]
    assert new == old and writes[0] == writes[1], name
    assert len(new[1]) >= _OUT_BUFFER
    return new


def test_image_outputs_past_one_buffer_match_the_archived_images():
    # Rows of 519 and of 32778 pixel bytes, each padded: the buffer fills
    # inside a row, with two bytes left at a pixel's start, in a colour image,
    # in a one-channel one and in vxjp2.
    registry = default_registry()
    many_rows = synthetic_photo(173, 128, seed=28)
    wide = synthetic_photo(10926, 2, seed=28)
    streams = {
        "vximg": [registry.get("vximg").encode_pixels(many_rows, quality=50),
                  _grayscale(registry.get("vximg").encode_pixels(wide, quality=1))],
        "vxjp2": [registry.get("vxjp2").encode_pixels(wide, quality=50, levels=1)],
    }
    for name, payloads in streams.items():
        for payload in payloads:
            assert _past_one_buffer(name, payload)[0] == 0


def _runs_text() -> bytes:
    """131,200 bytes: source-like lines indented by runs of 4 to 40 spaces,
    with a run of 600 ``z`` (three RLE runs) across the end of the first
    output buffer and 200 bytes without a run across the end of the second."""
    rng = random.Random(28)
    lines = []
    while sum(map(len, lines)) < 2 * _OUT_BUFFER:
        lines.append(b" " * rng.randrange(4, 41) + rng.choice(
            [b"return value;", b"if (x) {", b"}", b"int i;", b"/* note */"]) + b"\n")
    text = b"".join(lines)
    return (text[: _OUT_BUFFER - 300] + b"z" * 600
            + text[_OUT_BUFFER + 300: 2 * _OUT_BUFFER - 72] + bytes(range(32, 232)))


def test_bwt_output_past_one_buffer_matches_the_archived_image():
    codec = default_registry().get("vxbwt")
    text = _runs_text()
    payload = codec.encode(text, block_size=30000)
    assert _past_one_buffer("vxbwt", payload) == (0, text)
    # Damage in the last block: the decode stops after the first write.
    damaged = bytearray(payload)
    damaged[-150] ^= 0x5A
    exit_code, output = _past_one_buffer("vxbwt", bytes(damaged))
    assert exit_code != 0 and len(output) == _OUT_BUFFER


def test_move_to_front_ranks_of_every_word_alignment():
    # A rank r moves ranks 0 .. r - 1 up four at a time, from the word at
    # r - 3 down: ranks 1 to 4 and 7, 8 put the lowest word at every offset
    # from rank 0 (-2, -1, 0, 1), and 255 shifts the whole alphabet.
    codec = default_registry().get("vxbwt")
    old, new = _vms("vxbwt")
    texts = [bytes(range(256)), bytes(range(255, -1, -1)) * 2,
             synthetic_source_file(2000, seed=3).encode() + b"\xff",
             bytes(random.Random(8).choice(b"abcdefghij") for _ in range(900))]
    ranks = set()
    for text in texts:
        ranks |= set(bwt_codec.mtf_encode(bwt_codec.bwt_forward(bwt_codec.rle_encode(text))[0]))
        payload = codec.encode(text)
        assert _outcome(new, payload) == _outcome(old, payload) == (0, text)
    assert {1, 2, 3, 4, 7, 8, 255} <= ranks


def test_bwt_block_ending_in_four_equal_bytes(monkeypatch):
    # The encoder always follows four equal bytes with a repeat count; a
    # block whose last step is the fourth one ends without expanding it.
    codec = default_registry().get("vxbwt")
    monkeypatch.setattr(vxbwt_codec, "rle_encode", lambda block: block)
    old, new = _vms("vxbwt")
    for text in (b"abczzzz", b"zzzz", b"abczzzzz"):
        payload = codec.encode(text)
        assert _outcome(new, payload) == _outcome(old, payload)
    assert _outcome(new, codec.encode(b"abczzzz")) == (0, b"abczzzz")


# -- vxz, vxflac and vxsnd: fresh encodes and the boundaries of the new loops ------------

def test_vxz_matches_the_archived_image_on_fresh_encodes():
    codec = default_registry().get("vxz")
    rng = random.Random(31)
    texts = [b"", b"a", b"ab" * 700, bytes(range(256)) * 5, rng.randbytes(3000),
             bytes(rng.choice(b"xyz") for _ in range(2500)),
             synthetic_log_bytes(2500, seed=4),
             synthetic_source_file(4000, seed=6).encode()]
    old, new = _vms("vxz")
    for text in texts:
        payload = codec.encode(text)
        assert _outcome(new, payload) == _outcome(old, payload) == (0, text)


def _vxz_stream(tokens, original: int | None = None) -> bytes:
    """A vxz stream of ``tokens`` -- a byte is a literal, a pair ``(length,
    distance)`` a match -- declaring ``original`` bytes (by default what the
    tokens produce), with codes from the tokens' own frequencies."""
    litlen = [0] * NUM_LITLEN_SYMBOLS
    dist = [0] * NUM_DISTANCE_SYMBOLS
    produced = 0
    for token in tokens:
        if isinstance(token, int):
            litlen[token] += 1
            produced += 1
        else:
            litlen[257 + length_to_slot(token[0])[0]] += 1
            dist[distance_to_slot(token[1])[0]] += 1
            produced += token[0]
    litlen[256] += 1
    litlen_code = HuffmanEncoder.from_frequencies(litlen)
    dist_code = HuffmanEncoder.from_frequencies(dist)
    writer = BitWriter()
    for token in tokens:
        if isinstance(token, int):
            litlen_code.write_symbol(writer, token)
            continue
        slot, bits, extra = length_to_slot(token[0])
        litlen_code.write_symbol(writer, 257 + slot)
        writer.write_bits(extra, bits)
        slot, bits, extra = distance_to_slot(token[1])
        dist_code.write_symbol(writer, slot)
        writer.write_bits(extra, bits)
    litlen_code.write_symbol(writer, 256)
    declared = produced if original is None else original
    return (b"VXZ1" + struct.pack("<I", declared & 0xFFFFFFFF) + bytes(litlen_code.lengths)
            + bytes(dist_code.lengths) + writer.getvalue())


def test_vxz_boundaries_decode_as_on_the_archived_image():
    # Matches at distances 1-3 (byte copies) and 4 or more (word copies),
    # overlapping their own output or not, each ending exactly at the
    # declared length; every stream cut by 0 to 4 bytes, so that the last
    # symbols and extra bits are read with fewer than three and fewer than
    # two bytes left, or run out; lengths that a literal or a match
    # overruns, that the stream falls short of, and that alloc cannot hold
    # or wraps.  (Exit 42 cannot happen: every decoded symbol is below the
    # table's size.)
    rng = random.Random(31)
    old, new = _vms("vxz")
    streams = []
    for distance in (1, 2, 3, 4, 5, 7, 8, 30, 300):
        for length in (3, 4, 5, 9, 17, 258):
            prefix = [rng.randrange(256) for _ in range(max(distance, 3))]
            streams.append(_vxz_stream(prefix + [(length, distance)]))
            streams.append(_vxz_stream(prefix + [(length, distance), (length, distance)]))
    for _ in range(12):
        tokens = [rng.randrange(256) for _ in range(rng.randrange(4, 40))]
        for _ in range(rng.randrange(1, 30)):
            tokens.append((rng.randrange(3, 259), rng.randrange(1, len(tokens) + 1))
                          if rng.random() < 0.4 else rng.randrange(256))
        streams.append(_vxz_stream(tokens))
    exits = set()
    for stream in streams:
        for cut in range(5):
            payload = stream[: len(stream) - cut]
            outcome = _outcome(new, payload)
            assert outcome == _outcome(old, payload), (payload[:16], cut)
            exits.add(outcome[0])
    tokens = [ord("a"), ord("b"), ord("c"), ord("d"), (40, 4), ord("e")]
    produced = 45
    for original in (0, 1, 3, 4, 43, 44, 46, 1000, 0xFFFFFFF8, 0x7FFFFFFF):
        payload = _vxz_stream(tokens, original)
        outcome = _outcome(new, payload)
        assert outcome == _outcome(old, payload), original
        exits.add(outcome[0])
    payload = _vxz_stream(tokens[:4] + [(40, 5)], produced)
    assert _outcome(new, payload) == _outcome(old, payload)
    exits.add(_outcome(new, payload)[0])
    # A table of one code of one bit: the other bit is no code, read with
    # three, two, one or no bytes left.
    header = _vxz_stream([])[:324]
    for tail in (b"\xff" * 3, b"\xff" * 2, b"\xff", b""):
        outcome = _outcome(new, header + tail)
        assert outcome == _outcome(old, header + tail)
        exits.add(outcome[0])
    assert {0, 12, 33, 34, 43, 44, 45} <= exits


def _flac_stream(channels: int, blocks, block_size: int, tail: bytes = b"") -> bytes:
    """A vxflac stream: per block, per channel, ``(order, k, residuals)``;
    ``residuals`` as signed values, or raw bytes written as they are."""
    frames = 0
    writer = BitWriter()
    for block in blocks:
        for order, k, residuals in block:
            writer.align_to_byte()
            writer.write_bits(order, 8)
            writer.write_bits(k, 8)
            if isinstance(residuals, bytes):
                for byte in residuals:
                    writer.write_bits(byte, 8)
                continue
            for value in residuals:
                folded = ((value << 1) ^ (value >> 31)) & 0xFFFFFFFF
                quotient = folded >> k
                for _ in range(quotient):
                    writer.write_bit(1)
                writer.write_bit(0)
                writer.write_bits(folded & ((1 << k) - 1), k)
        writer.align_to_byte()
        frames += len(block[0][2]) if not isinstance(block[0][2], bytes) else block_size
    header = b"VXF1" + struct.pack("<IBBIH", 8000, channels, 16, frames, block_size)
    return header + writer.getvalue() + tail


def test_vxflac_boundaries_decode_as_on_the_archived_image():
    # k = 0, k = 18 .. 30 (past the three-byte window), unary runs past a
    # byte and across the four-byte window, every order with taps that
    # overflow 16 bits, stereo, streams cut anywhere in the last bytes
    # (running out mid-unary and mid-remainder: 33), and a unary run of
    # 2^20 + 1 ones (80).
    rng = random.Random(31)
    old, new = _vms("vxflac")
    outcomes = set()

    def check(payload, limits=None):
        outcome = _outcome(new, payload, limits)
        assert outcome == _outcome(old, payload, limits)
        outcomes.add(outcome if isinstance(outcome, str) else outcome[0])

    for k in (0, 1, 5, 17, 18, 24, 30):
        for order in range(5):
            spread = 1 << min(k + 3, 30)
            residuals = [rng.randrange(-spread, spread) for _ in range(9)] + [0, -1, 1]
            if k >= 12:
                residuals.append(rng.randrange(-40000, 40000))
            stream = _flac_stream(1, [[(order, k, residuals)]], 16)
            for cut in range(0, 9):
                check(stream[: len(stream) - cut])
    for channels in (2, 3):
        blocks = [[(rng.randrange(5), rng.randrange(0, 12),
                    [rng.randrange(-3000, 3000) for _ in range(13)])
                   for _ in range(channels)] for _ in range(3)]
        stream = _flac_stream(channels, blocks, 13)
        check(stream)
        check(stream[:-3])
    check(_flac_stream(1, [[(2, 3, b"\xff" * 9 + b"\x01\x00\x00\x00\x00")]], 4))
    runaway = _flac_stream(1, [[(0, 0, b"\xff" * (1 << 17) + b"\x03")]], 1)
    check(runaway, ExecutionLimits(max_instructions=256_000_000))
    check(runaway[:-3], ExecutionLimits(max_instructions=256_000_000))
    assert {0, 33, 80} <= outcomes


def test_vxflac_matches_the_archived_image_on_fresh_encodes():
    codec = default_registry().get("vxflac")
    old, new = _vms("vxflac")
    for channels, frames, block_size in ((1, 1, 256), (2, 333, 256), (3, 700, 300)):
        clip = synthetic_music(seconds=frames / 8000, sample_rate=8000, channels=channels,
                               seed=frames)
        payload = codec.encode(write_wav(clip), block_size=block_size)
        assert _outcome(new, payload) == _outcome(old, payload)
        assert _outcome(new, payload) == (0, codec.decode(payload))


def _snd_stream(channels: int, blocks, block_size: int) -> bytes:
    """A vxsnd stream: per block, per channel, ``(predictor, index, codes)``."""
    frames = sum(len(block[0][2]) for block in blocks)
    pieces = [b"VXS1" + struct.pack("<IBIH", 8000, channels, frames, block_size)]
    for block in blocks:
        for predictor, index, codes in block:
            pieces.append(struct.pack("<hBB", predictor, index, 0))
            padded = list(codes) + [0] * (len(codes) & 1)
            pieces.append(bytes(low | high << 4 for low, high in zip(padded[::2], padded[1::2])))
    return b"".join(pieces)


def test_vxsnd_boundaries_decode_as_on_the_archived_image():
    # Odd frame counts, code runs that clamp the predictor at both ends and
    # the step index at 0 and 88, up to eight channels, natively encoded
    # clips, and streams cut short or with an index past 88.
    codec = default_registry().get("vxsnd")
    old, new = _vms("vxsnd")
    outcomes = set()

    def check(payload):
        outcome = _outcome(new, payload)
        assert outcome == _outcome(old, payload)
        outcomes.add(outcome if isinstance(outcome, str) else outcome[0])
        return outcome

    runs = [(32000, 80, [7] * 9), (-32000, 80, [15] * 9), (0, 3, [0, 8] * 5 + [1]),
            (100, 88, [7, 3, 12, 4, 6]), (-5, 0, [0] * 7)]
    for channels in (1, 2, 3, 8):
        blocks = [[runs[(channel + number) % len(runs)] for channel in range(channels)]
                  for number in range(2)]
        block_size = len(runs[0][2])
        stream = _snd_stream(channels, [[(p, i, (c * 2)[:block_size]) for p, i, c in block]
                                        for block in blocks], block_size)
        assert check(stream)[0] == 0
        check(stream[:-1])
        check(stream[:19])
    bad_index = _snd_stream(1, [[(0, 89, [1, 2, 3])]], 3)
    check(bad_index)
    for channels, frames, block_size in ((1, 1, 64), (2, 129, 64), (3, 2049, 2048)):
        samples = np.clip(np.arange(frames * channels).reshape(frames, channels) * 977 % 70000
                          - 35000, -32768, 32767).astype(np.int16)
        payload = codec.encode(write_wav(WavAudio(sample_rate=8000, samples=samples)),
                               block_size=block_size)
        assert check(payload) == (0, codec.decode(payload))
    assert {0, 93, 94} <= outcomes


# -- the count gate -------------------------------------------------------------------------

#: The rewritten loops' ceiling, as a fraction of the archived image's
#: instructions on the same payload.  Counts, never durations.  The vximg,
#: vxjp2 and vxbwt rows lie between the images before the BMP cursor,
#: hd_fill and the fused walk (0.350, 0.774, 0.835) and after them (0.324,
#: 0.731, 0.593); the vxz, vxflac and vxsnd rows between the images before
#: their loops took the reader into locals (1.0 each) and after (0.659,
#: 0.393, 0.639).
_CEILINGS = {"vximg": 0.34, "vxjp2": 0.75, "vxbwt": 0.70,
             "vxz": 0.70, "vxflac": 0.45, "vxsnd": 0.70}


@pytest.mark.parametrize("name", sorted(_CEILINGS))
def test_rewritten_decoders_execute_fewer_instructions(name):
    payload = _tier1_payloads()[name]
    old, new = _vms(name)
    before = old.decode(payload)
    after = new.decode(payload)
    assert (after.exit_code, after.output) == (before.exit_code, before.output)
    assert after.stats.instructions <= _CEILINGS[name] * before.stats.instructions


# -- the native decoders refuse what they cannot hold -----------------------------------

def _with_dimensions(stream: bytes, width: int, height: int) -> bytes:
    return stream[:4] + struct.pack("<HH", width, height) + stream[8:]


def _peak_of_refusal(codec_name: str, stream: bytes) -> int:
    codec = default_registry().get(codec_name)
    tracemalloc.start()
    try:
        with pytest.raises(CodecError):
            codec.decode(stream)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("codec_name", ["vximg", "vxjp2"])
def test_native_decoder_refuses_dimensions_past_its_maximum(codec_name):
    codec = default_registry().get(codec_name)
    stream = codec.encode_pixels(synthetic_photo(8, 8, seed=1))
    huge = _with_dimensions(stream, 65535, 65535)
    assert _peak_of_refusal(codec_name, huge) < 64 << 20


def test_native_vximg_refuses_too_few_tokens_before_allocating():
    # 16384 x 16384 is allowed, but its 4 M blocks need at least 8 M token
    # bytes per channel; this stream has a few dozen.
    stream = default_registry().get("vximg").encode_pixels(synthetic_photo(8, 8, seed=1))
    big = _with_dimensions(stream, 16384, 16384)
    assert _peak_of_refusal("vximg", big) < 64 << 20
