"""The archived vxbwt, vximg and vxjp2 decoders decode exactly what the images
vxc 0.3 built before their hot loops were rewritten decode, in fewer
instructions.

``tests/data/<codec>-vxc-0.3.elf`` are those images, built by the same
compiler from the sources before the sparse IDCT, the two-loop in-place
lifting and the pointer-walk inverse move-to-front; they are never
regenerated.  "Exactly" means the same ``(exit_code, output)`` -- or the same
fault -- on fresh encodes of every kind of stream and on damaged ones.  The
native image decoders are checked here too: they refuse a header too large
for the codec before allocating for it.
"""

from __future__ import annotations

import functools
import hashlib
import pathlib
import random
import struct
import tracemalloc

import pytest

from repro.codecs import vxbwt as vxbwt_codec
from repro.codecs.registry import default_registry
from repro.codecs.vximg import VximgCodec, _huffman_pack, _huffman_unpack
from repro.errors import CodecError, GuestFault, ResourceLimitExceeded
from repro.vm.limits import ExecutionLimits
from repro.vm.machine import VirtualMachine
from repro.workloads.images import synthetic_photo
from repro.workloads.text import synthetic_log_bytes, synthetic_source_file

_DATA = pathlib.Path(__file__).parent / "data"

#: The images as vxc 0.3 built them from the sources before the rewrite.
ARCHIVED = {
    "vxbwt": "f9b55b1fbdc3d959ee7137a26eaaadaab29f383168abfbf185ba811b51541eb4",
    "vximg": "0ad21a88372afc4679a22ed08dcb3c68601657f493ec6d4fd1efc633955b6955",
    "vxjp2": "bd55b8a76ac18308df296d6139f0dfa87a942b947499a2fc2d1b7e70012f92f6",
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
    return {
        "vxbwt": registry.get("vxbwt").encode(synthetic_source_file(1500, seed=5).encode()),
        "vximg": registry.get("vximg").encode_pixels(photo),
        "vxjp2": registry.get("vxjp2").encode_pixels(photo),
    }


def _damaged(name: str, payload: bytes, rng: random.Random) -> list[bytes]:
    """Damage anywhere, then damage past the entropy layer: the image
    decoders' coefficient tokens, cut and flipped and packed again (runs past
    a block, values of up to 35 bits), and vxbwt's block header."""
    mutants = _mutants(payload, rng, 40)
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


# -- the count gate -------------------------------------------------------------------------

#: The rewritten loops' ceiling, as a fraction of the archived image's
#: instructions on the same payload.  Counts, never durations.  Each lies
#: between the images before the BMP cursor, hd_fill and the fused walk
#: (0.350, 0.774, 0.835) and after them (0.324, 0.731, 0.593).
_CEILINGS = {"vximg": 0.34, "vxjp2": 0.75, "vxbwt": 0.70}


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
