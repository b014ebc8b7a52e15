"""``vxsnd``: the lossy audio codec (Vorbis stand-in).

The paper's ``vorbis`` codec is a recogniser-decoder for Ogg Vorbis streams.
A faithful Vorbis implementation (MDCT, floor curves, codebooks) is far
outside what a from-scratch reproduction can justify, so the lossy-audio role
is filled by block-adaptive IMA ADPCM: a real, widely deployed lossy audio
scheme (4 bits per sample) whose decoder has the same shape -- a tight
per-sample loop driven by table lookups -- and likewise emits a WAV file.
The substitution is recorded in DESIGN.md.

Stream layout (little endian)::

    0   4   magic "VXS1"
    4   4   sample rate
    8   1   channels
    9   4   number of frames
    13  2   block size in frames
    15  ... blocks; per block, per channel:
            s16 initial predictor, u8 initial step index, u8 reserved,
            then one 4-bit code per frame, packed two per byte (low nibble
            first), padded to a whole byte per channel.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.codecs.base import Codec, CodecInfo
from repro.errors import CodecError
from repro.formats.wav import WavAudio, is_wav, read_wav, write_wav

MAGIC = b"VXS1"
_HEADER = struct.Struct("<4sIBIH")
_BLOCK_CHANNEL_HEADER = struct.Struct("<hBB")
DEFAULT_BLOCK_SIZE = 2048

#: Standard IMA ADPCM step-size table (89 entries).
STEP_TABLE = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31,
    34, 37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143,
    157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544,
    598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878,
    2066, 2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289, 16818,
    18500, 20350, 22385, 24623, 27086, 29794, 32767,
]

#: Standard IMA ADPCM index-adjustment table.
INDEX_TABLE = [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8]


def _encode_sample(sample: int, predictor: int, index: int) -> tuple[int, int, int]:
    """Encode one sample; returns (code, new_predictor, new_index)."""
    step = STEP_TABLE[index]
    delta = sample - predictor
    code = 0
    if delta < 0:
        code = 8
        delta = -delta
    if delta >= step:
        code |= 4
        delta -= step
    if delta >= step >> 1:
        code |= 2
        delta -= step >> 1
    if delta >= step >> 2:
        code |= 1
    predictor, index = _decode_sample(code, predictor, index)
    return code, predictor, index


def _decode_sample(code: int, predictor: int, index: int) -> tuple[int, int]:
    """Decode one 4-bit code; returns (new_predictor, new_index).

    This is the exact arithmetic the guest decoder implements.
    """
    step = STEP_TABLE[index]
    difference = step >> 3
    if code & 4:
        difference += step
    if code & 2:
        difference += step >> 1
    if code & 1:
        difference += step >> 2
    if code & 8:
        predictor -= difference
    else:
        predictor += difference
    predictor = max(-32768, min(32767, predictor))
    index += INDEX_TABLE[code]
    index = max(0, min(88, index))
    return predictor, index


class VxsndCodec(Codec):
    """Block-adaptive ADPCM lossy audio codec (Vorbis stand-in); outputs WAV."""

    info = CodecInfo(
        name="vxsnd",
        description="Block-adaptive ADPCM lossy audio codec (Vorbis-class role)",
        availability="repro.codecs.vxsnd",
        output_format="WAV audio",
        category="audio",
        lossy=True,
    )

    def __init__(self, *, block_size: int = DEFAULT_BLOCK_SIZE):
        if not 64 <= block_size <= 65535:
            raise ValueError("block size must be between 64 and 65535 frames")
        self._block_size = block_size

    @property
    def magic(self) -> bytes:
        return MAGIC

    def can_encode(self, data: bytes) -> bool:
        return is_wav(data)

    # -- encoding ----------------------------------------------------------------------

    def encode(self, data: bytes, **options) -> bytes:
        block_size = int(options.get("block_size", self._block_size))
        audio = read_wav(data)
        return self.encode_audio(audio, block_size=block_size)

    def encode_audio(self, audio: WavAudio, *, block_size: int | None = None) -> bytes:
        block_size = block_size or self._block_size
        samples = np.asarray(audio.samples, dtype=np.int64)
        if samples.ndim == 1:
            samples = samples[:, np.newaxis]
        num_frames, channels = samples.shape
        pieces = [_HEADER.pack(MAGIC, audio.sample_rate, channels, num_frames, block_size)]
        indices = [0] * channels
        for start in range(0, num_frames, block_size):
            block = samples[start : start + block_size]
            for channel in range(channels):
                column = block[:, channel]
                predictor = int(column[0]) if len(column) else 0
                index = indices[channel]
                pieces.append(_BLOCK_CHANNEL_HEADER.pack(predictor, index, 0))
                nibbles = bytearray()
                pending = None
                for sample in column:
                    code, predictor, index = _encode_sample(int(sample), predictor, index)
                    if pending is None:
                        pending = code
                    else:
                        nibbles.append(pending | (code << 4))
                        pending = None
                if pending is not None:
                    nibbles.append(pending)
                indices[channel] = index
                pieces.append(bytes(nibbles))
        return b"".join(pieces)

    # -- native decoding -------------------------------------------------------------------

    def decode(self, data: bytes) -> bytes:
        if len(data) < _HEADER.size or data[:4] != MAGIC:
            raise CodecError("not a vxsnd stream")
        _, sample_rate, channels, num_frames, block_size = _HEADER.unpack_from(data, 0)
        if channels < 1 or channels > 8 or block_size < 1:
            raise CodecError("vxsnd header is malformed")
        if sample_rate * channels * 2 >= 1 << 32:
            raise CodecError("vxsnd sample rate does not fit a WAV header")
        if num_frames * channels > 2 * len(data):
            # Every sample takes a nibble: the stream would run out.
            raise CodecError("vxsnd stream is too short for its frame count")
        offset = _HEADER.size
        samples = np.zeros((num_frames, channels), dtype=np.int16)
        position = 0
        while position < num_frames:
            frames = min(block_size, num_frames - position)
            for channel in range(channels):
                if offset + _BLOCK_CHANNEL_HEADER.size > len(data):
                    raise CodecError("truncated vxsnd block header")
                predictor, index, _ = _BLOCK_CHANNEL_HEADER.unpack_from(data, offset)
                offset += _BLOCK_CHANNEL_HEADER.size
                if index > 88:
                    raise CodecError("vxsnd step index out of range")
                nibble_bytes = (frames + 1) // 2
                if offset + nibble_bytes > len(data):
                    raise CodecError("truncated vxsnd nibble data")
                for frame in range(frames):
                    byte = data[offset + frame // 2]
                    code = (byte >> 4) if frame % 2 else (byte & 0x0F)
                    predictor, index = _decode_sample(code, predictor, index)
                    samples[position + frame, channel] = predictor
                offset += nibble_bytes
            position += frames
        return write_wav(WavAudio(sample_rate=sample_rate, samples=samples))

    # -- guest decoder ------------------------------------------------------------------------

    def guest_units(self):
        from repro.codecs.guest import vxsnd_guest_units

        return vxsnd_guest_units()
