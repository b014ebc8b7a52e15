"""``vxflac``: the FLAC-class lossless audio codec.

Analogue of the paper's ``flac`` codec (Table 1) -- the one full
encoder/decoder pair in the prototype: the archiver can recognise raw WAV
audio and compress it automatically.  The scheme follows FLAC's structure:
per-block fixed linear predictors of order 0..4 with Rice-coded residuals.
Decoders emit a 16-bit PCM WAV file.

Stream layout (little endian)::

    0   4   magic "VXF1"
    4   4   sample rate
    8   1   channels
    9   1   bits per sample (always 16)
    10  4   number of frames
    14  2   block size in frames
    16  ... blocks; per block, per channel:
            u8 predictor order (0..4), u8 Rice parameter,
            Rice-coded residuals for every frame in the block;
            each block is padded to a byte boundary.

Prediction history carries across blocks (the first block starts from
zeros), so no warm-up samples are stored.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.codecs.base import Codec, CodecInfo
from repro.codecs.bitio import BitReader, BitWriter
from repro.codecs.rice import best_rice_parameter, decode_residuals, encode_residuals
from repro.errors import CodecError
from repro.formats.wav import WavAudio, is_wav, read_wav, write_wav

MAGIC = b"VXF1"
_HEADER = struct.Struct("<4sIBBIH")
DEFAULT_BLOCK_SIZE = 4096
MAX_ORDER = 4

#: Fixed predictor coefficients, FLAC's orders 0..4.
_PREDICTORS = {
    0: [],
    1: [1],
    2: [2, -1],
    3: [3, -3, 1],
    4: [4, -6, 4, -1],
}


class VxflacCodec(Codec):
    """FLAC-class lossless audio codec; decoders output WAV."""

    info = CodecInfo(
        name="vxflac",
        description="Fixed-predictor + Rice lossless audio codec (FLAC class)",
        availability="repro.codecs.vxflac",
        output_format="WAV audio",
        category="audio",
        lossy=False,
    )

    def __init__(self, *, block_size: int = DEFAULT_BLOCK_SIZE):
        if not 256 <= block_size <= 65535:
            raise ValueError("block size must be between 256 and 65535 frames")
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
        header = _HEADER.pack(
            MAGIC, audio.sample_rate, channels, 16, num_frames, block_size
        )
        pieces = [header]
        history = np.zeros((MAX_ORDER, channels), dtype=np.int64)
        for start in range(0, num_frames, block_size):
            block = samples[start : start + block_size]
            encoded, history = self._encode_block(block, history)
            pieces.append(encoded)
        return b"".join(pieces)

    def _encode_block(self, block: np.ndarray, history: np.ndarray) -> tuple[bytes, np.ndarray]:
        frames, channels = block.shape
        writer = BitWriter()
        new_history = np.zeros_like(history)
        for channel in range(channels):
            samples = block[:, channel]
            past = history[:, channel]
            best_order, best_residuals = self._choose_predictor(samples, past)
            parameter = best_rice_parameter(best_residuals)
            writer.align_to_byte()
            header = bytes([best_order, parameter])
            for byte in header:
                writer.write_bits(byte, 8)
            encode_residuals(writer, best_residuals, parameter)
            extended = np.concatenate([past[::-1], samples])
            new_history[:, channel] = extended[-MAX_ORDER:][::-1]
        writer.align_to_byte()
        return writer.getvalue(), new_history

    @staticmethod
    def _choose_predictor(samples: np.ndarray, past: np.ndarray) -> tuple[int, list[int]]:
        """Pick the fixed predictor order with the smallest absolute residual sum.

        ``past`` holds the previous samples, most recent first.
        """
        best_order = 0
        best_residuals: list[int] | None = None
        best_cost = None
        extended = np.concatenate([past[::-1], samples])  # oldest ... newest
        offset = len(past)
        for order, coefficients in _PREDICTORS.items():
            predictions = np.zeros(len(samples), dtype=np.int64)
            for tap, coefficient in enumerate(coefficients, start=1):
                predictions += coefficient * extended[offset - tap : offset - tap + len(samples)]
            residuals = (samples - predictions).tolist()
            cost = sum(abs(value) for value in residuals)
            if best_cost is None or cost < best_cost:
                best_order, best_residuals, best_cost = order, residuals, cost
        return best_order, best_residuals

    # -- native decoding -------------------------------------------------------------------

    def decode(self, data: bytes) -> bytes:
        if len(data) < _HEADER.size or data[:4] != MAGIC:
            raise CodecError("not a vxflac stream")
        _, sample_rate, channels, bits, num_frames, block_size = _HEADER.unpack_from(data, 0)
        if bits != 16 or channels < 1 or channels > 8 or block_size < 1:
            raise CodecError("vxflac header is malformed")
        if sample_rate * channels * 2 >= 1 << 32:
            raise CodecError("vxflac sample rate does not fit a WAV header")
        if num_frames * channels > 8 * len(data):
            # Every residual takes a bit or more: the stream would run out.
            raise CodecError("vxflac stream is too short for its frame count")
        reader = BitReader(data, start=_HEADER.size)
        samples = np.zeros((num_frames, channels), dtype=np.int64)
        history = np.zeros((MAX_ORDER, channels), dtype=np.int64)
        position = 0
        while position < num_frames:
            frames = min(block_size, num_frames - position)
            for channel in range(channels):
                reader.align_to_byte()
                order = reader.read_bits(8)
                parameter = reader.read_bits(8)
                if order > MAX_ORDER:
                    raise CodecError("vxflac predictor order out of range")
                residuals = decode_residuals(reader, frames, parameter)
                decoded = _reconstruct(residuals, order, history[:, channel])
                samples[position : position + frames, channel] = decoded
                combined = np.concatenate([history[:, channel][::-1], decoded])
                history[:, channel] = combined[-MAX_ORDER:][::-1]
            reader.align_to_byte()
            position += frames
        clipped = np.clip(samples, -32768, 32767).astype(np.int16)
        return write_wav(WavAudio(sample_rate=sample_rate, samples=clipped))

    # -- guest decoder -------------------------------------------------------------------------

    def guest_units(self):
        from repro.codecs.guest import vxflac_guest_units

        return vxflac_guest_units()


def _reconstruct(residuals: list[int], order: int, past: np.ndarray) -> np.ndarray:
    """Rebuild samples from residuals given the predictor ``order`` and history."""
    coefficients = _PREDICTORS[order]
    history = list(past)          # most recent first
    output = np.zeros(len(residuals), dtype=np.int64)
    for index, residual in enumerate(residuals):
        prediction = 0
        for tap, coefficient in enumerate(coefficients):
            prediction += coefficient * history[tap]
        value = residual + prediction
        output[index] = value
        history = [value] + history[:MAX_ORDER - 1]
    return output
