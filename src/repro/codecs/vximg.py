"""``vximg``: the JPEG-class lossy still-image codec.

Analogue of the paper's ``jpeg`` codec (Table 1): YCbCr colour conversion,
8x8 block DCT, quality-scaled quantisation, zig-zag scan, run-length token
stream, canonical Huffman entropy coding.  The decoder -- native Python and
the archived vxc guest alike -- emits a 24-bit Windows BMP image, matching
the paper's choice of "simple and universally-understood" output format.

Stream layout (little endian)::

    0   4   magic "VXI1"
    4   2   width (original, before padding to multiples of 8)
    6   2   height
    8   1   quality (1..100)
    9   1   channels (1 = grayscale, 3 = colour)
    10  64  quantisation table (zig-zag order, already quality-scaled)
    74  ... entropy-coded token stream: 257 Huffman code lengths followed by
            the bit stream; the decoded bytes form the coefficient tokens

Coefficient tokens, per channel then per 8x8 block in raster order:

* DC: the delta from the previous block's DC of the same channel, zig-zag
  mapped and LEB128-varint encoded,
* AC: ``(run, value)`` pairs -- a run byte (number of zero coefficients
  skipped) followed by the zig-zag/varint of the non-zero value; run byte
  255 terminates the block (all remaining coefficients are zero).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.codecs.base import Codec, CodecInfo
from repro.codecs.bitio import (
    BitReader,
    BitWriter,
    read_uvarint,
    write_uvarint,
    zigzag_decode,
    zigzag_encode,
)
from repro.codecs.dct import (
    BLOCK,
    ZIGZAG,
    forward_dct,
    inverse_dct_integer,
    quant_table,
    zigzag_scan,
    zigzag_unscan,
)
from repro.codecs.huffman import (
    HuffmanDecoder,
    HuffmanEncoder,
    read_lengths_header,
    write_lengths_header,
)
from repro.errors import CodecError
from repro.formats.bmp import write_bmp
from repro.formats.ppm import is_ppm, read_ppm
from repro.formats.bmp import is_bmp, read_bmp

MAGIC = b"VXI1"
_HEADER = struct.Struct("<4sHHBB")
END_OF_BLOCK_RUN = 255
_HB_SYMBOLS = 257          # 256 byte values + end-of-stream
_HB_EOS = 256

MAX_DIMENSION = 16384


# -- integer colour conversion (shared with the guest decoder) --------------------

def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """Integer RGB -> YCbCr (JPEG-style), matching the guest's fixed-point math."""
    r = rgb[..., 0].astype(np.int64)
    g = rgb[..., 1].astype(np.int64)
    b = rgb[..., 2].astype(np.int64)
    y = (77 * r + 150 * g + 29 * b) >> 8
    cb = ((-43 * r - 85 * g + 128 * b) >> 8) + 128
    cr = ((128 * r - 107 * g - 21 * b) >> 8) + 128
    return np.clip(np.stack([y, cb, cr], axis=-1), 0, 255)


def ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    """Integer YCbCr -> RGB, the exact inverse formula the guest decoder uses."""
    y = ycc[..., 0].astype(np.int64)
    cb = ycc[..., 1].astype(np.int64) - 128
    cr = ycc[..., 2].astype(np.int64) - 128
    r = y + ((359 * cr) >> 8)
    g = y - ((88 * cb + 183 * cr) >> 8)
    b = y + ((454 * cb) >> 8)
    return np.clip(np.stack([r, g, b], axis=-1), 0, 255).astype(np.uint8)


def _pad_to_blocks(plane: np.ndarray) -> np.ndarray:
    height, width = plane.shape
    padded_height = (height + BLOCK - 1) // BLOCK * BLOCK
    padded_width = (width + BLOCK - 1) // BLOCK * BLOCK
    return np.pad(plane, ((0, padded_height - height), (0, padded_width - width)), mode="edge")


class VximgCodec(Codec):
    """JPEG-class lossy image codec; decoders output BMP."""

    info = CodecInfo(
        name="vximg",
        description="8x8 DCT lossy still-image codec (JPEG class)",
        availability="repro.codecs.vximg",
        output_format="BMP image",
        category="image",
        lossy=True,
    )

    def __init__(self, *, quality: int = 75):
        self._quality = quality

    @property
    def magic(self) -> bytes:
        return MAGIC

    def can_encode(self, data: bytes) -> bool:
        return is_ppm(data) or is_bmp(data)

    # -- encoding -------------------------------------------------------------------

    def encode(self, data: bytes, **options) -> bytes:
        quality = int(options.get("quality", self._quality))
        pixels = read_ppm(data) if is_ppm(data) else read_bmp(data)
        return self.encode_pixels(pixels, quality=quality)

    def encode_pixels(self, pixels: np.ndarray, *, quality: int | None = None) -> bytes:
        """Compress an ``(H, W, 3)`` RGB array directly."""
        quality = self._quality if quality is None else quality
        height, width = pixels.shape[:2]
        if height > MAX_DIMENSION or width > MAX_DIMENSION:
            raise CodecError("image too large for vximg")
        channels = 3
        table = quant_table(quality)
        planes = rgb_to_ycbcr(pixels)

        tokens = bytearray()
        for channel in range(channels):
            plane = _pad_to_blocks(planes[..., channel])
            previous_dc = 0
            for block_row in range(0, plane.shape[0], BLOCK):
                for block_col in range(0, plane.shape[1], BLOCK):
                    block = plane[block_row : block_row + BLOCK, block_col : block_col + BLOCK]
                    coefficients = forward_dct(block)
                    quantised = np.round(coefficients / table).astype(np.int64)
                    scanned = zigzag_scan(quantised)
                    write_uvarint(tokens, zigzag_encode(int(scanned[0]) - previous_dc))
                    previous_dc = int(scanned[0])
                    self._encode_ac(tokens, scanned[1:])

        header = _HEADER.pack(MAGIC, width, height, quality, channels)
        quant_zigzag = bytes(int(table.reshape(64)[index]) for index in ZIGZAG)
        return header + quant_zigzag + _huffman_pack(bytes(tokens))

    @staticmethod
    def _encode_ac(tokens: bytearray, coefficients: list[int]) -> None:
        run = 0
        for value in coefficients:
            if value == 0:
                run += 1
                continue
            while run > 254:
                # A run longer than a byte is split by emitting an explicit
                # zero coefficient (cannot happen with 63 AC coefficients but
                # mirrored by the decoders for safety): 254 skipped zeros plus
                # the zero value itself consume 255 positions.
                tokens.append(254)
                write_uvarint(tokens, zigzag_encode(0))
                run -= 255
            tokens.append(run)
            write_uvarint(tokens, zigzag_encode(int(value)))
            run = 0
        tokens.append(END_OF_BLOCK_RUN)

    # -- native decoding ----------------------------------------------------------------

    def decode(self, data: bytes) -> bytes:
        if len(data) < _HEADER.size + 64 or data[:4] != MAGIC:
            raise CodecError("not a vximg stream")
        _, width, height, quality, channels = _HEADER.unpack_from(data, 0)
        if channels not in (1, 3):
            raise CodecError("vximg channel count must be 1 or 3")
        if not width or not height:
            raise CodecError("vximg image has zero dimensions")
        if width > MAX_DIMENSION or height > MAX_DIMENSION:
            raise CodecError("vximg image is larger than the codec allows")
        quant_zigzag = data[_HEADER.size : _HEADER.size + 64]
        table = zigzag_unscan(list(quant_zigzag))
        tokens = _huffman_unpack(data, _HEADER.size + 64)

        padded_height = (height + BLOCK - 1) // BLOCK * BLOCK
        padded_width = (width + BLOCK - 1) // BLOCK * BLOCK
        # Every block takes at least a DC byte and an end-of-block byte.
        if len(tokens) < 2 * channels * (padded_height // BLOCK) * (padded_width // BLOCK):
            raise CodecError("truncated vximg token stream")
        planes = np.zeros((padded_height, padded_width, 3), dtype=np.int64)

        offset = 0
        for channel in range(channels):
            previous_dc = 0
            for block_row in range(0, padded_height, BLOCK):
                for block_col in range(0, padded_width, BLOCK):
                    scanned, offset, previous_dc = self._decode_block(tokens, offset, previous_dc)
                    coefficients = zigzag_unscan(scanned) * table
                    pixels = inverse_dct_integer(coefficients)
                    planes[block_row : block_row + BLOCK,
                           block_col : block_col + BLOCK, channel] = pixels
        if channels == 1:
            planes[..., 1] = 128
            planes[..., 2] = 128
        rgb = ycbcr_to_rgb(planes[:height, :width])
        if channels == 1:
            rgb = np.repeat(planes[:height, :width, :1].astype(np.uint8), 3, axis=2)
        return write_bmp(rgb)

    @staticmethod
    def _decode_block(tokens: bytes, offset: int, previous_dc: int) -> tuple[list[int], int, int]:
        delta, offset = read_uvarint(tokens, offset)
        dc = previous_dc + zigzag_decode(delta)
        scanned = [dc] + [0] * 63
        position = 1
        while True:
            if offset >= len(tokens):
                raise CodecError("truncated vximg token stream")
            run = tokens[offset]
            offset += 1
            if run == END_OF_BLOCK_RUN:
                break
            position += run
            value, offset = read_uvarint(tokens, offset)
            if position >= 64:
                raise CodecError("vximg AC run overflows the block")
            scanned[position] = zigzag_decode(value)
            position += 1
        return scanned, offset, dc

    # -- guest decoder ------------------------------------------------------------------------

    def guest_units(self):
        from repro.codecs.guest import vximg_guest_units

        return vximg_guest_units()


# -- Huffman byte-stream layer (shared with vxjp2) -------------------------------------------

def _huffman_pack(payload: bytes) -> bytes:
    """Entropy-code a byte string: 257 code lengths + bit stream + EOS symbol."""
    frequencies = [0] * _HB_SYMBOLS
    for byte in payload:
        frequencies[byte] += 1
    frequencies[_HB_EOS] += 1
    encoder = HuffmanEncoder.from_frequencies(frequencies)
    writer = BitWriter()
    for byte in payload:
        encoder.write_symbol(writer, byte)
    encoder.write_symbol(writer, _HB_EOS)
    return write_lengths_header(encoder.lengths) + writer.getvalue()


def _huffman_unpack(data: bytes, offset: int) -> bytes:
    """Inverse of :func:`_huffman_pack`."""
    lengths, offset = read_lengths_header(data, offset, _HB_SYMBOLS)
    reader = BitReader(data, start=offset)
    output = bytearray()
    # The end of stream is the only symbol above 255, and every symbol takes
    # a bit or more: the run ends at it, or the walk finds the stream spent.
    HuffmanDecoder(lengths).decode_into(reader, output, reader.bits_remaining + 1)
    return bytes(output)
