"""``vxjp2``: the JPEG-2000-class wavelet still-image codec.

Analogue of the paper's ``jp2`` codec (Table 1, the JasPer-based JPEG-2000
decoder).  It uses the building blocks JPEG 2000's reversible path uses: the
reversible colour transform (RCT), a multi-level integer 5/3 lifting wavelet
decomposition, per-subband dead-zone quantisation, and an entropy-coded
coefficient stream.  Like the paper's decoder, ours emits a BMP image.

Stream layout (little endian)::

    0   4   magic "VXJ2"
    4   2   width (original)
    6   2   height
    8   1   decomposition levels
    9   1   quality (1..100; 100 selects lossless quantisation steps of 1)
    10  1   channels (3)
    11  ... entropy-coded token stream (same Huffman byte-stream layer as
            vximg): per channel, per subband, (run, value) coefficient tokens
            with run byte 255 meaning "rest of this subband is zero".
"""

from __future__ import annotations

import struct

import numpy as np

from repro.codecs.base import Codec, CodecInfo
from repro.codecs.bitio import read_uvarint, write_uvarint, zigzag_decode, zigzag_encode
from repro.codecs.vximg import _huffman_pack, _huffman_unpack
from repro.codecs.wavelet import forward_2d, inverse_2d, padded_size, subband_shapes
from repro.errors import CodecError
from repro.formats.bmp import is_bmp, read_bmp, write_bmp
from repro.formats.ppm import is_ppm, read_ppm

MAGIC = b"VXJ2"
_HEADER = struct.Struct("<4sHHBBB")
END_OF_BAND_RUN = 255
MAX_DIMENSION = 16384
DEFAULT_LEVELS = 3


# -- reversible colour transform (JPEG 2000 RCT) ----------------------------------

def rct_forward(rgb: np.ndarray) -> np.ndarray:
    r = rgb[..., 0].astype(np.int64)
    g = rgb[..., 1].astype(np.int64)
    b = rgb[..., 2].astype(np.int64)
    y = (r + 2 * g + b) >> 2
    u = b - g
    v = r - g
    return np.stack([y, u, v], axis=-1)


def rct_inverse(yuv: np.ndarray) -> np.ndarray:
    y = yuv[..., 0].astype(np.int64)
    u = yuv[..., 1].astype(np.int64)
    v = yuv[..., 2].astype(np.int64)
    g = y - ((u + v) >> 2)
    r = v + g
    b = u + g
    return np.clip(np.stack([r, g, b], axis=-1), 0, 255).astype(np.uint8)


def subband_step(name: str, quality: int) -> int:
    """Quantisation step for a subband; shared with the guest decoder.

    ``LL`` is always lossless (step 1).  Detail bands get coarser steps at
    finer levels and lower qualities; quality 100 is fully lossless.
    """
    if quality >= 100 or name == "LL":
        return 1
    base = max(1, (100 - quality) // 8)
    level = int(name[2:]) if name[2:] else 1
    # level 1 is the finest (largest) band and tolerates the coarsest step.
    step = base * (1 << max(0, 3 - level)) // 4
    if name.startswith("HH"):
        step *= 2
    return max(1, step)


class Vxjp2Codec(Codec):
    """JPEG-2000-class wavelet image codec; decoders output BMP."""

    info = CodecInfo(
        name="vxjp2",
        description="5/3 wavelet lossy/lossless image codec (JPEG-2000 class)",
        availability="repro.codecs.vxjp2",
        output_format="BMP image",
        category="image",
        lossy=True,
    )

    def __init__(self, *, quality: int = 75, levels: int = DEFAULT_LEVELS):
        if not 1 <= levels <= 6:
            raise ValueError("decomposition levels must be between 1 and 6")
        self._quality = quality
        self._levels = levels

    @property
    def magic(self) -> bytes:
        return MAGIC

    def can_encode(self, data: bytes) -> bool:
        return is_ppm(data) or is_bmp(data)

    # -- encoding ---------------------------------------------------------------------

    def encode(self, data: bytes, **options) -> bytes:
        quality = int(options.get("quality", self._quality))
        levels = int(options.get("levels", self._levels))
        pixels = read_ppm(data) if is_ppm(data) else read_bmp(data)
        return self.encode_pixels(pixels, quality=quality, levels=levels)

    def encode_pixels(self, pixels: np.ndarray, *, quality: int | None = None,
                      levels: int | None = None) -> bytes:
        quality = self._quality if quality is None else quality
        levels = self._levels if levels is None else levels
        height, width = pixels.shape[:2]
        if height > MAX_DIMENSION or width > MAX_DIMENSION:
            raise CodecError("image too large for vxjp2")
        padded_height = padded_size(height, levels)
        padded_width = padded_size(width, levels)
        yuv = rct_forward(pixels)
        padded = np.pad(
            yuv,
            ((0, padded_height - height), (0, padded_width - width), (0, 0)),
            mode="edge",
        )
        bands = subband_shapes(padded_height, padded_width, levels)

        tokens = bytearray()
        for channel in range(3):
            coefficients = forward_2d(padded[..., channel], levels)
            for name, row, col, band_height, band_width in bands:
                step = subband_step(name, quality)
                band = coefficients[row : row + band_height, col : col + band_width]
                quantised = _dead_zone_quantise(band, step)
                _encode_band(tokens, quantised)

        header = _HEADER.pack(MAGIC, width, height, levels, quality, 3)
        return header + _huffman_pack(bytes(tokens))

    # -- native decoding -------------------------------------------------------------------

    def decode(self, data: bytes) -> bytes:
        if len(data) < _HEADER.size or data[:4] != MAGIC:
            raise CodecError("not a vxjp2 stream")
        _, width, height, levels, quality, channels = _HEADER.unpack_from(data, 0)
        if channels != 3:
            raise CodecError("vxjp2 supports 3-channel images only")
        if not 1 <= levels <= 6 or not width or not height:
            raise CodecError("vxjp2 header is malformed")
        if width > MAX_DIMENSION or height > MAX_DIMENSION:
            raise CodecError("vxjp2 image is larger than the codec allows")
        padded_height = padded_size(height, levels)
        padded_width = padded_size(width, levels)
        bands = subband_shapes(padded_height, padded_width, levels)
        tokens = _huffman_unpack(data, _HEADER.size)

        planes = np.zeros((padded_height, padded_width, 3), dtype=np.int64)
        offset = 0
        for channel in range(3):
            coefficients = np.zeros((padded_height, padded_width), dtype=np.int64)
            for name, row, col, band_height, band_width in bands:
                step = subband_step(name, quality)
                band, offset = _decode_band(tokens, offset, band_height, band_width)
                coefficients[row : row + band_height, col : col + band_width] = band * step
            planes[..., channel] = inverse_2d(coefficients, levels)
        rgb = rct_inverse(planes[:height, :width])
        return write_bmp(rgb)

    # -- guest decoder ------------------------------------------------------------------------

    def guest_units(self):
        from repro.codecs.guest import vxjp2_guest_units

        return vxjp2_guest_units()


def _dead_zone_quantise(band: np.ndarray, step: int) -> np.ndarray:
    """Dead-zone quantiser: truncate magnitudes toward zero (JPEG 2000 style)."""
    if step == 1:
        return band.astype(np.int64)
    magnitudes = np.abs(band) // step
    return np.sign(band) * magnitudes


def _encode_band(tokens: bytearray, band: np.ndarray) -> None:
    flat = band.reshape(-1)
    run = 0
    for value in flat:
        if value == 0:
            run += 1
            continue
        while run > 254:
            tokens.append(254)
            write_uvarint(tokens, zigzag_encode(0))
            run -= 255
        tokens.append(run)
        write_uvarint(tokens, zigzag_encode(int(value)))
        run = 0
    tokens.append(END_OF_BAND_RUN)


def _decode_band(tokens: bytes, offset: int, height: int, width: int) -> tuple[np.ndarray, int]:
    flat = np.zeros(height * width, dtype=np.int64)
    position = 0
    while True:
        if offset >= len(tokens):
            raise CodecError("truncated vxjp2 token stream")
        run = tokens[offset]
        offset += 1
        if run == END_OF_BAND_RUN:
            break
        position += run
        value, offset = read_uvarint(tokens, offset)
        if position >= flat.size:
            raise CodecError("vxjp2 coefficient run overflows its subband")
        flat[position] = zigzag_decode(value)
        position += 1
    return flat.reshape(height, width), offset
