"""Integer 8x8 block DCT used by the JPEG-class lossy image codec.

The forward transform (encoder side, runs natively) uses a floating-point
DCT-II and rounds; the inverse transform is defined purely over integers with
fixed-point arithmetic so that the guest decoder written in vxc -- which has
no floating point -- produces *bit-identical* pixels to the native Python
decoder.  The fixed-point inverse uses 12-bit cosine coefficients.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK = 8

#: Fixed-point scale for the integer inverse DCT (12 fractional bits).
FIX_BITS = 12
FIX_SCALE = 1 << FIX_BITS

#: Base luminance quantisation table (the JPEG Annex K table).
BASE_QUANT = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)

#: Zig-zag scan order for an 8x8 block (row, column) pairs flattened.
ZIGZAG = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
]


def quant_table(quality: int) -> np.ndarray:
    """Scale the base quantisation table for a quality setting of 1..100."""
    quality = max(1, min(100, quality))
    if quality < 50:
        scale = 5000 // quality
    else:
        scale = 200 - quality * 2
    table = (BASE_QUANT * scale + 50) // 100
    return np.clip(table, 1, 255).astype(np.int64)


def _dct_matrix() -> np.ndarray:
    matrix = np.zeros((BLOCK, BLOCK))
    for k in range(BLOCK):
        for n in range(BLOCK):
            matrix[k, n] = math.cos(math.pi * (2 * n + 1) * k / (2 * BLOCK))
    matrix *= math.sqrt(2.0 / BLOCK)
    matrix[0, :] *= 1.0 / math.sqrt(2.0)
    return matrix

_DCT = _dct_matrix()

#: Fixed-point inverse-DCT basis used by both decoders (Python and vxc).
IDCT_FIXED = np.round(_DCT * FIX_SCALE).astype(np.int64)


def forward_dct(block: np.ndarray) -> np.ndarray:
    """Forward 2-D DCT-II of one 8x8 block (float, rounded to ints)."""
    shifted = block.astype(np.float64) - 128.0
    coefficients = _DCT @ shifted @ _DCT.T
    return np.round(coefficients).astype(np.int64)


def inverse_dct_integer(coefficients: np.ndarray) -> np.ndarray:
    """Fixed-point inverse DCT, bit-exact with the guest implementation.

    Column pass then row pass, each with a rounding shift by ``FIX_BITS``;
    finally the +128 level shift and clamp to 0..255.  The guest decoder
    (``repro.codecs.guest.image``) computes the same two products but only
    over the rows and columns of the block that hold a non-zero coefficient:
    every term it skips is zero, so on a valid stream the pixels are these.
    """
    coefficients = coefficients.astype(np.int64)
    # temp[x, y] = sum_u IDCT[u, x] * C[u, y]   (column pass)
    temp = IDCT_FIXED.T @ coefficients
    temp = _round_shift(temp, FIX_BITS)
    # pixels[x, y] = sum_v temp[x, v] * IDCT[v, y]  (row pass)
    pixels = temp @ IDCT_FIXED
    pixels = _round_shift(pixels, FIX_BITS) + 128
    return np.clip(pixels, 0, 255)


def _round_shift(value, bits: int):
    """Arithmetic shift right with round-half-up, matching the vxc decoder.

    Works on Python ints and on numpy int64 arrays; ``>>`` floors for negative
    values in both, which is what the guest's ``asr`` instruction does.
    """
    return (value + (1 << (bits - 1))) >> bits


def zigzag_scan(block: np.ndarray) -> list[int]:
    """Flatten an 8x8 block in zig-zag order."""
    flat = block.reshape(64)
    return [int(flat[index]) for index in ZIGZAG]


def zigzag_unscan(values: list[int]) -> np.ndarray:
    """Inverse of :func:`zigzag_scan`."""
    flat = np.zeros(64, dtype=np.int64)
    for position, index in enumerate(ZIGZAG):
        flat[index] = values[position]
    return flat.reshape(BLOCK, BLOCK)
