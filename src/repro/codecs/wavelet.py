"""Integer 5/3 lifting wavelet transform for the JPEG-2000-class codec.

The LeGall 5/3 filter pair is the reversible transform JPEG 2000 uses for its
lossless path; it is defined entirely over integers, so the guest decoder
(vxc, no floating point) and the native Python decoder produce identical
pixels.

To keep the guest implementation simple and bit-exact, every decomposition
level requires even dimensions: the codec pads images to a multiple of
``2 ** levels`` before transforming (the pad columns/rows replicate the edge
pixel and are cropped again after decoding).  With even lengths the lifting
steps need boundary clamping only at the final sample:

* predict: ``d[i] = odd[i] - floor((even[i] + even[i+1]) / 2)`` with the last
  ``even[i+1]`` clamped to the final even sample,
* update:  ``s[i] = even[i] + floor((d[i-1] + d[i] + 2) / 4)`` with the first
  ``d[i-1]`` clamped to ``d[0]``.

:func:`_inverse_1d` undoes the two steps on whole arrays.  The guest decoder
(``repro.codecs.guest.image``) computes the same values one line at a time in
two loops: the evens into a scratch line, then the odds, interleaved back in
place -- a write at ``2i`` or ``2i + 1`` never reaches a detail not yet read.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodecError


def _forward_1d(signal: np.ndarray) -> np.ndarray:
    """One lifting step along the last axis (even length); returns [low | high]."""
    length = signal.shape[-1]
    if length % 2:
        raise CodecError("5/3 lifting requires even-length signals")
    even = signal[..., 0::2].astype(np.int64)
    odd = signal[..., 1::2].astype(np.int64)
    even_next = np.concatenate([even[..., 1:], even[..., -1:]], axis=-1)
    detail = odd - ((even + even_next) >> 1)
    detail_prev = np.concatenate([detail[..., :1], detail[..., :-1]], axis=-1)
    smooth = even + ((detail_prev + detail + 2) >> 2)
    return np.concatenate([smooth, detail], axis=-1)


def _inverse_1d(coefficients: np.ndarray) -> np.ndarray:
    """Invert :func:`_forward_1d`."""
    length = coefficients.shape[-1]
    if length % 2:
        raise CodecError("5/3 lifting requires even-length signals")
    half = length // 2
    smooth = coefficients[..., :half].astype(np.int64)
    detail = coefficients[..., half:].astype(np.int64)
    detail_prev = np.concatenate([detail[..., :1], detail[..., :-1]], axis=-1)
    even = smooth - ((detail_prev + detail + 2) >> 2)
    even_next = np.concatenate([even[..., 1:], even[..., -1:]], axis=-1)
    odd = detail + ((even + even_next) >> 1)
    signal = np.zeros(coefficients.shape, dtype=np.int64)
    signal[..., 0::2] = even
    signal[..., 1::2] = odd
    return signal


def forward_2d(image: np.ndarray, levels: int) -> np.ndarray:
    """Multi-level 2-D forward 5/3 transform (nested dyadic layout)."""
    height, width = image.shape
    _check_dimensions(height, width, levels)
    coefficients = image.astype(np.int64).copy()
    for level in range(levels):
        sub_height = height >> level
        sub_width = width >> level
        region = coefficients[:sub_height, :sub_width]
        region = _forward_1d(region)          # rows
        region = _forward_1d(region.T).T      # columns
        coefficients[:sub_height, :sub_width] = region
    return coefficients


def inverse_2d(coefficients: np.ndarray, levels: int) -> np.ndarray:
    """Invert :func:`forward_2d`."""
    height, width = coefficients.shape
    _check_dimensions(height, width, levels)
    output = coefficients.astype(np.int64).copy()
    for level in range(levels - 1, -1, -1):
        sub_height = height >> level
        sub_width = width >> level
        region = output[:sub_height, :sub_width]
        region = _inverse_1d(region.T).T      # columns
        region = _inverse_1d(region)          # rows
        output[:sub_height, :sub_width] = region
    return output


def _check_dimensions(height: int, width: int, levels: int) -> None:
    factor = 1 << levels
    if height % factor or width % factor:
        raise CodecError(
            f"image dimensions {width}x{height} must be multiples of {factor} "
            f"for {levels} decomposition levels (pad before transforming)"
        )


def padded_size(size: int, levels: int) -> int:
    """Smallest size >= ``size`` that is a multiple of ``2 ** levels``."""
    factor = 1 << levels
    return (size + factor - 1) // factor * factor


def subband_shapes(height: int, width: int, levels: int) -> list[tuple[str, int, int, int, int]]:
    """Describe subbands as ``(name, row, col, height, width)`` rectangles."""
    _check_dimensions(height, width, levels)
    bands = []
    current_height, current_width = height, width
    for level in range(1, levels + 1):
        low_height = current_height // 2
        low_width = current_width // 2
        bands.append((f"HL{level}", 0, low_width, low_height, low_width))
        bands.append((f"LH{level}", low_height, 0, low_height, low_width))
        bands.append((f"HH{level}", low_height, low_width, low_height, low_width))
        current_height, current_width = low_height, low_width
    bands.append(("LL", 0, 0, current_height, current_width))
    return bands
