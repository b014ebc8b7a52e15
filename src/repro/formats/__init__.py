"""Uncompressed container formats decoders extract into (BMP, WAV, PPM)."""

from repro.formats.bmp import is_bmp, read_bmp, write_bmp
from repro.formats.ppm import is_ppm, read_ppm, write_ppm
from repro.formats.wav import WavAudio, is_wav, read_wav, write_wav

__all__ = [
    "is_bmp",
    "read_bmp",
    "write_bmp",
    "is_ppm",
    "read_ppm",
    "write_ppm",
    "WavAudio",
    "is_wav",
    "read_wav",
    "write_wav",
]
