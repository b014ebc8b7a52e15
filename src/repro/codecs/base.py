"""The codec plug-in interface used by the vxZIP archiver.

Each codec bundles the two halves the paper describes in section 3.3:

* a **native encoder** (here: Python) that the archiver loads into its own
  process and calls directly -- encoders are never virtualised,
* a **VXA decoder**: an ELF executable for the virtual machine, written in
  vxc and compiled on demand, which the archiver embeds in the archive.

A codec also provides a *native decoder* (the fast path vxUnZIP may use for
well-known formats) and two recognisers: one for raw content it can compress
and one for content already compressed in its own format (the "redec" path).

This module is on every reader's import path (``api.builder`` and
``codecs.registry`` name :class:`Codec`), so it imports nothing a reader does
not run: the vxc compiler is imported where an image is built
(:func:`_compile_guest`), the same way each codec module imports its guest
source units inside ``guest_units``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.vxc.compiler import CompileResult, SourceUnit


@dataclass(frozen=True)
class CodecInfo:
    """Static description of a codec (the columns of the paper's Table 1)."""

    name: str
    description: str
    availability: str          # where the implementation lives in this library
    output_format: str         # what the decoder produces ("raw data", "BMP image", ...)
    category: str              # "general", "image", "audio"
    lossy: bool


class Codec(abc.ABC):
    """Base class for codec plug-ins."""

    #: Static metadata; subclasses must override.
    info: CodecInfo

    # -- encoding (native, archiver side) -------------------------------------

    @abc.abstractmethod
    def encode(self, data: bytes, **options) -> bytes:
        """Compress raw content into this codec's format."""

    @abc.abstractmethod
    def decode(self, data: bytes) -> bytes:
        """Native (non-virtualised) decoder -- the archive reader's fast path."""

    # -- recognition ------------------------------------------------------------

    @abc.abstractmethod
    def can_encode(self, data: bytes) -> bool:
        """Return True if ``data`` is raw content this codec should compress."""

    def matches(self, data: bytes) -> bool:
        """Return True if ``data`` is already compressed in this codec's format."""
        return data[:4] == self.magic

    @property
    @abc.abstractmethod
    def magic(self) -> bytes:
        """Four-byte magic prefix of this codec's compressed format."""

    # -- the archived VXA decoder -------------------------------------------------

    @abc.abstractmethod
    def guest_units(self) -> list[SourceUnit]:
        """vxc source units (decoder + shared libraries) for the guest decoder."""

    def build_guest_decoder(self) -> CompileResult:
        """Compile (and cache) the guest decoder executable for this codec."""
        return _compile_guest(type(self))

    def guest_decoder_image(self) -> bytes:
        """The decoder ELF image embedded in archives."""
        return self.build_guest_decoder().elf

    # -- misc -----------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.info.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Codec {self.info.name}>"


@lru_cache(maxsize=None)
def _compile_guest(codec_class) -> CompileResult:
    """Compile a codec's guest decoder once per process."""
    from repro.vxc.compiler import compile_units

    codec = codec_class()
    return compile_units(
        codec.guest_units(),
        codec_name=codec.info.name,
        extra_note={"output_format": codec.info.output_format},
    )
