"""The archiver's codec plug-in registry.

The vxZIP archiver is not built around a fixed set of compressors (paper
section 3.3): codecs register here and the archiver consults the registry to
pick a codec per input file.  The registry also produces the decoder
inventory of the paper's Table 1.

The rule of this module: a standard codec is *resolved by name from a table*
(``_STANDARD``: name -> module, class) and its module is imported at the
point of first use -- the first ``encode``, the first native ``decode``, the
first decoder-image build, all of which arrive through :meth:`CodecRegistry.get`
or iteration -- never when the registry is imported or constructed.  (The
shape is ``DBC[CP.carFingerprint]`` in SNIPPETS.md: a table keyed by what was
detected, consulted where the answer is needed.)  ``names``, ``in`` and
``len`` answer from the table alone, so a reader that only runs archived
decoders (``mode="vxa"``) imports no codec, no numpy and no compiler.
"""

from __future__ import annotations

from importlib import import_module
from typing import Iterator

from repro.codecs.base import Codec
from repro.errors import CodecError

#: The six codecs shipped with the prototype (paper Table 1), in selection
#: order: registered name -> (module, class).
_STANDARD = {
    "vxz": ("repro.codecs.vxz", "VxzCodec"),
    "vxbwt": ("repro.codecs.vxbwt", "VxbwtCodec"),
    "vximg": ("repro.codecs.vximg", "VximgCodec"),
    "vxjp2": ("repro.codecs.vxjp2", "Vxjp2Codec"),
    "vxflac": ("repro.codecs.vxflac", "VxflacCodec"),
    "vxsnd": ("repro.codecs.vxsnd", "VxsndCodec"),
}


class CodecRegistry:
    """A mutable set of codec plug-ins with lookup helpers."""

    def __init__(self, codecs: list[Codec] | None = None, *, default: str = "vxz"):
        # name -> instance; ``None`` marks a standard codec not yet imported.
        self._codecs: dict[str, Codec | None] = {}
        if codecs is None:
            self._codecs = dict.fromkeys(_STANDARD)
        else:
            for codec in codecs:
                self.register(codec)
        if default not in self._codecs:
            raise CodecError(f"default codec {default!r} is not registered")
        self._default = default

    # -- management -----------------------------------------------------------------

    def register(self, codec: Codec) -> None:
        """Add (or replace) a codec plug-in."""
        self._codecs[codec.info.name] = codec

    def unregister(self, name: str) -> None:
        if name == self._default:
            raise CodecError("cannot unregister the default codec")
        self._codecs.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._codecs

    def __iter__(self) -> Iterator[Codec]:
        return map(self.get, self._codecs)

    def __len__(self) -> int:
        return len(self._codecs)

    @property
    def names(self) -> list[str]:
        return list(self._codecs)

    # -- lookup -----------------------------------------------------------------------

    def get(self, name: str) -> Codec:
        try:
            codec = self._codecs[name]
        except KeyError:
            raise CodecError(f"no codec named {name!r} is registered") from None
        if codec is None:
            # First use of a standard codec.  No lock: two threads meeting
            # here may both instantiate it, which is idempotent (codecs are
            # stateless, the last write wins) and the import itself is
            # serialised by the interpreter's import lock.
            module, class_name = _STANDARD[name]
            codec = self._codecs[name] = getattr(import_module(module), class_name)()
        return codec

    @property
    def default(self) -> Codec:
        return self.get(self._default)

    def recognize_compressed(self, data: bytes) -> Codec | None:
        """Find the codec whose *compressed* format ``data`` is already in.

        This is the redec path: the archiver stores such data untouched and
        merely attaches the matching decoder.
        """
        for codec in self:
            if codec.matches(data):
                return codec
        return None

    def select_for_raw(self, data: bytes, *, allow_lossy: bool = False) -> Codec:
        """Choose the codec used to compress raw content.

        Media-specific codecs win over the general-purpose default when they
        recognise the content, but lossy codecs are only chosen when the
        operator explicitly allows loss (paper section 2.2).
        """
        for codec in self:
            if codec.info.category == "general":
                continue        # general-purpose codecs are the fallback, not a match
            if not codec.can_encode(data):
                continue
            if codec.info.lossy and not allow_lossy:
                continue
            return codec
        return self.default

    # -- reporting -----------------------------------------------------------------------

    def inventory(self) -> list[dict]:
        """The decoder inventory, one row per codec (paper Table 1)."""
        rows = []
        for codec in self:
            info = codec.info
            rows.append(
                {
                    "decoder": info.name,
                    "description": info.description,
                    "availability": info.availability,
                    "output_format": info.output_format,
                    "category": info.category,
                    "lossy": info.lossy,
                }
            )
        return rows


_default_registry: CodecRegistry | None = None


def default_registry() -> CodecRegistry:
    """A process-wide registry with the standard codecs (lazily constructed)."""
    global _default_registry
    if _default_registry is None:
        _default_registry = CodecRegistry()
    return _default_registry
