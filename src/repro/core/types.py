"""Plain result and counter types shared by every layer of the reader and writer.

A leaf module: the :mod:`repro.api` facade, :mod:`repro.core.integrity`
and :mod:`repro.parallel` all import these definitions, so nothing here
may import :mod:`repro.api`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.decoder_store import StoredDecoder

#: Extraction modes.
MODE_AUTO = "auto"        # native decoder when available, archived decoder otherwise
MODE_NATIVE = "native"    # native decoders only (fails for unknown codecs)
MODE_VXA = "vxa"          # always run the archived decoder in the VM


@dataclass
class ExtractedFile:
    """Result of extracting one member."""

    name: str
    data: bytes
    used_vxa_decoder: bool
    codec_name: str | None
    was_precompressed: bool
    decoded: bool               # False when pre-compressed data was left as-is


def _counter(phrase: str):
    """A session counter; ``phrase`` is how its value reads in printed stats."""
    return field(default=0, metadata={"phrase": phrase})


@dataclass
class SessionStats:
    """Counters for one decoder session -- the single declaration of them.

    Every consumer is a view over these fields: worker roll-ups
    (:meth:`merge`), :class:`IntegrityReport` (which inherits them), the
    ``vxunzip --stats`` / ``check`` lines (:func:`format_counters`) and the
    vxserve ``stats``/``counters`` blocks (:meth:`as_dict`).  The code-cache
    counters aggregate the per-run :class:`~repro.vm.limits.ExecutionStats`
    of every decode performed through the session (paper section 2.4's
    reuse-versus-reinitialise ablation reads them).
    """

    decodes: int = _counter("decode(s)")
    # pristine decoder image (re)loads / decodes that kept previous VM state
    vm_initialisations: int = _counter("initialisation(s)")
    vm_reuses: int = _counter("state reuse(s)")
    # superblock translations, blocks served from the fragment cache,
    # transitions over back-patched edges, entries translated again because
    # their entry guard bailed.  Translations (and the guards elided in them)
    # are work *this session performed*: caches are process-wide under every
    # reuse policy, so a session may report 0 of them and all cache hits.
    fragments_translated: int = _counter("fragment(s) translated by this session")
    # fragments its VMs found already translated by an earlier *process*
    # (repro.vm.store), counted per VM built on such a table
    fragments_restored: int = _counter("restored from the store")
    cache_hits: int = _counter("cache hit(s)")
    chained_branches: int = _counter("chained branch(es)")
    retranslations: int = _counter("retranslation(s)")
    # guards dropped on static proofs, per fragment translated (an entry
    # whose entry guard bailed counts again) and per access site *emitted*
    # (a forwarded load has none, so the count falls as forwarding improves)
    # / decoder images with an analysis report, own or not
    guards_elided: int = _counter("bounds guard(s) elided in what it translated")
    images_verified: int = _counter("image(s) with an analysis report")
    # members extracted despite media damage, opens that rebuilt a lost
    # directory, opens whose commit record checked out
    members_salvaged: int = _counter("member(s) salvaged")
    directory_reconstructed: int = _counter("directory rebuild(s)")
    commit_record_verified: int = _counter("commit record(s) verified")

    def merge(self, other: "SessionStats") -> None:
        """Accumulate another session's counters (per-worker stats roll-up)."""
        for name in _COUNTER_PHRASES:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict:
        """Counters as a plain dict (JSON transport across worker processes)."""
        return {name: getattr(self, name) for name in _COUNTER_PHRASES}

    @classmethod
    def from_dict(cls, data: dict) -> "SessionStats":
        return cls(**{name: data[name] for name in _COUNTER_PHRASES
                      if name in data})


_COUNTER_PHRASES = {counter.name: counter.metadata["phrase"]
                    for counter in fields(SessionStats)}


def format_counters(stats: SessionStats, lines, *, label_width: int = 0,
                    skip_idle: bool = False) -> list[str]:
    """Render counter lines for ``vxunzip extract --stats`` and ``check``.

    ``lines`` is a sequence of ``(label, counter names)``; each becomes
    ``"label: N phrase, M phrase, ..."`` with the label left-padded to
    ``label_width``.  ``skip_idle`` drops lines whose counters are all zero.
    """
    rendered = []
    for label, names in lines:
        if skip_idle and not any(getattr(stats, name) for name in names):
            continue
        clauses = ", ".join(f"{getattr(stats, name)} {_COUNTER_PHRASES[name]}"
                            for name in names)
        rendered.append(f"{label:<{label_width}}: {clauses}")
    return rendered


@dataclass
class IntegrityReport(SessionStats):
    """Outcome of a whole-archive integrity check.

    Carries the check session's :class:`SessionStats` counters by
    inheritance: ``vm_initialisations`` / ``vm_reuses`` feed the VM-reuse
    ablation benchmark (paper section 2.4) and the code-cache counters
    summarise the translation engine's work over the whole check.
    """

    checked: int = 0
    passed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and self.checked == self.passed

    def counters(self) -> dict:
        """The session counters as a plain dict (JSON/worker transport)."""
        return self.as_dict()


@dataclass
class ArchivedFileInfo:
    """What the writer did with one input file (returned for reporting)."""

    name: str
    codec: str | None
    stored_size: int
    original_size: int
    precompressed: bool
    method: int

    @property
    def ratio(self) -> float:
        if self.original_size == 0:
            return 1.0
        return self.stored_size / self.original_size


@dataclass
class ArchiveManifest:
    """Summary of a finished archive."""

    files: list[ArchivedFileInfo] = field(default_factory=list)
    decoders: list[StoredDecoder] = field(default_factory=list)
    archive_size: int = 0

    @property
    def decoder_overhead_bytes(self) -> int:
        return sum(decoder.compressed_size for decoder in self.decoders)

    @property
    def decoder_overhead_fraction(self) -> float:
        if self.archive_size == 0:
            return 0.0
        return self.decoder_overhead_bytes / self.archive_size
