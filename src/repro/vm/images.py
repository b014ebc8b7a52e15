"""One record per decoder image per process, backed per user, keyed by the
image's SHA-256.

Both engines fetch instructions from :attr:`ElfImage.text
<repro.elf.structures.ElfImage.text>`, never from guest memory (the code rule
in :mod:`repro.isa.opcodes`), so everything derived from an image's code is a
function of the image alone and is kept here once per process, not once per
session: the parsed image, its :class:`AnalysisReport`, and one
:class:`~repro.vm.code_cache.CodeCache` per translator configuration.  The
report and the tables also outlive the process: :meth:`ImageRecord.save`
(a session's close) writes them to :mod:`repro.vm.store` under the same
digest, and the next process's :func:`image_record` starts from them, so an
image is analysed and translated once per machine (``docs/image-store.md``).

Why sharing across members, sessions and threads leaks nothing (paper
section 2.4 confines shared state to one protection domain):

* the key is the SHA-256 of the image bytes *actually loaded*, computed here;
  a digest recorded in an archive is never read, so an archive cannot name
  another image's record;
* nothing stored under the key has a guest-writable byte or a byte of member
  data among its inputs.  The parse and the analysis read the image only; a
  fragment is translated from ``text`` under the configuration in its
  cache's key (everything ``run_translator`` reads besides the text).
  Member data decides only *which* entries get translated and in what order,
  hence where one trace stops and the next begins; every fragment is a
  faithful translation of the code at its entry whatever that order was.

The same two points make the file safe to read back: its name is this digest
(plus a fingerprint of the code that derives from it), and all it holds was
computed from the image.  What it adds is trust in the user's own cache
directory, as ``__pycache__`` does; :mod:`repro.vm.store` says how far.

One lock guards the table and every record's slots.  It is held for
dictionary operations only: parsing, analysing and translating happen outside
it and are published under it (as ``_CODE_MEMO`` does), so two threads meeting
on a new image waste one computation, never correctness, and no long call
holds the lock across a ``fork``; reading and writing the store are such
calls.  ``tools/lint_locks.py`` checks both.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.elf.reader import parse_executable
from repro.elf.structures import ElfImage
from repro.vm import store
from repro.vm.code_cache import CodeCache
from repro.vm.dispatch import Fragment, bind_fragment

if TYPE_CHECKING:
    from repro.analysis.verify import AnalysisReport

#: Images remembered per process; past it the least recently used record is
#: forgotten (a VM holding it keeps running on it).  A record's caches are
#: bounded in turn.  One is keyed by check policy, superblock limit and
#: elision (:meth:`~repro.vm.machine.VirtualMachine.share_code_cache`), and
#: sessions set only the last: they ask for at most two (guards elided where
#: the analysis proves them, or kept where an interpreter session ran none).
#: Each holds at most ``max_fragments`` and at most one per text address.
IMAGE_LIMIT = 64

#: A record pins its image's bytes and text span: the table takes only images
#: where both stay under this (50x the bundled decoders); a larger one gets a
#: private record -- parsed and analysed per VM, pinned by nobody.
IMAGE_BYTES_LIMIT = 1 << 20

_RECORDS: OrderedDict[str, "ImageRecord"] = OrderedDict()
_LOCK = threading.Lock()


class ImageRecord:
    """Everything the process has derived from one decoder image.

    ``stored`` is what :meth:`save` last wrote for the image, ``(report as a
    dict or None, {configuration: fragment rows})``: a record given one starts
    from it and is written back; one given ``None`` is private -- a parsed
    image, an image over :data:`IMAGE_BYTES_LIMIT` -- and is never persisted.
    """

    __slots__ = ("digest", "image", "_analysed", "_report", "_caches",
                 "_persistent", "_unsaved")

    def __init__(self, digest: str, image: ElfImage,
                 stored: tuple | None = None):
        self.digest = digest
        self.image = image
        self._persistent = stored is not None
        self._unsaved = False       # a report computed here, not yet written
        report, tables = stored or (None, {})
        self._analysed = report is not None
        self._report: AnalysisReport | None = None
        if report is not None:
            from repro.analysis import verify

            self._report = verify.AnalysisReport.from_dict(report)
        self._caches: dict[tuple, CodeCache] = {
            config: _restored_cache(rows) for config, rows in tables.items()}

    def analysis(self) -> AnalysisReport | None:
        """The image's analysis report, computed on first use; ``None`` if
        the analysis raised (remembered too: no VM pays for a second try)."""
        if not self._analysed:
            from repro.analysis.verify import _verify_parsed

            report: AnalysisReport | None
            try:
                report = _verify_parsed(self.image, self.digest)
            except Exception:
                report = None
            with _LOCK:
                if not self._analysed:      # first writer wins
                    self._report, self._analysed = report, True
                    self._unsaved = report is not None
        return self._report

    def code_cache(self, config: tuple) -> CodeCache:
        """The cache of every VM translating this image under ``config``
        (see :meth:`VirtualMachine.share_code_cache`)."""
        with _LOCK:
            cache = self._caches.get(config)
            if cache is None:
                cache = self._caches[config] = CodeCache()
        return cache

    def save(self) -> None:
        """Write the report and the tables to the store if this process added
        to them.  An analysis that raised is not written: the next process
        tries again."""
        if not self._persistent:
            return
        with _LOCK:
            caches = list(self._caches.items())
            if not (self._unsaved or any(cache.unsaved for _, cache in caches)):
                return
            self._unsaved = False
            report = self._report
        tables = {
            config: [(fragment.entry, fragment.code, fragment.instruction_count,
                      fragment.exit_targets, fragment.source)
                     for fragment in cache.snapshot()]
            for config, cache in caches}
        store.write(self.digest,
                    (None if report is None else report.as_dict(), tables))


def _restored_cache(rows) -> CodeCache:
    """A table holding the fragments :meth:`ImageRecord.save` wrote as ``rows``."""
    cache = CodeCache()
    for entry, code, count, exits, source in rows:
        cache.fragments[entry] = Fragment(
            entry, bind_fragment(code), count, source, exits, code)
    cache.restored = len(rows)
    return cache


def image_record(data: bytes) -> ImageRecord:
    """The process's record for the image ``data`` (parsed on first sight)."""
    digest = hashlib.sha256(data).hexdigest()
    with _LOCK:
        record = _RECORDS.get(digest)
        if record is not None:
            _RECORDS.move_to_end(digest)
            return record
    image = parse_executable(data)
    if len(data) + image.load_size > IMAGE_BYTES_LIMIT:
        return ImageRecord(digest, image)
    record = ImageRecord(digest, image, store.read(digest) or (None, {}))
    with _LOCK:
        record = _RECORDS.setdefault(digest, record)
        while len(_RECORDS) > IMAGE_LIMIT:
            _RECORDS.popitem(last=False)
    return record


def forget_images() -> None:
    """Empty the table and the store (tests that assert on a cold process)."""
    with _LOCK:
        _RECORDS.clear()
    store.empty()
