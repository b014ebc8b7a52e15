"""One record per decoder image per process, keyed by the image's SHA-256.

Both engines fetch instructions from :attr:`ElfImage.text
<repro.elf.structures.ElfImage.text>`, never from guest memory (the code rule
in :mod:`repro.isa.opcodes`), so everything derived from an image's code is a
function of the image alone and is kept here once per process, not once per
session: the parsed image, its :class:`AnalysisReport`, and one
:class:`~repro.vm.code_cache.CodeCache` per translator configuration.

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

One lock guards the table and every record's slots.  It is held for
dictionary operations only: parsing, analysing and translating happen outside
it and are published under it (as ``_CODE_MEMO`` does), so two threads meeting
on a new image waste one computation, never correctness, and no long call
holds the lock across a ``fork``.  ``tools/lint_locks.py`` checks both.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.elf.reader import parse_executable
from repro.elf.structures import ElfImage
from repro.vm.code_cache import CodeCache

if TYPE_CHECKING:
    from repro.analysis.verify import AnalysisReport

#: Images remembered per process; past it the least recently used record is
#: forgotten (a VM holding it keeps running on it).  A record's caches are
#: bounded in turn: a session can ask for two (guards elided or kept), each
#: holds at most ``max_fragments`` and at most one per text address.
IMAGE_LIMIT = 64

#: A record pins its image's bytes and text span: the table takes only images
#: where both stay under this (50x the bundled decoders); a larger one gets a
#: private record -- parsed and analysed per VM, pinned by nobody.
IMAGE_BYTES_LIMIT = 1 << 20

_RECORDS: OrderedDict[str, "ImageRecord"] = OrderedDict()
_LOCK = threading.Lock()


class ImageRecord:
    """Everything the process has derived from one decoder image."""

    __slots__ = ("digest", "image", "_analysed", "_report", "_caches")

    def __init__(self, digest: str, image: ElfImage):
        self.digest = digest
        self.image = image
        self._analysed = False
        self._report: AnalysisReport | None = None
        self._caches: dict[tuple, CodeCache] = {}

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
        return self._report

    def code_cache(self, config: tuple) -> CodeCache:
        """The cache of every VM translating this image under ``config``
        (see :meth:`VirtualMachine.share_code_cache`)."""
        with _LOCK:
            cache = self._caches.get(config)
            if cache is None:
                cache = self._caches[config] = CodeCache()
        return cache


def image_record(data: bytes) -> ImageRecord:
    """The process's record for the image ``data`` (parsed on first sight)."""
    digest = hashlib.sha256(data).hexdigest()
    with _LOCK:
        record = _RECORDS.get(digest)
        if record is not None:
            _RECORDS.move_to_end(digest)
            return record
    record = ImageRecord(digest, parse_executable(data))
    if len(data) + record.image.load_size > IMAGE_BYTES_LIMIT:
        return record
    with _LOCK:
        record = _RECORDS.setdefault(digest, record)
        while len(_RECORDS) > IMAGE_LIMIT:
            _RECORDS.popitem(last=False)
    return record


def forget_images() -> None:
    """Empty the table (tests that assert on a cold process)."""
    with _LOCK:
        _RECORDS.clear()
