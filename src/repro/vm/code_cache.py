"""A first-class cache of translated guest code.

vx32's viability rests on caching translated fragments and reusing them every
time the decoder jumps to the same entry point (paper section 4.2).  Here a
translation is a function of the decoder *image* and the translator's
configuration and of nothing else: both engines fetch code from the image's
immutable text, never from guest memory, so no member's data and no guest
store can reach a fragment.  A cache therefore belongs to an image, not to a
sandbox or a session: :mod:`repro.vm.images` keeps one per (image SHA-256,
translator configuration) for the whole process, and every session whose
policy permits sharing points its VMs at it -- across the re-initialisations
section 2.4 forces, across sessions, across the threads of a worker pool.

The cache holds two keyed stores over the same guest image:

* ``fragments`` -- compiled superblock fragments, keyed by guest entry
  address (used by the translator engine),
* ``instructions`` -- decoded :class:`~repro.isa.encoding.Instruction`
  objects, keyed by guest address (used by the reference interpreter).

A cache is only valid for VMs running the *same decoder image* with the same
memory-check policy and translator configuration; the registry guarantees
this by construction of its key (``VirtualMachine.share_code_cache``).  A
cache built by hand and passed as ``code_cache=`` is the caller's to keep so.

Counters accumulate over every run of every VM that holds the cache (what
one session did is in its own runs' :class:`~repro.vm.limits.ExecutionStats`,
which is what ``vxunzip --stats`` and
:class:`~repro.core.types.IntegrityReport` add up):

* ``hits`` / ``misses`` -- fragment executions served from the cache versus
  fragment translations,
* ``chained_branches`` -- block transitions that followed a back-patched
  direct edge, bypassing the hash lookup entirely,
* ``retranslations`` -- translations of an entry point that had already been
  translated before (the waste an ``ALWAYS_FRESH`` reuse policy pays when
  the cache is private and invalidated between members),
* ``evictions`` -- fragments dropped by the optional LRU entry cap.

Thread safety: all *mutation* paths (fragment/instruction insertion, LRU
bookkeeping, counter merges, invalidation) take the cache's lock, so the
in-process thread pool of :mod:`repro.parallel`, whose workers do share the
registry's caches, cannot corrupt one or lose counter updates.  Plain lookups
(and :meth:`touch`, see there) stay lock-free -- a dict read is atomic under
CPython and the engines tolerate a racy miss (the worst case is a duplicate
translation, observable as a retranslation, never corruption).
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class CodeCache:
    """Translated-code store shared by the VM execution engines.

    Args:
        shared: a shared cache outlives its VMs and survives
            :meth:`VirtualMachine.reset`; a private cache is invalidated on
            reset so an ``ALWAYS_FRESH`` decode starts from a clean slate
            (a policy since code became immutable, no longer a safety need).
        limit: optional cap on the number of cached fragments.  When the
            cap is reached the least-recently-used fragment is evicted (and
            counted in ``evictions``).  ``None`` (the default) keeps the
            cache unbounded, which is always safe: an entry point is an
            address of the image's immutable text, so the fragment count is
            bounded by the text length as well as by
            ``ExecutionLimits.max_fragments``.
    """

    __slots__ = ("fragments", "instructions", "known", "shared", "limit",
                 "lock", "hits", "misses", "chained_branches",
                 "retranslations", "evictions")

    def __init__(self, *, shared: bool = False, limit: int | None = None):
        if limit is not None and limit < 1:
            raise ValueError("code cache limit must be at least 1")
        self.fragments: OrderedDict = OrderedDict()
        self.instructions: dict = {}
        #: Entry points ever translated -- survives invalidation, so repeated
        #: translation of the same entry is observable as a retranslation.
        self.known: set = set()
        self.shared = shared
        self.limit = limit
        #: Reentrant so counter merges may nest inside structural updates.
        self.lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.chained_branches = 0
        self.retranslations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self.fragments)

    # -- fragment store (translator engine) -----------------------------------

    def store(self, entry: int, fragment) -> int:
        """Insert one translated fragment, evicting LRU entries over the cap.

        Returns how many it evicted: a run counts its own evictions, not
        those of another thread storing into the same cache.
        Insertion order doubles as the recency order (:meth:`touch` refreshes
        it on a hit), so the eviction victim is always the first entry.
        Recency is only observed at dispatcher lookups -- chained
        transitions bypass the table entirely, which is acceptable because
        a chained predecessor keeps executing its successor by direct
        reference even after the successor's table entry is evicted.
        Evicted fragments remain *valid* -- translations are pure functions of
        the decoder's code -- so a chained predecessor that still references
        one keeps working; eviction only bounds the dispatch table, and a
        later jump to the evicted entry retranslates (counted in
        ``retranslations``).
        """
        evicted = 0
        with self.lock:
            if self.limit is not None:
                fragments = self.fragments
                while len(fragments) >= self.limit:
                    fragments.popitem(last=False)
                    evicted += 1
                self.evictions += evicted
            self.fragments[entry] = fragment
        return evicted

    def touch(self, entry: int) -> None:
        """Refresh ``entry``'s LRU recency (only called when a cap is set).

        Paid per dispatcher hit (indirect branches only).  Lock-free like the
        lookup before it: ``move_to_end`` is one atomic C-level reorder that
        never removes the entry, so no other thread's lookup can miss it --
        and a lock here made two workers sharing a cache convoy on it (a
        vxserve ``check`` ran at half speed).
        """
        try:
            self.fragments.move_to_end(entry)
        except KeyError:                    # evicted since the lookup
            pass

    def note_translation(self, entry: int) -> bool:
        """Record ``entry`` in the translation history under the lock.

        Returns ``True`` when the entry had been translated before (a
        retranslation), ``False`` on first translation.
        """
        with self.lock:
            if entry in self.known:
                return True
            self.known.add(entry)
            return False

    # -- instruction store (reference interpreter) ----------------------------

    def store_instruction(self, address: int, instruction) -> None:
        """Insert one decoded instruction (bounded by the guest's code size)."""
        with self.lock:
            self.instructions[address] = instruction

    # -- counters --------------------------------------------------------------

    def record_run(self, *, hits: int = 0, misses: int = 0,
                   chained_branches: int = 0, retranslations: int = 0) -> None:
        """Merge one engine run's counters under the lock."""
        with self.lock:
            self.hits += hits
            self.misses += misses
            self.chained_branches += chained_branches
            self.retranslations += retranslations

    def invalidate(self) -> None:
        """Drop all cached translations (counters and history persist)."""
        with self.lock:
            self.fragments.clear()
            self.instructions.clear()

    def snapshot(self) -> dict:
        """Counters as a plain dict (for reports and ``--stats`` output)."""
        with self.lock:
            return {
                "fragments": len(self.fragments),
                "hits": self.hits,
                "misses": self.misses,
                "chained_branches": self.chained_branches,
                "retranslations": self.retranslations,
                "evictions": self.evictions,
            }
