"""The table of translated guest code for one decoder image.

vx32's viability rests on caching translated fragments and reusing them every
time the decoder jumps to the same entry point (paper section 4.2).  Here a
translation is a function of the decoder *image* and the translator's
configuration and of nothing else: both engines fetch code from the image's
immutable text, never from guest memory, so no member's data and no guest
store can reach a fragment.  A table is therefore never emptied and never
trimmed.  :mod:`repro.vm.images` keeps one per (image SHA-256, translator
configuration) per process, backed per user: a session's close writes what
the table gained to :mod:`repro.vm.store` and the next process starts from it
(``restored``, ``unsaved`` below).  Every session VM runs on it whatever its
reuse policy: re-initialising a sandbox between files (section 2.4) discards
*state*, and translated code holds none.

Two keyed stores over the same image:

* ``fragments`` -- compiled superblock fragments by guest entry address (the
  translator engine; a trace also stops where it reaches one of these keys),
* ``instructions`` -- decoded :class:`~repro.isa.encoding.Instruction`
  objects by guest address (the reference interpreter).

A table is only valid for VMs running the *same image* under the same
memory-check policy and translator configuration.  The registry guarantees
that by construction of its key (``VirtualMachine.share_code_cache``); one
built by hand and passed as ``code_cache=`` is the caller's to keep so.  Its
size is bounded by the image's text length and by
``ExecutionLimits.max_fragments``.  What a run did with it is counted in that
run's :class:`~repro.vm.limits.ExecutionStats`, not here.

Thread safety: insertion takes the lock, so the thread workers of
:mod:`repro.parallel`, which do share the registry's tables, cannot corrupt
one (``tools/lint_locks.py`` checks it).  Lookups stay lock-free -- a dict
read is atomic under CPython and the engines tolerate a racy miss: the worst
case is one duplicate translation of the same code, never corruption.
"""

from __future__ import annotations

import threading


class CodeCache:
    """Translated-code store shared by the VM execution engines.

    Args:
        shared: accepted and ignored.  Every table now outlives
            :meth:`VirtualMachine.reset`; the keyword remains only because
            ``benchmarks/vxabench/layers.py`` passes it and a change to the
            VM may not edit the benchmark that measures it.
    """

    __slots__ = ("fragments", "instructions", "lock", "restored", "unsaved")

    def __init__(self, *, shared: bool = False):
        self.fragments: dict = {}
        self.instructions: dict = {}
        self.lock = threading.Lock()
        #: Fragments the table started with because an earlier process had
        #: translated them / fragments stored since it was last written back.
        self.restored = 0
        self.unsaved = 0

    def __len__(self) -> int:
        return len(self.fragments)

    def store(self, entry: int, fragment) -> None:
        """Insert the fragment translated for guest address ``entry``."""
        with self.lock:
            self.fragments[entry] = fragment
            self.unsaved += 1

    def snapshot(self) -> list:
        """The fragments held now, for writing back; ``unsaved`` starts over."""
        with self.lock:
            self.unsaved = 0
            return list(self.fragments.values())

    def store_instruction(self, address: int, instruction) -> None:
        """Insert one decoded instruction (bounded by the guest's code size)."""
        with self.lock:
            self.instructions[address] = instruction
