"""The translator's runtime: what a translated fragment calls, and the
trampoline that runs fragments (the analogue of vx32's dispatch loop).

A fragment is compiled Python code (:mod:`repro.vm.translator` generates it)
bound over :data:`_FRAGMENT_GLOBALS`: the division, fault and budget helpers
and the ``struct`` packers it inlines memory access with.  Everything here is
needed whenever translated code *runs*, whether it was translated in this
process or restored from the per-user store (:mod:`repro.vm.images`); the code
generator is needed only when a fragment is *missing*.  So
:func:`run_translator` imports :mod:`repro.vm.translator` at its first
fragment-cache miss, and a process whose store is warm never loads it
(``docs/image-store.md``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial
from time import monotonic
from typing import Callable

from repro.errors import (
    DeadlineExceeded,
    DivisionFault,
    MemoryFault,
    ResourceLimitExceeded,
)
from repro.vm.syscalls import ACTION_EXIT

_MASK = 0xFFFFFFFF


@dataclass(slots=True)
class Fragment:
    """One translated code fragment (a superblock trace)."""

    entry: int                    # guest address of the first instruction
    func: Callable                # compiled fragment: (vm, regs, mem, buf, *exits)
    instruction_count: int        # guest instructions translated, arms included
    source: str                   # generated Python source (for inspection/tests)
    exit_targets: tuple[int, ...] = ()   # static successor pc per chainable exit
    code: object = None           # what ``compile`` made of ``source``: a table
                                  # restored from disk and grown is saved from it


def _signed(value: int) -> int:
    return value - 0x100000000 if value >= 0x80000000 else value


def _signed_division(dividend: int, divisor: int, want_remainder: bool) -> int:
    """C-style truncating signed division / remainder on 32-bit values."""
    if divisor == 0:
        raise DivisionFault("division by zero")
    dividend_signed = _signed(dividend)
    divisor_signed = _signed(divisor)
    quotient = abs(dividend_signed) // abs(divisor_signed)
    if (dividend_signed < 0) != (divisor_signed < 0):
        quotient = -quotient
    if want_remainder:
        return (dividend_signed - quotient * divisor_signed) & _MASK
    return quotient & _MASK


def _unsigned_division(dividend: int, divisor: int, want_remainder: bool) -> int:
    if divisor == 0:
        raise DivisionFault("division by zero")
    return (dividend % divisor if want_remainder else dividend // divisor) & _MASK


def _memory_fault(address: int, size: int, kind: str):
    raise MemoryFault(address, size, kind)


#: Instructions between wall-clock deadline checks when one is armed.  The
#: generated fragments and the dispatcher already compare ``vm.icount``
#: against ``vm.budget`` on every fragment exit and loop back-edge; with a
#: deadline active, ``vm.budget`` is lowered to a rolling *checkpoint* so
#: those very comparisons bring execution into :func:`_budget_exceeded`
#: about every quantum, where the (comparatively expensive) time check
#: runs.  Fragment source text is untouched, preserving the process-wide
#: compile memo.
DEADLINE_CHECK_INTERVAL = 250_000


def _budget_exceeded(vm):
    """Fragment/dispatcher budget stop: hard limit, deadline, or checkpoint.

    Reached whenever ``vm.icount > vm.budget``.  With no deadline armed,
    ``vm.budget`` *is* the hard instruction budget and this always raises.
    With a deadline armed, ``vm.budget`` is a rolling checkpoint below the
    hard budget: enforce the hard budget, then the wall clock, then slide
    the checkpoint forward and resume.
    """
    hard = getattr(vm, "hard_budget", vm.budget)
    if vm.icount > hard:
        raise ResourceLimitExceeded(
            f"decoder exceeded its instruction budget ({hard})"
        )
    deadline = vm.deadline
    if deadline is not None and monotonic() >= deadline:
        raise DeadlineExceeded(
            "decoder exceeded its wall-clock deadline",
            deadline=vm.limits_in_effect.max_wall_seconds,
            instructions=vm.icount,
        )
    vm.budget = min(hard, vm.icount + DEADLINE_CHECK_INTERVAL)


#: Packers/unpackers for inlined guest memory access.  ``unpack_from`` and
#: ``pack_into`` operate on the backing bytearray with no intermediate bytes
#: object (3-4x cheaper than ``int.from_bytes`` over a slice) and raise
#: ``struct.error`` on any overrun, so even unchecked-policy accesses can
#: never escape or resize the sandbox.
_U32 = struct.Struct("<I").unpack_from
_P32 = struct.Struct("<I").pack_into
_U16 = struct.Struct("<H").unpack_from
_P16 = struct.Struct("<H").pack_into
#: What a fragment whose entry guard fails returns (exit slots count down
#: from -1).
_BAIL = -1 << 30

#: Globals made available to generated fragment code.
_FRAGMENT_GLOBALS = {
    "_sdiv": _signed_division,
    "_udiv": _unsigned_division,
    "_flt": _memory_fault,
    "_over": _budget_exceeded,
    "_u32": _U32,
    "_p32": _P32,
    "_u16": _U16,
    "_p16": _P16,
    "ACTION_EXIT": ACTION_EXIT,
}


def bind_fragment(code_object) -> Callable:
    """The fragment function of a compiled fragment module, over globals of
    its own -- for a fragment just translated and for one restored from disk."""
    namespace = dict(_FRAGMENT_GLOBALS)
    exec(code_object, namespace)
    return namespace["_fragment"]


def _translator(vm):
    """The code generator for ``vm``'s image and configuration -- imported
    here, at a fragment-cache miss, and never by a run that has none."""
    from repro.vm.translator import Translator

    # Analysis-driven guard elision, decided once per VM at load.
    proved_reads: frozenset = frozenset()
    proved_writes: frozenset = frozenset()
    if vm.elides_guards:
        proved_reads = vm.analysis_report.proved_reads
        proved_writes = vm.analysis_report.proved_writes
    return Translator(
        vm.memory, vm.text_start, vm.text_end, text=vm.text,
        superblock_limit=vm.superblock_limit, known_entries=vm.code_cache.fragments,
        proved_reads=proved_reads, proved_writes=proved_writes,
    )


def run_translator(vm) -> None:
    """Run ``vm`` until exit/halt/fault using chained superblock fragments.

    The trampoline below is the analogue of vx32's dispatch loop.  A fragment
    returns one of three things:

    * a :class:`Fragment` -- a back-patched direct edge; continue there with
      no cache lookup (a *chained* transition),
    * a negative ``int`` -- an unlinked chainable exit; bit-inverted it is
      the exit slot whose static target must be resolved once and patched
      into the fragment's defaults (``_BAIL``: its entry guard failed),
    * a non-negative ``int`` -- a dynamically computed successor address
      (indirect branch); resolve it through the fragment cache's hash table.

    The cache may be shared with VMs on other threads.  Fragments are
    re-entrant (all machine state arrives as arguments), and the one unlocked
    read-modify-write below, back-patching ``func.__defaults__``, is benign:
    two threads linking different exits of one fragment may lose one link,
    which is re-resolved at its next crossing, and any link present is right
    -- a static exit's successor depends on image and configuration only.
    """
    memory = vm.memory
    regs = vm.regs
    stats = vm.stats
    cache = vm.code_cache
    limits = vm.limits_in_effect          # the per-run (input-scaled) limits
    budget = limits.max_instructions
    if budget is None:
        budget = float("inf")
    vm.hard_budget = budget
    # With a deadline armed, vm.budget becomes a rolling checkpoint (see
    # _budget_exceeded); otherwise it is the hard budget, exactly as before.
    if vm.deadline is None:
        vm.budget = budget
    else:
        vm.budget = min(budget, DEADLINE_CHECK_INTERVAL)
    max_fragments = limits.max_fragments
    translator = None               # built at the first miss, if there is one
    # Bound here so that ``resolve`` does not close over ``vm``, which would
    # turn every ``vm`` of the loop below into a cell load.
    new_translator = partial(_translator, vm)
    fragments = cache.fragments
    buf = memory.buffer

    blocks = 0
    misses = 0
    retranslated = 0
    chained = 0
    vm.icount = 0
    pc = vm.pc

    def resolve(target: int, bailed: Fragment | None = None) -> Fragment:
        """The fragment for ``target``, not ``bailed`` (its entry guard refused)."""
        nonlocal misses, retranslated, translator
        fragment = fragments.get(target)
        if fragment is not None and fragment is not bailed:
            return fragment
        # The limit bounds translation-table memory (a bail replaces an
        # entry, so it cannot grow the table).
        if bailed is None and len(fragments) >= max_fragments:
            raise ResourceLimitExceeded(
                f"decoder exceeded the translated-fragment limit "
                f"({max_fragments})"
            )
        if translator is None:
            translator = new_translator()
        fragment = (translator.translate(target) if bailed is None
                    else translator._translate(target, False))
        misses += 1
        if bailed is not None:      # the one way an entry is translated twice
            retranslated += 1
        cache.store(target, fragment)
        return fragment

    try:
        frag = resolve(pc)
        func = frag.func
        while True:
            blocks += 1
            try:
                ret = func(vm, regs, memory, buf)
            except (IndexError, struct.error) as error:
                # Unchecked access past the sandbox: packers, byte indexing
                # and word view all bounds-check against the backing store.
                # Only these errors, out of the fragment's own code, qualify:
                # an IndexError out of the syscall layer (via VXCALL) or a
                # ValueError (a released view) is a host bug and propagates.
                traceback = error.__traceback__
                while traceback.tb_next is not None:
                    traceback = traceback.tb_next
                origin = traceback.tb_frame.f_code.co_filename
                if not origin.startswith("<vxa-fragment-"):
                    raise
                # The faulting address is not recoverable here; report the
                # fragment entry as the locus.
                raise MemoryFault(pc, 1, "access") from None
            if vm.halted:
                if ret.__class__ is int:
                    pc = ret if ret >= 0 else frag.exit_targets[-1 - ret]
                else:
                    pc = ret.entry
                break
            if vm.icount > vm.budget:
                _budget_exceeded(vm)
            if ret.__class__ is int:
                if ret >= 0:
                    # Indirect branch: the one remaining hash lookup.
                    pc = ret
                    frag = resolve(ret)
                    func = frag.func
                elif ret == _BAIL:
                    # Nothing ran.  A generic fragment takes the entry over;
                    # chained predecessors still arrive here, and find it.
                    blocks -= 1
                    frag = resolve(pc, frag)
                    func = frag.func
                else:
                    # First crossing of a direct edge: resolve the successor
                    # and back-patch it into the exit slot.
                    slot = -1 - ret
                    pc = frag.exit_targets[slot]
                    successor = resolve(pc)
                    defaults = list(func.__defaults__)
                    defaults[slot] = successor
                    func.__defaults__ = tuple(defaults)
                    frag = successor
                    func = successor.func
            else:
                # Chained transition: no lookup, no patching.
                chained += 1
                frag = ret
                func = ret.func
                pc = ret.entry
    finally:
        vm.pc = pc
        hits = blocks - misses if blocks >= misses else 0
        stats.instructions += vm.icount
        stats.blocks_executed += blocks
        stats.fragments_translated += misses
        stats.cache_hits += hits
        stats.chained_branches += chained
        stats.retranslations += retranslated
        if translator is not None:
            stats.guards_elided += translator.guards_elided
