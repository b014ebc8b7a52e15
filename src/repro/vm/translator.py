"""Superblock dynamic binary translation engine for the VXA virtual machine.

This is the analogue of vx32's code sandboxing technique (paper section 4.2):
guest code is never executed directly.  The first time execution reaches a
guest address the translator scans the instruction stream from that address
and emits an equivalent *safe fragment* -- here a compiled Python function --
which is stored in a :class:`~repro.vm.code_cache.CodeCache` keyed by the
guest entry point.

The stream it scans is the image's immutable text (``ElfImage.text``), never
guest memory: a guest may store over its own code, and loads see the store,
but what executes is what was archived.  A fragment is therefore a function
of the image and the translator's configuration alone -- the sandbox's check
policy, the superblock limit and whether proved guards are dropped -- which
is what lets its cache be the process-wide one found under the image's
SHA-256 (:mod:`repro.vm.images`) and outlive sandboxes, sessions and threads.

The engine goes beyond one-basic-block-at-a-time translation in three ways,
mirroring the optimisations that make vx32 fast:

*Superblocks.*  The translator follows fall-throughs and direct ``jmp``
branches across basic-block boundaries, building one single-entry multi-exit
trace per fragment (bounded by ``superblock_limit`` instructions, arms
included, and by revisiting an address already in the trace).  Conditional
branches do not end a trace.  A forward ``if`` -- ``jcc T; jmp E; T: A; E:``,
or an ``if``/``else`` whose ``A`` ends in ``jmp X`` before ``E: B; X:`` --
becomes a Python ``if``/``else`` whose arms rejoin: each register whose value
differs between the arms gets one new local, assigned at the end of both, and
the then-path adds what it executed beyond the else-path to the instruction
count.  An arm holds no call, return, indirect jump, system call or halt,
jumps only forward within itself, and its conditional jumps are side exits
(:meth:`Translator._arms`).  Every other taken edge is a side exit and
translation continues down the fall-through path, so hot loops compile into
one fragment instead of a chain of tiny blocks.  ``call`` ends the trace
(following it would duplicate the callee body into every call site's trace,
which costs more in translation time than the saved dispatch is worth) but
its edge is still chainable.

*Fragment chaining.*  Every exit whose successor address is statically known
(direct branches, fall-throughs, the continuation after a virtual system
call) is resolved through the dispatcher exactly once.  The dispatcher then
*back-patches* the exit -- the successor fragment is written into the exit's
slot (a default argument of the compiled function) -- so later executions
hand the successor straight back to the trampoline without any hash lookup.
This plays the role of vx32's back-patched branch trampolines: the fragment
cache's hash table is only consulted for indirect branches (``jmpr``,
``callr``, ``ret``) and for the first execution of each direct edge.

*Inlined guest memory and registers, with value forwarding.*  Fragments take
the guest's backing ``bytearray`` as an argument (so one fragment serves any
VM of its image) and hoist the eight guest registers (and the
condition-code pair) into Python locals at entry.  The body is not
rendered statement for statement: the trace is *evaluated symbolically*
(:class:`_Trace`).  Every guest register and both condition-code operands
map to a value ``(local, k)`` -- a Python local that is assigned once, plus a
constant modulo 2**32 -- so ``movi``/``mov``/``lea``/``addi``/``subi``,
``add``/``sub`` of a constant, the stack-pointer arithmetic of ``push``/
``pop``/``call``/``ret`` and ``cmp``/``cmpi`` emit nothing; a sum is computed
once, where a load, a store, a comparison or other arithmetic consumes it.
Exits write back exactly the registers whose value is no longer the entry
local's (plus, in a looping fragment, those any back-edge reassigns), a
back-edge reassigns the entry locals in one parallel assignment, and
instruction accounting is one addition per executed exit rather than per
instruction.

Loads and stores compile to raw slice/index operations guarded by
precomputed bounds expressions instead of ``GuestMemory`` method calls.
Every guest store is emitted -- the memory image is exact at every exit and
fault -- but each 32-bit store and load is also *remembered* by its address
value, and a later ``ld32``/``pop``/``ret`` of the same address value takes
the remembered value with no memory access and no guard.  The aliasing rule
needs the trace alone: a store forgets every remembered word it may overlap
-- under the *same* base local by an exact test on the two constants and the
store's width; under a *different* base local always -- but for the frame's
*slots*, the words ``[r6 + 4k]`` the view reaches, which stay *held* by a
guard, never by an analysis fact.  An ``sp`` store through the view misses
every slot the fragment touches (one more entry test: ``... or r7 - r6 > c
and r7 - r6 < d: return BAIL``); any other store made while a slot is held
is followed by one range test against their span, ``if fl < a and a < fl +
n:``, which leaves by a side exit with everything written back.  Slots that
differ between the arms of an inlined ``if`` get join roots, as registers
do.  Address computations,
bounds checks (a wider one subsumes a narrower one at the same address value)
and wrap elision (per-local upper bounds) key on the same immutable values,
so a register write invalidates nothing.  Each pass over the trace starts
from no knowledge but what the slots held when it began: a slot first read
before any store of its path may have changed it is one root, which a
looping fragment loads ahead of the loop (under an entry test that bails,
never faults, unless the slot is a word of the view) and its back-edges
reassign with the registers.  That is what makes a back-edge sound.

A word goes through ``struct`` only where nothing is known of its address.
Where that is a multiple of four *by construction or by an entry guard* --
never by an analysis fact -- it is ``w[i]`` in ``mem.words``, the sandbox's
aligned word view: a literal index for a constant, ``w[a >> 2]`` for a root
the trace shifted left by two or more, ``w[q7 - 1]`` (``q7 = r7 >> 2`` hoisted,
no address statement) for ``[r6|r7 + 4k]`` under one entry test per pointer,
``if r7 & 3 or not LOW <= r7 < LOW + 2**30: return BAIL``, which proves
alignment and both ends of the range (:meth:`_Trace.word`).  A fragment that
bails has changed nothing; the dispatcher replaces it by a translation with
the view off, so a misaligned ``sp`` stays legal ISA and the engines agree.

What a statement costs is CPython's, not the guest's.  An ``int`` is stored
in 30-bit digits, and ``&`` or ``^`` with a constant of 2**30 or more
(``0xFFFFFFFF``, ``0x80000000``) takes the multi-digit path, which allocates
its result every time; a comparison with the same constant allocates
nothing.  Timed alone (CPython 3.11 on an x86-64 Xeon), ``v = a + b`` costs
18 ns, ``v = a + b & 0xFFFFFFFF`` 52 ns and ``v = u if (u := a + b) <=
0xFFFFFFFF else u - 2**32`` 38 ns.  So a value pays for a wrap only when it
is out of range: a sum is ``(x + k if x < m else x - m)`` or the ``u :=``
form above, NOT is ``0xFFFFFFFF - x``, a signed compare compares each side's
signed value (picked by ``x > 0x7FFFFFFF``) rather than XOR both with 2**31,
an entry guard compares the pointer with its range, and a write-back assigns
``r[i]`` per dirty register rather than build a tuple for ``r[:]``.  Only a
product, a left shift and the signed shift, whose results really exceed 32
bits, keep the mask.  ``tools/fragment_mix.py --costs`` times each class of
statement.

The memory-check policies of :mod:`repro.vm.memory` are honoured: under
``full`` every load and store carries an explicit bounds check against the
live sandbox size (and faults with a precise address); ``write-only`` elides
the read guards and ``none`` elides both.  Eliding a guard never weakens
isolation: the ``struct`` packers, byte indexing and the word view all
bounds-check against the backing store themselves, so an unchecked wild
access still faults (via the dispatcher's backstop, without a precise
address) and can never read, write or resize memory outside the sandbox.

Because the guest ISA is variable-length, the translator only ever decodes
along realised execution paths; a jump into the middle of an instruction
simply translates whatever bytes the image has there, and anything that does
not decode raises :class:`~repro.errors.IllegalInstructionFault` -- the guest can
hurt only itself.  A trace that runs into undecodable bytes *after* a side
exit ends early with a lazy exit, so the fault is only raised if execution
actually falls through to the bad address.
"""

from __future__ import annotations

import struct
import sys
import threading
from dataclasses import dataclass
from time import monotonic
from typing import Callable

from repro.errors import (
    DeadlineExceeded,
    DivisionFault,
    IllegalInstructionFault,
    InvalidInstructionError,
    MemoryFault,
    ResourceLimitExceeded,
)
from repro.isa.encoding import decode
from repro.isa.opcodes import CONDITIONAL_JUMPS, Op
from repro.vm.memory import CHECK_FULL, CHECK_WRITE_ONLY
from repro.vm.syscalls import ACTION_EXIT

#: Maximum number of guest instructions translated into one superblock.
MAX_SUPERBLOCK_INSTRUCTIONS = 256

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000


@dataclass(slots=True)
class Fragment:
    """One translated code fragment (a superblock trace)."""

    entry: int                    # guest address of the first instruction
    func: Callable                # compiled fragment: (vm, regs, mem, buf, *exits)
    instruction_count: int        # guest instructions translated, arms included
    end: int                      # guest address where the trace stopped
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
#: ``mem.words`` holds *native* words: it serves little-endian hosts only.
_BYTEORDER = sys.byteorder
#: How far from a guarded pointer a word may lie (:meth:`_Trace.word`); what a
#: fragment whose entry guard fails returns (exit slots count down from -1).
_REACH = 1 << 20
_BAIL = -1 << 30
#: The range ``[LOW, LOW + _SPAN)`` an entry guard admits a pointer from.
_SPAN = 1 << 30

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


#: The immediate forms of the two-operand instructions: the same operation
#: with the constant ``imm`` as second operand.
_IMMEDIATE_FORMS = {
    Op.ADDI: Op.ADD, Op.SUBI: Op.SUB, Op.MULI: Op.MUL, Op.ANDI: Op.AND,
    Op.ORI: Op.OR, Op.XORI: Op.XOR, Op.SHLI: Op.SHL, Op.SHRUI: Op.SHRU,
    Op.SHRSI: Op.SHRS, Op.CMPI: Op.CMP,
}
#: Loads narrower than a word: (width, sign-extending).
_NARROW_LOADS = {Op.LD16U: (2, False), Op.LD16S: (2, True),
                 Op.LD8U: (1, False), Op.LD8S: (1, True)}
_STORE_WIDTHS = {Op.ST32: 4, Op.ST16: 2, Op.ST8: 1}
_DIVISIONS = {Op.DIVU: "_udiv({}, {}, False)", Op.REMU: "_udiv({}, {}, True)",
              Op.DIVS: "_sdiv({}, {}, False)", Op.REMS: "_sdiv({}, {}, True)"}
_COMPARISONS = {
    Op.JE: "==", Op.JNE: "!=",
    Op.JLTU: "<", Op.JLEU: "<=", Op.JGTU: ">", Op.JGEU: ">=",
    Op.JLTS: "<", Op.JLES: "<=", Op.JGTS: ">", Op.JGES: ">=",
}
_SIGNED_JUMPS = frozenset({Op.JLTS, Op.JLES, Op.JGTS, Op.JGES})
#: What an inlined if-arm may not hold: anything that leaves for good.
_ARM_STOPS = frozenset({Op.CALL, Op.CALLR, Op.RET, Op.JMPR, Op.VXCALL, Op.HALT})

#: What a pass over a trace starts from: the guest registers r0..r7 and the
#: two operands of the last compare each *are* the entry local of that name.
_ENTRY = tuple((name, 0) for name in (
    "r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "cca", "ccb"))


def _negated(x: str) -> str:
    """``-x`` (mod 2**32) of a local or literal ``x``, with no mask."""
    return f"{_MASK + 1} - {x} if {x} else 0"


def _indented(lines: list) -> list:
    """``lines`` one level deeper, records too (:meth:`_Trace.render`)."""
    return ["    " + line if line.__class__ is str else ("    " + line[0], line[1])
            for line in lines]


def _block(lines: list) -> list:
    """``lines`` as a block, with a ``pass`` if only records might fill it."""
    return lines if any(line.__class__ is str for line in lines) else lines + ["pass"]


def _offset(local: str, k: int) -> str:
    """``local + k`` for a signed ``k``, as the word view's indices spell it."""
    return f"{local} {'-' if k < 0 else '+'} {abs(k)}" if k else local


def _plus(value, k: int):
    """``value + k`` (mod 2**32) of a symbolic value: no code, new constant."""
    return (value[0], value[1] + k & _MASK)


#: Process-wide memo of compiled fragment sources.  Fragment source text is a
#: pure function of the trace bytes and the translator configuration, and a
#: Python code object is immutable, so a *compilation* can be shared where a
#: fragment table cannot: across different images and configurations.  The
#: bundled decoders emit identical source for the runtime code they link at
#: equal addresses, and ``compile`` is by far the most expensive step of
#: translation.  Lookups served from here, against compilations: 72 against
#: 452 in a cold image store's first pass over vxabench's seed-7 mixed
#: archive; none against none once the store is warm (nothing is translated);
#: 69,904 against 16,870 in the test suite, which translates the same images
#: under several configurations.
_CODE_MEMO: dict[str, object] = {}
_CODE_MEMO_LIMIT = 4096
#: The memo is process-wide shared state: the in-process thread pool of
#: :mod:`repro.parallel` runs several translators concurrently, so every
#: read-modify-write of the memo must hold this lock.  ``compile`` itself
#: runs outside the lock -- two threads racing to compile the same source
#: waste one compilation, never correctness.
_CODE_MEMO_LOCK = threading.Lock()


class _Trace:
    """One pass of the symbolic evaluator over a trace: state plus output.

    A *value* is a pair ``(local, k)`` standing for ``(local + k) mod 2**32``,
    or ``(None, k)`` for the constant ``k``.  ``local`` names a Python local
    of the fragment that always holds a number in ``[0, 2**32)`` and is
    assigned exactly once per pass over the trace: an entry local
    (``r0..r7``, ``cca``, ``ccb``) or a *root* ``v<n>`` created for a load or
    for arithmetic that is not an addition of a constant.  Back-edges do
    reassign the entry locals and the roots of hoisted slots, but only
    immediately before ``continue``, which starts a new pass from the entry
    state below.  Since no local changes mid-pass, everything keyed on
    values -- ``held``, ``guarded``, ``words`` -- stays true until the pass
    ends; a guest register write replaces ``regs[i]`` and invalidates
    nothing.
    """

    def __init__(self, translator: "Translator", view: bool):
        self.translator = translator
        self.view = view and _BYTEORDER == "little"     # may words use ``w``?
        self.uses_view = False
        self.aligned: set[str] = set()  # roots ``x << c``, ``c >= 2``
        self.low: dict[str, int] = {}   # guarded pointer -> its ``LOW``
        self.elided = 0                 # guards dropped on analysis evidence
        #: Statements of the main line.  A write-back of the machine state
        #: is kept as a record (see :meth:`leave`) until :meth:`render`.
        self.lines: list = []
        #: Current value of r0..r7, then of the two compare operands.
        self.regs = list(_ENTRY)
        self.reads_entry_cc = False
        self.looping = False            # some back-edge re-enters the trace
        #: Upper bound of each root (absent: 2**32 - 1, which is also what
        #: is assumed of every entry local, so bounds hold on every pass).
        self.bounds: dict[str, int] = {}
        self.roots = 0
        self.atoms = 0
        #: value -> main-line local computed to hold it (addresses mostly).
        self.held: dict[tuple, str] = {}
        #: address value -> widest access already bounds-checked there.
        self.guarded: dict[tuple, int] = {}
        self.guard_widths: set[int] = set()
        #: address value -> value of the 32-bit word stored or loaded there
        #: earlier in this pass, with no possibly-overlapping store since.
        self.words: dict[tuple, tuple] = {}
        #: Indices into ``regs`` reassigned at some back-edge: from the
        #: second pass on their entry locals differ from ``vm.regs`` /
        #: ``vm.cc``, so every exit must write them back.
        self.loop_carried: set[int] = set()
        #: Slot -> root of its value at the pass's start (:meth:`load32`),
        #: and those bound before the last back-edge; signed offsets of the
        #: slots and of the ``sp`` stores through the view; range guards?
        self.bound: dict[tuple, str] = {}
        self.hoisted: dict[tuple, str] = {}
        self.frame: set[int] = set()
        self.sp_stores: set[int] = set()
        self.guards = False
        #: Stores of this path since the pass began that may have changed a
        #: slot: ``(k, width)`` at ``r6 + k``, ``None`` anywhere.
        self.clobbers: tuple = ()

    # -- values ------------------------------------------------------------------

    def limit(self, value) -> int:
        """An upper bound of ``value`` as an unsigned number."""
        local, k = value
        if local is None:
            return k
        return min(self.bounds.get(local, _MASK) + k, _MASK)

    def expr(self, value) -> str:
        """Python expression for ``value`` (lowest precedence: ``+``).

        A sum that may wrap is a parenthesised conditional that subtracts
        2**32 only when the sum is out of range: ``(x + k if x < m else x -
        m)``, ``m = 2**32 - k``, or for ``k >= 2**31`` its mirror image
        ``(x - d if x >= d else x + k)``, ``d = 2**32 - k``.  Either is a
        comparison against a constant, which costs no allocation where ``&
        0xFFFFFFFF`` does (see the module docstring).
        """
        local, k = value
        if local is None:
            return str(k)
        if k == 0:
            return local
        if value in self.held:
            return self.held[value]
        if self.bounds.get(local, _MASK) + k <= _MASK:
            return f"{local} + {k}"               # provably no wrap-around
        m = _MASK + 1 - k
        if k < _SIGN:
            return f"({local} + {k} if {local} < {m} else {local} - {m})"
        return f"({local} - {m} if {local} >= {m} else {local} + {k})"

    def atom(self, value) -> str:
        """A local or literal holding ``value``, computed on the main line."""
        local, k = value
        if local is not None and k and value not in self.held:
            text = self.expr(value)
            self.held[value] = name = f"a{self.atoms}"
            self.atoms += 1
            self.lines.append(f"{name} = {text}")
        return self.expr(value)

    def root(self, text: str, bound: int):
        """Emit ``v<n> = text`` (masked unless ``bound`` fits) as a new root.

        Only a product, a left shift and the signed shift reach the mask;
        sums, differences, NOT and NEG are spelled so that they never leave
        32 bits (:meth:`alu`, :meth:`step`).
        """
        name = self.name()
        if bound > _MASK:
            text = f"{text} & {_MASK}"
        elif bound < _MASK:
            self.bounds[name] = bound
        self.lines.append(f"{name} = {text}")
        return (name, 0)

    def name(self) -> str:
        self.roots += 1
        return f"v{self.roots - 1}"

    # -- guest memory ------------------------------------------------------------

    def address(self, value, width: int, kind: str, pc: int, exact=None) -> str:
        """Local holding address ``value`` (or ``exact``, an expression equal
        to it), bounds-checked as policy demands.

        A check at the same address value at least as wide subsumes this one.
        """
        local = exact or self.atom(value)
        checked, proved = self.translator.policy[kind]
        if checked and self.guarded.get(value, 0) < width:
            if pc in proved:
                # The verifier proved this site in bounds for any sandbox at
                # least min_size bytes large (checked by our caller).  The
                # elided site is deliberately NOT entered in ``guarded``: a
                # later unproved access of the same address must still emit
                # its own check.
                self.elided += 1
            else:
                self.guarded[value] = width
                self.guard_widths.add(width)
                self.lines.append(
                    f"if {local} > s{width}: _flt({local}, {width}, {kind!r})")
        return local

    def word(self, value, kind: str, pc: int):
        """``w[index]`` for the word at address ``value``; ``None``: ``struct``.

        ``w[i]`` is bytes ``4i..4i+3`` and, for ``i >= 0``, raises
        ``IndexError`` iff ``i >= len(w)`` iff ``4i + 4 > len(buf)``, whatever
        the sandbox size (the view is its whole-word prefix): exactly when
        ``_u32``/``_p32`` raise at byte ``4i``.  So a site keeps its behaviour
        if ``index == address >> 2`` exactly, the address a multiple of four
        and nothing wrapped.  No analysis fact may establish that (they rest
        on frame-slot integrity: enough to drop a check the backstop repeats,
        not to pick a word).  What does:

        (a) a constant address: its own low bits (``w[k >> 2]``, folded);
        (b) a root ``x << c``, ``c >= 2``, plus such a constant: the address
            is masked as ever, so ``>> 2`` is exact;
        (c) an entry ``r6``/``r7`` plus ``s``, ``s % 4 == 0``, ``|s| <=
            _REACH``, under the entry guard ``if r7 & 3 or not LOW <= r7 <
            LOW + 2**30: return BAIL`` (:meth:`render`; ``LOW``: the largest
            ``-s`` of the trace, a multiple of four; ``r7 >= 2**30`` when it
            is 0).  It passes iff ``r7 - LOW`` is a multiple of four in
            ``[0, 2**30)``, and compares where a mask would allocate.
            Alignment: ``r7 & 3 == 0``.  Lower bound: ``r7 + s >= 0``, so
            nothing wraps below zero and no index is negative (Python would
            count it from the end).  Upper bound: ``r7 + s < 2**30 + 2 * _REACH``, so no sum
            wraps past 2**32.  Hence ``r7 + s`` *is* the byte address,
            unmasked, and ``q7 + s // 4``, ``q7 = r7 >> 2``, its index; a
            site that needs its bounds check keeps it on that byte address
            (``index > (size - 4) >> 2`` in other words).
        """
        local, k = value
        if not self.view or k & 3:
            return None
        if local is None or local in self.aligned:
            index = f"{self.address(value, 4, kind, pc)} >> 2"
        elif local in ("r6", "r7") and (k + _REACH & _MASK) <= 2 * _REACH:
            offset = _signed(k)
            self.address(value, 4, kind, pc, _offset(local, offset))
            self.low[local] = max(self.low.get(local, 0), -offset)
            if local == "r6":
                self.frame.add(offset)
            index = _offset(f"q{local[1]}", offset >> 2)
        else:
            return None
        self.uses_view = True
        return f"w[{index}]"

    def slot(self, address) -> bool:
        """Is ``address`` a frame slot: ``r6 + 4k``, reached through the view?"""
        local, k = address
        return (local == "r6" and self.view and not k & 3
                and (k + _REACH & _MASK) <= 2 * _REACH)

    def unchanged(self, address, clobbers: tuple) -> bool:
        """Did none of ``clobbers`` overlap the slot at ``address``?"""
        return all(clobber is not None
                   and 4 <= (clobber[0] - address[1] & _MASK) <= _MASK + 1 - clobber[1]
                   for clobber in clobbers)

    def load32(self, address, pc: int):
        """Value of the word at ``address``: forwarded if known, else loaded.

        Forwarding is sound because ``words[address]`` was recorded by a
        width-4 access of this very address value that has already executed
        in this pass (so it did not fault, and neither would this one --
        the sandbox cannot shrink or grow inside a fragment) and
        :meth:`store` has dropped it if any store since might overlap it.
        A slot still as the pass found it loads into the root :attr:`bound`
        to it, a load that a back-edge after it moves ahead of the loop.
        """
        value = self.words.get(address)
        if value is None:
            mark = len(self.lines)
            text = (self.word(address, "read", pc) or
                    f"_u32(buf, {self.address(address, 4, 'read', pc)})[0]")
            if self.slot(address) and self.unchanged(address, self.clobbers):
                root = self.bound.get(address) or self.bound.setdefault(address, self.name())
                site = self.lines[mark:] + [f"{root} = {text}"]    # its check too
                self.lines[mark:] = [("", lambda: [] if address in self.hoisted else site)]
                value = self.words[address] = (root, 0)
            else:
                value = self.words[address] = self.root(text, _MASK)
        return value

    def store(self, address, width: int, value, pc: int):
        """Emit the store (always), then update what is known of memory; the
        address a range guard must test, if a held slot needs one, comes back."""
        viewed = self.word(address, "write", pc) if width == 4 else None
        local = viewed or self.address(address, width, "write", pc)
        source = self.atom(value)
        if viewed:
            self.lines.append(f"{viewed} = {source}")
        elif width == 4:
            self.lines.append(f"_p32(buf, {local}, {source})")
        else:
            if self.limit(value) >> 8 * width:
                source = f"{source} & {(1 << 8 * width) - 1}"
            self.lines.append(f"_p16(buf, {local}, {source})" if width == 2
                              else f"buf[{local}] = {source}")
        # Aliasing rule.  A remembered word survives only if it provably
        # cannot overlap [address, address + width): same base local and
        # ``4 <= distance <= 2**32 - width`` (mod 2**32), which separates the
        # two ranges whether or not either sum wrapped.  Words under any
        # other base local may be anywhere, so they are forgotten, but for
        # slots, which an entry test or a range guard protects.
        base, k = address
        test = None
        if base == "r6":
            self.clobbers += ((k, width),)
        elif viewed and base == "r7":
            self.sp_stores.add(_signed(k))
        elif any(map(self.slot, self.words)):
            self.guards = True
            test = self.atom(address)
        else:
            self.clobbers += (None,)
        self.words = {
            known: word for known, word in self.words.items()
            if (4 <= (k - known[1] & _MASK) <= _MASK + 1 - width
                if known[0] == base else base != "r6" and self.slot(known))}
        if width == 4:
            self.words[address] = value
        return test

    def push(self, value, pc: int):
        """Store ``value`` (read by the caller *before* sp moves) below sp."""
        sp = self.regs[7] = _plus(self.regs[7], -4)
        return self.store(sp, 4, value, pc)

    def pop(self, pc: int):
        """The word at sp, with sp moved past it."""
        sp = self.regs[7]
        value = self.load32(sp, pc)
        self.regs[7] = _plus(sp, 4)
        return value

    # -- straight-line instructions ----------------------------------------------

    def step(self, op, rd: int, rs: int, imm: int, pc: int):
        """Evaluate one instruction that is neither a branch nor a trap."""
        regs = self.regs
        if op is Op.MOVI:
            regs[rd] = (None, imm)
        elif op is Op.MOV:
            regs[rd] = regs[rs]
        elif op is Op.LEA:
            regs[rd] = _plus(regs[rs], imm)
        elif op is Op.LD32:
            regs[rd] = self.load32(_plus(regs[rs], imm), pc)
        elif op in _NARROW_LOADS:
            width, signed = _NARROW_LOADS[op]
            a = self.address(_plus(regs[rs], imm), width, "read", pc)
            if width == 1:
                text = f"buf[{a}]"
            elif self.translator.policy["read"][0]:
                text = f"buf[{a}] | buf[{a}+1] << 8"
            else:
                text = f"_u16(buf, {a})[0]"
            if signed:
                # Adding 2**32 - 2**n sign-extends with no masking needed.
                self.lines.append(f"t = {text}")
                text = (f"t + {(1 << 32) - (1 << 8 * width)} "
                        f"if t >= {1 << 8 * width - 1} else t")
            regs[rd] = self.root(
                text, _MASK if signed else (1 << 8 * width) - 1)
        elif op in _STORE_WIDTHS:
            return self.store(_plus(regs[rd], imm), _STORE_WIDTHS[op], regs[rs], pc)
        elif op is Op.PUSH:
            return self.push(regs[rd], pc)
        elif op is Op.POP:
            value = self.pop(pc)
            if rd != 7:           # rd is written before sp: ``pop r7`` = sp + 4
                regs[rd] = value
        elif op is Op.NOT:
            regs[rd] = self.root(f"{_MASK} - {self.atom(regs[rs])}", _MASK)
        elif op is Op.NEG:
            regs[rd] = self.root(_negated(self.atom(regs[rs])), _MASK)
        elif op is not Op.NOP:
            other = regs[rs]
            if op in _IMMEDIATE_FORMS:
                op, other = _IMMEDIATE_FORMS[op], (None, imm)
            if op is Op.CMP:
                regs[8:] = regs[rd], other
            else:
                regs[rd] = self.alu(op, regs[rd], other)

    def alu(self, op, a, b):
        """The value of ``a <op> b``; adding a constant emits nothing."""
        if op is Op.ADD or op is Op.SUB:
            k = (a[1] + b[1] if op is Op.ADD else a[1] - b[1]) & _MASK
            if b[0] is None:
                return (a[0], k)
            if a[0] is None and op is Op.ADD:
                return (b[0], k)
            # Only the two locals are combined; the constants fold into k.
            if a[0] is None:                        # 0 - b
                return (self.root(_negated(b[0]), _MASK)[0], k)
            if op is Op.SUB:
                text = (f"u if (u := {a[0]} - {b[0]}) >= 0 "
                        f"else u + {_MASK + 1}")
                return (self.root(text, _MASK)[0], k)
            top = self.bounds.get(a[0], _MASK) + self.bounds.get(b[0], _MASK)
            text = f"{a[0]} + {b[0]}"
            if top > _MASK:
                text = f"u if (u := {text}) <= {_MASK} else u - {_MASK + 1}"
            return (self.root(text, min(top, _MASK))[0], k)
        x, y = self.atom(a), self.atom(b)
        top_a, top_b = self.limit(a), self.limit(b)
        if op is Op.MUL:
            return self.root(f"{x} * {y}", top_a * top_b)
        if op is Op.AND:
            return self.root(f"{x} & {y}", min(top_a, top_b))
        if op is Op.OR or op is Op.XOR:
            return self.root(
                f"{x} {'|' if op is Op.OR else '^'} {y}",
                (1 << max(top_a.bit_length(), top_b.bit_length())) - 1)
        if op in _DIVISIONS:
            return self.root(_DIVISIONS[op].format(x, y), _MASK)
        if op not in (Op.SHL, Op.SHRU, Op.SHRS):
            raise IllegalInstructionFault(
                f"unhandled opcode {op!r}")  # pragma: no cover
        count = b[1] & 31 if b[0] is None else None
        by = f"({y} & 31)" if count is None else str(count)
        if op is Op.SHL:
            value = self.root(f"{x} << {by}",
                              top_a << (31 if count is None else count))
            if (count or 0) >= 2:       # the mask keeps the low bits
                self.aligned.add(value[0])
            return value
        if op is Op.SHRS and top_a >= _SIGN:
            return self.root(f"(({x} ^ {_SIGN}) - {_SIGN}) >> {by}", _MASK + 1)
        # Logical shift -- also the arithmetic one when the sign bit is
        # provably clear.
        return self.root(f"{x} >> {by}", top_a >> (count or 0))

    def condition(self, op) -> str:
        """The test of conditional jump ``op`` over the current flags."""
        left, right = self.regs[8:]
        if left == _ENTRY[8]:
            self.reads_entry_cc = True
        if op in _SIGNED_JUMPS:
            left, right = self.signed(left), self.signed(right)
        else:
            left, right = self.atom(left), self.atom(right)
        return f"{left} {_COMPARISONS[op]} {right}"

    def signed(self, value) -> str:
        """``value`` as a signed number: a constant's is found now, a local's
        is picked by a comparison."""
        local, k = value
        if local is None:
            return str(_signed(k))
        x = self.atom(value)
        return f"({x} - {_MASK + 1} if {x} > {_SIGN - 1} else {x})"

    # -- leaving the main line ----------------------------------------------------

    def changed(self) -> list[int]:
        """Indices of ``regs`` whose value is no longer the entry local's."""
        regs = self.regs
        return [i for i in range(10) if regs[i] != _ENTRY[i]]

    def leave(self, indent: str, executed: int, *tail: str) -> None:
        """Account instructions, write the machine state back, run ``tail``.

        The write-back is a record (:meth:`render`): one expression per entry
        of ``regs``, ``None`` for "still the entry local", completed with the
        loop-carried ones, which are only known once every back-edge of the
        trace has been seen.  The expressions are fixed *now*, so they use
        nothing the main line computes later; and nothing computed for an
        exit enters ``held``, so the main line uses nothing computed inside
        an exit block.
        """
        self.lines.append(f"{indent}vm.icount += {executed}")
        writes: list = [None] * 10
        for i in self.changed():
            writes[i] = self.expr(self.regs[i])

        def write_back() -> list[str]:
            for i in self.loop_carried:
                writes[i] = writes[i] or _ENTRY[i][0]
            lines = []
            if dirty := [i for i in range(8) if writes[i]]:
                lines.append("; ".join(f"r[{i}] = {writes[i]}" for i in dirty))
            if writes[8]:                  # ``cmp`` sets both operands
                lines.append(f"vm.cc = ({writes[8]}, {writes[9]})")
            return lines

        self.lines.append((indent, write_back))
        self.lines += [indent + line for line in tail]

    def back_edge(self, indent: str, executed: int) -> None:
        """Jump to the fragment entry *inside* the fragment.

        The entry locals take their new values, as one parallel assignment
        would give them (every right-hand side read first), and the next pass
        begins; no write-back happens.  So do the hoisted roots of slots: the
        value held here, a reload if a store may have changed the slot, or
        nothing.  The instruction budget must be enforced here, because a
        looping fragment may not return to the dispatcher for a long time
        (or, for a guest spinning forever, ever).
        """
        self.looping = True
        self.hoisted = dict(self.bound)
        changed = self.changed()
        self.loop_carried.update(changed)
        moves = [(_ENTRY[i][0], self.regs[i][0], self.expr(self.regs[i])) for i in changed]
        slots = {address: (value[0], self.expr(value)) for address, value in self.words.items()
                 if self.slot(address)}
        clobbers = self.clobbers

        def assign() -> list[str]:
            pending = list(moves)
            for address, root in self.hoisted.items():
                local, value = slots.get(address, (None, None))
                if value is None and not self.unchanged(address, clobbers):
                    value = f"w[{_offset('q6', _signed(address[1]) >> 2)}]"
                if value not in (None, root):
                    pending.append((root, local, value))
            # One statement a name where an order exists: past three names a
            # parallel assignment builds and unpacks a tuple, ~3x the cost.
            lines = []
            while ready := [move for move in pending if all(
                    move[0] != other[1] for other in pending if other is not move)]:
                lines += [f"{name} = {value}" for name, _, value in ready]
                pending = [move for move in pending if move not in ready]
            if pending:             # a cycle: what is left, in parallel
                lines.append(f"{', '.join(move[0] for move in pending)} = "
                             f"{', '.join(move[2] for move in pending)}")
            return lines

        self.lines += [f"{indent}vm.icount += {executed}",
                       f"{indent}if vm.icount > vm.budget: _over(vm)",
                       (indent, assign), f"{indent}continue"]

    # -- inlined if-arms ----------------------------------------------------------

    def fork(self) -> tuple:
        """The state both arms of an inlined ``if`` start from."""
        return (list(self.regs), self.held, self.guarded, self.words, self.lines,
                self.clobbers)

    def arm(self, fork: tuple) -> None:
        """Translate an arm next: from ``fork``, into lines of its own."""
        self.regs[:] = fork[0]
        self.held, self.guarded, self.words = map(dict, fork[1:4])
        self.lines, self.clobbers = [], fork[5]

    def join(self, fork: tuple, test: str, arms: list, delta: int) -> None:
        """Emit ``if test:`` over the two arms and go on from the join.

        ``arms`` holds the then-arm's and the else-arm's ``(lines, regs,
        held, words, clobbers)`` at their ends.  Each index of ``regs``, and
        each slot both hold, whose value differs between them gets a new
        root, assigned at the end of both arms (a local assigned once per
        path); ``delta``, the then-path's instructions less the else-path's,
        which the main line goes on counting, is added on the then-path.
        Nothing an arm computed is ``held`` after the join and no check it
        made is ``guarded``; any other word stays remembered if both paths
        remember the same value for it.
        """
        states = [dict(enumerate(regs)) | {address: value for address, value in words.items()
                                           if self.slot(address)}
                  for _, regs, _, words, _ in arms]
        roots = {}
        for key, value in states[0].items():
            if states[1].get(key, value) != value:
                roots[key] = name = self.name()
                if (bound := max(self.limit(value), self.limit(states[1][key]))) < _MASK:
                    self.bounds[name] = bound
        for (lines, _, held, _, _), state in zip(arms, states):
            self.held = held
            lines += [f"{root} = {self.expr(state[key])}" for key, root in roots.items()]
        (then, then_regs, _, then_words, _), (orelse, _, _, else_words, _) = arms
        if delta:
            then.append(f"vm.icount += {delta}")
        lines = fork[4]
        lines.append(f"if {test}:")
        lines += _indented(_block(then))
        if orelse:
            lines += ["else:"] + _indented(_block(orelse))
        for key, root in roots.items():
            (then_regs if key.__class__ is int else then_words)[key] = (root, 0)
        self.regs[:] = then_regs
        self.held, self.guarded, self.lines = fork[1], fork[2], lines
        self.words = {address: word for address, word in then_words.items()
                      if address in roots or else_words.get(address) == word}
        self.clobbers = arms[0][4] + arms[1][4]

    def render(self, params: str):
        """The fragment's source; ``None``: a back-edge moves a guarded pointer.
        ``fl < a < fl + n`` holds of every ``[a, a + 4)`` that meets a slot."""
        prologue = ["r0, r1, r2, r3, r4, r5, r6, r7 = r"]
        for pointer, low in sorted(self.low.items()):
            if int(pointer[1]) in self.loop_carried:
                return None
            test = f"{pointer} & 3 or " + (f"not {low} <= {pointer} < {low + _SPAN}"
                                          if low else f"{pointer} >= {_SPAN}")
            if pointer == "r7" and self.frame and self.sp_stores:
                test += (f" or r7 - r6 > {min(self.frame) - max(self.sp_stores) - 4}"
                         f" and r7 - r6 < {max(self.frame) + 4 - min(self.sp_stores)}")
            prologue += [f"if {test}: return {_BAIL}", f"q{pointer[1]} = {pointer} >> 2"]
        if self.uses_view:
            prologue.append("w = mem.words")
        body: list[str] = []
        for line in self.lines:
            if line.__class__ is str:
                body.append(line)
            else:
                body += [line[0] + text for text in line[1]()]
        # A width counts only where an emitted check reads it: a slot load
        # hoisted ahead of the loop drops its check (the ``try:`` bails).
        text = "\n".join(body)
        widths = [w for w in sorted(self.guard_widths) if f" > s{w}: " in text]
        if len(widths) == 1:
            prologue.append(f"s{widths[0]} = mem.size - {widths[0]}")
        elif widths:
            prologue.append("size = mem.size")
            prologue += [f"s{w} = size - {w}" for w in widths]
        if self.reads_entry_cc or 8 in self.loop_carried:   # regs[8:] = cc
            prologue.append("cca, ccb = vm.cc")
        if self.guards:
            prologue.append(f"fl = {_offset('r6', min(self.frame) - 4)}")
        if self.hoisted:
            prologue += ["try:"] + [f"    {root} = w[{_offset('q6', _signed(address[1]) >> 2)}]"
                                    for address, root in self.hoisted.items()]
            prologue += ["except IndexError:", f"    return {_BAIL}"]
        if self.looping:
            body = ["while True:"] + ["    " + line for line in body]
        return "\n".join([f"def _fragment(vm, r, mem, buf{params}):"]
                         + ["    " + line for line in prologue + body])


class Translator:
    """Scans guest code and produces superblock :class:`Fragment` objects.

    Args:
        memory: the guest sandbox; only its check policy is read.
        text_start, text_end: the executable region recorded by the loader.
        text: the code (``ElfImage.text``), indexed by guest address and
            ``text_end`` bytes long.  Never ``memory``: a guest store into
            the text range changes what loads see, not what runs.
        superblock_limit: maximum guest instructions per trace (``None``
            uses :data:`MAX_SUPERBLOCK_INSTRUCTIONS`; ``1`` degenerates to
            one instruction per fragment, for ablations).
        proved_reads, proved_writes: instruction addresses whose memory
            access the static verifier (:mod:`repro.analysis`) proved in
            bounds for every sandbox of at least the report's ``min_size``
            bytes; their guards are dropped.  The caller is responsible for
            checking ``min_size`` against the live sandbox before passing
            these in.
    """

    def __init__(self, memory, text_start: int, text_end: int, *,
                 text: bytes,
                 superblock_limit: int | None = None,
                 known_entries=None,
                 proved_reads: frozenset = frozenset(),
                 proved_writes: frozenset = frozenset()):
        self._text = text
        self._text_start = text_start
        self._text_end = text_end
        self._limit = superblock_limit or MAX_SUPERBLOCK_INSTRUCTIONS
        #: Entry points already translated (the cache's fragment table).  A
        #: trace that reaches one of these stops and chains to the existing
        #: fragment instead of duplicating its tail -- the same reason vx32
        #: ends fragments at known translation boundaries.
        self._known_entries = known_entries if known_entries is not None else set()
        #: Per access kind: is it bounds-checked under the sandbox's policy,
        #: and the sites whose check the verifier proved redundant.
        self.policy = {
            "read": (memory.check_policy == CHECK_FULL, proved_reads),
            "write": (memory.check_policy in (CHECK_FULL, CHECK_WRITE_ONLY),
                      proved_writes),
        }
        #: Bounds guards dropped on static-analysis evidence at the sites this
        #: translator emitted, summed over the fragments it returns (both, when
        #: an entry guard bails); a forwarded load has no guard to drop.
        self.guards_elided = 0

    def _arms(self, target: int, next_pc: int, room: int, visited: set):
        """``(then, else, join)`` of the forward ``if`` a conditional jump
        opens, each arm ``[(pc, instruction)]``; ``None`` where it opens none.

        vxc compiles ``if (c) A`` to ``jcc T; jmp E; T: A; E:`` and ``if (c)
        A else B`` to ``jcc T; jmp E; T: A; jmp X; E: B; X:``.  So: the jump
        falls through to a ``jmp E``, ``E > T``, right before ``T``; the
        else-path is that ``jmp``, then ``B`` if ``A`` ends in a ``jmp X``
        (``X > E``) that ``E`` follows.  Both arms, then and else together,
        fit in ``room`` instructions (:meth:`_path`).
        """
        if next_pc in visited:
            return None
        try:
            skip = decode(self._text, next_pc)
        except InvalidInstructionError:
            return None
        after = next_pc + skip.length
        orelse = after + skip.imm & _MASK
        if skip.op is not Op.JMP or not target == after < orelse:
            return None
        arm = self._path(target, orelse, room - 1, visited, True)
        if arm is None:
            return None
        then, join = arm
        rest = self._path(orelse, join, room - 1 - len(then), visited, False)
        if rest is None:
            return None
        return then, [(next_pc, skip)] + rest[0], join

    def _path(self, pc: int, end: int, room: int, visited: set, split: bool):
        """``(instructions, end)`` along the path from ``pc`` to ``end``, or
        ``None`` where it is no arm.

        The path is the one translation follows, decoded where it goes and
        never swept, so a jump into the middle of an instruction cannot set
        the two apart.  It has at most ``room`` instructions, every
        one decodes, none is ``call``, ``callr``, ``ret``, ``jmpr``,
        ``vxcall`` or ``halt``, none is in ``visited``, and every ``jmp``
        goes forward but not past ``end`` -- except, with ``split``, a final
        ``jmp X`` past ``end`` that ``end`` follows: then ``X`` is returned.
        """
        path = []
        while pc != end:
            if pc > end or pc in visited or len(path) >= room:
                return None
            try:
                insn = decode(self._text, pc)
            except InvalidInstructionError:
                return None
            if insn.op in _ARM_STOPS:
                return None
            path.append((pc, insn))
            next_pc = pc + insn.length
            if insn.op is Op.JMP:
                target = next_pc + insn.imm & _MASK
                if split and next_pc == end and target > end:
                    return path, target
                if target <= pc:
                    return None
                next_pc = target
            pc = next_pc
        return path, end

    def translate(self, entry: int) -> Fragment:
        """Translate the superblock starting at guest address ``entry``."""
        return self._translate(entry, True)

    def _translate(self, entry: int, view: bool) -> Fragment:
        """``view=False``: every word on the ``struct`` path, no entry guard."""
        text_start = self._text_start
        text_end = self._text_end
        if not text_start <= entry < text_end:
            raise IllegalInstructionFault(
                f"jump target outside the code segment: 0x{entry:08x}"
            )
        code = self._text
        trace = _Trace(self, view)
        regs = trace.regs
        exits: list[int] = []           # static successor pc per chainable exit
        visited: set[int] = set()       # trace-local pcs (bounds trace growth)

        def chained(target: int) -> str:
            """``return`` statement of an exit to the static pc ``target``."""
            exits.append(target)                       # back-patchable slot
            return f"return X{len(exits) - 1} or {-len(exits)}"

        def branch(op, target: int, executed: int) -> None:
            """A conditional jump as a side exit, or a back-edge to the head."""
            trace.lines.append(f"if {trace.condition(op)}:")
            if target == entry:
                trace.back_edge("    ", executed)
            else:
                trace.leave("    ", executed, chained(target))

        def step(insn, pc: int, executed: int) -> None:
            """One straight-line instruction; a store that hits a slot leaves."""
            hit = trace.step(insn.op, insn.rd, insn.rs, insn.imm, pc)
            if hit:     # the span is the fragment's, known once it is translated
                trace.lines.append(("", lambda: [
                    f"if fl < {hit} and {hit} < fl + {max(trace.frame) - min(trace.frame) + 8}:"]))
                trace.leave("    ", executed, chained(pc + insn.length))

        pc = entry
        count = 0                       # instructions along the main line
        size = 0                        # ... and in its inlined arms
        limit = self._limit
        while True:
            if pc == entry and count:
                # A direct back-edge to the trace head: compile a real loop
                # instead of exiting, so iterations cost no dispatch, no
                # register write-back/reload and no fragment call at all.
                trace.back_edge("", count)
                break
            if (size >= limit or pc in visited
                    or (count and pc in self._known_entries)):
                # Trace budget exhausted, the trace rejoined itself, or we
                # ran into code that already has its own fragment: leave
                # through a chainable exit to wherever we stopped.
                trace.leave("", count, chained(pc))
                break
            visited.add(pc)
            try:
                insn = decode(code, pc)
            except InvalidInstructionError as error:
                if count == 0:
                    raise IllegalInstructionFault(str(error)) from None
                # Undecodable bytes (or an instruction the end of text cuts
                # off) beyond a side exit: fault lazily, only if reached.
                trace.leave("", count, chained(pc))
                break
            count += 1
            size += 1
            op = insn.op
            rd = insn.rd
            imm = insn.imm
            next_pc = pc + insn.length

            # -- control flow (trace shaping) --------------------------------
            if op is Op.JMP:
                target = (next_pc + imm) & _MASK
                if not text_start <= target < text_end:
                    trace.leave("", count, chained(target))
                    break
                pc = target               # follow the direct branch in-trace
                continue
            if op in CONDITIONAL_JUMPS:
                target = (next_pc + imm) & _MASK
                arms = self._arms(target, next_pc, limit - size, visited)
                if arms is None:
                    branch(op, target, count)
                    pc = next_pc          # keep translating the fall-through
                    continue
                # A forward if: both arms inline, rejoining at ``pc``.
                test = trace.condition(op)
                fork = trace.fork()
                counts, ends = [], []
                for path in arms[:2]:
                    trace.arm(fork)
                    executed = count
                    for arm_pc, arm in path:
                        visited.add(arm_pc)
                        executed += 1
                        if arm.op in CONDITIONAL_JUMPS:
                            branch(arm.op, arm_pc + arm.length + arm.imm & _MASK,
                                   executed)
                        elif arm.op is not Op.JMP:
                            step(arm, arm_pc, executed)
                    counts.append(executed)
                    ends.append((trace.lines, list(regs), trace.held, trace.words,
                                 trace.clobbers))
                trace.join(fork, test, ends, counts[0] - counts[1])
                count = counts[1]
                size += len(arms[0]) + len(arms[1])
                pc = arms[2]
                continue
            if op is Op.CALL or op is Op.CALLR:
                # ``call`` ends the trace; the return address is one more
                # word the callee's ``ret`` cannot see from its own trace.
                trace.push((None, next_pc), pc)
                if op is Op.CALL:
                    trace.leave("", count, chained((next_pc + imm) & _MASK))
                else:       # like the interpreter: target read after the push
                    trace.leave("", count, f"return {trace.expr(regs[rd])}")
                break
            if op is Op.RET:
                target = trace.pop(pc)
                trace.leave("", count, f"return {trace.expr(target)}")
                break
            if op is Op.JMPR:
                trace.leave("", count, f"return {trace.expr(regs[rd])}")
                break
            if op is Op.VXCALL:
                # The handler may grow guest memory, so the trace must end
                # here (the bounds locals would go stale); the continuation
                # is still statically known and therefore chainable.  Every
                # register is written back before the handler runs.
                arguments = ", ".join(trace.expr(regs[i]) for i in range(4))
                trace.leave(
                    "", count,
                    f"t, act = vm.syscall_handler.dispatch({arguments})",
                    f"r[0] = t & {_MASK}",
                    "if act == ACTION_EXIT:",
                    "    vm.halted = True",
                    chained(next_pc))
                break
            if op is Op.HALT:
                trace.leave("", count, "vm.halted = True",
                            "vm.syscall_handler.exit_code = 0",
                            f"return {next_pc}")
                break
            step(insn, pc, count)
            pc = next_pc

        # -- compile the fragment ---------------------------------------------
        params = "".join(f", X{i}=None" for i in range(len(exits)))
        source = trace.render(params)
        if source is None:      # the guard runs once, ahead of the loop
            return self._translate(entry, False)
        self.guards_elided += trace.elided
        with _CODE_MEMO_LOCK:
            code_object = _CODE_MEMO.get(source)
        if code_object is None:
            code_object = compile(source, f"<vxa-fragment-0x{entry:x}>", "exec")
            with _CODE_MEMO_LOCK:
                if len(_CODE_MEMO) >= _CODE_MEMO_LIMIT:
                    _CODE_MEMO.clear()
                _CODE_MEMO[source] = code_object
        return Fragment(
            entry=entry,
            func=bind_fragment(code_object),
            instruction_count=size,
            end=pc,
            source=source,
            exit_targets=tuple(exits),
            code=code_object,
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
    # Analysis-driven guard elision, decided once per VM at load.
    proved_reads: frozenset = frozenset()
    proved_writes: frozenset = frozenset()
    if vm.elides_guards:
        proved_reads = vm.analysis_report.proved_reads
        proved_writes = vm.analysis_report.proved_writes
    translator = Translator(
        memory, vm.text_start, vm.text_end, text=vm.text,
        superblock_limit=vm.superblock_limit, known_entries=cache.fragments,
        proved_reads=proved_reads, proved_writes=proved_writes,
    )
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
        nonlocal misses, retranslated
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
        stats.fragment_cache_hits += hits
        stats.chained_branches += chained
        stats.retranslations += retranslated
        stats.guards_elided += translator.guards_elided
