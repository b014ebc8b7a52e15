"""Abstract interpretation over recovered VXA-32 control flow.

Each function is analysed separately with a worklist fixpoint over the
domains in :mod:`repro.analysis.domains`.  The per-function state tracks the
eight registers plus a map of provable stack slots (entry-``sp``-relative,
4-byte, word-aligned).  On entry ``sp`` is ``SP(0)`` and ``fp`` is
``FP(0)`` -- the analysis never needs concrete addresses, which is what
makes its conclusions valid for every sufficiently large sandbox.

Calls are handled with **function summaries**, computed over the strongly
connected components of the call graph, callees first.  A function outside
any cycle is analysed once, against summaries that are already final.  A
recursive component runs an optimistic fixpoint of its own: each summary
starts at the best claim (stack-disciplined, frame-pointer-preserving, writes
nothing above its frame) and degrades monotonically as the per-function
analyses observe violations, so the loop terminates and the final summaries
are sound by induction on call-tree height.

Memory-model caveat (shared with :mod:`repro.analysis.verify` and spelled
out in the package README): stack slots are assumed not to be aliased by
statically-unresolvable stores.  The dynamic backstop keeps isolation intact
even where a hostile image violates that assumption.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.domains import (
    DELTA_LIMIT,
    TOP,
    U32_MASK,
    ZONE_ABS,
    ZONE_FP,
    ZONE_SP,
    AbstractValue,
    exact,
    fp_entry,
    interval,
    signed32,
    sp_entry,
)
from repro.isa.encoding import Instruction
from repro.isa.opcodes import REG_SP, Op

#: Sentinel stack depth meaning "unbounded / unknown".
UNBOUNDED = 1 << 30

#: Block visits before joins switch to widening.
_WIDEN_AFTER = 3

_LOAD_WIDTHS = {Op.LD32: 4, Op.LD16U: 2, Op.LD8U: 1, Op.LD16S: 2, Op.LD8S: 1}
_STORE_WIDTHS = {Op.ST32: 4, Op.ST16: 2, Op.ST8: 1}


@dataclass
class FunctionSummary:
    """What callers may assume about one callee (optimistic start)."""

    sp_disciplined: bool = True    # sp is exactly restored at every RET
    preserves_fp: bool = True      # fp is exactly restored at every RET
    writes_above: bool = False     # writes a resolved slot above entry+4
    writes_unknown: bool = False   # performs any non-sp-relative write
    max_down: int = 0              # own-frame depth below entry sp, bytes
    calls_unknown: bool = False    # contains a reachable CALLR


@dataclass(frozen=True)
class Access:
    """One memory-access site with its abstract address."""

    pc: int
    kind: str                      # "read" | "write"
    width: int
    address: AbstractValue
    root: bool                     # observed in the entry function


@dataclass(frozen=True)
class SyscallSite:
    pc: int
    number: AbstractValue


@dataclass
class AnalysisResult:
    """Everything the verifier needs from the abstract interpretation."""

    summaries: dict[int, FunctionSummary]
    accesses: list[Access]
    syscalls: list[SyscallSite]
    stack_bounded: bool
    total_down: int                # max stack bytes below the root entry sp


class State:
    """Register file + provable stack slots at one program point."""

    __slots__ = ("regs", "slots")

    def __init__(self, regs: list[AbstractValue], slots: dict[int, AbstractValue]):
        self.regs = regs
        self.slots = slots

    @classmethod
    def at_function_entry(cls) -> "State":
        regs = [TOP] * 8
        regs[6] = fp_entry()
        regs[7] = sp_entry()
        return cls(regs, {})

    def copy(self) -> "State":
        return State(list(self.regs), dict(self.slots))

    def merge(self, other: "State", widen: bool) -> "State":
        regs = []
        for mine, theirs in zip(self.regs, other.regs):
            regs.append(mine.widen(theirs) if widen else mine.join(theirs))
        slots: dict[int, AbstractValue] = {}
        for key in self.slots.keys() & other.slots.keys():
            merged = (self.slots[key].widen(other.slots[key]) if widen
                      else self.slots[key].join(other.slots[key]))
            if not merged.is_top:
                slots[key] = merged
        return State(regs, slots)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, State)
                and self.regs == other.regs and self.slots == other.slots)

    def __hash__(self) -> int:  # pragma: no cover - states are not hashed
        raise TypeError("State is unhashable")


@dataclass
class _Observations:
    """Per-function facts gathered on the post-fixpoint collection pass."""

    accesses: list[Access] = field(default_factory=list)
    syscalls: list[SyscallSite] = field(default_factory=list)
    ret_sp_ok: bool = True
    ret_fp_ok: bool = True
    writes_above: bool = False
    writes_unknown: bool = False
    local_down: int = 0
    call_sites: list[tuple[int, int | None, int | None]] = field(default_factory=list)
    calls_unknown: bool = False


def analyze(cfg: ControlFlowGraph) -> AnalysisResult:
    """Run the interprocedural analysis over a recovered CFG."""
    summaries = {fn: FunctionSummary() for fn in cfg.functions}
    observations: dict[int, _Observations] = {}

    def visit(fn: int) -> FunctionSummary:
        """Analyse ``fn`` against the current summaries; what it now claims."""
        obs = _collect(cfg, fn, _function_fixpoint(cfg, fn, summaries), summaries)
        observations[fn] = obs
        return FunctionSummary(
            sp_disciplined=obs.ret_sp_ok,
            preserves_fp=obs.ret_fp_ok,
            writes_above=obs.writes_above,
            writes_unknown=obs.writes_unknown,
            max_down=min(obs.local_down, UNBOUNDED),
            calls_unknown=obs.calls_unknown,
        )

    # Callees first: when a component is reached, every summary it can read
    # from outside itself is already final.
    for component in _call_graph_components(cfg.call_graph):
        fn = component[0]
        if len(component) == 1 and fn not in cfg.call_graph[fn]:
            # Outside any cycle a function never reads its own summary, so
            # one visit against final callee summaries is its final answer.
            summaries[fn] = visit(fn)
            continue
        # A recursive component reads its own summaries.  They start at the
        # best claim, the lattice is finite and every update is a monotone
        # degradation, so this converges well inside the iteration cap; the
        # cap only guards against bugs, falling back to fully pessimistic
        # summaries for the component.
        for _ in range(8 + 2 * len(component)):
            changed = False
            for fn in component:
                updated = visit(fn)
                if updated != summaries[fn]:
                    summaries[fn] = updated
                    changed = True
            if not changed:
                break
        else:  # pragma: no cover - monotonicity bug backstop
            for fn in component:
                summaries[fn] = FunctionSummary(False, False, True, True,
                                                UNBOUNDED, True)
            for fn in component:
                visit(fn)

    total_down = _total_down(cfg, observations)
    accesses = [a for fn in cfg.functions for a in observations[fn].accesses]
    syscalls = [s for fn in cfg.functions for s in observations[fn].syscalls]
    return AnalysisResult(
        summaries=summaries,
        accesses=accesses,
        syscalls=syscalls,
        stack_bounded=total_down < UNBOUNDED,
        total_down=total_down,
    )


def _call_graph_components(call_graph: dict[int, set[int]]) -> list[list[int]]:
    """Strongly connected components of the call graph, callees before their
    callers, each in sorted order (Tarjan, iterative: a hostile image chooses
    the depth of its call chains)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    work: list[tuple[int, Iterator[int]]] = []
    components: list[list[int]] = []

    def enter(fn: int) -> None:
        index[fn] = low[fn] = len(index)
        stack.append(fn)
        on_stack.add(fn)
        work.append((fn, iter(sorted(call_graph[fn]))))

    for root in call_graph:
        if root in index:
            continue
        enter(root)
        while work:
            fn, callees = work[-1]
            for callee in callees:
                if callee not in index:
                    enter(callee)
                    break
                if callee in on_stack:
                    low[fn] = min(low[fn], index[callee])
            else:
                work.pop()
                if work:
                    caller = work[-1][0]
                    low[caller] = min(low[caller], low[fn])
                if low[fn] == index[fn]:
                    cut = stack.index(fn)
                    component = stack[cut:]
                    del stack[cut:]
                    on_stack.difference_update(component)
                    components.append(sorted(component))
    return components


def _function_fixpoint(
    cfg: ControlFlowGraph,
    fn_entry: int,
    summaries: dict[int, FunctionSummary],
) -> dict[int, State]:
    members = cfg.functions.get(fn_entry, set())
    if fn_entry not in cfg.blocks:
        return {}
    in_states: dict[int, State] = {fn_entry: State.at_function_entry()}
    visits: dict[int, int] = {}
    worklist: deque[int] = deque([fn_entry])
    while worklist:
        start = worklist.popleft()
        block = cfg.blocks.get(start)
        if block is None:
            continue
        state = in_states[start].copy()
        for pc, insn in block.instructions:
            _step(state, pc, insn, block.call_target, summaries, None, False)
        for succ in block.successors:
            if succ not in members:
                continue
            known = in_states.get(succ)
            if known is None:
                in_states[succ] = state.copy()
                worklist.append(succ)
                continue
            visits[succ] = visits.get(succ, 0) + 1
            merged = known.merge(state, widen=visits[succ] > _WIDEN_AFTER)
            if merged != known:
                in_states[succ] = merged
                worklist.append(succ)
    return in_states


def _collect(
    cfg: ControlFlowGraph,
    fn_entry: int,
    in_states: dict[int, State],
    summaries: dict[int, FunctionSummary],
) -> _Observations:
    obs = _Observations()
    root = fn_entry == cfg.entry
    for start, entry_state in in_states.items():
        block = cfg.blocks.get(start)
        if block is None:
            continue
        state = entry_state.copy()
        for pc, insn in block.instructions:
            _step(state, pc, insn, block.call_target, summaries, obs, root)
    return obs


def _total_down(cfg: ControlFlowGraph,
                observations: dict[int, _Observations]) -> int:
    """Max stack depth below the root entry sp, ``UNBOUNDED`` on recursion,
    unknown calls, or any call made with sp above the function entry."""
    memo: dict[int, int] = {}
    visiting: set[int] = set()

    def depth(fn: int) -> int:
        if fn in memo:
            return memo[fn]
        if fn in visiting:
            return UNBOUNDED
        obs = observations.get(fn)
        if obs is None:
            return UNBOUNDED
        visiting.add(fn)
        worst = obs.local_down
        if obs.calls_unknown:
            worst = UNBOUNDED
        for callee, lo, hi in obs.call_sites:
            if lo is None or hi is None or hi > 0:
                worst = UNBOUNDED
                break
            worst = max(worst, -lo + 4 + depth(callee))
        visiting.discard(fn)
        worst = min(worst, UNBOUNDED)
        memo[fn] = worst
        return worst

    return depth(cfg.entry)


# ---------------------------------------------------------------------------
# Transfer function
# ---------------------------------------------------------------------------

def _step(
    state: State,
    pc: int,
    insn: Instruction,
    call_target: int | None,
    summaries: dict[int, FunctionSummary],
    obs: _Observations | None,
    root: bool,
) -> None:
    """Execute one instruction abstractly, recording into ``obs`` when set."""
    op = insn.op
    regs = state.regs
    rd, rs = insn.rd, insn.rs

    if op in _LOAD_WIDTHS:
        width = _LOAD_WIDTHS[op]
        address = regs[rs].add_const(signed32(insn.imm))
        _record_access(obs, pc, "read", width, address, root)
        regs[rd] = _load_result(state, op, width, address)
    elif op in _STORE_WIDTHS:
        width = _STORE_WIDTHS[op]
        address = regs[rd].add_const(signed32(insn.imm))
        _record_access(obs, pc, "write", width, address, root)
        _store_effect(state, address, width, regs[rs], obs)
    elif op is Op.PUSH:
        value = regs[rd]
        new_sp = regs[REG_SP].add_const(-4)
        regs[REG_SP] = new_sp
        _record_access(obs, pc, "write", 4, new_sp, root)
        _store_effect(state, new_sp, 4, value, obs)
    elif op is Op.POP:
        address = regs[REG_SP]
        _record_access(obs, pc, "read", 4, address, root)
        regs[rd] = _load_result(state, Op.LD32, 4, address)
        regs[REG_SP] = address.add_const(4)     # written last: `pop sp` = sp + 4
    elif op is Op.MOVI:
        regs[rd] = exact(insn.imm)
    elif op is Op.MOV:
        regs[rd] = regs[rs]
    elif op is Op.LEA:
        regs[rd] = regs[rs].add_const(signed32(insn.imm))
    elif op is Op.ADD:
        regs[rd] = regs[rd].add(regs[rs])
    elif op is Op.ADDI:
        regs[rd] = regs[rd].add_const(signed32(insn.imm))
    elif op is Op.SUB:
        regs[rd] = regs[rd].sub(regs[rs])
    elif op is Op.SUBI:
        regs[rd] = regs[rd].add_const(-signed32(insn.imm))
    elif op in (Op.MUL, Op.MULI):
        other = exact(insn.imm) if op is Op.MULI else regs[rs]
        regs[rd] = _mul(regs[rd], other)
    elif op in (Op.AND, Op.ANDI):
        other = exact(insn.imm) if op is Op.ANDI else regs[rs]
        regs[rd] = regs[rd].band(other)
    elif op in (Op.OR, Op.ORI, Op.XOR, Op.XORI):
        other = exact(insn.imm) if op in (Op.ORI, Op.XORI) else regs[rs]
        regs[rd] = _or_xor(op, regs[rd], other)
    elif op is Op.SHLI:
        regs[rd] = regs[rd].shl_const(insn.imm)
    elif op is Op.SHL:
        regs[rd] = (regs[rd].shl_const(regs[rs].lo)
                    if regs[rs].is_exact and regs[rs].zone == ZONE_ABS else TOP)
    elif op is Op.SHRUI:
        regs[rd] = regs[rd].shru_const(insn.imm)
    elif op is Op.SHRU:
        regs[rd] = (regs[rd].shru_const(regs[rs].lo)
                    if regs[rs].is_exact and regs[rs].zone == ZONE_ABS else TOP)
    elif op in (Op.SHRS, Op.SHRSI):
        # Arithmetic == logical shift when the value is provably non-negative.
        count = (insn.imm if op is Op.SHRSI
                 else (regs[rs].lo if regs[rs].is_exact
                       and regs[rs].zone == ZONE_ABS else None))
        value = regs[rd]
        if count is not None and value.zone == ZONE_ABS and value.hi < 1 << 31:
            regs[rd] = value.shru_const(count)
        else:
            regs[rd] = TOP
    elif op in (Op.DIVU, Op.REMU):
        divisor = regs[rs]
        if divisor.is_exact and divisor.zone == ZONE_ABS and divisor.lo > 0:
            d = divisor.lo
            if op is Op.REMU:
                regs[rd] = interval(0, d - 1)
            elif regs[rd].zone == ZONE_ABS:
                regs[rd] = interval(regs[rd].lo // d, regs[rd].hi // d)
            else:
                regs[rd] = interval(0, U32_MASK // d)
        else:
            regs[rd] = TOP
    elif op in (Op.DIVS, Op.REMS):
        regs[rd] = TOP
    elif op is Op.NOT:
        regs[rd] = exact(~regs[rs].lo) if regs[rs].is_exact \
            and regs[rs].zone == ZONE_ABS else TOP
    elif op is Op.NEG:
        regs[rd] = exact(-regs[rs].lo) if regs[rs].is_exact \
            and regs[rs].zone == ZONE_ABS else TOP
    elif op is Op.VXCALL:
        if obs is not None:
            obs.syscalls.append(SyscallSite(pc, regs[0]))
        regs[0] = TOP
        # READ may overwrite guest memory at a computed address: drop value
        # slots, keep frame-linkage slots (see module docstring caveat).
        state.slots = {k: v for k, v in state.slots.items() if v.zone == ZONE_FP}
    elif op is Op.CALL:
        ret_slot = regs[REG_SP].add_const(-4)
        _record_access(obs, pc, "write", 4, ret_slot, root)
        if obs is not None:
            sp = regs[REG_SP]
            if sp.zone == ZONE_SP:
                obs.call_sites.append((call_target, sp.lo, sp.hi)
                                      if call_target is not None
                                      else (-1, None, None))
                obs.local_down = max(obs.local_down, -(sp.lo - 4))
            else:
                obs.call_sites.append((call_target if call_target is not None
                                       else -1, None, None))
        summary = summaries.get(call_target) if call_target is not None else None
        _after_call(state, summary, obs)
    elif op is Op.CALLR:
        ret_slot = regs[REG_SP].add_const(-4)
        _record_access(obs, pc, "write", 4, ret_slot, root)
        if obs is not None:
            obs.calls_unknown = True
            obs.writes_above = True
            obs.writes_unknown = True
        _after_call(state, None, obs)
    elif op is Op.RET:
        address = regs[REG_SP]
        _record_access(obs, pc, "read", 4, address, root)
        if obs is not None:
            sp, fp = regs[REG_SP], regs[6]
            if not (sp.zone == ZONE_SP and sp.lo == sp.hi == 0):
                obs.ret_sp_ok = False
            if not (fp.zone == ZONE_FP and fp.lo == fp.hi == 0):
                obs.ret_fp_ok = False
    # HALT, NOP, CMP/CMPI (flags untracked) and branches leave the state as-is.

    if obs is not None:
        sp = regs[REG_SP]
        if sp.zone == ZONE_SP:
            obs.local_down = max(obs.local_down, -sp.lo)
        else:
            obs.local_down = UNBOUNDED


def _after_call(state: State, summary: FunctionSummary | None,
                obs: _Observations | None) -> None:
    """Apply a callee summary (``None`` means fully unknown callee)."""
    regs = state.regs
    for index in range(6):
        regs[index] = TOP
    if summary is None:
        regs[6] = TOP
        regs[REG_SP] = TOP
        state.slots = {}
        return
    if not summary.preserves_fp:
        regs[6] = TOP
    if not summary.sp_disciplined:
        regs[REG_SP] = TOP
    if summary.writes_above or summary.calls_unknown:
        state.slots = {}
    elif summary.writes_unknown:
        state.slots = {k: v for k, v in state.slots.items() if v.zone == ZONE_FP}
    if obs is not None:
        obs.writes_above |= summary.writes_above or summary.calls_unknown
        obs.writes_unknown |= summary.writes_unknown or summary.calls_unknown


def _record_access(obs: _Observations | None, pc: int, kind: str, width: int,
                   address: AbstractValue, root: bool) -> None:
    if obs is None:
        return
    obs.accesses.append(Access(pc, kind, width, address, root))
    if kind == "write":
        if address.zone == ZONE_SP:
            if address.hi + width > 4:
                obs.writes_above = True
        else:
            obs.writes_unknown = True
    if address.zone == ZONE_SP:
        obs.local_down = max(obs.local_down, -address.lo)


def _load_result(state: State, op: Op, width: int,
                 address: AbstractValue) -> AbstractValue:
    if (op is Op.LD32 and address.zone == ZONE_SP and address.is_exact
            and address.lo % 4 == 0):
        return state.slots.get(address.lo, TOP)
    if op is Op.LD8U:
        return interval(0, 0xFF)
    if op is Op.LD16U:
        return interval(0, 0xFFFF)
    return TOP


def _store_effect(state: State, address: AbstractValue, width: int,
                  value: AbstractValue, obs: _Observations | None) -> None:
    if address.zone == ZONE_SP:
        if address.is_exact and width == 4 and address.lo % 4 == 0:
            if value.is_top:
                state.slots.pop(address.lo, None)
            else:
                state.slots[address.lo] = value
            return
        lo = max(address.lo, -DELTA_LIMIT)
        hi = min(address.hi, DELTA_LIMIT)
        for key in list(state.slots):
            if key + 4 > lo and key < hi + width:
                del state.slots[key]
        return
    # Statically-unresolvable store: drop value slots, keep frame linkage
    # (documented memory-model caveat; the dynamic backstop covers hostile
    # images that violate it).
    state.slots = {k: v for k, v in state.slots.items() if v.zone == ZONE_FP}


def _mul(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    if a.is_exact and b.is_exact and a.zone == b.zone == ZONE_ABS:
        return exact(a.lo * b.lo)
    if a.zone == b.zone == ZONE_ABS and a.hi * b.hi <= U32_MASK:
        return interval(a.lo * b.lo, a.hi * b.hi)
    return TOP


def _or_xor(op: Op, a: AbstractValue, b: AbstractValue) -> AbstractValue:
    if a.is_exact and b.is_exact and a.zone == b.zone == ZONE_ABS:
        if op in (Op.OR, Op.ORI):
            return exact(a.lo | b.lo)
        return exact(a.lo ^ b.lo)
    if a.zone == b.zone == ZONE_ABS and a.hi + b.hi <= U32_MASK:
        lo = max(a.lo, b.lo) if op in (Op.OR, Op.ORI) else 0
        return interval(lo, a.hi + b.hi)
    return TOP
