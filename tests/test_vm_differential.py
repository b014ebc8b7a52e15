"""Differential fuzzing of the VM execution engines.

The superblock translator performs aggressive transformations -- trace
formation across basic blocks, fragment chaining, in-fragment loop
compilation, symbolic register/condition-code values, store-to-load
forwarding, bounds-based mask elision -- so this suite is its safety net:
randomized guest programs (generated straight into assembler source) must
behave *identically* on the reference interpreter and on the translator in
every configuration worth shipping: default superblocks, single-instruction
fragments and chaining disabled.

"Identically" covers exit code, stdout, stderr, the final register file, the
final condition codes, the entire guest memory image and the executed
instruction count.  Hand-written programs pin the aliasing and stack-pointer
corner cases one by one, and a last set checks that fault *types* agree.
"""

from __future__ import annotations

import hashlib
import pathlib
import random

import pytest

from repro.analysis import verify_image
from repro.elf.reader import read_note
from repro.errors import DivisionFault, GuestFault, MemoryFault
from repro.vm.machine import ENGINE_INTERPRETER, ENGINE_TRANSLATOR, VirtualMachine
from repro.vm.translator import _BAIL

from tests.conftest import build_asm

#: Registers the generator may freely clobber (r0 is the syscall register,
#: r6 holds the data-buffer base, r7 is the stack pointer).
_SCRATCH = (1, 2, 3, 4, 5)

_ALU_RR = ("add", "sub", "mul", "and", "or", "xor", "shl", "shru", "shrs")
_ALU_RI = ("addi", "subi", "muli", "andi", "ori", "xori", "shli", "shrui", "shrsi")
_CONDS = ("je", "jne", "jlts", "jles", "jgts", "jges", "jltu", "jleu", "jgtu", "jgeu")
_LOADS = ("ld32", "ld16u", "ld8u", "ld16s", "ld8s")
_STORES = {"st32": 4, "st16": 2, "st8": 1}


def _random_program(seed: int) -> str:
    """Generate a random, always-terminating guest program.

    The program mixes ALU soup, loads/stores confined to a 256-byte data
    window, bounded counter loops, forward branches, call/ret pairs and
    push/pop traffic, then writes the data window to stdout and exits with a
    register-derived code -- plenty of surface for superblock formation,
    chaining and in-fragment loops to go wrong observably.

    Memory traffic is shaped to catch a wrong store-to-load forward: window
    addresses are unaligned and reached through several bases with the same
    run-time value (``r6`` itself, ``lea`` off it, a constant, a value the
    translator cannot see through), with displacements that wrap 2**32;
    narrow stores land inside words stored a moment earlier; ``[r7+k]`` is
    read and written between a ``push`` and its ``pop``; and counter loops
    carry memory and balanced stack traffic, some storing a word late in
    one iteration that the head of the next one loads.
    """
    rng = random.Random(seed)
    lines = ["_start:", "    movi r6, buffer"]
    label = 0
    reserved: set[int] = set()      # live loop counters: never written
    pushed = 0                      # words on the stack above the program's own

    def fresh_label(prefix: str) -> str:
        nonlocal label
        label += 1
        return f"{prefix}{label}"

    def target() -> int:
        """A register the generated code may overwrite."""
        return rng.choice([reg for reg in _SCRATCH if reg not in reserved])

    def window(width: int, offset: int | None = None) -> tuple[list[str], str]:
        """Set-up lines plus a ``[reg+disp]`` operand inside the data window."""
        if offset is None:
            offset = rng.randrange(0, 257 - width)
        style = rng.randrange(6)
        if style <= 1:
            return [], f"[r6+{offset}]"
        base = target()
        anchor = rng.randrange(0, 512)
        disp = (offset - anchor) & 0xFFFFFFFF   # wraps 2**32 when anchor > offset
        setup = {
            2: [f"    lea r{base}, [r6+{anchor}]"],
            3: [f"    movi r{base}, buffer", f"    addi r{base}, {anchor}"],
            4: [f"    lea r{base}, [r6+{anchor}]", f"    xori r{base}, 0"],
            5: [f"    mov r{base}, r6", f"    subi r{base}, {-anchor & 0xFFFFFFFF}"],
        }[style]
        return setup, f"[r{base}+{disp}]"

    def store(offset: int | None = None, width: int | None = None) -> list[str]:
        mnemonic = rng.choice([m for m, w in _STORES.items()
                               if width in (None, w)])
        source = rng.choice(_SCRATCH)
        setup, operand = window(_STORES[mnemonic], offset)
        return setup + [f"    {mnemonic} {operand}, r{source}"]

    def load(offset: int | None = None, mnemonic: str | None = None) -> list[str]:
        mnemonic = mnemonic or rng.choice(_LOADS)
        # The base is set up before the destination is chosen, so the two
        # may coincide (``ld32 r3, [r3+k]``).
        setup, operand = window(4, offset)
        return setup + [f"    {mnemonic} r{target()}, {operand}"]

    def random_ops(depth: int, budget: int) -> list[str]:
        nonlocal pushed
        ops: list[str] = []
        for _ in range(budget):
            kind = rng.randrange(12)
            if kind <= 2:
                ops.append(f"    {rng.choice(_ALU_RR)} r{target()}, "
                           f"r{rng.choice(_SCRATCH)}")
            elif kind <= 4:
                imm = rng.choice((rng.randrange(64), rng.randrange(1 << 32)))
                ops.append(f"    {rng.choice(_ALU_RI)} r{target()}, {imm}")
            elif kind == 5:                    # window store
                ops += store()
            elif kind == 6:                    # window load
                ops += load()
            elif kind == 7:                    # word, overlapping store, reload
                offset = rng.randrange(3, 247)
                ops += store(offset, 4)
                ops += store(offset + rng.randrange(-3, 7))
                ops += load(offset, "ld32")
            elif kind == 8:                    # forward branch over a few ops
                skip = fresh_label("skip")
                ops.append(f"    cmpi r{rng.choice(_SCRATCH)}, "
                           f"{rng.randrange(1 << 32)}")
                ops.append(f"    {rng.choice(_CONDS)} {skip}")
                ops.extend(random_ops(depth + 1, rng.randrange(1, 3)))
                ops.append(f"{skip}:")
            elif kind == 9 and depth == 0:     # bounded counter loop
                head = fresh_label("loop")
                done = fresh_label("brk")
                counter = target()
                reserved.add(counter)
                top_tested = rng.random() < 0.5
                carried = rng.randrange(0, 250) if rng.random() < 0.5 else None
                ops.append(f"    movi r{counter}, {rng.randrange(2, 7)}")
                ops.append(f"{head}:")
                if top_tested:
                    # Exit branch *before* the body: the side exit's register
                    # write-back must still cover body-modified registers
                    # from previous iterations (regression for the looping
                    # superblock spill bug).
                    ops.append(f"    cmpi r{counter}, 0")
                    ops.append(f"    jleu {done}")
                if carried is not None:        # loads what the last pass stored
                    ops += load(carried, "ld32")
                ops.extend(random_ops(depth + 1, rng.randrange(1, 4)))
                if carried is not None:
                    ops += store(carried + rng.randrange(0, 3), 4)
                ops.append(f"    subi r{counter}, 1")
                if top_tested:
                    ops.append(f"    jmp {head}")
                else:
                    ops.append(f"    cmpi r{counter}, 0")
                    ops.append(f"    jgtu {head}")
                ops.append(f"{done}:")
                reserved.discard(counter)
            elif kind == 10 and pushed:        # sp-relative access to pushed words
                k = rng.randrange(0, 4 * pushed - 3)
                if rng.random() < 0.5:
                    ops.append(f"    ld32 r{target()}, [r7+{k}]")
                else:
                    mnemonic = rng.choice(list(_STORES))
                    ops.append(f"    {mnemonic} [r7+{k}], r{rng.choice(_SCRATCH)}")
            else:                              # push/pop pair
                ops.append(f"    push r{rng.choice(_SCRATCH)}")
                pushed += 1
                ops.extend(random_ops(depth + 1, rng.randrange(0, 3)))
                pushed -= 1
                ops.append(f"    pop r{target()}")
        return ops

    lines += random_ops(0, rng.randrange(12, 30))

    if rng.random() < 0.6:                     # call/ret through a helper
        lines.append("    call helper")
        lines.append("    call helper")

    # Write the data window, then exit with a truncated register value.
    lines += [
        "    movi r0, 2",
        "    movi r1, 1",
        "    movi r2, buffer",
        "    movi r3, 256",
        "    vxcall",
        f"    mov  r1, r{rng.choice(_SCRATCH)}",
        "    andi r1, 63",
        "    movi r0, 0",
        "    vxcall",
        "helper:",
        "    push r2",
        f"    {rng.choice(_ALU_RR)} r1, r2",
        f"    {rng.choice(_ALU_RI)} r2, {rng.randrange(1 << 16)}",
        "    pop r2",
        "    ret",
        ".data",
        "buffer:",
        "    .space 256",
    ]
    return "\n".join(lines)


def _run(image: bytes, engine: str, **vm_kwargs):
    # Generated programs terminate within a few thousand instructions; the
    # explicit ceiling turns a generator bug into a fast failure, not a hang.
    from repro.vm.limits import ExecutionLimits
    limits = ExecutionLimits(max_instructions=2_000_000)
    vm = VirtualMachine(image, engine=engine, limits=limits, **vm_kwargs)
    result = vm.decode(b"", limits=limits)
    return result, list(vm.regs), tuple(vm.cc), bytes(vm.memory.buffer)


#: Translator configurations that must all match the interpreter.
_TRANSLATOR_CONFIGS = [
    {},                                        # default engine (elision on)
    {"superblock_limit": 1},                   # one instruction per fragment
    {"chain_fragments": False},                # chaining ablation
    {"use_fragment_cache": False, "chain_fragments": False},
    {"analysis_elision": False},               # keep every bounds guard
]


def _assert_engines_agree(image: bytes, tag) -> None:
    reference = _run(image, ENGINE_INTERPRETER)
    for config in _TRANSLATOR_CONFIGS:
        candidate = _run(image, ENGINE_TRANSLATOR, **config)
        assert candidate[0].exit_code == reference[0].exit_code, (tag, config)
        assert candidate[0].output == reference[0].output, (tag, config)
        assert candidate[0].stderr == reference[0].stderr, (tag, config)
        assert candidate[1] == reference[1], (tag, config)   # registers
        assert candidate[2] == reference[2], (tag, config)   # condition codes
        assert candidate[3] == reference[3], (tag, config)   # whole memory
        # Superblock accounting (one addition per exit) must stay exact.
        assert (candidate[0].stats.instructions
                == reference[0].stats.instructions), (tag, config)


@pytest.mark.parametrize("seed", range(64))
def test_random_programs_agree_across_engines(seed):
    _assert_engines_agree(build_asm(_random_program(seed)), seed)


#: Hand-written programs aimed at the translator's value forwarding: each
#: one is wrong under a plausible shortcut (forwarding across an aliasing
#: store, keeping a stale word, moving sp in the wrong order).  ``r6``
#: enters pointing at a 64-byte buffer; the expected values in the comments
#: are what the interpreter -- the oracle -- computes.
_FORWARDING_PROGRAMS = {
    # ``pop sp`` writes rd, then sp: r7 ends at sp + 4, not at 1234 (+ 4).
    "pop_into_sp": """
        movi r3, 1234
        push r3
        pop  r7
        ld32 r1, [r7-4]         ; 1234 is still in the slot just popped
    """,
    # ``push sp`` stores the sp it had *before* the decrement.
    "push_of_sp": """
        push r7
        pop  r1                 ; the old sp
        push r7
        ld32 r2, [r7]
    """,
    # A store through a pointer only known at run time (r5 == sp - 4 after
    # the ``ori``) hits the pushed slot: the pop must reload it.
    "store_through_runtime_alias": """
        movi r1, 111
        movi r2, 222
        lea  r5, [r7-4]
        ori  r5, 0
        push r1
        st32 [r5], r2
        pop  r3                 ; 222
    """,
    # The same slot named through the frame pointer: provably the same
    # address, so the pop takes the *new* value without reloading.
    "store_through_frame_pointer": """
        mov  r6, r7
        movi r1, 111
        movi r2, 222
        push r1
        st32 [r6-4], r2
        pop  r3                 ; 222
        ld32 r4, [r6-4]         ; 222
    """,
    # A word store two bytes into a remembered word, then narrow stores
    # inside both: every reload must see the merged bytes.
    "overlapping_word_stores": """
        movi r1, 0x11223344
        movi r2, 0xAABBCCDD
        st32 [r6+8], r1
        st32 [r6+10], r2
        ld32 r3, [r6+8]         ; 0xCCDD3344
        ld32 r4, [r6+10]        ; 0xAABBCCDD
        st8  [r6+11], r1
        ld32 r5, [r6+10]        ; 0xAABB44DD
        st16 [r6+7], r2
        ld32 r1, [r6+8]         ; 0x44DD33CC
        ld32 r2, [r6+4]
    """,
    # A store far enough away (same base) keeps the forward; one byte
    # closer it does not.
    "adjacent_stores": """
        movi r1, 0x01020304
        movi r2, 0x0A0B0C0D
        st32 [r6+16], r1
        st32 [r6+20], r2
        st32 [r6+12], r2
        ld32 r3, [r6+16]        ; untouched
        st32 [r6+13], r2
        ld32 r4, [r6+16]        ; low byte replaced
        st32 [r6+4294967295], r1 ; r6 - 1: wraps, far from +16
        ld32 r5, [r6+20]
    """,
    # sp may hold anything between accesses (isolation is per access).
    "sp_parked_outside_the_sandbox": """
        mov  r5, r7
        movi r7, 0x7fffffff
        mov  r7, r5
        push r5
        pop  r1
    """,
    # A loop whose head loads what its tail stored on the previous pass,
    # with a pushed word living across the store.
    "loop_carried_memory": """
        movi r1, 5
        movi r2, 1
        st32 [r6], r2
    again:
        ld32 r3, [r6]
        push r3
        add  r3, r3
        st32 [r6], r3
        pop  r4                 ; the value before doubling
        add  r5, r4
        subi r1, 1
        cmpi r1, 0
        jgtu again
    """,
}


def _forwarding_image(name: str) -> bytes:
    return build_asm("_start:\n    movi r6, buffer\n" + _FORWARDING_PROGRAMS[name]
                     + "    halt\n.data\nbuffer:\n    .space 64\n")


@pytest.mark.parametrize("name", _FORWARDING_PROGRAMS)
def test_forwarding_programs_agree_across_engines(name):
    _assert_engines_agree(_forwarding_image(name), name)


def test_forwarding_programs_compute_the_commented_values():
    """The oracle itself is pinned, so the engines cannot agree on a bug."""
    def registers(name):
        return _run(_forwarding_image(name), ENGINE_INTERPRETER)[1]

    stack_top = registers("sp_parked_outside_the_sandbox")[7]
    regs = registers("pop_into_sp")
    assert (regs[1], regs[7]) == (1234, stack_top)
    regs = registers("push_of_sp")
    assert (regs[1], regs[2], regs[7]) == (stack_top, stack_top, stack_top - 4)
    assert registers("store_through_runtime_alias")[3] == 222
    assert registers("store_through_frame_pointer")[3:5] == [222, 222]
    regs = registers("overlapping_word_stores")
    assert regs[3:6] == [0xCCDD3344, 0xAABBCCDD, 0xAABB44DD]
    assert regs[1] == 0x44DD33CC
    regs = registers("adjacent_stores")
    assert regs[3:5] == [0x01020304, 0x0102030A]
    assert registers("loop_carried_memory")[5] == 1 + 2 + 4 + 8 + 16


#: Code is immutable (the rule beside ``ST8`` in ``repro.isa.opcodes``): a
#: store into the text range is a data store -- loads see it, execution does
#: not.  Each program overwrites the immediate of a ``movi`` with r1 and both
#: runs it and loads it back; the comments give what the oracle computes.
_STORES_INTO_TEXT = {
    # ... of an instruction further down the very trace being executed.
    "ahead_in_the_trace": ("""
        movi r1, 0xAAAAAAAA
        movi r4, target
        st32 [r4+2], r1
    target:
        movi r2, 0x11111111     ; runs as archived
        ld32 r3, [r4+2]         ; 0xAAAAAAAA
    """, {2: 0x11111111, 3: 0xAAAAAAAA}),
    # ... of an instruction no engine has decoded yet when the store runs.
    "ahead_behind_an_indirect_jump": ("""
        movi r1, 0xAAAAAAAA
        movi r4, target
        st32 [r4+2], r1
        jmpr r4
    target:
        movi r2, 0x11111111
        ld32 r3, [r4+2]
    """, {2: 0x11111111, 3: 0xAAAAAAAA}),
    # ... of an instruction already executed, which then executes again.
    "behind": ("""
        movi r3, 0
    target:
        movi r2, 0x11111111
        add  r5, r2             ; 0x11111111 twice
        movi r4, target
        movi r1, 0x44444444
        st32 [r4+2], r1
        addi r3, 1
        cmpi r3, 2
        jltu target
        ld32 r3, [r4+2]         ; 0x44444444
    """, {5: 0x22222222, 3: 0x44444444}),
    # ... between a push and its pop: forwarding must neither lose the
    # pushed word nor mistake the store for one into the stack.
    "under_a_push_pop_pair": ("""
        movi r1, 0x33333333
        movi r4, target
        push r1
        st32 [r4+2], r1
        pop  r5                 ; 0x33333333
    target:
        movi r2, 0x11111111
        ld32 r3, [r4+2]         ; 0x33333333
    """, {5: 0x33333333, 2: 0x11111111, 3: 0x33333333}),
}


@pytest.mark.parametrize("name", _STORES_INTO_TEXT)
def test_a_store_into_text_changes_what_loads_see_not_what_runs(name):
    body, expected = _STORES_INTO_TEXT[name]
    image = build_asm("_start:\n" + body + "    halt\n")
    _assert_engines_agree(image, name)
    registers = _run(image, ENGINE_INTERPRETER)[1]
    assert {reg: registers[reg] for reg in expected} == expected


#: The translator reaches a word at ``[r6|r7 + 4k]`` through an aligned word
#: view under an entry guard on the pointer (``_Trace.word``); a pointer the
#: guard refuses -- misaligned, too low for the offsets used, high enough for
#: a sum to wrap -- is legal ISA all the same, and the entry is retranslated
#: without the view.  Each program sets the pointer in one fragment and uses
#: it in the next (``jmpr r5`` between them, r5 = ``use`` kept to the end), so
#: it arrives as an entry register, not as a constant of the trace.
#: ``(body, memory_size, bails, faults)``: must the entry guard of the
#: fragment at ``use`` bail, and must the run end in a ``MemoryFault``.
_ODD_SIZE = (4 << 20) + 2
_HOSTILE_POINTERS = {
    **{f"sp_off_by_{n}": (f"""
        addi r7, {n}
        jmpr r5
    use:
        movi r1, 0x11223344
        push r1
        ld32 r2, [r7+4]
        pop  r3
        ld32 r4, [r7-4]         ; forwarded or not, 0x11223344
        ld32 r1, [r7-8]
    """, None, True, False) for n in (1, 2, 3)},
    "fp_misaligned": ("""
        movi r6, buffer
        addi r6, 2
        jmpr r5
    use:
        movi r1, 0xAABBCCDD
        st32 [r6+4], r1
        ld32 r2, [r6+8]
        ld16u r3, [r6+6]        ; the upper half of the word just stored
        ld32 r4, [r6]
        st32 [r6-4], r3
    """, None, True, False),
    # r7 - LOW == 0: the lowest state the guard admits; word 0 is written.
    "sp_8_two_pushes": ("""
        movi r7, 8
        jmpr r5
    use:
        push r5
        push r7
        ld32 r1, [r7]
    """, None, False, False),
    # The second push is at -4, i.e. 0xfffffffc: as an index it would be the
    # last word of the sandbox.
    "sp_4_second_push_wraps": ("""
        movi r7, 4
        jmpr r5
    use:
        push r5
        push r7
    """, None, True, True),
    # r7 + 8 wraps past 2**32 to address 0: as an index, far out of range.
    "sp_high_sum_wraps": ("""
        movi r1, 0x600DF00D
        movi r2, 0
        st32 [r2], r1
        movi r7, 0xfffffff8
        jmpr r5
    use:
        ld32 r3, [r7+8]         ; 0x600DF00D
        ld32 r4, [r7+12]
    """, None, True, False),
    # A loop that pushes: the guarded pointer is loop-carried, so the guard,
    # which runs once ahead of the loop, cannot vouch for the second pass.
    "loop_that_pushes": ("""
        jmpr r5
    use:
        movi r1, 5
    again:
        push r1
        subi r1, 1
        cmpi r1, 0
        jgtu again
        ld32 r2, [r7+16]        ; 5
    """, None, False, False),
    # A loop through two fragments that moves sp by one byte per pass: the
    # first pass satisfies the guard at ``use``, the second does not.
    "loop_that_misaligns_sp": ("""
        movi r1, 4
        movi r4, tail
        jmpr r5
    use:
        push r1
        ld32 r2, [r7+4]
        pop  r3
        jmpr r4
    tail:
        addi r7, 1
        subi r1, 1
        cmpi r1, 0
        jgtu use
    """, None, True, False),
    # The last whole word of the sandbox, by a constant address ...
    "last_word": ("""
        jmpr r5
    use:
        movi r1, 0x3ffffc
        movi r2, 0xCAFEF00D
        st32 [r1], r2
        ld32 r3, [r1]
        movi r4, 0x3ffff8
        ld32 r4, [r4+4]
    """, None, False, False),
    # ... one past it ...
    "past_the_last_word": ("""
        jmpr r5
    use:
        movi r1, 0x400000
        ld32 r3, [r1]
    """, None, False, True),
    # ... and the same two where the sandbox ends in a two-byte tail, which
    # byte accesses reach and no word does.
    "last_word_before_a_tail": ("""
        jmpr r5
    use:
        movi r1, 0x3ffffc
        movi r2, 0xCAFEF00D
        st32 [r1], r2
        st8  [r1+5], r2
        ld8u r3, [r1+5]         ; 0x0D
        ld32 r4, [r1]
    """, _ODD_SIZE, False, False),
    "word_straddling_the_tail": ("""
        jmpr r5
    use:
        movi r1, 0x400000
        movi r2, 0xCAFEF00D
        st32 [r1], r2
    """, _ODD_SIZE, False, True),
}


def _observe(image: bytes, engine: str, faults: bool, **vm_kwargs):
    """``(everything observable, vm)`` of one run.  At a ``MemoryFault`` that
    is the memory image -- stores are performed in order, so it is exact --
    and no more: registers are only written back at exits."""
    vm = VirtualMachine(image, engine=engine, **vm_kwargs)
    if faults:
        with pytest.raises(MemoryFault):
            vm.decode(b"")
        return bytes(vm.memory.buffer), vm
    result = vm.decode(b"")
    return (result.exit_code, list(vm.regs), tuple(vm.cc),
            bytes(vm.memory.buffer), result.stats.instructions), vm


@pytest.mark.parametrize("policy", ["full", "write-only", "none"])
@pytest.mark.parametrize("name", _HOSTILE_POINTERS)
def test_pointers_the_entry_guard_refuses_are_still_legal(name, policy):
    body, memory_size, bails, faults = _HOSTILE_POINTERS[name]
    image = build_asm("_start:\n    movi r5, use\n" + body
                      + "    halt\n.data\nbuffer:\n    .space 64\n")
    sandbox = {"check_policy": policy}
    if memory_size is not None:
        sandbox["memory_size"] = memory_size
    reference, oracle = _observe(image, ENGINE_INTERPRETER, faults, **sandbox)
    for config in _TRANSLATOR_CONFIGS:
        observed, vm = _observe(image, ENGINE_TRANSLATOR, faults,
                                **config, **sandbox)
        assert observed == reference, (name, config)
        # The fallback is tested, not assumed: where the guard must refuse,
        # it did, and a fragment without one has taken the entry over.
        # (One instruction per fragment bails at a later entry than ``use``;
        # without a cache there is no fragment to look at.)
        assert (vm.stats.retranslations > 0) == bails, (name, config)
        if bails and config in ({}, {"chain_fragments": False},
                                {"analysis_elision": False}):
            source = vm.code_cache.fragments[oracle.regs[5]].source
            assert "w[" not in source, (name, config)
            assert f"return {_BAIL}" not in source, (name, config)


def test_a_guarded_fragment_is_what_those_programs_start_from():
    """The bails above are bails of a guard that exists: the same entry,
    reached with an aligned pointer, runs with the view and is kept."""
    body = _HOSTILE_POINTERS["sp_off_by_1"][0].replace("addi r7, 1", "addi r7, 4")
    image = build_asm("_start:\n    movi r5, use\n" + body + "    halt\n")
    vm = _observe(image, ENGINE_TRANSLATOR, False)[1]
    source = vm.code_cache.fragments[vm.regs[5]].source
    assert f"if r7 - 8 & {0xC0000003}: return {_BAIL}" in source
    assert "w[q7 - 1] = " in source and "_p32(" not in source
    assert vm.stats.retranslations == 0


def test_a_bail_counts_the_elisions_of_both_translations():
    """``guards_elided`` sums over ``fragments_translated``, and a bail
    translates its entry twice.  ``use`` is also a static successor here, so
    the analysis reaches it and proves its three sites."""
    body = """
        subi r7, {n}
        cmpi r5, 0
        je   use
        jmpr r5
    use:
        movi r2, buffer
        st32 [r2], r5
        push r5
        ld32 r3, [r2+4]
        halt
    .data
    buffer:
        .space 64
    """
    counted = {}
    for n in (4, 1):
        image = build_asm("_start:\n    movi r5, use\n" + body.format(n=n))
        stats = _observe(image, ENGINE_TRANSLATOR, False)[1].stats
        counted[n] = (stats.guards_elided, stats.fragments_translated,
                      stats.retranslations)
    assert counted == {4: (3, 2, 0), 1: (6, 3, 1)}


_FAULT_PROGRAMS = [
    ("wild_store", "    movi r1, 0x7000000\n    movi r2, 1\n    st32 [r1], r2\n    halt\n",
     MemoryFault),
    ("wild_load", "    movi r1, 0x7ffffffc\n    ld32 r2, [r1]\n    halt\n",
     MemoryFault),
    ("straddling_store", "    movi r1, 0x3ffffe\n    movi r2, 9\n    st32 [r1], r2\n    halt\n",
     MemoryFault),
    ("div_zero", "    movi r1, 5\n    movi r2, 0\n    divu r1, r2\n    halt\n",
     DivisionFault),
    ("rem_zero", "    movi r1, 5\n    movi r2, 0\n    rems r1, r2\n    halt\n",
     DivisionFault),
    ("jump_wild", "    movi r1, 0x123456\n    jmpr r1\n", GuestFault),
    # ``callr sp`` jumps to sp *after* the push in both engines: the stack.
    ("call_into_stack", "    callr r7\n", GuestFault),
]


@pytest.mark.parametrize("name,body,expected",
                         _FAULT_PROGRAMS, ids=[p[0] for p in _FAULT_PROGRAMS])
def test_fault_behaviour_agrees_across_engines(name, body, expected):
    image = build_asm("_start:\n" + body)
    for engine in (ENGINE_INTERPRETER, ENGINE_TRANSLATOR):
        with pytest.raises(expected):
            VirtualMachine(image, engine=engine).decode(b"")


def test_randomized_out_of_bounds_addresses_fault_identically():
    rng = random.Random(1234)
    for _ in range(10):
        address = rng.randrange(0x400000, 1 << 32)
        for mnemonic in ("ld32", "st32", "ld8u", "st8"):
            if mnemonic.startswith("ld"):
                body = f"    movi r1, {address}\n    {mnemonic} r2, [r1]\n    halt\n"
            else:
                body = f"    movi r1, {address}\n    movi r2, 7\n    {mnemonic} [r1], r2\n    halt\n"
            image = build_asm("_start:\n" + body)
            outcomes = []
            for engine in (ENGINE_INTERPRETER, ENGINE_TRANSLATOR):
                try:
                    VirtualMachine(image, engine=engine).decode(b"")
                    outcomes.append("ok")
                except MemoryFault:
                    outcomes.append("fault")
            assert outcomes[0] == outcomes[1] == "fault", (address, mnemonic)


# -- an image from an older compiler ----------------------------------------------------

#: ``vxz-vxc-0.1.elf`` is the vxz decoder as the vxc 0.1 code generator built
#: it (every scalar in a frame slot, every intermediate on the stack), with a
#: payload its encoder produced; ``vxz-vxc-0.2.elf`` is the same source as vxc
#: 0.2 built it (three register locals, a call for every helper), exactly the
#: bytes the parent of vxc 0.3 bundled.  Archives carry such images for good:
#: they must keep decoding, and keep verifying, under every engine
#: configuration, whatever the current compiler would emit for the same
#: source.  Never regenerate these files.
_DATA = pathlib.Path(__file__).parent / "data"
_ARCHIVED_OUTPUT_SHA256 = "dd8add34c82cd72018415a5731b3bdd39d41117caccda9114927f958f8e62dd3"


def _assert_archived_image_still_decodes(toolchain: str, size: int, sha256_prefix: str):
    image = (_DATA / f"vxz-{toolchain}.elf").read_bytes()
    payload = (_DATA / "vxz-vxc-0.1.payload.vxz").read_bytes()
    assert len(image) == size and read_note(image)["toolchain"] == toolchain
    assert hashlib.sha256(image).hexdigest().startswith(sha256_prefix)
    assert verify_image(image).ok
    runs = [{"engine": ENGINE_INTERPRETER}]
    runs += [{"engine": ENGINE_TRANSLATOR, **config} for config in _TRANSLATOR_CONFIGS]
    for vm_kwargs in runs:
        result = VirtualMachine(image, **vm_kwargs).decode(payload)
        assert result.exit_code == 0, vm_kwargs
        assert hashlib.sha256(result.output).hexdigest() == _ARCHIVED_OUTPUT_SHA256, vm_kwargs


def test_image_built_by_the_previous_compiler_still_decodes():
    _assert_archived_image_still_decodes("vxc-0.1", 7383, "13ee9024")


def test_image_built_by_vxc_0_2_still_decodes():
    _assert_archived_image_still_decodes("vxc-0.2", 6807, "844fec34")
