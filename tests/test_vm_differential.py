"""Differential fuzzing of the VM execution engines.

The superblock translator performs aggressive transformations -- trace
formation across basic blocks, inlined if-arms that rejoin, fragment
chaining, in-fragment loop compilation, symbolic register/condition-code
values, store-to-load forwarding, bounds-based mask elision -- so this suite
is its safety net: randomized guest programs (generated straight into
assembler source) must behave *identically* on the reference interpreter and
on the translator in every configuration worth shipping: default superblocks,
single-instruction fragments and chaining disabled.

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

from tests.conftest import build_asm, inlined_ifs

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


#: Operands at every edge the translator's wrap and sign tests compare
#: against: CPython's one-digit limit (2**30), the sign bit and 2**32.
_BOUNDARIES = (0, 1, (1 << 30) - 1, 1 << 30, (1 << 31) - 1, 1 << 31,
               (1 << 31) + 1, (1 << 32) - 2, (1 << 32) - 1)
_BOUNDARY_OPS = {
    "add": "add r1, r2", "sub": "sub r1, r2", "addi": "addi r1, {b}",
    "subi": "subi r1, {b}", "lea": "lea r1, [r1+{b}]",
    "neg": "neg r1, r1", "not": "not r1, r1",
    "sub-from-const": "movi r1, {a}\n    sub r1, r2",       # a - b, a known
    # Both operands below 2**31: the sum cannot wrap and is not tested.
    "add-bounded": "andi r1, 0x7FFFFFFF\n    andi r2, 0x7FFFFFFF\n    add r1, r2",
    # Bounds that sum to 2**32 exactly: the sum can still wrap.
    "add-one-bit": "andi r2, 1\n    add r1, r2",
}
_BOUNDARY_COMPARES = {
    "reg": "cmp r1, r2", "imm": "cmpi r1, {b}", "const": "movi r1, {a}\n    cmp r1, r2",
}


def _boundary_program(operation: str) -> str:
    """Every ordered pair of :data:`_BOUNDARIES` through ``operation``.

    The operands are loaded, so the translator knows nothing of them.  Each
    result is stored; then ``call sink`` ends the trace, so the register is
    also written back as the translator spells it (wrapped, not yet held)
    and stored again by a fragment that meets it as an entry local.  A
    compare records the branch each signed jump takes.
    """
    lines = ["_start:", "    movi r6, values", "    movi r5, results"]
    for i, a in enumerate(_BOUNDARIES):
        for j, b in enumerate(_BOUNDARIES):
            lines += [f"    ld32 r1, [r6+{4 * i}]", f"    ld32 r2, [r6+{4 * j}]"]
            if operation in _BOUNDARY_OPS:
                lines += ["    " + _BOUNDARY_OPS[operation].format(a=a, b=b), "    call sink"]
                continue
            jump, form = operation.split("-")
            lines.append("    " + _BOUNDARY_COMPARES[form].format(a=a, b=b))
            n = len(lines)
            lines += [f"    {jump} taken{n}", "    movi r1, 0", f"    jmp done{n}",
                      f"taken{n}:", "    movi r1, 1", f"done{n}:", "    call sink"]
    lines += ["    movi r0, 0", "    halt",
              "sink:", "    st32 [r5], r1", "    st32 [r5+4], r2", "    addi r5, 8", "    ret",
              ".data", "values:"] + [f"    .word {value}" for value in _BOUNDARIES]
    return "\n".join(lines + ["results:", f"    .space {8 * len(_BOUNDARIES) ** 2}"])


@pytest.mark.parametrize("operation", [*_BOUNDARY_OPS] + [
    f"{jump}-{form}" for jump in ("jlts", "jles", "jgts", "jges")
    for form in _BOUNDARY_COMPARES])
def test_wraps_and_signed_compares_agree_at_every_boundary(operation):
    _assert_engines_agree(build_asm(_boundary_program(operation)), operation)


def test_the_entry_guard_admits_what_the_masked_test_did():
    """``p & 3 or not LOW <= p < LOW + 2**30`` is ``p - LOW & 0xC0000003``
    for any 32-bit ``p`` when ``LOW`` is a multiple of four."""
    def masked(p, low):
        return bool(p - low & 0xC0000003)

    def compared(p, low):
        return bool(p & 3 or not low <= p < low + (1 << 30))

    rng = random.Random(20261017)
    for low in (0, 4, 8, 1 << 20):
        edges = [low - 4, low, low + (1 << 30) - 4, low + (1 << 30)]
        pointers = [p + odd & 0xFFFFFFFF for p in edges for odd in range(4)]
        pointers += [rng.randrange(1 << 32) for _ in range(10_000)]
        for p in pointers:
            assert compared(p, low) == masked(p, low), (p, low)
        # The aligned edges: one word below, first, last, one word past.
        assert [compared(p, low) for p in pointers[:16:4]] == [True, False, False, True]


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
#: ``(body, bails, faults)``: must the entry guard of the fragment at ``use``
#: bail, and must the run end in a ``MemoryFault``.
#: A body that starts with this grows the sandbox by two bytes first.
_GROW_BY_A_TAIL = """
        movi r0, 3              ; setperm
        movi r1, 0x400002
        vxcall
"""
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
    """, True, False) for n in (1, 2, 3)},
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
    """, True, False),
    # r7 - LOW == 0: the lowest state the guard admits; word 0 is written.
    "sp_8_two_pushes": ("""
        movi r7, 8
        jmpr r5
    use:
        push r5
        push r7
        ld32 r1, [r7]
    """, False, False),
    # The second push is at -4, i.e. 0xfffffffc: as an index it would be the
    # last word of the sandbox.
    "sp_4_second_push_wraps": ("""
        movi r7, 4
        jmpr r5
    use:
        push r5
        push r7
    """, True, True),
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
    """, True, False),
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
    """, False, False),
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
    """, True, False),
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
    """, False, False),
    # ... one past it ...
    "past_the_last_word": ("""
        jmpr r5
    use:
        movi r1, 0x400000
        ld32 r3, [r1]
    """, False, True),
    # ... and the same two where the sandbox ends in a two-byte tail, which
    # byte accesses reach and no word does.
    "last_word_before_a_tail": (_GROW_BY_A_TAIL + """
        jmpr r5
    use:
        movi r1, 0x3ffffc
        movi r2, 0xCAFEF00D
        st32 [r1], r2
        st8  [r1+5], r2
        ld8u r3, [r1+5]         ; 0x0D
        ld32 r4, [r1]
    """, False, False),
    "word_straddling_the_tail": (_GROW_BY_A_TAIL + """
        jmpr r5
    use:
        movi r1, 0x400000
        movi r2, 0xCAFEF00D
        st32 [r1], r2
    """, False, True),
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
    body, bails, faults = _HOSTILE_POINTERS[name]
    image = build_asm("_start:\n    movi r5, use\n" + body
                      + "    halt\n.data\nbuffer:\n    .space 64\n")
    sandbox = {"check_policy": policy}
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
    assert f"if r7 & 3 or not 8 <= r7 < {8 + (1 << 30)}: return {_BAIL}" in source
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


#: Forward ifs as vxc compiles them (``jcc T; jmp E; T: ...``), which the
#: translator inlines as Python ``if``/``else`` arms that rejoin.  The driver
#: calls ``shape`` for r1 = 0..7 (``call`` ends the trace, so the shape's code
#: is a fragment of its own), with r3 = r1 & 1 compared with 0 before the
#: call, so both arms run and a fragment may enter with a live ``cc``; after
#: each call it logs r2, r4 and r5 above the 64 bytes ``r6`` points at, so a
#: wrong value shows even where a later call overwrites it.  A shape keeps r1.
_ARM_DRIVER = """
_start:
    movi r6, buffer
    movi r1, 0
again:
    mov  r3, r1
    andi r3, 1
    cmpi r3, 0
    call shape
    mov  r0, r1
    shli r0, 4
    add  r0, r6
    st32 [r0+64], r2
    st32 [r0+68], r4
    st32 [r0+72], r5
    addi r1, 1
    cmpi r1, 8
    jltu again
    halt
shape:
{body}
    ret
.data
buffer:
    .space 192
"""
_ARM_SHAPES = {
    "if_then": """
        movi r2, 7
        cmpi r3, 0
        je   then
        jmp  join
    then:
        addi r2, 5
        st32 [r6+4], r2
        movi r4, 99
    join:
        add  r5, r2
        st32 [r6], r5
    """,
    "if_else": """
        cmpi r1, 3
        jgtu then
        jmp  else
    then:
        movi r2, 11
        shli r4, 1
        jmp  join
    else:
        movi r2, 22
        ld32 r4, [r6+8]
        addi r4, 3
        st32 [r6+8], r4
    join:
        add  r5, r2
        add  r5, r4
        st32 [r6], r5
    """,
    # ``je out`` inside the arm leaves the fragment from the middle of it.
    "side_exit_in_arm": """
        cmpi r1, 2
        jgeu then
        jmp  join
    then:
        addi r5, 1
        cmpi r1, 5
        je   out
        addi r5, 10
    join:
        addi r5, 100
        ret
    out:
        addi r5, 1000
    """,
    # The main line remembers [r6+12], [r6+16] and [r6+24]; the arm
    # overwrites a byte of the first and all of the second (with what only
    # the then-path knows), so after the join both are reloaded, while the
    # third is still forwarded.
    "arm_stores_over_a_remembered_word": """
        movi r2, 0x11111111
        st32 [r6+12], r2
        ld32 r3, [r6+16]
        st32 [r6+24], r1
        cmpi r1, 3
        jltu then
        jmp  join
    then:
        st8  [r6+13], r1
        st32 [r6+16], r1
    join:
        ld32 r4, [r6+12]
        ld32 r5, [r6+16]
        add  r4, r5
        ld32 r2, [r6+24]
        add  r4, r2
        st32 [r6+20], r4
    """,
    # The arm compares; the jump after the join tests whichever compare ran
    # last: the arm's, or the caller's ``cmpi r3, 0`` the fragment entered with.
    "arm_sets_cc": """
        je   then
        jmp  join
    then:
        cmpi r1, 4
    join:
        jltu low
        addi r5, 1
    low:
        addi r5, 2
    """,
    # Then-arm one instruction, else-arm five, and the other way round: the
    # instruction count is corrected in both directions.
    "unequal_arms": """
        cmpi r3, 0
        jne  then
        jmp  else
    then:
        jmp  join
    else:
        addi r5, 1
        addi r5, 2
        xori r5, 3
        st32 [r6+32], r5
    join:
        cmpi r1, 5
        jleu long
        jmp  done
    long:
        muli r5, 3
        addi r5, 1
        st32 [r6+36], r5
        ld16u r2, [r6+36]
        add  r5, r2
    done:
        st32 [r6+40], r5
    """,
    # The arm sets r0, r2, r4 and the compare pair.  After the join r0 and
    # the pair are overwritten before anything reads them, r2 is read first,
    # and r4 is still needed at the side exit that comes before its overwrite.
    "arm_results_overwritten_after_the_join": """
        movi r2, 5
        cmpi r1, 2
        jgeu then
        jmp  join
    then:
        movi r0, 0x50
        mov  r2, r1
        lea  r4, [r2+9]
        cmp  r0, r4
    join:
        movi r0, 3
        add  r5, r2
        cmp  r0, r5
        jleu skip
        movi r4, 1
    skip:
        add  r5, r4
    """,
    # After the join an addition reads r3, a store r2 and a compare r4, each
    # just before it is overwritten.
    "arm_results_read_then_overwritten": """
        movi r2, 5
        movi r4, 6
        cmpi r1, 2
        jgeu then
        jmp  join
    then:
        mov  r2, r1
        addi r4, 7
        addi r3, 40
    join:
        add  r3, r5
        mov  r5, r3
        st32 [r6+48], r2
        movi r2, 11
        cmp  r4, r2
        movi r4, 12
        jgtu skip
        addi r5, 1
    skip:
        addi r5, 2
    """,
    # ``head`` loops within one fragment: an arm, a back-edge from inside
    # the arm, then the loop's own back-edge after the join.
    "arm_in_a_looping_fragment": """
        movi r2, 9
    head:
        mov  r4, r2
        andi r4, 3
        cmpi r4, 1
        jleu then
        jmp  join
    then:
        add  r5, r2
        push r5
        subi r2, 1
        pop  r4
        cmpi r2, 4
        je   head
    join:
        st32 [r6+28], r5
        subi r2, 1
        cmpi r2, 0
        jgts head
    """,
}


def _arm_image(name: str) -> bytes:
    body = "\n".join(line.strip() for line in _ARM_SHAPES[name].split("\n"))
    return build_asm(_ARM_DRIVER.format(body=body))


def _arms_translated(image: bytes, **config) -> int:
    vm = VirtualMachine(image, engine=ENGINE_TRANSLATOR, **config)
    vm.decode(b"")
    return sum(inlined_ifs(fragment.source)
               for fragment in vm.code_cache.fragments.values())


@pytest.mark.parametrize("name", _ARM_SHAPES)
def test_inlined_if_arms_agree_across_engines(name):
    image = _arm_image(name)
    _assert_engines_agree(image, name)
    assert _arms_translated(image) > 0              # the shape is inlined ...
    assert _arms_translated(image, superblock_limit=1) == 0   # ... where it fits


#: Shapes whose fifth call faults: in the then-arm, in the else-arm, and
#: after the join at an address only the then-path checked (so the else-path
#: must check it again).
_FAULTING_ARMS = {
    "then": """
        movi r2, 0x7000000
        cmpi r1, 4
        je   then
        jmp  join
    then:
        st32 [r2], r1
    join:
        st32 [r6+44], r1
    """,
    "else": """
        movi r2, 0x7fffff0
        cmpi r1, 4
        jne  then
        jmp  else
    then:
        addi r5, 1
        jmp  join
    else:
        ld32 r4, [r2+8]
    join:
        st32 [r6+44], r1
    """,
    "after_the_join": """
        mov  r2, r1
        andi r2, 4
        shli r2, 24
        add  r2, r6
        cmpi r1, 4
        jne  then
        jmp  join
    then:
        ld32 r4, [r2+8]
    join:
        st32 [r2+8], r1
    """,
}


@pytest.mark.parametrize("name", _FAULTING_ARMS)
def test_an_arm_that_faults_faults_at_the_same_address(name):
    """Each engine faults where the interpreter does, with memory as it was."""
    body = "\n".join(line.strip() for line in _FAULTING_ARMS[name].split("\n"))
    image = build_asm(_ARM_DRIVER.format(body=body))
    faults, arms = [], []
    for engine, config in [(ENGINE_INTERPRETER, {})] + [
            (ENGINE_TRANSLATOR, config) for config in _TRANSLATOR_CONFIGS]:
        vm = VirtualMachine(image, engine=engine, **config)
        with pytest.raises(MemoryFault) as caught:
            vm.decode(b"")
        faults.append((caught.value.address, bytes(vm.memory.buffer)))
        arms.append(sum(inlined_ifs(fragment.source)
                        for fragment in vm.code_cache.fragments.values()))
    assert faults[1:] == faults[:1] * len(_TRANSLATOR_CONFIGS), name
    assert faults[0][0] >= 0x400000                 # outside the 4 MiB sandbox
    assert arms[1] > 0, name                        # the default translator inlined it


def test_a_jump_into_the_middle_of_an_instruction_stays_a_side_exit():
    """``jmp mid+2`` lands in the immediate of a ``movi``, whose bytes are
    three ``nop``s and the opcode of a ``mov`` that swallows the first byte
    of ``join``: the path the arm would take steps over the join, so it is
    not inlined -- and runs, decoded where it goes, the same on both engines."""
    body = """
        cmpi r1, 2
        jgeu then
        jmp  join
    then:
        jmp  mid+2
    mid:
        movi r2, 0x11010101
    join:
        nop
        addi r5, 1
        mov  r2, r0
    """
    image = build_asm(_ARM_DRIVER.format(body=body))
    _assert_engines_agree(image, "mid-instruction")
    assert _arms_translated(image) == 0
    regs = _run(image, ENGINE_INTERPRETER)[1]
    assert regs[2] == 7                     # ``mov r0, r1`` ran: r1 was 7 last


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


#: A loop over frame slots -- ``i`` at ``[r6-4]``, ``acc`` at ``[r6-8]``, ``k``
#: at ``[r6-12]``, a pointer ``p`` at ``[r6-16]`` -- that the translator holds
#: in locals across other bases' stores and across its back-edge.  ``{store}``
#: runs between a read of each slot and a re-read of it, with ``r1 = i`` and
#: ``r2``, ``r4``, ``r5`` free; the slots' values decide the final memory.
_SLOT_LOOP = """
_start:
    subi r7, 256
    mov  r6, r7
    subi r7, 64
    movi r1, 0
    st32 [r6-4], r1
    st32 [r6-8], r1
    movi r2, 7
    st32 [r6-12], r2
    lea  r2, [r6-20]
    st32 [r6-16], r2
{setup}
loop:
    ld32 r1, [r6-4]
    ld32 r2, [r6-8]
    ld32 r3, [r6-12]
    add  r2, r3
    st32 [r6-8], r2
{store}
    ld32 r3, [r6-12]
    ld32 r5, [r6-8]
    add  r5, r3
    ld32 r4, [r6-16]
    add  r5, r4
    st32 [r6-8], r5
    ld32 r1, [r6-4]
    addi r1, 1
    st32 [r6-4], r1
    cmpi r1, 12
    jltu loop
    ld32 r0, [r6-8]
    halt
poke:
    ld32 r4, [r7+4]
    ld32 r5, [r4]
    addi r5, 3
    st32 [r4], r5
    ret
.data
buffer:
    .space 64
"""
_SLOT_STORES = {
    # ``[r6 - 16 + 4 * (i & 3)]``: the array reaches p, k, acc and i in turn.
    "array_store_into_the_live_frame": ("", """
        mov  r4, r1
        andi r4, 3
        shli r4, 2
        add  r4, r6
        subi r4, 16
        st32 [r4], r1
    """),
    # p walks up from r6 - 20, one word a pass, across every slot and fp.
    "pointer_walk_across_fp": ("", """
        ld32 r4, [r6-16]
        st32 [r4], r2
        addi r4, 4
        st32 [r6-16], r4
    """),
    "callee_writes_a_slot_through_a_pointer": ("", """
        lea  r4, [r6-12]
        push r4
        call poke
        addi r7, 4
    """),
    # ... and a virtual system call: ``read`` four input bytes into k.
    "system_call_writes_a_slot": ("", """
        movi r0, 1
        movi r1, 0
        lea  r2, [r6-12]
        movi r3, 4
        vxcall
    """),
    # An inlined if whose arms leave k different: a join root carries it.
    "slot_stored_in_one_arm": ("", """
        cmpi r1, 6
        jltu then
        jmp  join
    then:
        st32 [r6-12], r1
    join:
    """),
    # Through another base (held slots meet a range guard), then through fp
    # itself (the exact aliasing test), each straddling two slots.
    "misaligned_store_over_a_slot": ("", """
        lea  r4, [r6-11]
        xori r4, 0
        st32 [r4], r1
        st16 [r6-7], r2
        st8  [r6-13], r1
    """),
    # sp sits inside the frame, so a push lands on acc's slot.
    "sp_store_into_the_frame": ("    lea  r7, [r6-4]", """
        push r1
        pop  r5
    """),
    # A store the range guard lets pass, then a load out of the sandbox.
    "fault_between_the_store_and_the_exit": ("", """
        movi r4, buffer
        st32 [r4+8], r2
        cmpi r1, 5
        jne  fine
        ld32 r5, [r6+0x400000]
    fine:
    """),
}


def _slot_outcome(image: bytes, engine: str, budget: int = 2_000_000, **config):
    """Everything one run leaves: its end (exit code, or fault type and
    address), registers and condition codes where it exited (a fault or a
    budget stop writes none back), memory and the instructions it counted
    (not at a fault: a fragment counts at its exits)."""
    from repro.errors import ResourceLimitExceeded
    from repro.vm.limits import ExecutionLimits
    limits = ExecutionLimits(max_instructions=budget)
    vm = VirtualMachine(image, engine=engine, limits=limits, **config)
    try:
        end = (vm.decode(bytes(range(48)), limits=limits).exit_code, list(vm.regs),
               tuple(vm.cc))
    except (MemoryFault, ResourceLimitExceeded) as error:
        end = type(error).__name__, getattr(error, "address", None)
    executed = None if end[0] == "MemoryFault" else vm.stats.instructions
    return end, bytes(vm.memory.buffer), executed, vm


@pytest.mark.parametrize("name", _SLOT_STORES)
def test_slots_held_across_stores_and_back_edges_agree(name):
    setup, store = _SLOT_STORES[name]
    body = "\n".join("    " + line.strip() if line.strip() and not line.strip().endswith(":")
                     else line.strip() for line in store.split("\n"))
    image = build_asm(_SLOT_LOOP.format(setup=setup, store=body))
    reference = _slot_outcome(image, ENGINE_INTERPRETER)
    for config in _TRANSLATOR_CONFIGS:
        candidate = _slot_outcome(image, ENGINE_TRANSLATOR, **config)
        assert candidate[:3] == reference[:3], (name, config)
    # What each case is there for did happen on the default translator.
    vm = _slot_outcome(image, ENGINE_TRANSLATOR)[3]
    sources = [fragment.source for fragment in vm.code_cache.fragments.values()]
    if name == "sp_store_into_the_frame":          # the entry check refused the view
        assert vm.stats.retranslations > 0
    elif name.startswith(("callee", "system")):                # a call ends the trace
        assert reference[0][0] == 0 and not any("while True:" in s for s in sources)
    elif name == "slot_stored_in_one_arm":
        assert any("while True:" in s and inlined_ifs(s) for s in sources)
    else:                                      # a slot held past a range guard
        assert any("if fl < " in source and "w[q6" in source for source in sources)
        assert (reference[0][0] == "MemoryFault") == name.startswith("fault"), name


@pytest.mark.parametrize("budget", [40, 97, 150, 211])
def test_a_budget_stop_in_a_loop_that_carries_slots_is_exact(budget):
    """The translator stops at the first exit or back-edge past the budget,
    with the memory an interpreter leaves after exactly that many
    instructions."""
    image = build_asm(_SLOT_LOOP.format(setup="", store=_SLOT_STORES[
        "array_store_into_the_live_frame"][1]))
    for config in _TRANSLATOR_CONFIGS:
        end, memory, executed, vm = _slot_outcome(image, ENGINE_TRANSLATOR, budget, **config)
        assert end == ("ResourceLimitExceeded", None) and executed > budget, config
        assert (_slot_outcome(image, ENGINE_INTERPRETER, executed)[:3]
                == (end, memory, executed)), (budget, config)
    carried = [fragment.source for fragment in vm.code_cache.fragments.values()
               if "while True:" in fragment.source]
    assert "fl = " in carried[0] and "continue" in carried[0]


def test_a_back_edge_that_swaps_two_registers_keeps_the_swap():
    """A back-edge assigns its locals one by one where an order exists, and
    what is left of a cycle -- ``r1`` and ``r2`` trade values -- at once."""
    body = """
        movi r1, 1
        movi r2, 2
        movi r5, 41
    loop:
        mov  r3, r1
        mov  r1, r2
        mov  r2, r3
        subi r5, 1
        cmpi r5, 0
        jne  loop
        halt
    """
    image = build_asm("_start:\n" + "\n".join(line.strip() for line in body.split("\n")))
    _assert_engines_agree(image, "swap")
    vm = VirtualMachine(image)
    vm.decode(b"")
    assert vm.regs[1:3] == [2, 1]
    assert any("r1, r2 = r2, r1" in fragment.source or "r2, r1 = r1, r2" in fragment.source
               for fragment in vm.code_cache.fragments.values())


#: Loops that hold ``[r6+8]`` ahead of their first pass, with r6 at the last
#: word of the sandbox: the slot lies past its end.  The first reads it (and
#: faults there); the second leaves before it would.
_SLOTS_PAST_THE_END = {
    "read": ("""
        movi r2, 2
        jmpr r5
    use:
        ld32 r1, [r6+8]
        subi r2, 1
        cmpi r2, 0
        jne  use
    """, True),
    "never_read": ("""
        movi r2, 0
        jmpr r5
    use:
        cmpi r2, 0
        je   done
        ld32 r1, [r6+8]
        subi r2, 1
        jmp  use
    done:
    """, False),
}


@pytest.mark.parametrize("policy", ["full", "write-only", "none"])
@pytest.mark.parametrize("name", _SLOTS_PAST_THE_END)
def test_a_slot_loaded_ahead_of_the_loop_moves_no_fault(name, policy):
    """The entry check bails where a held slot is no word of the view, so the
    load ahead of the loop never faults: the generic translation faults where
    the interpreter does, or not at all."""
    body, faults = _SLOTS_PAST_THE_END[name]
    image = build_asm("_start:\n    movi r5, use\n    movi r6, 0x3ffff8\n" + body
                      + "    halt\n")
    sandbox = {"check_policy": policy}
    reference = _observe(image, ENGINE_INTERPRETER, faults, **sandbox)[0]
    for config in _TRANSLATOR_CONFIGS:
        observed, vm = _observe(image, ENGINE_TRANSLATOR, faults, **config, **sandbox)
        assert observed == reference, (name, config)
        if config == {}:
            assert vm.stats.retranslations == 1, name
