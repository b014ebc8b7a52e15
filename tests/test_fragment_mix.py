"""Smoke test of ``tools/fragment_mix.py``, the statement-mix counter.

The tool's numbers are quoted in ROADMAP.md and CHANGES.md, so its classes
are pinned on a fragment small enough to read, and one real decode checks
that every executed line finds a class and that the classes add up.
"""

import pathlib
import sys
from collections import Counter
from functools import partial

from repro.vm.machine import VirtualMachine
from repro.vm.translator import Translator
from repro.vxc.compiler import compile_source

from tests.conftest import build_asm

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

import fragment_mix  # noqa: E402


def test_every_kind_of_statement_gets_its_class():
    vm = VirtualMachine(build_asm("""
    _start:
        push r1
        ld32 r2, [r6+8]
        movi r4, 0x2000
        st32 [r4], r2
        ld32 r3, [r5]
        shli r3, 2
        ld32 r3, [r3+16]
        st8  [r2+1], r3
        ld8u r0, [r7+1]
        pop  r1
        cmpi r3, 7
        je   _start
        ret
    """), analysis_elision=False)
    translator = Translator(vm.memory, vm.text_start, vm.text_end, text=vm.text)
    source = translator.translate(vm.pc).source
    classes = fragment_mix.classify(source)
    by_line = dict(zip((line.strip() for line in source.split("\n")), classes))
    assert by_line["r0, r1, r2, r3, r4, r5, r6, r7 = r"] == "entry unpack"
    assert by_line["q7 = r7 >> 2"] == "entry q"
    assert by_line["w = mem.words"] == "entry view"
    assert by_line["w[q7 - 1] = r1"] == "word store view sp"
    assert by_line["v0 = w[q6 + 2]"] == "word load view fp"
    assert by_line["w[8192 >> 2] = v0"] == "word store view const"
    assert by_line["v1 = _u32(buf, r5)[0]"] == "word load struct computed"
    assert by_line["v3 = w[a0 >> 2]"] == "word load view computed"
    assert by_line["if r5 > s4: _flt(r5, 4, 'read')"] == "bounds guard"
    assert by_line["a2 = (r7 - 3 if r7 >= 3 else r7 + 4294967293)"] == "address r6|r7 +- k"
    assert by_line["v2 = v1 << 2 & 4294967295"] == "alu masked"
    assert by_line["a1 = (v0 + 1 if v0 < 4294967295 else v0 - 4294967295)"] == "alu wrapped"
    assert by_line["if r7 & 3 or not 4 <= r7 < 1073741828 or r7 - r6 > 8 and r7 - r6 < 16: "
                   "return -1073741824"] == "entry guard"
    assert by_line["try:"] == by_line["except IndexError:"] == "entry guard"
    assert by_line["fl = r6 + 4"] == "entry span"
    assert (by_line["if fl < a1 and a1 < fl + 8:"] == by_line["if fl < 8192 and 8192 < fl + 8:"]
            == "range guard")
    assert by_line["v4 = buf[a2]"] == "narrow load"
    assert by_line["if v3 == 7:"] == "compare"
    assert by_line["r0 = v4"] == by_line["ccb = 7"] == "exit loop"
    assert by_line["continue"] == "exit loop"
    assert by_line["return v6"] == "exit return"
    guards = [name for name in classes if name == "entry guard"]
    assert len(guards) == 4 and len(classes) == source.count("\n") + 1


def test_a_back_edge_that_carries_a_slot_is_an_exit_and_constants_are_found():
    """``v0``, the slot ``[r6+8]``, is loaded ahead of the loop and carried by
    the back-edge: the assignments right before ``continue``, to a root too,
    are the loop's, not a join.  ``1 << 9`` computes on two literals."""
    vm = VirtualMachine(build_asm("""
    _start:
        ld32 r1, [r6+8]
        addi r1, 1
        st32 [r6+8], r1
        movi r2, 1
        shli r2, 9
        cmp  r1, r2
        jltu _start
        halt
    """))
    translator = Translator(vm.memory, vm.text_start, vm.text_end, text=vm.text)
    source = translator.translate(vm.pc).source
    by_line = dict(zip((line.strip() for line in source.split("\n")),
                       fragment_mix.classify(source)))
    assert by_line["v0 = w[q6 + 2]"] == "word load view fp"      # the prologue's
    assert by_line["r1 = a0"] == by_line["v0 = a0"] == "exit loop"
    assert by_line["v1 = 1 << 9"] == "constant op"


def test_wraps_and_signed_compares_get_their_classes():
    vm = VirtualMachine(build_asm("""
    _start:
        add  r1, r2
        sub  r3, r4
        neg  r5, r5
        not  r0, r0
        mul  r1, r3
        cmp  r1, r2
        jlts _start
        cmpi r0, -2
        jges _start
        halt
    """))
    translator = Translator(vm.memory, vm.text_start, vm.text_end, text=vm.text)
    source = translator.translate(vm.pc).source
    lines = [line.strip() for line in source.split("\n")]
    by_line = dict(zip(lines, fragment_mix.classify(source)))
    assert by_line["v0 = u if (u := r1 + r2) <= 4294967295 else u - 4294967296"] == "alu wrapped"
    assert by_line["v1 = u if (u := r3 - r4) >= 0 else u + 4294967296"] == "alu wrapped"
    assert by_line["v2 = 4294967296 - r5 if r5 else 0"] == "alu wrapped"
    assert by_line["v3 = 4294967295 - r0"] == "alu wrapped"
    assert by_line["v4 = v0 * v1 & 4294967295"] == "alu masked"
    assert by_line["if (v4 - 4294967296 if v4 > 2147483647 else v4) < "
                   "(r2 - 4294967296 if r2 > 2147483647 else r2):"] == "signed compare"
    assert by_line["if (v3 - 4294967296 if v3 > 2147483647 else v3) >= -2:"] == "signed compare"


def test_an_inlined_if_gets_its_classes():
    vm = VirtualMachine(build_asm("""
    _start:
        cmpi r1, 3
        jltu then
        jmp  else
    then:
        movi r2, 5
        addi r3, 1
        jmp  join
    else:
        movi r2, 6
    join:
        cmpi r2, 9
        je   skip
        jmp  over
    skip:
        nop
    over:
        halt
    """))
    translator = Translator(vm.memory, vm.text_start, vm.text_end, text=vm.text)
    source = translator.translate(vm.pc).source
    lines = [line.strip() for line in source.split("\n")]
    classes = fragment_mix.classify(source)
    by_line = dict(zip(lines, classes))
    assert [line for line, name in zip(lines, classes) if name == "join"] == [
        "v0 = 5", "v1 = (r3 + 1 if r3 < 4294967295 else r3 - 4294967295)",
        "v0 = 6", "v1 = r3"]
    assert by_line["vm.icount += 1"] == "join icount"      # 3 instructions against 2
    assert by_line["else:"] == "join else"
    assert by_line["pass"] == "join pass"                  # a nop against a jmp
    assert by_line["if r1 < 3:"] == by_line["if v0 == 9:"] == "compare"


def test_the_members_are_the_benchmarks_own():
    first, weights = fragment_mix.members()
    assert weights == {"vxz": 8, "vxbwt": 8, "vximg": 4, "vxjp2": 4, "vxflac": 4, "vxsnd": 4}
    assert list(first) == list(weights) and all(first.values())
    assert first["vxz"] == first["vxbwt"] and len(first["vxz"]) == 3072


def test_one_decode_is_classed_completely_and_adds_up(monkeypatch, capsys):
    small = b"a small member, mostly repeats " * 12
    before = sys.gettrace()
    sys.settrace(mine := lambda frame, event, arg: None)
    try:
        mix = fragment_mix.measure("vxz", small)
        assert sys.gettrace() is mine              # a tracer already installed is put back
    finally:
        sys.settrace(before)
    assert mix["replaced fragment"] == 0 and mix["entry-guard bails"] == 0
    # A fragment execution unpacks the registers once and returns once.
    assert mix["entry unpack"] == mix["exit return"] > 0
    words = {key: count for key, count in mix.items() if key.startswith("word ")}
    through_view = sum(count for key, count in words.items() if " view " in key)
    assert through_view >= 0.95 * sum(words.values()) > 0
    assert mix["address r6|r7 +- k"] == 0
    assert mix["join"] > 0                         # an inlined if ran
    monkeypatch.setattr(fragment_mix, "members", lambda: ({"vxz": small}, Counter(vxz=8)))
    fragment_mix.main()
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["statements", "executed", "vxz", "pass"]
    executions = mix["entry unpack"]
    assert table[1].split() == ["fragment", "executions", str(executions), str(8 * executions)]
    total = sum(count for key, count in mix.items() if key != "total")
    assert mix["total"] == total                   # nothing counted twice or dropped
    assert table[-1].split() == ["total", str(total), str(8 * total)]


def test_costs_print_one_row_per_class(monkeypatch, capsys):
    """``--costs`` times every class that ran and sets the sum beside a warm
    decode; what the numbers are is the box's, so none is asserted."""
    small = b"a small member, mostly repeats " * 12
    monkeypatch.setattr(fragment_mix, "members", lambda: ({"vxz": small}, Counter(vxz=8)))
    monkeypatch.setattr(fragment_mix, "costs", partial(fragment_mix.costs, number=100, repeat=3))
    fragment_mix.main(["--costs"])
    mix_table, cost_table = capsys.readouterr().out.split("\n\n")
    classes = [line.rsplit(None, 2)[0] for line in mix_table.splitlines()[1:]]
    for row in ("fragment executions", "total", "entry-guard bails"):
        classes.remove(row)
    rows = [line[:28].strip() for line in cost_table.splitlines()]
    assert rows[0] == "statement cost"
    assert rows[1:-3] == classes
    assert rows[-3:] == ["sum of class x count", "measured warm decode", "residual"]
    for line in cost_table.splitlines()[1:]:
        for cell in line.split()[-2:]:                      # a number per column
            float(cell)


#: A vxc loop over frame slots, with a store through another base each pass
#: (``g[...]``) and, once, a store into a local array that the loop also reads.
_HELD_LOOP = """
int g[8];
int main() {
    int t[2];
    int a = 0; int b = 1; int c = 2; int d = 3; int e = 4; int i = 0;
    t[0] = 0; t[1] = 0;
    while (i < 40) {
        a = a + b + t[0]; b = b + c;
        g[i & 7] = a;
        if (i == 30) { t[i & 1] = 1; }
        if (c > 10) { c = c - d; } else { c = c + e; }
        d = d + 1; e = e + d;
        i = i + 1;
    }
    return 0;
}
"""


def test_held_counts_the_slots_a_fragment_loads_again():
    """Every slot the loop reads stays in a local across the array stores and
    the back-edge: 14 ``fp`` loads in all, none of a slot already held.  The
    translator that forgot the frame at every other base's store and began
    each pass knowing nothing counted 212: 47 held earlier in the same pass,
    155 in an earlier one, and 1 whose value the store into ``t`` had changed
    -- the one re-read that was needed, which the range guard now leaves the
    loop for."""
    image = compile_source(_HELD_LOOP, codec_name="test").elf
    assert fragment_mix.held(image, b"") == {
        "fp loads": 14, "held earlier in the same pass": 0,
        "held in an earlier pass": 0, "held, value changed since": 0}


def test_held_prints_one_row_per_kind(monkeypatch, capsys):
    small = b"a small member, mostly repeats " * 12
    monkeypatch.setattr(fragment_mix, "members", lambda: ({"vxz": small}, Counter(vxz=8)))
    fragment_mix.main(["--held"])
    held_table = capsys.readouterr().out.split("\n\n")[1].splitlines()
    assert held_table[0].split()[-2:] == ["vxz", "pass"]
    assert [line[:32].strip() for line in held_table[1:]] == list(fragment_mix.HELD)
    for line in held_table[1:]:
        count, weighted = map(int, line.split()[-2:])
        assert weighted == 8 * count
