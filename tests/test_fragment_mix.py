"""Smoke test of ``tools/fragment_mix.py``, the statement-mix counter.

The tool's numbers are quoted in ROADMAP.md and CHANGES.md, so its classes
are pinned on a fragment small enough to read, and one real decode checks
that every executed line finds a class and that the classes add up.
"""

import pathlib
import sys
from collections import Counter

from repro.vm.machine import VirtualMachine
from repro.vm.translator import Translator

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
    assert by_line["a2 = r7 - 3 & 4294967295"] == "address r6|r7 +- k"
    assert by_line["v4 = buf[a2]"] == "narrow load"
    assert by_line["if v3 == 7:"] == "compare"
    assert by_line["continue"] == "exit loop"
    assert by_line["return v6"] == "exit return"
    guards = [name for name in classes if name == "entry guard"]
    assert len(guards) == 2 and len(classes) == source.count("\n") + 1


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
    monkeypatch.setattr(fragment_mix, "members", lambda: ({"vxz": small}, Counter(vxz=8)))
    fragment_mix.main()
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["statements", "executed", "vxz", "pass"]
    total = sum(count for key, count in mix.items() if key != "total")
    assert mix["total"] == total                   # nothing counted twice or dropped
    assert table[-1].split() == ["total", str(total), str(8 * total)]
