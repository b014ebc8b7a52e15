#!/usr/bin/env python3
"""Statement mix of the translator's generated code, counted as it executes.

``sys.settrace`` line events on the ``<vxa-fragment-...>`` code objects of one
decode per bundled decoder, mapped through ``Fragment.source`` and classed by
what the statement is for: guest memory traffic (by width, by path --
``struct`` or the word view -- and by address base), the address statements
that only feed it, arithmetic, guards, compares, and what a fragment pays on
entry and exit.  The counts are exact and repeat; they say where statements
go inside ``vm.execute``, not how long each takes.  The first row counts
fragment executions, the lines of an inlined if's join are classed ``join``,
and a statement whose operands are all literals (``if 1 != 0:``, ``v15 = 1 <<
9``) is a ``constant op`` whatever it computes.

    PYTHONPATH=src python tools/fragment_mix.py [--costs] [--held]

``--costs`` adds how long they take: each class's cost per statement, timed
alone (``timeit``) on one statement shaped like the generated code, with the
interquartile range of its repeats; class x count per decoder; their sum; and
next to it a measured warm decode of the same member, untraced.  The sum
leaves out what is no statement -- the fragment call and return, the
dispatcher, the virtual system calls -- so the residual is theirs, plus the
error of taking one shape for a class.  The costs are reported, never gated.

``--held`` counts, per decoder and pass, the executed ``fp`` loads through the
view that re-read a slot the same fragment execution already held -- loaded or
stored through the view: held earlier in the same pass over a looping
fragment's body, held in an earlier pass, or held with a value that a store
has changed since (a true alias).  Counts only, like the mix.

The members are built by vxabench's own ``inputs.mixed_members`` (seed 7, the
``bench`` shape): the first member of each decoder, and the ``pass`` column
weights each by the number of members that decoder has in that archive.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import statistics
import sys
import time
import timeit
from collections import Counter

from repro.codecs.registry import default_registry
from repro.vm.machine import VirtualMachine
from repro.vm.translator import _BAIL, _FRAGMENT_GLOBALS

sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "vxabench"))

import inputs  # noqa: E402  (vxabench's: the members measured are the benchmark's)

#: The seed ROADMAP.md and CHANGES.md quote this tool's numbers for.
SEED = 7
#: Address bases: ``sp`` = ``[r7+-k]``, ``fp`` = ``[r6+-k]``, ``const`` a literal
#: (globals); anything else is ``computed``.
_BASE = re.compile(r"(?P<sp>[rq]7\b)|(?P<fp>[rq]6\b)|(?P<const>\d+$)")
#: First match wins; ``{base}`` is the base of the address in group 1.
_CLASSES = [(name, re.compile(pattern)) for name, pattern in (
    ("entry unpack", r"r0, r1, .* = r$"),
    ("entry guard", r"^if r[67] & 3 or .*: return|^try:$|^except IndexError:$"),
    ("entry q", r"q[67] = "), ("entry view", r"w = mem\.words"),
    ("entry size", r"^(size|s\d) = "), ("entry cc", r"cca, ccb = vm\.cc"),
    ("entry span", r"^fl = "),
    ("exit loop", r"^continue$|^while True:"),
    ("exit icount", r"vm\.icount \+= "), ("exit budget", r"if vm\.icount > vm\.budget"),
    ("exit write-back", r"^r\[[\d:]*\] = "), ("exit cc", r"vm\.cc = "),
    ("exit return", r"return "),
    ("exit syscall", r"t, act = |vm\.halted|if act ==|vm\.syscall_handler"),
    ("bounds guard", r"if .* > s\d: _flt"), ("range guard", r"^if fl < \w+ and \w+ < fl \+ \d+:$"),
    ("word load struct {base}", r"= _u32\(buf, (.*)\)\[0\]"),
    ("word load view {base}", r"= w\[(.*)\]$"),
    ("word store struct {base}", r"_p32\(buf, (\w+), "), ("word store view {base}", r"^w\[(.*)\] = "),
    ("narrow load", r"= (t \+|buf\[|_u16\()"), ("narrow store", r"^(buf\[|_p16\()"),
    ("signed compare", r"^if .* - 4294967296 if "), ("compare", r"^if "),
    ("address r6|r7 +- k", r"^a\d+ = \(r([67]) [+-] \d+ if r\1 [<>]=? \d+ else r\1 [+-] \d+\)$"),
    ("alu masked", r" & 4294967295$"), ("alu wrapped", r" if .* else |^\w+ = 4294967295 - "),
    ("alu plain", r"= "))]


#: A back-edge's parallel assignment; the root or test of a statement.
_ASSIGNS = re.compile(r"^\w+(, \w+)* = ")
_COMPUTES = re.compile(r"^(?:if (.*):|v\d+ = (.*))$")


def members() -> tuple[dict[str, bytes], Counter]:
    """vxabench's seed-7 mixed archive: the first member of each decoder, and
    how many members each decoder has in it."""
    mixed = inputs.mixed_members(SEED, inputs.SHAPES["bench"])
    first: dict[str, bytes] = {}
    for member in mixed:
        first.setdefault(member.codec, member.data)
    return first, Counter(member.codec for member in mixed)


def _base(address: str, definitions: dict[str, str]) -> str:
    """Base of an address: a local (looked up where the fragment defines it),
    a literal, or a word-view index such as ``q7 - 1`` or ``a3 >> 2``."""
    local = address.split(" ")[0]
    found = _BASE.match(definitions.get(local, local).lstrip("("))
    return found.lastgroup if found else "computed"


def classify(source: str) -> list[str]:
    """Class of every line of one fragment's source (index 0 = line 1).

    An inlined if's lines are told by their place: a join root is the one
    root assigned twice (at the end of either arm), the then-arm's
    instruction delta is the ``vm.icount +=`` that ends a block (an exit's
    is followed by its write-back or return), and ``pass``/``else:`` are the
    if's own.
    """
    raw = source.split("\n")
    lines = [line.strip() for line in raw]
    depth = [len(line) - len(line.lstrip()) for line in raw] + [0]
    definitions = dict(line.split(" = ", 1) for line in lines if re.match(r"a\d+ = ", line))
    # A slot's root is loaded wherever a path first reads the slot.
    roots = Counter(line.split(" = ")[0] for line in lines if re.match(r"v\d+ = (?!w\[)", line))
    back_edges = set()                  # the assignments right before a ``continue``
    for number, line in enumerate(lines):
        while line == "continue" and _ASSIGNS.match(lines[number - 1]):
            number -= 1
            back_edges.add(number)
    classes = ["entry def"]
    for number, line in enumerate(lines[1:], 1):
        if number in back_edges:
            # A back-edge that reloads a slot a store may have changed loads it.
            classes.append("word load view fp" if "w[q6" in line else "exit loop")
        elif roots[line.split(" = ")[0]] > 1:
            classes.append("join")
        elif line.startswith("vm.icount += ") and depth[number + 1] < depth[number]:
            classes.append("join icount")
        elif line in ("pass", "else:"):
            classes.append(f"join {line.rstrip(':')}")
        elif (found := _COMPUTES.match(line)) and set(
                re.findall(r"[A-Za-z_]\w*", found.group(1) or found.group(2))) <= {"if", "else"}:
            classes.append("constant op")
        else:
            name, pattern = next(entry for entry in _CLASSES if entry[1].search(line))
            if "{base}" in name:
                name = name.format(base=_base(pattern.search(line).group(1), definitions))
            classes.append(name)
    return classes


def measure(name: str, data: bytes) -> Counter:
    """Executed statements per class for one decode of ``data`` by decoder ``name``."""
    codec = default_registry().get(name)
    # The VM's own fragment table survives the re-initialisation between the
    # two decodes (and is cold however warm the process is).
    vm = VirtualMachine(codec.guest_decoder_image())
    lines: Counter = Counter()
    mix: Counter = Counter({"entry-guard bails": 0})

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith("<vxa-fragment-"):
            return None
        if event == "line":
            lines[frame.f_code, frame.f_lineno] += 1
        elif event == "return" and arg == _BAIL:
            mix["entry-guard bails"] += 1
        return tracer

    encoded = codec.encode(data)
    vm.decode(encoded)                    # translate everything first: a warm pass
    previous = sys.gettrace()             # a debugger's or coverage's: put back after
    sys.settrace(tracer)
    try:
        result = vm.decode(encoded)
    finally:
        sys.settrace(previous)
    assert result.exit_code == 0, name
    by_code = {fragment.func.__code__: classify(fragment.source)
               for fragment in vm.code_cache.fragments.values()}
    for (code, lineno), count in lines.items():
        mix[by_code[code][lineno - 1] if code in by_code else "replaced fragment"] += count
    mix["total"] = sum(lines.values())
    return mix


#: The index of a slot load or store through the view: ``w[q6 - 2]``.
_SLOT = re.compile(r"w\[q6(?: ([+-]) (\d+))?\]")
#: The rows of ``--held``.
HELD = ("fp loads", "held earlier in the same pass", "held in an earlier pass",
        "held, value changed since")


def held(image: bytes, encoded: bytes) -> Counter:
    """``--held`` for one warm decode of ``encoded`` by decoder ``image``.

    A line event comes before its line runs, so a load's slot is read from
    ``mem.words`` then; a store's value is read at the next event.  A new
    pass is a line event at a lower line than the last one: a looping
    fragment's body is the one place that jumps backward.
    """
    vm = VirtualMachine(image)
    vm.decode(encoded)
    slots: dict = {}                        # code -> line -> (is a load, offsets)
    for fragment in vm.code_cache.fragments.values():
        lines = slots[fragment.func.__code__] = {}
        for number, (line, kind) in enumerate(zip(fragment.source.split("\n"),
                                                  classify(fragment.source)), 1):
            if kind in ("word load view fp", "word store view fp"):
                lines[number] = ("load" in kind, [int(f"{sign or '+'}{words or 0}")
                                                  for sign, words in _SLOT.findall(line)])
    counts: Counter = Counter(dict.fromkeys(HELD, 0))

    def execution(frame, event, arg):
        known: dict[int, tuple] = {}        # slot index -> (pass, value)
        state = {"pass": 0, "line": 0, "stored": None}

        def tracer(frame, event, arg):
            if event != "line":
                return tracer
            words = vm.memory.words
            if state["stored"] is not None:
                known[state["stored"]] = (state["pass"], words[state["stored"]])
                state["stored"] = None
            if frame.f_lineno < state["line"]:
                state["pass"] += 1
            state["line"] = frame.f_lineno
            load, offsets = slots[frame.f_code].get(frame.f_lineno, (True, ()))
            for offset in offsets:
                index = frame.f_locals["q6"] + offset
                if not load:
                    state["stored"] = index
                    return tracer
                counts["fp loads"] += 1
                if index in known:
                    when, value = known[index]
                    counts[HELD[3] if value != words[index] else
                           HELD[1] if when == state["pass"] else HELD[2]] += 1
                known[index] = (state["pass"], words[index])
            return tracer

        return tracer if frame.f_code in slots else None

    previous = sys.gettrace()
    sys.settrace(execution)
    try:
        result = vm.decode(encoded)
    finally:
        sys.settrace(previous)
    assert result.exit_code == 0
    return counts


def weighted(mixes: dict[str, Counter], weights: Counter) -> dict[str, Counter]:
    """The decoders' mixes plus ``pass``, each weighted by its member count."""
    whole: Counter = Counter()
    for name, mix in mixes.items():
        whole.update({key: count * weights[name] for key, count in mix.items()})
    return {**mixes, "pass": whole}


def report(mixes: dict[str, Counter], weights: Counter) -> str:
    columns = weighted(mixes, weights)
    rows = [f"{'statements executed':32}" + "".join(f"{name:>12}" for name in columns),
            f"{'fragment executions':32}"       # one register unpack each
            + "".join(f"{mix['entry unpack']:12d}" for mix in columns.values())]
    for key in sorted(columns["pass"], key=lambda key: (key == "total", key)):
        rows.append(f"{key:32}" + "".join(f"{mix[key]:12d}" for mix in columns.values()))
    return "\n".join(rows)


#: One statement per class, shaped like what the translator generates, for
#: ``--costs``; ``{view}``/``{struct}`` is a word-view index/``struct`` address
#: on that class's base.  A guard's or compare's exit is never taken.  A
#: ``return`` is timed as its value, the return itself being the call's.
_SNIPPETS = {
    "entry unpack": "r0, r1, r2, r3, r4, r5, r6, r7 = r",
    "entry guard": "if r7 & 3 or not 8 <= r7 < 1073741832: _flt(r7, 4, 'read')",
    "entry q": "q7 = r7 >> 2", "entry view": "w = mem.words",
    "entry size": "s4 = mem.size - 4", "entry cc": "cca, ccb = vm.cc",
    "entry span": "fl = r6 - 44",
    "range guard": "if fl < a1 and a1 < fl + 64: _flt(a1, 4, 'write')",
    "constant op": "v4 = 2048 >> 12",
    "exit loop": "r1 = v1", "exit icount": "vm.icount += 9",
    "exit budget": "if vm.icount > vm.budget: _over(vm)",
    "exit write-back": "r[2] = v1; r[3] = v2", "exit cc": "vm.cc = (v1, 7)",
    "exit return": "X0 or -1", "exit syscall": "if act == ACTION_EXIT: vm.halted = True",
    "bounds guard": "if a1 > s4: _flt(a1, 4, 'read')",
    "word load struct": "v4 = _u32(buf, {struct})[0]", "word load view": "v4 = w[{view}]",
    "word store struct": "_p32(buf, {struct}, v1)", "word store view": "w[{view}] = v1",
    "narrow load": "v4 = buf[a1]", "narrow store": "buf[a1] = v2 & 255",
    "signed compare": "if (v1 - 4294967296 if v1 > 2147483647 else v1) < -5: _flt(v1, 4, 'read')",
    "compare": "if v1 == v2: _flt(v1, 4, 'read')",
    "address r6|r7 +- k": "a2 = (r7 - 3 if r7 >= 3 else r7 + 4294967293)",
    "alu masked": "v4 = v1 * v3 & 4294967295",
    "alu wrapped": "v4 = u if (u := v1 + v2) <= 4294967295 else u - 4294967296",
    "alu plain": "v4 = v1 >> 3",
    "join": "v4 = v1", "join icount": "vm.icount += -2", "join pass": "pass",
}
#: Per address base: the index and the ``struct`` address a snippet uses.
_ADDRESSES = {"sp": ("q7 - 1", "a7"), "fp": ("q6 + 2", "a6"),
              "const": ("2048", "8192"), "computed": ("a1 >> 2", "a1")}
#: The fragment's arguments and entry state, as locals (a fragment's are).
_SETUP = """\
vm = _vm; r = list(vm.regs); mem = vm.memory; buf = mem.buffer; w = mem.words
r0, r1, r2, r3, r4, r5, r6, r7 = r
q6 = r6 >> 2; q7 = r7 >> 2; s4 = mem.size - 4; fl = r6 - 44
a1 = 8192; a6 = r6 + 8; a7 = r7 - 4
v1, v2, v3 = 123456, 7890, 40503
u = 0; act = 0; X0 = None
"""


def snippet(key: str) -> str | None:
    """The statement ``--costs`` times for class ``key``."""
    family, _, base = key.rpartition(" ")
    if key.startswith("word ") and base in _ADDRESSES:
        view, struct = _ADDRESSES[base]
        return _SNIPPETS[family].format(view=view, struct=struct)
    return _SNIPPETS.get(key)


def costs(keys, number: int = 5000, copies: int = 10, repeat: int = 7) -> dict:
    """``key -> (median, interquartile range)`` in ns per statement, of the
    ``repeat`` timings of ``number`` runs of ``copies`` copies of its snippet,
    less the loop's own cost."""
    vm = VirtualMachine(default_registry().get("vxz").guest_decoder_image())
    vm.regs[6:8] = [0x7F000, 0x7EF00]
    vm.icount, vm.budget = 0, 1 << 62
    namespace = {**_FRAGMENT_GLOBALS, "_vm": vm}

    def timed(statement: str) -> list[float]:
        timer = timeit.Timer("\n".join([statement] * copies), _SETUP, globals=namespace)
        return [seconds * 1e9 / (number * copies)
                for seconds in timer.repeat(repeat, number)]

    loop = statistics.median(timed("pass"))
    result = {}
    for key in keys:
        if (statement := snippet(key)) is not None:
            ns = [value - loop for value in timed(statement)]
            quartiles = statistics.quantiles(ns, n=4)
            result[key] = (statistics.median(ns), quartiles[2] - quartiles[0])
    return result


def warm_seconds(name: str, data: bytes, repeat: int = 5) -> float:
    """Median untraced decode of ``data`` by decoder ``name``, translated first."""
    codec = default_registry().get(name)
    vm = VirtualMachine(codec.guest_decoder_image())
    encoded = codec.encode(data)
    vm.decode(encoded)
    runs = []
    for _ in range(repeat):
        start = time.perf_counter()
        vm.decode(encoded)
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def cost_report(mixes: dict[str, Counter], weights: Counter, warm: dict[str, float]) -> str:
    """Per class: ns per statement and class x count in ms, per decoder and pass."""
    columns = weighted(mixes, weights)
    keys = sorted(key for key in columns["pass"]
                  if key not in ("total", "entry-guard bails", "replaced fragment"))
    cost = costs(keys)
    rows = [f"{'statement cost':28}{'ns':>8}{'IQR':>7}" + "".join(f"{name:>10}" for name in columns)
            + "  (ms)"]
    predicted = dict.fromkeys(columns, 0.0)
    for key in keys:
        ns, spread = cost.get(key, (0.0, 0.0))
        cells = ""
        for name, mix in columns.items():
            ms = mix[key] * ns / 1e6
            predicted[name] += ms
            cells += f"{ms:10.2f}"
        rows.append(f"{key:28}" + (f"{ns:8.1f}{spread:7.1f}" if key in cost else f"{'-':>15}")
                    + cells)
    measured = {**warm, "pass": sum(warm[name] * weights[name] for name in warm)}
    measured = {name: seconds * 1e3 for name, seconds in measured.items()}
    for label, row in (("sum of class x count", predicted), ("measured warm decode", measured),
                       ("residual", {name: measured[name] - predicted[name] for name in columns})):
        rows.append(f"{label:43}" + "".join(f"{row[name]:10.2f}" for name in columns))
    return "\n".join(rows)


def main(argv=()) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--costs", action="store_true",
                        help="also time each class and set class x count beside a warm decode")
    parser.add_argument("--held", action="store_true",
                        help="also count the fp loads of a slot the fragment already held")
    args = parser.parse_args(argv)
    first, weights = members()
    mixes = {name: measure(name, data) for name, data in first.items()}
    print(report(mixes, weights))
    if args.held:
        codecs = {name: default_registry().get(name) for name in first}
        columns = weighted({name: held(codec.guest_decoder_image(), codec.encode(first[name]))
                            for name, codec in codecs.items()}, weights)
        print()
        print(f"{'fp loads through the view':32}" + "".join(f"{name:>12}" for name in columns))
        for key in HELD:
            print(f"{key:32}" + "".join(f"{mix[key]:12d}" for mix in columns.values()))
    if args.costs:
        warm = {name: warm_seconds(name, data) for name, data in first.items()}
        print()
        print(cost_report(mixes, weights, warm))


if __name__ == "__main__":
    main(sys.argv[1:])
