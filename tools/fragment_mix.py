#!/usr/bin/env python3
"""Statement mix of the translator's generated code, counted as it executes.

``sys.settrace`` line events on the ``<vxa-fragment-...>`` code objects of one
decode per bundled decoder, mapped through ``Fragment.source`` and classed by
what the statement is for: guest memory traffic (by width, by path --
``struct`` or the word view -- and by address base), the address statements
that only feed it, arithmetic, guards, compares, and what a fragment pays on
entry and exit.  The counts are exact and repeat; they say where statements
go inside ``vm.execute``, not how long each takes.

    PYTHONPATH=src python tools/fragment_mix.py

The members are built by vxabench's own ``inputs.mixed_members`` (seed 7, the
``bench`` shape): the first member of each decoder, and the ``pass`` column
weights each by the number of members that decoder has in that archive.
"""

from __future__ import annotations

import pathlib
import re
import sys
from collections import Counter

from repro.codecs.registry import default_registry
from repro.vm.machine import VirtualMachine
from repro.vm.translator import _BAIL

sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "vxabench"))

import inputs  # noqa: E402  (vxabench's: the members measured are the benchmark's)

#: The seed ROADMAP.md and CHANGES.md quote this tool's numbers for.
SEED = 7
#: Address bases: ``sp`` = ``[r7+-k]``, ``fp`` = ``[r6+-k]``, ``const`` a literal
#: (globals); anything else is ``computed``.
_BASE = re.compile(r"(?P<sp>[rq]7\b)|(?P<fp>[rq]6\b)|(?P<const>\d+$)")
#: First match wins; ``{base}`` is the base of the address in group 1.
_CLASSES = [(name, re.compile(pattern)) for name, pattern in (
    ("entry unpack", r"r0, r1, .* = r$"), ("entry guard", r"if .* & 3221225475: return"),
    ("entry q", r"q[67] = "), ("entry view", r"w = mem\.words"),
    ("entry size", r"^(size|s\d) = "), ("entry cc", r"cca, ccb = vm\.cc"),
    ("exit loop", r"^(r\d|cc[ab])(, (r\d|cc[ab]))* = |continue|while True:"),
    ("exit icount", r"vm\.icount \+= "), ("exit budget", r"if vm\.icount > vm\.budget"),
    ("exit write-back", r"^r\[[\d:]*\] = "), ("exit cc", r"vm\.cc = "),
    ("exit return", r"return "),
    ("exit syscall", r"t, act = |vm\.halted|if act ==|vm\.syscall_handler"),
    ("bounds guard", r"if .* > s\d: _flt"),
    ("word load struct {base}", r"= _u32\(buf, (.*)\)\[0\]"),
    ("word load view {base}", r"= w\[(.*)\]$"),
    ("word store struct {base}", r"_p32\(buf, (\w+), "), ("word store view {base}", r"^w\[(.*)\] = "),
    ("narrow load", r"= (t \+|buf\[|_u16\()"), ("narrow store", r"^(buf\[|_p16\()"),
    ("compare", r"if "), ("address r6|r7 +- k", r"^a\d+ = r[67] [+-] \d+( & 4294967295)?$"),
    ("alu masked", r" & 4294967295$"), ("alu plain", r"= "))]


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
    found = _BASE.match(definitions.get(local, local))
    return found.lastgroup if found else "computed"


def classify(source: str) -> list[str]:
    """Class of every line of one fragment's source (index 0 = line 1)."""
    lines = [line.strip() for line in source.split("\n")]
    definitions = dict(line.split(" = ", 1) for line in lines if re.match(r"a\d+ = ", line))
    classes = ["entry def"]
    for line in lines[1:]:
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


def report(mixes: dict[str, Counter], weights: Counter) -> str:
    whole: Counter = Counter()
    for name, mix in mixes.items():
        whole.update({key: count * weights[name] for key, count in mix.items()})
    columns = {**mixes, "pass": whole}
    rows = [f"{'statements executed':32}" + "".join(f"{name:>12}" for name in columns)]
    for key in sorted(whole, key=lambda key: (key == "total", key)):
        rows.append(f"{key:32}" + "".join(f"{mix[key]:12d}" for mix in columns.values()))
    return "\n".join(rows)


def main() -> None:
    first, weights = members()
    print(report({name: measure(name, data) for name, data in first.items()}, weights))


if __name__ == "__main__":
    main()
