#!/usr/bin/env python3
"""Statement mix of the translator's generated code, counted as it executes.

``sys.settrace`` line events on the ``<vxa-fragment-...>`` code objects of one
decode per bundled decoder, mapped through ``Fragment.source`` and classed by
what the statement is for: guest memory traffic (by width, by path --
``struct`` or the word view -- and by address base), the address statements
that only feed it, arithmetic, guards, compares, and what a fragment pays on
entry and exit.  The counts are exact and repeat; they say where statements
go inside ``vm.execute``, not how long each takes.

    PYTHONPATH=src python tools/fragment_mix.py [--seed 7]

The members are vxabench's ``extract_mixed`` ones for that seed, one per
decoder, and the ``pass`` column weights them as that archive does (8 vxz,
8 vxbwt, 4 of each media decoder).
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from collections import Counter

from repro.codecs.registry import default_registry
from repro.formats.ppm import write_ppm
from repro.formats.wav import write_wav
from repro.vm import translator
from repro.vm.code_cache import CodeCache
from repro.vm.machine import VirtualMachine
from repro.workloads import synthetic_music, synthetic_photo, synthetic_source_tree_bytes

WEIGHTS = {"vxz": 8, "vxbwt": 8, "vximg": 4, "vxjp2": 4, "vxflac": 4, "vxsnd": 4}
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


def members(seed: int) -> dict[str, bytes]:
    """First member of each decoder in vxabench's seed-``seed`` mixed archive."""
    rng = random.Random(f"mixed-{seed}")
    texts = [synthetic_source_tree_bytes(3072, seed=rng.randrange(1 << 30))[:3072]
             for _ in range(8)]
    photo = write_ppm(synthetic_photo(32, 24, seed=rng.randrange(1 << 30)))
    clip = write_wav(synthetic_music(seconds=0.1, sample_rate=8000, channels=1,
                                     seed=rng.randrange(1 << 30)))
    return {"vxz": texts[0], "vxbwt": texts[0], "vximg": photo, "vxjp2": photo,
            "vxflac": clip, "vxsnd": clip}


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
    # A shared cache survives the re-initialisation between the two decodes.
    vm = VirtualMachine(codec.guest_decoder_image(), code_cache=CodeCache(shared=True))
    lines: Counter = Counter()
    mix: Counter = Counter({"entry-guard bails": 0})
    bail = getattr(translator, "_BAIL", None)     # absent before the word view

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith("<vxa-fragment-"):
            return None
        if event == "line":
            lines[frame.f_code, frame.f_lineno] += 1
        elif event == "return" and arg == bail:
            mix["entry-guard bails"] += 1
        return tracer

    encoded = codec.encode(data)
    vm.decode(encoded)                    # translate everything first: a warm pass
    sys.settrace(tracer)
    try:
        result = vm.decode(encoded)
    finally:
        sys.settrace(None)
    assert result.exit_code == 0, name
    by_code = {fragment.func.__code__: classify(fragment.source)
               for fragment in vm.code_cache.fragments.values()}
    for (code, lineno), count in lines.items():
        mix[by_code[code][lineno - 1] if code in by_code else "replaced fragment"] += count
    mix["total"] = sum(lines.values())
    return mix


def report(mixes: dict[str, Counter]) -> str:
    whole: Counter = Counter()
    for name, mix in mixes.items():
        whole.update({key: count * WEIGHTS[name] for key, count in mix.items()})
    columns = {**mixes, "pass": whole}
    rows = [f"{'statements executed':32}" + "".join(f"{name:>12}" for name in columns)]
    for key in sorted(whole, key=lambda key: (key == "total", key)):
        rows.append(f"{key:32}" + "".join(f"{mix[key]:12d}" for mix in columns.values()))
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    print(report({name: measure(name, data) for name, data in members(args.seed).items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
