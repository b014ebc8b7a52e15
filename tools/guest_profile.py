#!/usr/bin/env python3
"""Exact guest-instruction profile of the archived decoders, per function and
per loop.

Every member of vxabench's seed-7 ``extract_mixed`` archive is encoded with
its codec and decoded by the codec's guest image on the reference
interpreter.  The interpreter fetches each instruction it executes from
``code_cache.instructions`` with one ``get(pc)``; the table given to it here
counts those calls, so the count at a pc is how often that instruction ran.
Nothing in ``src/`` changes for it and no image is rebuilt: the pcs are named
with the symbols the compiler returned with the same image.

Counts are exclusive, with an inclusive column per function.  A pc belongs
to the vxc function whose ``fn_<name>`` label is the last at or before it,
epilogue included, as the compiler sizes functions (a helper generated in
place is counted under the function it was generated into; ``_start`` is the
runtime's entry code), and to the innermost loop holding it, a loop being the
range from its ``.forN`` / ``.whileN`` / ``.dobodyN`` label to its end label;
code in no loop is the function's ``(straight)`` row.  The same table follows
``call``/``callr`` and ``ret`` and counts each instruction under the stack of
functions it ran in: a function's inclusive count is every instruction
executed while it was on that stack, once however often it is on it, so
splitting a loop into a function of its own does not hide what its caller
costs.  The counts repeat to the digit.

    PYTHONPATH=src python tools/guest_profile.py [--seed 7] [--top 12]
"""

from __future__ import annotations

import argparse
import bisect
import pathlib
import re
import sys
from collections import Counter
from dataclasses import dataclass

from repro.codecs.registry import default_registry
from repro.isa.opcodes import Op
from repro.vm.code_cache import CodeCache
from repro.vm.machine import ENGINE_INTERPRETER, VirtualMachine

sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "vxabench"))

import inputs  # noqa: E402  (vxabench's: the members profiled are the benchmark's)

#: The seed ROADMAP.md and CHANGES.md quote this tool's numbers for.
SEED = 7
#: A loop's first label and the hint of the label that ends it (the code
#: generator numbers a loop's labels consecutively: for/forbody/forstep/endfor,
#: while/body/endwhile, dobody/docond/enddo).
_LOOPS = {"for": ("endfor", 3), "while": ("endwhile", 2), "dobody": ("enddo", 2)}
_LABEL = re.compile(r"^\.([a-z]+)(\d+)$")


_CALLS = (Op.CALL, Op.CALLR)


class _CountingTable(dict):
    """An instruction table whose ``get`` -- one per executed instruction --
    counts the pc it is asked for, and the stack of called entry pcs it runs
    under.  The instruction before it is in the table by then, so a ``call``
    pushes the pc after it and a ``ret`` pops."""

    def __init__(self, counts: Counter, stacks: Counter):
        super().__init__()
        self.counts = counts
        self.stacks = stacks
        self._stack: tuple[int, ...] = ()
        self._last = None

    def get(self, pc, default=None):
        last = dict.get(self, self._last)
        if last is not None:
            if last.op in _CALLS:
                self._stack = self._stack + (pc,)
            elif last.op is Op.RET:
                self._stack = self._stack[:-1]
        self._last = pc
        self.counts[pc] += 1
        self.stacks[self._stack] += 1
        return dict.get(self, pc, default)


def count_pcs(image: bytes, payload: bytes) -> tuple[Counter, Counter, int, int]:
    """Executions per pc and per call stack (a tuple of entry pcs) of one
    interpreted decode of ``payload``, with the decode's exit code and
    ``stats.instructions``."""
    counts: Counter = Counter()
    stacks: Counter = Counter()
    table = CodeCache()
    table.instructions = _CountingTable(counts, stacks)
    vm = VirtualMachine(image, engine=ENGINE_INTERPRETER, code_cache=table)
    result = vm.decode(payload)
    return counts, stacks, result.exit_code, result.stats.instructions


@dataclass(frozen=True)
class Region:
    start: int
    end: int
    name: str


class SymbolMap:
    """Names a pc by the function and the innermost loop holding it."""

    def __init__(self, symbols: dict[str, int]):
        starts = sorted((address, name.removeprefix("fn_"))
                        for name, address in symbols.items()
                        if name == "_start"
                        or (name.startswith("fn_") and not name.endswith("__end")))
        self._starts = [address for address, _ in starts]
        self._names = [name for _, name in starts]
        self._loops = []
        for name, address in symbols.items():
            found = _LABEL.match(name)
            if found and found.group(1) in _LOOPS:
                hint, offset = _LOOPS[found.group(1)]
                end = symbols[f".{hint}{int(found.group(2)) + offset}"]
                self._loops.append(Region(address, end, name))

    def function(self, pc: int) -> str:
        return self._names[bisect.bisect_right(self._starts, pc) - 1]

    def loop(self, pc: int) -> str:
        holding = [loop for loop in self._loops if loop.start <= pc < loop.end]
        if not holding:
            return "(straight)"
        return min(holding, key=lambda loop: loop.end - loop.start).name


@dataclass
class Profile:
    by_function: Counter     # exclusive
    by_loop: Counter         # exclusive, by (function, loop)
    inclusive: Counter       # by function; ``_start`` holds every instruction
    total: int


def profile(name: str, payloads: list[bytes]) -> Profile:
    """Counts by function and by (function, loop) over the decodes of
    ``payloads`` by decoder ``name``, and the decodes' instruction total."""
    compiled = default_registry().get(name).build_guest_decoder()
    names = SymbolMap(compiled.symbols)
    pcs: Counter = Counter()
    stacks: Counter = Counter()
    total = 0
    for payload in payloads:
        counts, by_stack, exit_code, instructions = count_pcs(compiled.elf, payload)
        assert exit_code == 0, name
        pcs.update(counts)
        stacks.update(by_stack)
        total += instructions
    result = Profile(Counter(), Counter(), Counter(), total)
    for pc, count in pcs.items():
        function = names.function(pc)
        result.by_function[function] += count
        result.by_loop[function, names.loop(pc)] += count
    for stack, count in stacks.items():
        for function in {"_start", *map(names.function, stack)}:
            result.inclusive[function] += count
    return result


def encoded_members(seed: int) -> dict[str, list[bytes]]:
    """The payloads of vxabench's mixed archive, by decoder, in archive order."""
    registry = default_registry()
    payloads: dict[str, list[bytes]] = {}
    for member in inputs.mixed_members(seed, inputs.SHAPES["bench"]):
        payloads.setdefault(member.codec, []).append(
            registry.get(member.codec).encode(member.data))
    return payloads


def report(profiles: dict[str, Profile], top: int) -> str:
    rows = [f"{'decoder':8}{'guest instructions':>20}"]
    for name, result in profiles.items():
        rows.append(f"{name:8}{result.total:20,}")
    rows.append(f"{'pass':8}{sum(result.total for result in profiles.values()):20,}")
    for name, result in profiles.items():
        total = result.total
        rows.append(f"\n{name}: {total:,}{'inclusive':>33}")
        for function, count in result.by_function.most_common(top):
            rows.append(f"  {function:24}{count:14,}{100 * count / total:7.1f} %"
                        f"{result.inclusive[function]:14,}")
            loops = [(loop, n) for (owner, loop), n in result.by_loop.most_common()
                     if owner == function]
            for loop, count in loops[:top]:
                rows.append(f"    {loop:22}{count:14,}{100 * count / total:7.1f} %")
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--top", type=int, default=6,
                        help="functions per decoder, and loops per function")
    args = parser.parse_args(argv)
    members = encoded_members(args.seed)
    print(report({name: profile(name, payloads) for name, payloads in members.items()},
                 args.top))


if __name__ == "__main__":
    main()
