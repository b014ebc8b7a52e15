"""A deterministic gate on the code the translator generates (no wall clock).

The translator evaluates a trace symbolically and forwards stored and loaded
words to later loads of the same address (see ``repro.vm.translator``).
Whether that happens -- and, just as much, whether it *stops* happening when
a store might alias -- is visible in ``Fragment.source`` as the number of
``_u32(`` (word load) and ``_p32(`` (word store) sites, which is a pure
function of the guest code.  The differential suite checks that forwarding
is right; this file checks that it is there.
"""

from __future__ import annotations

import random

import pytest

from repro.codecs.registry import default_registry
from repro.formats.ppm import write_ppm
from repro.formats.wav import write_wav
from repro.vm.machine import VirtualMachine
from repro.vm.translator import Translator
from repro.workloads import (
    synthetic_music,
    synthetic_photo,
    synthetic_source_tree_bytes,
)

from tests.conftest import build_asm


def _source(body: str) -> str:
    """Generated source of the fragment at the entry of ``body``."""
    vm = VirtualMachine(build_asm("_start:\n" + body))
    translator = Translator(vm.memory, vm.text_start, vm.text_end, text=vm.text)
    return translator.translate(vm.pc).source


#: vxc's stack-machine idiom: spill, load an operand, move it, reload.
_IDIOM = "    push r1\n    ld32 r2, [r6+8]\n    mov r3, r2\n{between}    pop r4\n    halt\n"


def test_pop_of_a_pushed_word_is_forwarded():
    source = _source(_IDIOM.format(between=""))
    assert source.count("_u32(") == 1        # the ld32; the pop reads nothing
    assert source.count("_p32(") == 1        # the push is still performed
    assert "r3 = r2" not in source           # a move is a renaming
    assert "r[3] = v0; r[4] = r1" in source  # ... resolved at the write-back


@pytest.mark.parametrize("between,word_loads", [
    ("    st32 [r5], r0\n", 2),      # unrelated base: may alias, reload
    ("    st32 [r7+4], r0\n", 1),    # same base, disjoint bytes: keep
    ("    st32 [r7+1], r0\n", 2),    # same base, overlapping word: reload
    ("    st8  [r7+3], r0\n", 2),    # a byte inside the pushed word: reload
    ("    st8  [r7+4], r0\n", 1),    # the byte just above it: keep
    ("    st16 [r7-2], r0\n", 1),    # the halfword just below it: keep
    ("    st16 [r7-1], r0\n", 2),    # ... straddling into it: reload
], ids=["other-base", "disjoint", "overlap", "byte-inside", "byte-above",
        "half-below", "half-straddling"])
def test_an_intervening_store_kills_exactly_what_it_may_overlap(between,
                                                                word_loads):
    source = _source(_IDIOM.format(between=between))
    assert source.count("_u32(") == word_loads
    assert source.count("_p32(") == 1 + between.count("st32")


def test_early_side_exit_of_a_loop_writes_back_later_changes():
    # r2 and r1 change *after* the exit test, so from the second pass on
    # the exit must write them back although they still equal their entry
    # locals at that point of the pass.
    body = ("loop:\n    cmpi r1, 0\n    je out\n    addi r2, 3\n"
            "    subi r1, 1\n    jmp loop\nout:\n    halt\n")
    source = _source(body)
    assert "while True:" in source
    exit_block = source[source.index("if r1 == 0:"):source.index("return")]
    assert "r[1] = r1; r[2] = r2" in exit_block
    assert "vm.cc = (r1, 0)" in exit_block
    vm = VirtualMachine(build_asm("_start:\n    movi r1, 5\n" + body))
    vm.decode(b"")
    assert vm.regs[1:3] == [0, 15] and vm.cc == (0, 0)


def _bench_inputs() -> dict[str, bytes]:
    """One small member per decoder (vxabench's seed-7 ``tiny`` members)."""
    rng = random.Random("tiny-7")
    text = synthetic_source_tree_bytes(
        1500, seed=rng.randrange(1 << 30))[:1500]
    photo = write_ppm(synthetic_photo(24, 16, seed=rng.randrange(1 << 30)))
    clip = write_wav(synthetic_music(seconds=0.1, sample_rate=8000, channels=1,
                                     seed=rng.randrange(1 << 30)))
    return {"vxz": text, "vxbwt": text, "vximg": photo, "vxjp2": photo,
            "vxflac": clip, "vxsnd": clip}


#: ``(_u32( sites, _p32( sites)`` in the whole code cache after one decode of
#: the input above, with the statement-for-statement generator this one
#: replaced (PR 13's ``vm/translator.py`` in a scratch copy, run on today's
#: images).  Stores are never dropped, so ``_p32(`` must not move.
#:
#: The pins are per toolchain version: they describe the images vxc 0.2
#: builds and must be recomputed whenever ``repro.vxc.compiler.TOOLCHAIN``
#: is bumped.  For the vxc 0.1 images they were (368, 243), (583, 393),
#: (719, 526), (856, 615), (364, 299), (389, 281) and forwarding left 58-60%
#: of the word loads; 0.2 keeps hot scalars in registers, so most of the
#: frame re-reads forwarding used to remove are never emitted and it leaves
#: 68-77% of a much smaller number (vxz: 217 sites then, 187 now).
_STATEMENT_FOR_STATEMENT = {
    "vxz": (244, 148), "vxbwt": (365, 221), "vximg": (524, 359),
    "vxjp2": (602, 417), "vxflac": (274, 251), "vxsnd": (305, 227),
}


@pytest.mark.parametrize("name", _STATEMENT_FOR_STATEMENT)
def test_bundled_decoder_memory_sites(name):
    codec = default_registry().get(name)
    data = _bench_inputs()[name]
    vm = VirtualMachine(codec.guest_decoder_image())
    assert vm.decode(codec.encode(data)).exit_code == 0
    source = "\n".join(fragment.source
                       for fragment in vm.code_cache.fragments.values())
    word_loads, word_stores = _STATEMENT_FOR_STATEMENT[name]
    assert source.count("_p32(") == word_stores
    assert source.count("_u32(") <= 0.8 * word_loads
