"""A deterministic gate on the code the translator generates (no wall clock).

The translator evaluates a trace symbolically and forwards stored and loaded
words to later loads of the same address (see ``repro.vm.translator``).
Whether that happens -- and, just as much, whether it *stops* happening when
a store might alias -- is visible in ``Fragment.source`` as the number of
word load and word store sites, which is a pure function of the guest code.
A site is counted whichever way it reaches its word -- ``_u32(buf, a)[0]`` /
``_p32(buf, a, v)``, or ``w[i]`` through the aligned word view -- so the
numbers say what forwarding does and a second set says how many sites the
view serves.  The differential suite checks that forwarding and the view are
right; this file checks that they are there.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import re

import pytest

from repro.codecs.registry import default_registry
from repro.formats.ppm import write_ppm
from repro.formats.wav import write_wav
from repro.vm import translator
from repro.vm.machine import VirtualMachine
from repro.vm.translator import Translator
from repro.workloads import (
    synthetic_music,
    synthetic_photo,
    synthetic_source_tree_bytes,
)

from tests.conftest import build_asm, inlined_ifs


def _source(body: str) -> str:
    """Generated source of the fragment at the entry of ``body``."""
    vm = VirtualMachine(build_asm("_start:\n" + body))
    translator = Translator(vm.memory, vm.text_start, vm.text_end, text=vm.text)
    return translator.translate(vm.pc).source


_WORD_LOADS = (re.compile(r"= _u32\(buf, .*\)\[0\]$", re.M),
               re.compile(r"= w\[.*\]$", re.M))
_WORD_STORES = (re.compile(r"^\s*_p32\(buf, ", re.M),
                re.compile(r"^\s*w\[.*\] = ", re.M))


def _word_sites(source: str) -> tuple[int, int, int]:
    """``(word loads, word stores, of either through the view)`` in ``source``."""
    loads = [len(form.findall(source)) for form in _WORD_LOADS]
    stores = [len(form.findall(source)) for form in _WORD_STORES]
    return sum(loads), sum(stores), loads[1] + stores[1]


#: vxc's stack-machine idiom: spill, load an operand, move it, reload.
_IDIOM = "    push r1\n    ld32 r2, [r6+8]\n    mov r3, r2\n{between}    pop r4\n    halt\n"


def test_pop_of_a_pushed_word_is_forwarded():
    source = _source(_IDIOM.format(between=""))
    loads, stores, _ = _word_sites(source)
    assert loads == 1                        # the ld32; the pop reads nothing
    assert stores == 1                       # the push is still performed
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
    loads, stores, _ = _word_sites(_source(_IDIOM.format(between=between)))
    assert loads == word_loads
    assert stores == 1 + between.count("st32")


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


_BUNDLED = ("vxz", "vxbwt", "vximg", "vxjp2", "vxflac", "vxsnd")

#: Images from compilers that no longer exist, kept in ``tests/data`` for good
#: (see ``test_vm_differential``): what the translator generates for them
#: depends on the translator alone, so every expected *number* in this file is
#: about one of them.  The bundled decoders are rebuilt by the compiler of the
#: day (vxc 0.3 expands calls in place, so its images have other fragments
#: than 0.2's) and are held to the gates that compare one run with another.
_ARCHIVED = ("vxz-vxc-0.1", "vxz-vxc-0.2")


def _decode(name: str, **config):
    """``(vm, result, expected output)`` of one decode, by a VM of ``config``.

    A bundled decoder runs over its input above, the archived vxc 0.2 image
    -- the vxz decoder as the parent of vxc 0.3 built it -- over the same vxz
    input, so its pins are the ones ``vxz`` had while 0.2 built it, and the
    archived 0.1 image over the payload archived with it.
    """
    data = pathlib.Path(__file__).parent / "data"
    codec = default_registry().get("vxz" if name in _ARCHIVED else name)
    if name == "vxz-vxc-0.1":
        encoded = (data / "vxz-vxc-0.1.payload.vxz").read_bytes()
    else:
        encoded = codec.encode(_bench_inputs()[codec.name])
    image = ((data / f"{name}.elf").read_bytes() if name in _ARCHIVED
             else codec.guest_decoder_image())
    vm = VirtualMachine(image, **config)
    result = vm.decode(encoded)
    assert result.exit_code == 0
    return vm, result, codec.decode(encoded)


def _cache_source(vm) -> str:
    return "\n".join(fragment.source
                     for _, fragment in sorted(vm.code_cache.fragments.items()))


#: ``(word loads, word stores)`` the evaluator translates on the archived
#: images -- calls of ``_Trace.load32`` and of ``_Trace.store`` at width 4,
#: one per guest word access on a translated path, which is the number of
#: sites a statement-for-statement generator would emit -- pinned to the
#: generator that inlines forward if-arms (a taken ``if`` stays in its
#: fragment, so the code after its join is translated once).  On every
#: decoder that count is the baseline of the forwarding gate below:
#: forwarding leaves 59% of the word loads of 0.1 code, 68-77% of 0.2's (hot
#: scalars in registers: most of the frame re-reads it used to remove are
#: never emitted) and 60-74% of 0.3's.
_STATEMENT_FOR_STATEMENT = {"vxz-vxc-0.1": (343, 232), "vxz-vxc-0.2": (225, 147)}


@pytest.mark.parametrize("name", _BUNDLED + _ARCHIVED)
def test_bundled_decoder_memory_sites(name, monkeypatch):
    evaluated = {"loads": 0, "stores": 0}
    load32, store = translator._Trace.load32, translator._Trace.store

    def counted_load32(trace, address, pc):
        evaluated["loads"] += 1
        return load32(trace, address, pc)

    def counted_store(trace, address, width, value, pc):
        evaluated["stores"] += width == 4
        return store(trace, address, width, value, pc)

    monkeypatch.setattr(translator._Trace, "load32", counted_load32)
    monkeypatch.setattr(translator._Trace, "store", counted_store)
    loads, stores, _ = _word_sites(_cache_source(_decode(name)[0]))
    if name in _ARCHIVED:
        assert (evaluated["loads"], evaluated["stores"]) == _STATEMENT_FOR_STATEMENT[name]
    assert stores == evaluated["stores"]        # stores are never dropped
    assert loads <= 0.8 * evaluated["loads"]


#: Per archived image: ``guards_elided`` of that decode and the SHA-256 of its
#: output and of every ``Fragment.source`` in entry order.  The output is as
#: computed at the commit before the word view existed, and the view must
#: leave it alone.  The elided count and the sources are pinned to the
#: generator that inlines forward if-arms (a site after a join is translated,
#: and its guard elided, once) and spells wraps, signed compares and entry
#: guards as comparisons, writes back by index and reassigns a back-edge's
#: locals one statement each where an order exists; the sources are what a
#: host of the other byte order generates -- the ``struct`` path -- so any
#: other change to that text shows.  The 0.2 row is the one ``vxz`` had until
#: vxc 0.3 (same image bytes, same input).
_BEFORE_THE_VIEW = {
    "vxz-vxc-0.1": (403, "dd8add34c82cd720",
                    "953ec1d9337783bc5ec30a4e54d6dbe5c96dc0478b050f98d917fd6e66e0bf54"),
    "vxz-vxc-0.2": (290, "e4871d5b6ded4275",
                    "2d1d2e5c3b95ebf6f97f8d713765829d082b84d01c8515d94f6368b6f7605433"),
}
#: ``guards_elided`` through the view, where frame slots stay held across
#: stores through other bases and loops: a load that is forwarded has no
#: guard to drop, so fewer sites remain than on the ``struct`` path.
_ELIDED_THROUGH_THE_VIEW = {"vxz-vxc-0.1": 352, "vxz-vxc-0.2": 283}


def _sources_digest(vm) -> str:
    digest = hashlib.sha256()
    for entry, fragment in sorted(vm.code_cache.fragments.items()):
        digest.update(f"{entry}\n{fragment.source}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", _BUNDLED + _ARCHIVED)
def test_the_word_view_serves_nearly_every_word_site(name):
    vm, result, expected = _decode(name)
    loads, stores, through_view = _word_sites(_cache_source(vm))
    assert through_view >= 0.95 * (loads + stores)
    assert result.stats.retranslations == 0          # no entry guard bailed
    assert result.output == expected
    if name in _ARCHIVED:
        assert result.stats.guards_elided == _ELIDED_THROUGH_THE_VIEW[name]
        assert hashlib.sha256(result.output).hexdigest().startswith(_BEFORE_THE_VIEW[name][1])


@pytest.mark.parametrize("name", _BUNDLED + _ARCHIVED)
def test_the_struct_path_is_what_it_was(name, monkeypatch):
    """On a big-endian host no word goes through the (native-order) view, so
    no slot is held past another base's store and at least as many guards
    are elided, and the same bytes come out; for the archived images what is
    generated instead is, byte for byte, the pinned text."""
    through_the_view = _decode(name)[1]
    monkeypatch.setattr(translator, "_BYTEORDER", "big")
    vm, result, expected = _decode(name)
    assert _word_sites(_cache_source(vm))[2] == 0
    assert result.stats.guards_elided >= through_the_view.stats.guards_elided
    assert result.output == expected
    if name in _ARCHIVED:
        guards_elided, _, sources = _BEFORE_THE_VIEW[name]
        assert _sources_digest(vm) == sources
        assert result.stats.guards_elided == guards_elided


@pytest.mark.parametrize("name", _BUNDLED)
def test_every_bundled_decoder_inlines_if_arms(name):
    """A forward ``if`` stays inside its fragment: some fragment of every
    decoder holds an inlined arm, and one instruction per fragment leaves
    no room for one."""
    for config, inlined in (({}, True), ({"superblock_limit": 1}, False)):
        vm, result, expected = _decode(name, **config)
        assert result.output == expected
        arms = [inlined_ifs(fragment.source)
                for fragment in vm.code_cache.fragments.values()]
        assert any(arms) == inlined, config


@pytest.mark.parametrize("name", _BUNDLED)
def test_every_size_local_is_read_by_a_check(name):
    """The prologue computes ``sN = ... - N`` only for a bounds check ``> sN``
    that the body emits.  A slot load that a looping fragment hoists ahead of
    the loop drops its check, which may have been its width's only reader."""
    for elision in (True, False):
        for fragment in _decode(name, analysis_elision=elision)[0].code_cache.fragments.values():
            for width in re.findall(r"\bs(\d+) = ", fragment.source):
                assert f" > s{width}: " in fragment.source, (elision, fragment.source)


#: The lines that may still mask with ``& 0xFFFFFFFF``: a product, a left
#: shift and the signed shift (their values really do exceed 32 bits), and a
#: system call's result (a host value, negative for an error).
_MASKED = re.compile(
    r"^v\d+ = (\w+ \* \w+|\w+ << (\d+|\(\w+ & 31\))"
    r"|\(\(\w+ \^ 2147483648\) - 2147483648\) >> (\d+|\(\w+ & 31\)))"
    r" & 4294967295$|^r\[0\] = t & 4294967295$")


def test_a_value_pays_for_a_wrap_only_when_it_is_out_of_range():
    """CPython's ``&`` and ``^`` with a constant of 2**30 or more take the
    multi-digit path and allocate, a comparison with it does not: sums,
    differences, NOT, NEG, signed compares and entry guards compare, and a
    write-back assigns by index instead of building a tuple for a slice."""
    masked = 0
    for name in _BUNDLED:
        for fragment in _decode(name)[0].code_cache.fragments.values():
            for line in fragment.source.split("\n"):
                line = line.strip()
                assert "& 3221225475" not in line and "r[:] =" not in line, line
                assert not (line.startswith("if ") and "^ 2147483648" in line), line
                if "& 4294967295" in line:
                    assert _MASKED.match(line), line
                    masked += 1
    assert masked                       # the gate sees the lines it lets through
