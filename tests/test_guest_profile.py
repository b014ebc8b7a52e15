"""Smoke test of ``tools/guest_profile.py``, the per-pc guest-instruction
profile.

Its tables are quoted in CHANGES.md as the before/after of a decoder change,
so they must be exact: the per-pc counts of one decode repeat to the digit,
add up to the decode's own instruction count (which the translator counts
identically), and every count lands in exactly one function and one loop.
A function's inclusive count holds its own and its callees' instructions.
"""

import pathlib
import sys

from repro.codecs.registry import default_registry
from repro.vm.machine import VirtualMachine
from repro.workloads.images import synthetic_photo

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

import guest_profile  # noqa: E402


def _small_member() -> bytes:
    return default_registry().get("vximg").encode_pixels(synthetic_photo(8, 8, seed=2))


def test_counts_repeat_and_sum_to_the_decode():
    image = default_registry().get("vximg").guest_decoder_image()
    payload = _small_member()
    counts, stacks, exit_code, instructions = guest_profile.count_pcs(image, payload)
    again = guest_profile.count_pcs(image, payload)
    assert exit_code == 0
    assert again == (counts, stacks, exit_code, instructions)
    assert sum(counts.values()) == sum(stacks.values()) == instructions
    assert VirtualMachine(image).decode(payload).stats.instructions == instructions


def test_every_count_lands_in_one_function_and_one_loop():
    result = guest_profile.profile("vximg", [_small_member()])
    by_function, by_loop = result.by_function, result.by_loop
    assert sum(by_function.values()) == sum(by_loop.values()) == result.total
    assert {function for function, _ in by_loop} == set(by_function)
    assert by_function["vi_idct_block"] > 0 and by_function["main"] > 0
    loops = {loop for _, loop in by_loop} - {"(straight)"}
    assert loops and all(loop.startswith((".for", ".while", ".dobody")) for loop in loops)


def test_inclusive_counts_hold_their_callees():
    # vxbwt's decode_stream calls hd_fill and bw_walk, which call hd_slow and
    # out_flush: its inclusive count holds theirs.
    payload = default_registry().get("vxbwt").encode(b"abracadabra " * 60)
    result = guest_profile.profile("vxbwt", [payload])
    inclusive, exclusive = result.inclusive, result.by_function
    assert inclusive == guest_profile.profile("vxbwt", [payload]).inclusive
    assert inclusive["main"] + exclusive["_start"] == result.total == inclusive["_start"]
    assert all(inclusive[function] >= count for function, count in exclusive.items())
    assert inclusive["decode_stream"] >= (exclusive["decode_stream"] + inclusive["hd_fill"]
                                          + inclusive["bw_walk"]) > exclusive["decode_stream"]


def test_a_pc_belongs_to_its_innermost_loop():
    names = guest_profile.SymbolMap({
        "fn_f": 100, "fn_f__end": 190, "fn_g": 200, "fn_g__end": 210, "_start": 220,
        ".for1": 110, ".forbody2": 112, ".forstep3": 170, ".endfor4": 180,
        ".while5": 120, ".body6": 122, ".endwhile7": 150,
    })
    assert [names.function(pc) for pc in (100, 185, 195, 205, 230)] == [
        "f", "f", "f", "g", "_start"]
    assert [names.loop(pc) for pc in (105, 110, 125, 150, 175, 180)] == [
        "(straight)", ".for1", ".while5", ".for1", ".for1", "(straight)"]
