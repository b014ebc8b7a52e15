"""Figure 7: performance of virtualised decoders.

The paper measures user-mode CPU time for six decoders running natively and
under the vx32 VMM, normalised to native x86-32 execution; virtualisation
costs 0-11% on x86-32 hosts.  The vorbis decoder initially lost 29% because
of subroutine calls in its inner loop; inlining them cut the gap to 11%.

In this reproduction "native" is the codec's Python decoder running in the
archiver process and "virtualised" is the archived vxc decoder running on
the VXA virtual machine (dynamic-translation engine), with the pure
interpreter shown as the portable-emulation bound of section 5.4.  Absolute
ratios are far larger than the paper's (the VM is hosted on CPython, not on
hardware-assisted x86 sandboxing); the *shape* being reproduced is the
per-decoder ordering, the translator-vs-interpreter gap, and the inlining
anecdote.  ``benchmarks/vxabench/README.md`` describes how the whole-archive
and per-decoder VM/native ratios are measured and what they cost today.
"""

import pathlib

import pytest

from repro.bench.harness import measure_workload, time_callable
from repro.bench.reporting import format_ratio, format_table
from repro.elf.reader import read_note
from repro.vm.machine import ENGINE_TRANSLATOR, VirtualMachine
from repro.vxc.compiler import compile_source

DECODER_ORDER = ("vxz", "vxbwt", "vximg", "vxjp2", "vxflac", "vxsnd")

#: Paper Figure 7 normalised vx32/x86-32 times (native = 1.0), for the
#: side-by-side column in the report.
PAPER_FIGURE7_X86_32 = {
    "vxz": 1.06,     # zlib
    "vxbwt": 1.05,   # bzip2
    "vximg": 0.99,   # jpeg (slightly faster under vx32)
    "vxjp2": 1.08,   # jp2
    "vxflac": 1.05,  # flac
    "vxsnd": 1.11,   # vorbis (after inlining)
}

_timings = {}


def _measure(name, workloads, include_interpreter=False):
    if name not in _timings:
        _timings[name] = measure_workload(
            workloads[name], include_interpreter=include_interpreter
        )
    return _timings[name]


@pytest.mark.parametrize("name", DECODER_ORDER)
def test_figure7_decoder_under_vm(benchmark, name, workloads):
    """Benchmark each archived decoder running inside the VM (translator)."""
    workload = workloads[name]
    image = workload.codec.guest_decoder_image()

    def decode_under_vm():
        vm = VirtualMachine(image, engine=ENGINE_TRANSLATOR)
        result = vm.decode(workload.encoded)
        assert result.exit_code == 0
        return result

    result = benchmark.pedantic(decode_under_vm, rounds=1, iterations=1)
    benchmark.extra_info["decoder"] = name
    benchmark.extra_info["guest_instructions"] = result.stats.instructions
    benchmark.extra_info["output_bytes"] = result.stats.bytes_written


def test_figure7_summary(benchmark, workloads, emit_report):
    """Regenerate the Figure 7 series: normalised decode time per decoder."""

    def collect():
        rows = []
        for name in DECODER_ORDER:
            include_interp = name in ("vxz", "vxsnd")
            timing = _measure(name, workloads, include_interpreter=include_interp)
            rows.append(timing)
        return rows

    timings = benchmark.pedantic(collect, rounds=1, iterations=1)

    rows = []
    for timing in timings:
        interp = (
            format_ratio(timing.interpreter_slowdown)
            if timing.interpreter_slowdown is not None
            else "-"
        )
        rows.append(
            [
                timing.decoder,
                f"{timing.native_seconds * 1000:.1f}ms",
                f"{timing.translator_seconds * 1000:.0f}ms",
                format_ratio(timing.translator_slowdown),
                interp,
                f"{PAPER_FIGURE7_X86_32[timing.decoder]:.2f}x",
                f"{timing.translator_stats.instructions:,}",
            ]
        )
    table = format_table(
        [
            "Decoder",
            "Native",
            "VXA VM (translator)",
            "VM/native",
            "Interp/native",
            "Paper vx32/native",
            "Guest instructions",
        ],
        rows,
        title="Figure 7: Performance of Virtualized Decoders (reproduction)",
    )
    emit_report("figure7_decoder_performance", table)

    # Shape, gated on what the VM counts (exact and repeatable; the timings
    # are in the table and gate nothing).  Virtualisation has a cost: every
    # output byte takes guest instructions.  Where the interpreter ran, it
    # executed the very same instructions and decoded and dispatched each
    # one; the translator executed a tenth as many fragments, and translated
    # and looked up in its dispatcher a hundredth as many.
    for timing in timings:
        translated = timing.translator_stats
        assert translated.instructions > translated.bytes_written > 0
        interpreted = timing.interpreter_stats
        if interpreted is not None:
            assert interpreted.instructions == translated.instructions
            assert interpreted.blocks_executed == interpreted.instructions
            assert 10 * translated.blocks_executed < interpreted.blocks_executed
            assert 100 * translated.fragments_translated < interpreted.blocks_executed
            lookups = translated.blocks_executed - translated.chained_branches
            assert 100 * lookups < interpreted.blocks_executed


# -- the vorbis inlining anecdote -----------------------------------------------------

_CALL_HEAVY = r"""
int state;
int mix(int a, int b) { return ((a * 31) + b) ^ (a >> 7); }
int step(int value) { state = mix(state, value); return state; }
byte buffer[4096];
int main() {
    int i;
    int n;
    int total;
    state = 12345;
    total = 0;
    while (1) {
        n = read(0, buffer, 4096);
        if (n <= 0) { break; }
        for (i = 0; i < n; i = i + 1) {
            buffer[i] = step(buffer[i]) & 255;      // helper call per sample
        }
        write_full(1, buffer, n);
        total = total + n;
    }
    return 0;
}
"""

_INLINED = r"""
int state;
byte buffer[4096];
int main() {
    int i;
    int n;
    int total;
    state = 12345;
    total = 0;
    while (1) {
        n = read(0, buffer, 4096);
        if (n <= 0) { break; }
        for (i = 0; i < n; i = i + 1) {
            state = ((state * 31) + buffer[i]) ^ (state >> 7);   // inlined
            buffer[i] = state & 255;
        }
        write_full(1, buffer, n);
        total = total + n;
    }
    return 0;
}
"""


#: ``_CALL_HEAVY`` as vxc 0.2 compiled it: a ``call`` per helper, two per
#: sample.  vxc 0.3 expands ``step`` and ``mix`` at that loop site, so only an
#: archived image still shows what the paper's authors first measured.
_CALL_HEAVY_0_2 = (pathlib.Path(__file__).parent.parent / "tests" / "data"
                   / "anecdote-calls-vxc-0.2.elf")


def test_figure7_inlining_anecdote(benchmark, emit_report):
    """Reproduce the vorbis observation: per-sample helper calls in the inner
    loop magnify the VM's flow-control overhead (return-address lookups);
    inlining them narrows the gap.  Three rows: the call-per-sample image an
    older compiler built, the source inlined by hand, and the call-heavy
    source under today's compiler -- the compiler now does what the paper's
    authors did by hand.

    The gate is on what the VM counts, which is exact and repeats; the
    timings are in the emitted table and gate nothing (ROADMAP 3(a)).
    """
    payload = bytes(range(256)) * 256          # 64 KB through the filter

    images = {
        "calls": _CALL_HEAVY_0_2.read_bytes(),
        "inlined": compile_source(_INLINED, codec_name="anecdote-inlined").elf,
        "expanded": compile_source(_CALL_HEAVY, codec_name="anecdote-calls").elf,
    }
    assert read_note(images["calls"])["toolchain"] == "vxc-0.2"
    stats, outputs = {}, {}

    def run(variant):
        vm = VirtualMachine(images[variant], engine=ENGINE_TRANSLATOR)
        result = vm.decode(payload)
        assert result.exit_code == 0
        stats[variant], outputs[variant] = result.stats, result.output
        return result

    seconds = {"calls": time_callable(lambda: run("calls"))}
    benchmark.pedantic(lambda: run("inlined"), rounds=1, iterations=1)
    seconds["inlined"] = time_callable(lambda: run("inlined"))
    seconds["expanded"] = time_callable(lambda: run("expanded"))
    assert outputs["calls"] == outputs["inlined"] == outputs["expanded"]

    def lookups(variant):       # fragment executions not reached by a chained edge
        return stats[variant].blocks_executed - stats[variant].chained_branches

    rows = [[title, f"{seconds[variant] * 1000:.0f}ms",
             f"{seconds[variant] / seconds['inlined']:.2f}x",
             stats[variant].instructions, stats[variant].blocks_executed,
             lookups(variant)]
            for title, variant in (
                ("helper call per sample (archived vxc 0.2 image)", "calls"),
                ("inner loop inlined by hand", "inlined"),
                ("helper call per sample, compiled today", "expanded"))]
    table = format_table(
        ["Variant", "VM time", "Relative", "Guest instructions",
         "Fragment executions", "Dispatcher lookups"],
        rows,
        title="Figure 7 anecdote: inner-loop subroutine calls vs. inlining "
              "(paper: vorbis 29% -> 11% slowdown after inlining)",
    )
    emit_report("figure7_inlining_anecdote", table)

    # Two helper calls per sample: each costs the call/return instructions,
    # ends a trace twice (``call`` and ``ret`` both do) and returns through
    # an indirect branch -- the one transition that needs a hash lookup.  The
    # inlined loop is one looping fragment per 4 KB block: its fragment
    # executions and lookups do not grow with the sample count at all.
    calls, inline, expanded = stats["calls"], stats["inlined"], stats["expanded"]
    assert (calls.instructions, calls.blocks_executed, lookups("calls")) == (
        3_606_100, 327_782, 131_102)           # the archived image never changes
    assert calls.instructions > 1.3 * inline.instructions
    assert inline.blocks_executed < len(payload) // 100
    assert lookups("inlined") < len(payload) // 100
    # What the compiler expands is the hand-inlined loop, to within a factor
    # of two, and two orders of magnitude from the call per sample.
    assert expanded.blocks_executed <= 2 * inline.blocks_executed
    assert lookups("expanded") <= 2 * lookups("inlined")
    assert 100 * expanded.blocks_executed <= calls.blocks_executed
    assert 100 * lookups("expanded") <= lookups("calls")
