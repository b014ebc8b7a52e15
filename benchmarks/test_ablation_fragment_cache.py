"""Ablation: the translated-fragment cache, chaining and the translator itself.

vx32's viability rests on caching translated code fragments and reusing them
whenever the decoder jumps to the same entry point again, and on back-patching
direct branches so that most transitions never reach the dispatcher (paper
section 4.2).  The translator always does both, so what removing either would
cost is read off the exact counts of one normal run of the vxz guest decoder:

* without the cache every fragment execution is a translation:
  ``blocks_executed`` of them instead of ``fragments_translated``;
* without chaining every transition is a dispatcher lookup:
  ``blocks_executed`` of them instead of ``blocks_executed - chained_branches``.

The pure instruction-at-a-time interpreter (the portable-emulation bound
discussed in section 5.4) is run beside it.
"""

from repro.bench.reporting import format_ratio, format_table
from repro.vm.machine import ENGINE_INTERPRETER, ENGINE_TRANSLATOR, VirtualMachine
from repro.bench.harness import time_callable


def _run(image, encoded, *, engine):
    vm = VirtualMachine(image, engine=engine)
    result = vm.decode(encoded)
    assert result.exit_code == 0
    return result


def test_ablation_fragment_cache(benchmark, workloads, emit_report):
    workload = workloads["vxz"]
    image = workload.codec.guest_decoder_image()
    counted = {}

    def run(name, engine):
        counted[name] = _run(image, workload.encoded, engine=engine).stats

    cached_result = benchmark.pedantic(
        lambda: _run(image, workload.encoded, engine=ENGINE_TRANSLATOR),
        rounds=1, iterations=1,
    )
    cached_seconds = time_callable(lambda: run("cached", engine=ENGINE_TRANSLATOR))
    interpreter_seconds = time_callable(
        lambda: run("interpreter", engine=ENGINE_INTERPRETER)
    )

    stats = cached_result.stats
    blocks = stats.blocks_executed
    translations = stats.fragments_translated
    lookups = blocks - stats.chained_branches
    hit_rate = stats.cache_hits / max(1, stats.cache_hits + translations)
    rows = [
        ["translator + fragment cache + chaining", f"{cached_seconds * 1000:.0f}ms",
         "1.00x", f"{translations}", f"{lookups}",
         f"cache hit rate {hit_rate * 100:.2f}%"],
        ["interpreter (no translation)", f"{interpreter_seconds * 1000:.0f}ms",
         format_ratio(interpreter_seconds / cached_seconds), "-", "-",
         "portable-emulation bound"],
        ["translator, no chaining (counted)", "-", "-", f"{translations}", f"{blocks}",
         f"{format_ratio(blocks / max(1, lookups))} the lookups"],
        ["translator, no fragment cache (counted)", "-", "-", f"{blocks}", f"{blocks}",
         f"{format_ratio(blocks / max(1, translations))} the translations"],
    ]
    table = format_table(
        ["Configuration", "Decode time", "Relative to cached translator",
         "Translations", "Dispatcher lookups", "Notes"],
        rows,
        title="Ablation: fragment cache, chaining and dynamic translation (vxz decoder)",
    )
    emit_report("ablation_fragment_cache", table)

    # The cache and the links must be doing nearly all the work.  What
    # removing them or translation costs is gated on what the VM counts,
    # which is exact and repeats; the timings above gate nothing.  Every
    # fragment execution was a cache hit or a translation, so without the
    # cache it would be a translation, over twice as many as the cache needs;
    # chaining takes over half the transitions past the dispatcher.  The
    # interpreter runs the same guest instructions and decodes and dispatches
    # every one of them, over twice as many dispatches as the translator
    # makes fragment executions.
    assert hit_rate > 0.95
    assert stats.cache_hits + translations == blocks
    assert blocks > 2 * translations
    assert blocks > 2 * lookups
    cached, interpreted = counted["cached"], counted["interpreter"]
    assert (cached.instructions, cached.blocks_executed) == (stats.instructions, blocks)
    assert interpreted.instructions == cached.instructions
    assert interpreted.blocks_executed == interpreted.instructions
    assert interpreted.blocks_executed > 2 * cached.blocks_executed
