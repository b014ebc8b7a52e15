"""Ablation: the translated-fragment cache and the translator itself.

vx32's viability rests on caching translated code fragments and reusing them
whenever the decoder jumps to the same entry point again (paper section 4.2).
This ablation measures the vxz guest decoder under three configurations:

* dynamic translation with the fragment cache (the vx32 model),
* dynamic translation with the cache disabled (every block re-translated),
* the pure instruction-at-a-time interpreter (the portable-emulation bound
  discussed in section 5.4).
"""

from conftest import emit_report

from repro.bench.reporting import format_ratio, format_table
from repro.vm.machine import ENGINE_INTERPRETER, ENGINE_TRANSLATOR, VirtualMachine
from repro.bench.harness import time_callable


def _run(image, encoded, *, engine, use_cache=True):
    vm = VirtualMachine(image, engine=engine, use_fragment_cache=use_cache)
    result = vm.decode(encoded)
    assert result.exit_code == 0
    return result


def test_ablation_fragment_cache(benchmark, workloads):
    workload = workloads["vxz"]
    # Use a small slice of the workload for the no-cache run: re-translating
    # every executed block is extremely slow, which is precisely the point.
    small_encoded = workload.codec.encode(
        workload.codec.decode(workload.encoded)[: workload.original_size // 8]
    )
    image = workload.codec.guest_decoder_image()
    counted = {}

    def run(name, encoded, **config):
        counted[name] = _run(image, encoded, **config).stats

    cached_result = benchmark.pedantic(
        lambda: _run(image, workload.encoded, engine=ENGINE_TRANSLATOR),
        rounds=1, iterations=1,
    )
    cached_seconds = time_callable(
        lambda: run("cached", workload.encoded, engine=ENGINE_TRANSLATOR)
    )
    interpreter_seconds = time_callable(
        lambda: run("interpreter", workload.encoded, engine=ENGINE_INTERPRETER)
    )
    cached_small = time_callable(
        lambda: run("cached_small", small_encoded, engine=ENGINE_TRANSLATOR)
    )
    uncached_small = time_callable(
        lambda: run("uncached_small", small_encoded, engine=ENGINE_TRANSLATOR,
                    use_cache=False)
    )

    stats = cached_result.stats
    hit_rate = stats.fragment_cache_hits / max(
        1, stats.fragment_cache_hits + stats.fragment_cache_misses
    )
    rows = [
        ["translator + fragment cache", f"{cached_seconds * 1000:.0f}ms", "1.00x",
         f"cache hit rate {hit_rate * 100:.2f}%"],
        ["interpreter (no translation)", f"{interpreter_seconds * 1000:.0f}ms",
         format_ratio(interpreter_seconds / cached_seconds), "portable-emulation bound"],
        ["translator, cache disabled (quarter workload)", f"{uncached_small * 1000:.0f}ms",
         format_ratio(uncached_small / cached_small),
         "every block re-scanned and re-translated"],
    ]
    table = format_table(
        ["Configuration", "Decode time", "Relative to cached translator", "Notes"],
        rows,
        title="Ablation: fragment cache and dynamic translation (vxz decoder)",
    )
    emit_report("ablation_fragment_cache", table)

    # The cache must be doing nearly all the work.  What removing the cache
    # or translation costs is gated on what the VM counts, which is exact and
    # repeats; the timings above gate nothing.  Both ablations run the same
    # guest instructions.  The interpreter decodes and dispatches every one
    # of them, over twice as many dispatches as the translator makes
    # fragment executions; without the cache every fragment execution is a
    # translation, over twice as many as the cache needs.
    assert hit_rate > 0.95
    cached, interpreted = counted["cached"], counted["interpreter"]
    small, uncached = counted["cached_small"], counted["uncached_small"]
    assert interpreted.instructions == cached.instructions
    assert interpreted.blocks_executed == interpreted.instructions
    assert interpreted.blocks_executed > 2 * cached.blocks_executed
    assert (uncached.instructions, uncached.blocks_executed) == (
        small.instructions, small.blocks_executed)
    assert uncached.fragments_translated == uncached.blocks_executed
    assert uncached.fragments_translated > 2 * small.fragments_translated
