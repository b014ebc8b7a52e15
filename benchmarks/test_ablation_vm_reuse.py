"""Ablation: VM reuse vs. re-initialisation across many small files.

Paper section 2.4: when an archive contains many files sharing one decoder,
the reader may either re-initialise the VM with a pristine decoder image per
file (safe default) or keep the VM state alive and feed it file after file
through the ``done`` protocol, which "may improve performance, especially on
archives containing many small files" at the cost of potential cross-file
information leakage -- hence the recommendation to re-initialise whenever
security attributes change.
"""

import io

from conftest import emit_report

import repro.api as vxa
from repro.bench.harness import time_callable
from repro.bench.reporting import format_ratio, format_table
from repro.core.policy import SecurityAttributes, VmReusePolicy, reuse_groups
from repro.vm import machine
from repro.vm.machine import ENGINE_TRANSLATOR, VirtualMachine
from repro.workloads.text import synthetic_source_file

NUM_FILES = 20
FILE_SIZE = 600


def test_ablation_vm_reuse(benchmark, registry, monkeypatch):
    codec = registry.get("vxz")
    files = [
        synthetic_source_file(FILE_SIZE, seed=200 + index).encode()
        for index in range(NUM_FILES)
    ]
    encoded_files = [codec.encode(data) for data in files]
    image = codec.guest_decoder_image()

    def decode_fresh_each_time():
        vm = VirtualMachine(image, engine=ENGINE_TRANSLATOR)
        return vm, [vm.decode(encoded, fresh=True) for encoded in encoded_files]

    def decode_with_reuse():
        vm = VirtualMachine(image, engine=ENGINE_TRANSLATOR)
        return vm, vm.decode_many(encoded_files)

    loads = []                  # one entry per image load into a sandbox
    real_load = machine.load_image
    monkeypatch.setattr(machine, "load_image",
                        lambda *args: loads.append(1) or real_load(*args))
    reuse_vm, reuse_results = benchmark.pedantic(decode_with_reuse, rounds=1,
                                                 iterations=1)
    reuse_loads = len(loads)
    fresh_vm, fresh_results = decode_fresh_each_time()
    fresh_loads = len(loads) - reuse_loads
    monkeypatch.undo()
    fresh_seconds = time_callable(decode_fresh_each_time)
    reuse_seconds = time_callable(decode_with_reuse)

    # Same data either way.
    assert ([result.output for result in reuse_results]
            == [result.output for result in fresh_results] == files)

    # Gate on what the VM counts, not on the clock.  Either way every entry
    # is translated exactly once per VM -- code belongs to the image and is
    # kept across re-initialisation -- so what the safe default still pays
    # for is the sandbox: one image load per file against one in all (plus,
    # in both counts, the load a VM's constructor does).  Which file first
    # reaches a path depends on its bits, so the fresh decodes are held to
    # the sum, not to file 1 taking every path.  Both timings are reported
    # below, neither is asserted on.
    fresh_stats = [result.stats for result in fresh_results]
    fresh_translated = sum(stats.fragments_translated for stats in fresh_stats)
    assert [stats.retranslations for stats in fresh_stats] == [0] * NUM_FILES
    reuse_stats = reuse_results[-1].stats   # one run, one stats object
    reuse_translated = reuse_stats.fragments_translated
    assert reuse_stats.retranslations == 0
    assert fresh_translated == len(fresh_vm.code_cache) > 0
    assert reuse_translated == len(reuse_vm.code_cache) > 0
    assert (fresh_loads, reuse_loads) == (1 + NUM_FILES, 1 + 1)

    speedup = fresh_seconds / reuse_seconds
    rows = [
        ["re-initialise per file (safe default)", f"{fresh_seconds * 1000:.0f}ms",
         "1.00x", fresh_translated, fresh_loads],
        ["reuse VM via done protocol", f"{reuse_seconds * 1000:.0f}ms",
         format_ratio(speedup) + " faster", reuse_translated, reuse_loads],
    ]
    table = format_table(
        ["Policy", f"Time for {NUM_FILES} small files", "Relative",
         "Fragments translated", "Image loads"],
        rows,
        title="Ablation: VM reuse vs re-initialisation (paper section 2.4)",
    )

    # End-to-end through the facade: the DecoderSession enforces the policy
    # against each member's recorded security attributes during a whole-
    # archive integrity check, and counts reuse vs re-initialisation.  The
    # members are ``mixed`` in order, 8 files with every 4th private.
    mixed = [(f"batch/file{i}.txt",
              SecurityAttributes(mode=0o644 if i % 4 else 0o600))
             for i in range(8)]
    buffer = io.BytesIO()
    with vxa.create(buffer) as builder:
        for index, (name, attributes) in enumerate(mixed):
            builder.add(name,
                        synthetic_source_file(FILE_SIZE, seed=300 + index).encode(),
                        attributes=attributes)
    session_rows = []
    for policy in VmReusePolicy:
        buffer.seek(0)
        with vxa.open(buffer) as archive:
            report = archive.check(reuse=policy)
        assert report.ok
        session_rows.append([policy.value, len(reuse_groups(mixed, policy)),
                             report.vm_initialisations, report.vm_reuses])
    table += "\n\n" + format_table(
        ["DecoderSession policy", "reuse_groups", "VM initialisations",
         "VM state reuses"],
        session_rows,
        title="Facade integrity check over 8 mixed-attribute files, one shared decoder",
    )
    emit_report("ablation_vm_reuse", table)

    # reuse_groups is the oracle: the session initialises a VM once per
    # group and reuses it for every other member.  Safe default: a pristine
    # image per file.  Full reuse: one initialisation.  Attribute-aware:
    # re-initialise exactly when the protection domain flips, at files 0, 1,
    # 4 and 5.
    assert {row[0]: row[1] for row in session_rows} == {
        "always-fresh": 8, "always-reuse": 1, "reuse-same-attributes": 4}
    for _, groups, initialisations, reuses in session_rows:
        assert (initialisations, reuses) == (groups, 8 - groups)
