"""Ablation: data-sandboxing policy (full vs. write-only vs. none).

Paper section 6.3 discusses RISC software-fault-isolation numbers: full
sandboxing of loads and stores costs 15-20%, sandboxing writes only costs
about 4%, but the weaker model is not acceptable for VXA because a malicious
decoder could *read* secrets out of the archive reader's address space and
leak them into its public output stream.

The VXA VM's memory sandbox has the same three policy points.  This ablation
measures the vxz guest decoder under each policy to show where the checking
cost sits in this implementation, while the accompanying tests
(tests/test_vm_execution.py) show that only the full policy blocks wild reads.
"""

from repro.bench.harness import time_callable
from repro.bench.reporting import format_ratio, format_table
from repro.vm.machine import ENGINE_TRANSLATOR, VirtualMachine
from repro.vm.memory import CHECK_FULL, CHECK_NONE, CHECK_WRITE_ONLY


def _run(image, encoded, policy):
    vm = VirtualMachine(image, engine=ENGINE_TRANSLATOR, check_policy=policy)
    result = vm.decode(encoded)
    assert result.exit_code == 0
    return result


def test_ablation_sandboxing_policy(benchmark, workloads, emit_report):
    workload = workloads["vxz"]
    image = workload.codec.guest_decoder_image()

    benchmark.pedantic(
        lambda: _run(image, workload.encoded, CHECK_FULL), rounds=1, iterations=1
    )
    policies = (CHECK_FULL, CHECK_WRITE_ONLY, CHECK_NONE)
    results = {policy: _run(image, workload.encoded, policy) for policy in policies}
    # Best-of-3 per policy: the superblock engine's policy deltas (guards are
    # elided, not method calls swapped) are a few percent, so single-shot
    # timings would be dominated by scheduler noise.
    timings = {
        policy: time_callable(lambda p=policy: _run(image, workload.encoded, p),
                              repeats=3)
        for policy in policies
    }

    notes = {
        CHECK_FULL: "required for VXA: blocks read snooping and write corruption",
        CHECK_WRITE_ONLY: "RISC-SFI cheap mode (~4% there); leaks reads",
        CHECK_NONE: "no isolation; lower bound on checking cost",
    }
    baseline = timings[CHECK_NONE]
    rows = [
        [policy, f"{seconds * 1000:.0f}ms", format_ratio(seconds / baseline), notes[policy]]
        for policy, seconds in timings.items()
    ]
    table = format_table(
        ["Check policy", "Decode time", "Relative to unchecked", "Notes"],
        rows,
        title="Ablation: memory sandbox policy (paper section 6.3 discussion)",
    )
    emit_report("ablation_sandboxing", table)

    # The policy deltas are inside timing noise, so the table reports them and
    # the gate is what repeats exactly: the policy changes which guards run,
    # never what the guest computes or how many instructions it retires.
    full = results[CHECK_FULL]
    for result in results.values():
        assert result.output == full.output
        assert result.stats.instructions == full.stats.instructions
