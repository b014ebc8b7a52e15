"""Execution resource limits for guest decoders.

The paper's threat model (section 2.4) assumes a decoder may be buggy or
actively malicious.  Besides memory isolation, a practical archive reader
must also bound how much CPU time and output a decoder may consume, so a
malicious decoder cannot wedge the reader in an infinite loop or fill the
disk.  vx32 leaves this to the embedding application; here the limits are an
explicit, testable part of the VM contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class ExecutionLimits:
    """Resource ceilings applied to one decoder run.

    Attributes:
        max_instructions: guest instructions allowed before the run is
            aborted with :class:`~repro.errors.ResourceLimitExceeded`.
            ``None`` means unlimited.
        max_output_bytes: bytes the decoder may write to stdout.  ``None``
            means unlimited.
        max_stderr_bytes: bytes of diagnostics the decoder may emit.
        max_memory_bytes: ceiling for ``setperm`` growth; also caps the
            initial sandbox size.
        max_fragments: ceiling on distinct translated fragments in one cache.
            Code is immutable, so their number is bounded by the text length
            anyway; this caps what one large hostile image can make it hold.
        max_wall_seconds: wall-clock deadline for one decoder run.  The
            engines piggyback a cheap time check on their existing fuel
            checks, so a decoder wedged in a loop raises
            :class:`~repro.errors.DeadlineExceeded` within one check
            quantum of the deadline instead of burning its whole (huge)
            instruction budget.  ``None`` (default) disables the check.
    """

    max_instructions: int | None = 2_000_000_000
    max_output_bytes: int | None = 1 << 31
    max_stderr_bytes: int = 1 << 16
    max_memory_bytes: int = 64 << 20
    max_fragments: int = 1 << 20
    max_wall_seconds: float | None = None

    def scaled_for_input(self, input_size: int) -> "ExecutionLimits":
        """Derive limits proportional to the encoded input size.

        Archive readers use this so that a tiny malicious file cannot request
        an enormous amount of work: the instruction budget grows linearly
        with the encoded size, with a generous floor.
        """
        budget = max(200_000_000, input_size * 40_000)
        output = max(1 << 26, input_size * 4096)
        # Scaling provides a *floor* proportional to the input; it must never
        # raise an explicitly configured ceiling.
        if self.max_instructions is not None:
            budget = min(budget, self.max_instructions)
        if self.max_output_bytes is not None:
            output = min(output, self.max_output_bytes)
        return ExecutionLimits(
            max_instructions=budget,
            max_output_bytes=output,
            max_stderr_bytes=self.max_stderr_bytes,
            max_memory_bytes=self.max_memory_bytes,
            max_fragments=self.max_fragments,
            max_wall_seconds=self.max_wall_seconds,
        )


@dataclass
class ExecutionStats:
    """Counters collected while running a decoder.

    These feed the Figure 7 / ablation benchmarks and the VM's own tests.
    """

    instructions: int = 0
    blocks_executed: int = 0
    fragments_translated: int = 0
    fragment_cache_hits: int = 0
    fragment_cache_misses: int = 0
    chained_branches: int = 0       # transitions over back-patched direct edges
    retranslations: int = 0         # entries translated again: their guard bailed
    guards_elided: int = 0          # guards dropped on proofs, at emitted sites
    syscalls: dict[str, int] = field(default_factory=dict)
    bytes_read: int = 0
    bytes_written: int = 0
    streams_decoded: int = 0

    def record_syscall(self, name: str) -> None:
        self.syscalls[name] = self.syscalls.get(name, 0) + 1

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate ``other`` into this stats object (for multi-file runs)."""
        for counter in fields(self):
            if counter.name != "syscalls":
                setattr(self, counter.name,
                        getattr(self, counter.name) + getattr(other, counter.name))
        for name, count in other.syscalls.items():
            self.syscalls[name] = self.syscalls.get(name, 0) + count
