"""Deterministic fault injection for extraction robustness drills.

The containment layer (per-member salvage, worker crash recovery, member
deadlines) is only trustworthy if its failure paths are *provoked on
purpose* and asserted against.  This package provides a seeded, frozen,
picklable :class:`FaultPlan` that the read path consults at well-defined
hook points, behind ``ReadOptions.fault_plan``:

* ``corrupt-payload`` -- flip one deterministic byte of a member's encoded
  payload before it reaches the decoder (surfaces as the same
  :class:`~repro.errors.IntegrityError`/codec failure a truly corrupt
  archive would produce);
* ``syscall-error`` -- raise :class:`~repro.errors.InjectedFault` at the
  member's Nth virtual system call;
* ``exhaust-fuel`` -- cap the member's instruction budget at a tiny value
  so the run dies with :class:`~repro.errors.ResourceLimitExceeded`;
* ``kill-worker`` -- terminate the worker mid-member: a process-pool
  worker exits hard (``os._exit``), a thread/serial worker raises
  :class:`~repro.errors.WorkerCrashed` (the nearest simulation that keeps
  the test process alive);
* ``delay-io`` -- sleep before the member is read, to widen race windows.

With ``fault_plan=None`` (the default everywhere) every hook is a no-op
and no code below imports this package.

Determinism has two parts.  Faults *target* members by exact name, and any
derived value (which payload byte flips, with what) is a pure function of
``(seed, member)``.  Faults that must fire a bounded number of ``times``
(e.g. "kill the worker twice, then let the member through" -- the retry
budget drill) claim firings through a filesystem *ledger* directory with
atomic ``O_EXCL`` slot files, so the count survives the very worker deaths
the plan causes and is race-free across processes.  Plans without bounded
specs need no ledger.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, field

from repro.errors import VxaError

KIND_CORRUPT_PAYLOAD = "corrupt-payload"
KIND_SYSCALL_ERROR = "syscall-error"
KIND_EXHAUST_FUEL = "exhaust-fuel"
KIND_KILL_WORKER = "kill-worker"
KIND_DELAY_IO = "delay-io"

_KINDS = (KIND_CORRUPT_PAYLOAD, KIND_SYSCALL_ERROR, KIND_EXHAUST_FUEL,
          KIND_KILL_WORKER, KIND_DELAY_IO)

#: Instruction budget an ``exhaust-fuel`` fault imposes when the spec does
#: not pick one: enough to boot a decoder's first blocks, never enough to
#: finish a real member.
DEFAULT_FUEL = 10_000

#: Process exit status of a ``kill-worker`` firing in a process-pool worker.
KILL_EXIT_STATUS = 87

#: In-process firing counters for ledger-less plans (thread/serial
#: executors, where workers share this process and survive their "death").
_LOCAL_COUNTS: dict = {}
_LOCAL_LOCK = threading.Lock()


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault against one member.

    Attributes:
        member: exact member name the fault targets.
        kind: one of the ``KIND_*`` constants.
        at: kind-specific intensity -- the Nth syscall for
            ``syscall-error`` (1-based, default first), the instruction
            budget for ``exhaust-fuel`` (default :data:`DEFAULT_FUEL`).
        times: fire at most this many observations (``None`` = every
            time).  Bounded specs need the plan's ledger to stay exact
            across worker deaths.
        delay: seconds to sleep for ``delay-io``.
    """

    member: str
    kind: str
    at: int = 0
    times: int | None = None
    delay: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be at least 1")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable set of :class:`FaultSpec` injections.

    Frozen so it can ride inside a frozen ``ReadOptions`` and cross the
    process-pool pickle boundary.  All mutable firing state lives in the
    ledger directory (or the module-local counter table), never on the
    plan.
    """

    specs: tuple = field(default_factory=tuple)
    seed: int = 0
    ledger: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError("specs must be FaultSpec instances")

    # -- firing bookkeeping ------------------------------------------------

    def _find(self, member: str, kind: str) -> FaultSpec | None:
        for spec in self.specs:
            if spec.member == member and spec.kind == kind:
                return spec
        return None

    def _slot_key(self, spec: FaultSpec) -> str:
        digest = hashlib.sha256(
            f"{self.seed}:{spec.kind}:{spec.member}".encode()).hexdigest()
        return digest[:24]

    def _claim(self, spec: FaultSpec) -> bool:
        """Atomically claim one firing of ``spec``; False once exhausted.

        Unbounded specs (``times=None``) always fire and keep no state.
        Bounded specs claim a slot file in the ledger directory --
        ``O_CREAT|O_EXCL`` is atomic across processes, and files survive
        the claiming worker's death -- or, without a ledger, a counter in
        this process (sufficient for thread/serial executors).
        """
        if spec.times is None:
            return True
        key = self._slot_key(spec)
        if self.ledger is None:
            with _LOCAL_LOCK:
                fired = _LOCAL_COUNTS.get(key, 0)
                if fired >= spec.times:
                    return False
                _LOCAL_COUNTS[key] = fired + 1
                return True
        os.makedirs(self.ledger, exist_ok=True)
        for slot in range(spec.times):
            path = os.path.join(self.ledger, f"{key}.{slot}")
            try:
                handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(handle)
            return True
        return False

    # -- hook queries (all no-ops for untargeted members) ------------------

    def corrupt(self, member: str, payload: bytes) -> bytes:
        """The member's payload, with one deterministic byte flipped."""
        spec = self._find(member, KIND_CORRUPT_PAYLOAD)
        if spec is None or not payload or not self._claim(spec):
            return payload
        digest = hashlib.sha256(f"{self.seed}:{member}".encode()).digest()
        position = int.from_bytes(digest[:4], "little") % len(payload)
        flip = digest[4] | 1        # never zero: the byte always changes
        corrupted = bytearray(payload)
        corrupted[position] ^= flip
        return bytes(corrupted)

    def fuel_limit(self, member: str) -> int | None:
        """Instruction budget override for ``exhaust-fuel``, or ``None``."""
        spec = self._find(member, KIND_EXHAUST_FUEL)
        if spec is None or not self._claim(spec):
            return None
        return spec.at or DEFAULT_FUEL

    def syscall_fault_at(self, member: str) -> int | None:
        """1-based syscall ordinal to fault at, or ``None``."""
        spec = self._find(member, KIND_SYSCALL_ERROR)
        if spec is None or not self._claim(spec):
            return None
        return spec.at or 1

    def io_delay(self, member: str) -> None:
        """Sleep the planned ``delay-io`` interval before reading ``member``."""
        spec = self._find(member, KIND_DELAY_IO)
        if spec is None or spec.delay <= 0 or not self._claim(spec):
            return
        time.sleep(spec.delay)

    def kill_worker(self, member: str) -> None:
        """Fire a planned ``kill-worker`` fault, if one is due.

        In a process-pool worker the process exits hard (the parent sees
        ``BrokenProcessPool``, exactly like a real segfault/OOM kill); in a
        thread worker or the serial path it raises
        :class:`~repro.errors.WorkerCrashed`, which the pool and the
        salvage loop treat as the same event.
        """
        spec = self._find(member, KIND_KILL_WORKER)
        if spec is None or not self._claim(spec):
            return
        from repro.errors import WorkerCrashed
        from repro.parallel.worker import in_process_worker

        if in_process_worker():
            os._exit(KILL_EXIT_STATUS)
        raise WorkerCrashed(
            f"fault injection killed the worker processing {member!r}",
            member=member,
        )


class FaultPlanError(VxaError):
    """A fault plan could not be parsed or applied."""


from repro.faults.media import (  # noqa: E402  -- re-export after FaultPlanError
    TornFinalize,
    flip_bytes,
    truncate_tail,
)

__all__ = [
    "DEFAULT_FUEL",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "KILL_EXIT_STATUS",
    "KIND_CORRUPT_PAYLOAD",
    "KIND_DELAY_IO",
    "KIND_EXHAUST_FUEL",
    "KIND_KILL_WORKER",
    "KIND_SYSCALL_ERROR",
    "TornFinalize",
    "flip_bytes",
    "truncate_tail",
]
