"""The virtual system call layer between guest decoders and the archive reader.

Paper section 4.3: only five virtual system calls are available to decoders
running under vxUnZIP -- ``read``, ``write``, ``exit``, ``setperm`` and
``done`` -- and only three virtual file handles: stdin (the encoded stream),
stdout (the decoded stream) and stderr (diagnostics).  A decoder is "a
traditional Unix filter in a very pure form".

The handler lives host-side.  Because the guest's address space is a region
the host can address directly, servicing ``read``/``write`` requires no
extra data copies beyond moving bytes between the host streams and the
guest's buffer, mirroring the paper's no-copy argument.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable

from repro.errors import InjectedFault, ResourceLimitExceeded, SyscallFault
from repro.isa.opcodes import FD_STDERR, FD_STDIN, FD_STDOUT, Vxcall
from repro.vm.limits import ExecutionLimits, ExecutionStats
from repro.vm.memory import GuestMemory

#: Guest-visible errno-style results (returned in R0 as negative values).
EBADF = -9
EFAULT = -14
EINVAL = -22
ENOMEM = -12

#: Dispatch outcomes.
ACTION_CONTINUE = "continue"
ACTION_EXIT = "exit"

#: Cap on a single read/write transfer, to bound host-side buffering.
MAX_TRANSFER = 1 << 20


@dataclass
class StreamSet:
    """The three virtual file handles bound to one decoding run."""

    stdin: io.BufferedIOBase
    stdout: io.BufferedIOBase
    stderr: io.BufferedIOBase

    @classmethod
    def from_bytes(cls, encoded: bytes) -> "StreamSet":
        """Convenience constructor: decode ``encoded`` into in-memory buffers."""
        return cls(
            stdin=io.BytesIO(encoded),
            stdout=io.BytesIO(),
            stderr=io.BytesIO(),
        )


class SyscallHandler:
    """Dispatches guest ``VXCALL`` traps.

    Args:
        memory: the guest sandbox (buffers are validated against it).
        limits: resource ceilings for this run.
        stats: counters updated as calls are serviced.
        streams: the bound stdin/stdout/stderr.
        on_done: callback invoked when the guest issues ``done``; it should
            rebind ``streams`` to the next encoded stream and return ``True``,
            or return ``False`` if no further streams are available.
        fault_at: fault-injection hook (:mod:`repro.faults`): raise
            :class:`~repro.errors.InjectedFault` when the guest issues its
            Nth (1-based) virtual system call.  ``None`` in production.
    """

    def __init__(
        self,
        memory: GuestMemory,
        limits: ExecutionLimits,
        stats: ExecutionStats,
        streams: StreamSet,
        on_done: Callable[[], bool] | None = None,
        fault_at: int | None = None,
    ):
        self._memory = memory
        self._limits = limits
        self._stats = stats
        self.streams = streams
        self._on_done = on_done
        self._stderr_bytes = 0
        self._fault_at = fault_at
        self._dispatched = 0
        self.exit_code: int | None = None

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, number: int, arg1: int, arg2: int, arg3: int) -> tuple[int, str]:
        """Service one virtual system call.

        Returns ``(result, action)`` where ``result`` goes back to the guest
        in R0 and ``action`` is :data:`ACTION_CONTINUE` or :data:`ACTION_EXIT`.
        """
        try:
            call = Vxcall(number)
        except ValueError:
            raise SyscallFault(f"unknown virtual system call number {number}") from None
        self._dispatched += 1
        if self._fault_at is not None and self._dispatched == self._fault_at:
            raise InjectedFault(
                f"injected fault at virtual system call #{self._dispatched} "
                f"({call.name.lower()})"
            )
        self._stats.record_syscall(call.name.lower())
        if call is Vxcall.EXIT:
            self.exit_code = _signed(arg1)
            return 0, ACTION_EXIT
        if call is Vxcall.READ:
            return self._read(_signed(arg1), arg2, arg3), ACTION_CONTINUE
        if call is Vxcall.WRITE:
            return self._write(_signed(arg1), arg2, arg3), ACTION_CONTINUE
        if call is Vxcall.SETPERM:
            return self._setperm(arg1), ACTION_CONTINUE
        # DONE
        return self._done(), ACTION_CONTINUE

    # -- individual calls ------------------------------------------------------

    def _read(self, fd: int, buffer: int, count: int) -> int:
        if fd != FD_STDIN:
            return EBADF
        if count < 0:
            return EINVAL
        count = min(count, MAX_TRANSFER)
        try:
            self._memory.check_range(buffer, count, write=True)
        except Exception:
            return EFAULT
        data = self.streams.stdin.read(count)
        if data:
            self._memory.write_bytes(buffer, data)
            self._stats.bytes_read += len(data)
        return len(data)

    def _write(self, fd: int, buffer: int, count: int) -> int:
        if fd not in (FD_STDOUT, FD_STDERR):
            return EBADF
        if count < 0:
            return EINVAL
        count = min(count, MAX_TRANSFER)
        try:
            self._memory.check_range(buffer, count, write=False)
        except Exception:
            return EFAULT
        data = self._memory.read_bytes(buffer, count)
        if fd == FD_STDERR:
            remaining = self._limits.max_stderr_bytes - self._stderr_bytes
            data = data[: max(0, remaining)]
            self._stderr_bytes += len(data)
            self.streams.stderr.write(data)
            return count  # pretend full write so chatty decoders do not loop
        if self._limits.max_output_bytes is not None:
            if self._stats.bytes_written + len(data) > self._limits.max_output_bytes:
                raise ResourceLimitExceeded(
                    "decoder exceeded its output budget "
                    f"({self._limits.max_output_bytes} bytes)"
                )
        self.streams.stdout.write(data)
        self._stats.bytes_written += len(data)
        return len(data)

    def _setperm(self, new_size: int) -> int:
        if new_size > self._limits.max_memory_bytes:
            return ENOMEM
        try:
            return self._memory.grow(new_size)
        except ResourceLimitExceeded:
            return ENOMEM

    def _done(self) -> int:
        if self._on_done is None:
            return -1
        has_more = self._on_done()
        return 0 if has_more else -1


def _signed(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value
