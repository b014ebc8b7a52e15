"""The VXA virtual machine (vx32 analogue): sandboxed execution of decoders."""

from repro.vm.code_cache import CodeCache
from repro.vm.limits import ExecutionLimits, ExecutionStats
from repro.vm.machine import (
    DecodeResult,
    ENGINE_INTERPRETER,
    ENGINE_TRANSLATOR,
    VirtualMachine,
)
from repro.vm.memory import (
    CHECK_FULL,
    CHECK_NONE,
    CHECK_WRITE_ONLY,
    DEFAULT_MEMORY_SIZE,
    GUEST_ADDRESS_SPACE_LIMIT,
    GuestMemory,
)
from repro.vm.syscalls import StreamSet, SyscallHandler

__all__ = [
    "CodeCache",
    "ExecutionLimits",
    "ExecutionStats",
    "DecodeResult",
    "ENGINE_INTERPRETER",
    "ENGINE_TRANSLATOR",
    "VirtualMachine",
    "CHECK_FULL",
    "CHECK_NONE",
    "CHECK_WRITE_ONLY",
    "DEFAULT_MEMORY_SIZE",
    "GUEST_ADDRESS_SPACE_LIMIT",
    "GuestMemory",
    "StreamSet",
    "SyscallHandler",
]
