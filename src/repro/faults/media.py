"""Deterministic media-level faults: the chaos substrate for durability tests.

PR 7's :class:`~repro.faults.FaultPlan` injects faults into *execution*
(decoder runs, workers, syscalls); this module injects faults into the
*archive bytes themselves* -- the torn writes, truncated downloads and
bitrot that the durability layer (commit records, salvage reads,
``vxunzip repair``) exists to survive.  Every fault is a pure function of
its arguments: the same ``(offset, count, seed)`` always produces the same
damaged bytes, so a failing chaos case replays exactly.

Faults:

* :func:`truncate_tail` -- drop the last N bytes (torn download, lost tail
  cache pages);
* :func:`flip_bytes` -- XOR deterministic nonzero masks over a byte range
  (bitrot, a bad sector);
* ``torn-finalize`` -- not a byte transform but an injection point inside
  the builder's durable finalize (``WriteOptions.finalize_fault``), which
  simulates crashing before fsync, before the atomic rename, or halfway
  through writing the central directory, raising :class:`TornFinalize`.
"""

from __future__ import annotations

import hashlib

from repro.errors import VxaError


class TornFinalize(VxaError):
    """A (simulated) crash interrupted the durable finalize sequence.

    Raised by the builder when ``WriteOptions.finalize_fault`` fires: the
    destination path was never renamed into place, and the temp file is
    left exactly as the crash would have left it.  Pickle-safe by
    construction (message-only), so process pools propagate it intact.
    """


def truncate_tail(data: bytes, drop: int) -> bytes:
    """Drop the final ``drop`` bytes (``drop >= len(data)`` leaves nothing)."""
    if drop < 0:
        raise ValueError("drop must be non-negative")
    if drop == 0:
        return data
    return data[:-drop] if drop < len(data) else b""


def flip_bytes(data: bytes, offset: int, count: int, seed: int = 0) -> bytes:
    """XOR ``count`` bytes at ``offset`` with deterministic nonzero masks.

    The masks derive from SHA-256 of the seed, remapped so no mask byte is
    zero -- every targeted byte really changes, so a fault is never
    silently a no-op.
    """
    if count <= 0:
        return data
    if not 0 <= offset < len(data):
        raise ValueError(f"flip offset {offset} outside data of {len(data)} bytes")
    count = min(count, len(data) - offset)
    masks = bytearray()
    counter = 0
    while len(masks) < count:
        block = hashlib.sha256(f"{seed}:{counter}".encode()).digest()
        masks += bytes((b % 255) + 1 for b in block)
        counter += 1
    damaged = bytearray(data)
    for index in range(count):
        damaged[offset + index] ^= masks[index]
    return bytes(damaged)


__all__ = [
    "TornFinalize",
    "flip_bytes",
    "truncate_tail",
]
