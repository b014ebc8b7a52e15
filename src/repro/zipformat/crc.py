"""CRC-32 (IEEE 802.3 / ZIP polynomial), the one checksum name every layer imports.

The ZIP container stores a CRC-32 for every member; vxUnZIP uses it both for
normal extraction checks and for the archive integrity test that always runs
the archived VXA decoder (paper section 2.3).  ``zlib`` computes it: the
container already needs ``zlib`` for deflate, and a table loop in Python cost
108 ms per MiB against 0.3 ms, which made the container dearer than decoding.
The table-driven algorithm lives on in ``tests/test_zipformat.py`` as the
independent oracle this function is checked against.
"""

from __future__ import annotations

import zlib


def crc32(data: bytes, value: int = 0) -> int:
    """Compute (or continue) a CRC-32 over ``data``.

    ``value`` is a previously returned CRC to continue from, allowing
    streaming use: ``crc32(b, crc32(a)) == crc32(a + b)``.
    """
    return zlib.crc32(data, value)
