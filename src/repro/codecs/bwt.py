"""Burrows-Wheeler transform primitives for the bzip2-class codec.

The forward transform uses a prefix-doubling suffix array built with numpy
(the encoder runs natively inside the archiver, exactly as the paper's
encoders do).  Each doubling round sorts the suffixes by one combined int64
key -- the rank of their first half times a base above every rank, plus the
rank of their second half -- with a stable argsort, and the last column is
one gather of the byte before each sorted suffix.  The run-length pre-pass
finds its runs with a regular expression and copies the bytes between runs
as slices.  The inverse transform -- the part the archived guest decoder
must perform -- uses the standard counting / LF-mapping reconstruction.  The
guest decoder (``repro.codecs.guest.general``) computes the same values the
way bzip2's decoder does.  Its inverse move-to-front leaves the alphabet alone
at rank 0 and otherwise shifts the entries before the rank up by one, four
words per step.  It writes the last column in place with a hole at the
primary row, where the sentinel sorts, and counts each byte as it writes it,
so no separate histogram pass is needed.  A counting sort then places the
rows, and one walk of the LF mapping undoes the run-length layer as the bytes
come out.  Natively the LF mapping is one stable numpy argsort of the column,
and the walk runs over a flat ``array('i')`` of it; a walk that comes back to
the primary row before the block is complete is a ``CodecError`` here and
exit 54 in the guest.  The run-length decoder finds its runs with a regular
expression, as the encoder does, and copies the bytes between them as
slices.
"""

from __future__ import annotations

import re
from array import array

import numpy as np

from repro.errors import CodecError


def suffix_array(data: bytes) -> np.ndarray:
    """Suffix array of ``data`` via prefix doubling (O(n log^2 n))."""
    if len(data) == 0:
        return np.empty(0, dtype=np.int64)
    values = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    return _suffix_array_int(values)


def bwt_forward(block: bytes) -> tuple[bytes, int]:
    """Burrows-Wheeler transform of ``block``.

    Uses the suffix-array formulation with a virtual end-of-block sentinel
    (the sentinel itself is not emitted): returns ``(last_column, primary)``
    where ``primary`` is the row index of the original string, needed for the
    inverse transform.
    """
    if not block:
        return b"", 0
    # Transform of block + sentinel, where the sentinel sorts before all bytes.
    length = len(block)
    data = np.frombuffer(block, dtype=np.uint8).astype(np.int64) + 1
    padded = np.concatenate([data, np.zeros(1, dtype=np.int64)])
    order = _suffix_array_int(padded)
    # The row of the whole string ends in the sentinel: it is skipped, and
    # where it was is the primary index.
    primary_rows = np.flatnonzero(order == 0)
    if len(primary_rows) != 1:
        raise CodecError("BWT failed to locate the primary index")
    primary = int(primary_rows[0])
    column = np.delete(padded[order - 1], primary) - 1
    assert len(column) == length
    return column.astype(np.uint8).tobytes(), primary


def _suffix_array_int(values: np.ndarray) -> np.ndarray:
    """Prefix doubling: each round sorts the suffixes by one int64 key, the
    rank of their first ``step`` symbols times the largest rank plus two, plus
    the rank of the next ``step`` symbols plus one (0 past the end).  The key
    stays below ``(n + 1) ** 2`` for ``n`` symbols."""
    length = len(values)
    rank = values.copy()
    step = 1
    while True:
        shifted = np.zeros(length, dtype=np.int64)
        if step < length:
            shifted[:-step] = rank[step:] + 1
        key = rank * (int(rank.max()) + 2) + shifted
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        changes = np.empty(length, dtype=np.int64)
        changes[0] = 0
        changes[1:] = (sorted_key[1:] != sorted_key[:-1]).cumsum()
        rank = np.empty(length, dtype=np.int64)
        rank[order] = changes
        if changes[-1] == length - 1:
            return order
        step *= 2


def bwt_inverse(last_column: bytes, primary: int) -> bytes:
    """Invert the BWT using the counting / LF-mapping method.

    ``primary`` is the position (within ``last_column``) where the sentinel
    row was skipped during the forward transform.
    """
    length = len(last_column)
    if length == 0:
        return b""
    if not 0 <= primary <= length:
        raise CodecError("BWT primary index out of range")
    # Reinsert the virtual sentinel, which sorts before every byte, at row
    # `primary`; the LF mapping is one stable argsort of the column.
    keys = np.empty(length + 1, dtype=np.int16)
    keys[:primary] = np.frombuffer(last_column, dtype=np.uint8, count=primary)
    keys[primary] = -1
    keys[primary + 1 :] = np.frombuffer(last_column, dtype=np.uint8, offset=primary)
    order = np.argsort(keys, kind="stable").astype(np.int32)
    del keys
    lf = array("i")
    lf.frombytes(order.view(np.uint8))
    del order
    column = last_column[:primary] + b"\0" + last_column[primary:]
    output = bytearray(length)
    row = primary
    for index in range(length):
        row = lf[row]
        if row == primary:
            raise CodecError("BWT walk returns to the primary row early")
        output[index] = column[row]
    return bytes(output)


def mtf_encode(data: bytes) -> bytes:
    """Move-to-front transform."""
    alphabet = list(range(256))
    output = bytearray(len(data))
    for index, byte in enumerate(data):
        rank = alphabet.index(byte)
        output[index] = rank
        if rank:
            del alphabet[rank]
            alphabet.insert(0, byte)
    return bytes(output)


def mtf_decode(data: bytes) -> bytes:
    """Inverse move-to-front transform."""
    alphabet = list(range(256))
    output = bytearray(len(data))
    for index, rank in enumerate(data):
        byte = alphabet[rank]
        output[index] = byte
        if rank:
            del alphabet[rank]
            alphabet.insert(0, byte)
    return bytes(output)


#: Identical bytes that make a run, and the most extra repeats one count byte
#: holds: the stream format the archived vxbwt decoder reads.
RLE_TRIGGER = 4
RLE_MAX_RUN = 255

#: Runs of RLE_TRIGGER (four) identical bytes or more, each as long as it goes.
_RUNS = re.compile(rb"(.)\1{3,}", re.S)
#: Four identical bytes and the count byte after them, if there is one.
_RUN_COUNTS = re.compile(rb"(.)\1{3}(.)?", re.S)


def rle_encode(data: bytes) -> bytes:
    """bzip2-style initial run-length encoding.

    Runs of four identical bytes are followed by a count byte giving how many
    *additional* repeats (0..255) follow.  This protects the BWT sorter from
    degenerate inputs and is exactly what the guest decoder undoes.  A run
    longer than ``RLE_TRIGGER + RLE_MAX_RUN`` is cut into runs that long and
    a remainder, which is a run of its own only if four bytes or more.
    """
    output = bytearray()
    longest = RLE_TRIGGER + RLE_MAX_RUN
    copied = 0
    for run in _RUNS.finditer(data):
        start, end = run.span()
        output += data[copied:start]
        byte = data[start : start + 1]
        full, rest = divmod(end - start, longest)
        output += (byte * RLE_TRIGGER + bytes((RLE_MAX_RUN,))) * full
        if rest >= RLE_TRIGGER:
            output += byte * RLE_TRIGGER + bytes((rest - RLE_TRIGGER,))
        else:
            output += byte * rest
        copied = end
    output += data[copied:]
    return bytes(output)


def rle_decode(data: bytes) -> bytes:
    """Inverse of :func:`rle_encode`: each run of four identical bytes is
    followed by its count byte, and the next run starts after that byte."""
    output = bytearray()
    copied = 0
    for run in _RUN_COUNTS.finditer(data):
        if run.group(2) is None:
            raise CodecError("truncated RLE run count")
        end = run.end()
        output += data[copied : end - 1]
        output += run.group(1) * data[end - 1]
        copied = end
    output += data[copied:]
    return bytes(output)
