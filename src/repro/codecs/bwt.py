"""Burrows-Wheeler transform primitives for the bzip2-class codec.

The forward transform uses a prefix-doubling suffix array built with numpy
(the encoder runs natively inside the archiver, exactly as the paper's
encoders do).  The inverse transform -- the part the archived guest decoder
must perform -- uses the standard counting / LF-mapping reconstruction.  The
guest decoder (``repro.codecs.guest.general``) computes the same values the
way bzip2's decoder does.  Its inverse move-to-front leaves the alphabet alone
at rank 0 and otherwise shifts the entries before the rank up by one, four
words per step.  It writes the last column in place with a hole at the
primary row, where the sentinel sorts, and counts each byte as it writes it,
so no separate histogram pass is needed.  A counting sort then places the
rows, and one walk of the LF mapping undoes the run-length layer as the bytes
come out.
"""

from __future__ import annotations

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
    output = bytearray()
    primary = -1
    for row, start in enumerate(order):
        if start == 0:
            # This row's last character is the sentinel; skip it but remember
            # where the original string ended up.
            primary = len(output)
            continue
        output.append(int(padded[start - 1]) - 1)
    if primary < 0:
        raise CodecError("BWT failed to locate the primary index")
    assert len(output) == length
    return bytes(output), primary


def _suffix_array_int(values: np.ndarray) -> np.ndarray:
    length = len(values)
    rank = values.copy()
    order = np.argsort(rank, kind="stable")
    step = 1
    while True:
        shifted = np.full(length, -1, dtype=np.int64)
        if step < length:
            shifted[:-step] = rank[step:]
        order = np.lexsort((shifted, rank))
        sorted_rank = rank[order]
        sorted_shift = shifted[order]
        changes = np.empty(length, dtype=np.int64)
        changes[0] = 0
        changes[1:] = (
            (sorted_rank[1:] != sorted_rank[:-1]) | (sorted_shift[1:] != sorted_shift[:-1])
        ).cumsum()
        new_rank = np.empty(length, dtype=np.int64)
        new_rank[order] = changes
        rank = new_rank
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
    # Reinsert the virtual sentinel as symbol -1 at position `primary`.
    symbols = np.empty(length + 1, dtype=np.int64)
    symbols[:primary] = np.frombuffer(last_column[:primary], dtype=np.uint8)
    symbols[primary] = -1
    symbols[primary + 1 :] = np.frombuffer(last_column[primary:], dtype=np.uint8)
    order = np.argsort(symbols, kind="stable")
    output = bytearray(length)
    row = primary
    for index in range(length):
        row = int(order[row])
        output[index] = int(symbols[row])
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


def rle_encode(data: bytes) -> bytes:
    """bzip2-style initial run-length encoding.

    Runs of four identical bytes are followed by a count byte giving how many
    *additional* repeats (0..255) follow.  This protects the BWT sorter from
    degenerate inputs and is exactly what the guest decoder undoes.
    """
    output = bytearray()
    index = 0
    length = len(data)
    longest = RLE_TRIGGER + RLE_MAX_RUN
    while index < length:
        byte = data[index]
        run = 1
        while index + run < length and data[index + run] == byte and run < longest:
            run += 1
        if run >= RLE_TRIGGER:
            output.extend(bytes([byte]) * RLE_TRIGGER)
            output.append(run - RLE_TRIGGER)
            index += run
        else:
            output.extend(bytes([byte]) * run)
            index += run
    return bytes(output)


def rle_decode(data: bytes) -> bytes:
    """Inverse of :func:`rle_encode`."""
    output = bytearray()
    index = 0
    length = len(data)
    run = 0
    previous = -1
    while index < length:
        byte = data[index]
        index += 1
        output.append(byte)
        if byte == previous:
            run += 1
        else:
            run = 1
            previous = byte
        if run == RLE_TRIGGER:
            if index >= length:
                raise CodecError("truncated RLE run count")
            extra = data[index]
            index += 1
            output.extend(bytes([byte]) * extra)
            run = 0
            previous = -1
    return bytes(output)
