"""LZ77 string matching with hash chains.

This is the string-matching half of the ``vxz`` general-purpose codec (the
deflate-class codec of Table 1).  Match lengths and distances use the same
slot-plus-extra-bits ranges as DEFLATE so the compressed streams have the
familiar structure.

:func:`tokenize` keeps every position, in order, on the chain of its first
three bytes -- the bytes themselves are the key, so every candidate on a
chain shares them -- and walks a chain newest first, the way zlib's
``longest_match`` does.  A candidate whose byte at offset ``best_length``
differs from the current position's (zlib's ``scan_end`` test) cannot beat
the best match and is passed over.  One that survives has its prefix checked
with one slice comparison and is extended by slice comparisons, a chunk at a
time.  A literal comes out as the byte, an ``int``, and a match as a
``(length, distance)`` tuple.  A length finds its slot in a table, a distance
by bit arithmetic.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice

#: Matching parameters (same ranges as DEFLATE).
MIN_MATCH = 3
MAX_MATCH = 258
WINDOW_SIZE = 32 * 1024

#: Length slots: (base_length, extra_bits) for symbols 257.. (DEFLATE table).
LENGTH_SLOTS = (
    (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0), (9, 0), (10, 0),
    (11, 1), (13, 1), (15, 1), (17, 1), (19, 2), (23, 2), (27, 2), (31, 2),
    (35, 3), (43, 3), (51, 3), (59, 3), (67, 4), (83, 4), (99, 4), (115, 4),
    (131, 5), (163, 5), (195, 5), (227, 5), (258, 0),
)

#: Distance slots: (base_distance, extra_bits) (DEFLATE table).
DISTANCE_SLOTS = (
    (1, 0), (2, 0), (3, 0), (4, 0), (5, 1), (7, 1), (9, 2), (13, 2),
    (17, 3), (25, 3), (33, 4), (49, 4), (65, 5), (97, 5), (129, 6), (193, 6),
    (257, 7), (385, 7), (513, 8), (769, 8), (1025, 9), (1537, 9),
    (2049, 10), (3073, 10), (4097, 11), (6145, 11), (8193, 12), (12289, 12),
    (16385, 13), (24577, 13),
)

#: Number of literal/length symbols: 256 literals + end-of-block + length slots.
END_OF_BLOCK = 256
NUM_LITLEN_SYMBOLS = 257 + len(LENGTH_SLOTS)
NUM_DISTANCE_SYMBOLS = len(DISTANCE_SLOTS)


#: ``(slot_index, extra_bits, extra_value)`` of every match length, indexed
#: by the length (``None`` below :data:`MIN_MATCH`).
_LENGTH_CODES: list[tuple[int, int, int] | None] = [None] * MIN_MATCH + [
    (slot, extra, length - base)
    for slot, ((base, extra), (end, _)) in enumerate(
        zip(LENGTH_SLOTS, LENGTH_SLOTS[1:] + ((MAX_MATCH + 1, 0),)))
    for length in range(base, end)
]

#: Bytes a surviving candidate is extended by per slice comparison.
_EXTEND_CHUNK = 16


def length_to_slot(length: int) -> tuple[int, int, int]:
    """Map a match length to ``(slot_index, extra_bits, extra_value)``."""
    if not MIN_MATCH <= length <= MAX_MATCH:
        raise ValueError(f"match length {length} out of range")
    return _LENGTH_CODES[length]


def distance_to_slot(distance: int) -> tuple[int, int, int]:
    """Map a match distance to ``(slot_index, extra_bits, extra_value)``.

    Past the first four slots each power of two of ``distance - 1`` spans two
    slots, told apart by the bit below its top bit.
    """
    if not 1 <= distance <= WINDOW_SIZE:
        raise ValueError(f"distance {distance} out of range")
    x = distance - 1
    if x < 4:
        slot = x
    else:
        top = x.bit_length()
        slot = 2 * (top - 1) + ((x >> (top - 2)) & 1)
    base, extra = DISTANCE_SLOTS[slot]
    return slot, extra, distance - base


def tokenize(data: bytes, *, max_chain: int = 64,
             lazy: bool = True) -> list[int | tuple[int, int]]:
    """Greedy/lazy LZ77 parse of ``data`` into literals and matches.

    Args:
        data: input bytes.
        max_chain: hash-chain positions examined per match attempt (the
            compression-level knob).
        lazy: enable one-step lazy matching, as zlib does at higher levels.

    Returns:
        Literals as the byte's ``int``, matches as ``(length, distance)``.
    """
    data = bytes(data)   # slices of it are the chain keys
    length = len(data)
    tokens: list[int | tuple[int, int]] = []
    # Every position with three bytes left, in order, under those bytes.
    chains: defaultdict[bytes, list[int]] = defaultdict(list)
    last_keyed = length - MIN_MATCH
    chain_length = max(max_chain, 0)

    def find_match(index: int) -> tuple[int, int]:
        """Return (best_length, best_distance) for position ``index``."""
        if index > last_keyed:
            return 0, 0
        chain = chains.get(data[index : index + MIN_MATCH])
        if chain is None:
            return 0, 0
        floor = index - WINDOW_SIZE
        limit = min(MAX_MATCH, length - index)
        best_length = 0
        best_distance = 0
        scan_end = data[index]
        prefix = b""
        for candidate in islice(reversed(chain), chain_length):
            if candidate < floor:
                break
            if (data[candidate + best_length] == scan_end
                    and data[candidate : candidate + best_length] == prefix):
                # Longer than the best: find by how much.
                match_length = best_length + 1
                while match_length < limit:
                    end = min(match_length + _EXTEND_CHUNK, limit)
                    if (data[candidate + match_length : candidate + end]
                            != data[index + match_length : index + end]):
                        while data[candidate + match_length] == data[index + match_length]:
                            match_length += 1
                        break
                    match_length = end
                best_length = match_length
                best_distance = index - candidate
                if match_length >= limit:
                    break
                scan_end = data[index + match_length]
                prefix = data[index : index + match_length]
        if best_length < MIN_MATCH:
            return 0, 0
        return best_length, best_distance

    position = 0
    while position < length:
        inserted_current = False
        match_length, match_distance = find_match(position)
        if lazy and MIN_MATCH <= match_length < MAX_MATCH and position + 1 < length:
            chains[data[position : position + MIN_MATCH]].append(position)
            inserted_current = True
            next_length, next_distance = find_match(position + 1)
            if next_length > match_length:
                tokens.append(data[position])
                position += 1
                inserted_current = False
                match_length, match_distance = next_length, next_distance
        if match_length >= MIN_MATCH:
            tokens.append((match_length, match_distance))
            for index in range(position + (1 if inserted_current else 0),
                               min(position + match_length, last_keyed + 1)):
                chains[data[index : index + MIN_MATCH]].append(index)
            position += match_length
        else:
            if not inserted_current and position <= last_keyed:
                chains[data[position : position + MIN_MATCH]].append(position)
            tokens.append(data[position])
            position += 1
    return tokens


def reconstruct(tokens: list[int | tuple[int, int]]) -> bytes:
    """Inverse of :func:`tokenize` (reference decoder used in tests)."""
    output = bytearray()
    for token in tokens:
        if isinstance(token, int):
            output.append(token)
        else:
            length, distance = token
            start = len(output) - distance
            for offset in range(length):
                output.append(output[start + offset])
    return bytes(output)
