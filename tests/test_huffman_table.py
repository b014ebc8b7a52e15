"""The table-driven Huffman decoder and the multi-bit reads decode exactly what
the bit-by-bit walk decodes, natively and in the guest, on every input.

The walk is kept here as the oracle, the way ``tests/test_zipformat.py`` keeps
the table CRC: natively as :class:`_WalkDecoder` over :class:`_BitByBitReader`,
and in the guest as the library source before the table
(``_BIT_BY_BIT_BITS``, ``_BIT_BY_BIT_HUFF``), compiled beside the current one
into the same harness and the same decoders.  "Exactly" means the same
symbols, the same error (a ``CodecError`` natively, exit 33/34/35 in the
guest) after the same symbols, and the same final bit position.
"""

from __future__ import annotations

import functools
import itertools
import pathlib
import random
import re
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.codecs.bitio import BitReader, BitWriter
from repro.codecs.guest.lib import LIB_BITS, LIB_HUFF, LIB_IO
from repro.codecs.huffman import (
    FAST_BITS,
    MAX_CODE_LENGTH,
    HuffmanDecoder,
    build_code_lengths,
    canonical_codes,
)
from repro.codecs.registry import default_registry
from repro.errors import CodecError, GuestFault
from repro.formats.wav import write_wav
from repro.vm.limits import ExecutionLimits
from repro.vm.machine import VirtualMachine
from repro.vxc import ast_nodes as ast
from repro.vxc.compiler import SourceUnit, compile_units
from repro.vxc.parser import parse
from repro.vxc.semantics import _EXPANSION_LIMIT
from repro.workloads.audio import synthetic_music
from repro.workloads.images import synthetic_photo
from repro.workloads.text import synthetic_source_file

#: Deterministic and bounded: the same examples on every run of the gate.
_EXAMPLES = settings(derandomize=True, database=None, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

# -- the oracle ---------------------------------------------------------------------

_BIT_BY_BIT_BITS = r"""
int br_addr;
int br_end;
int br_bitpos;

int br_init(int addr, int length) {
    br_addr = addr;
    br_end = addr + length;
    br_bitpos = 0;
    return 0;
}

int br_bit() {
    int bit;
    if (br_addr >= br_end) { exit(33); }   // stream exhausted: corrupt input
    bit = (peek8(br_addr) >> br_bitpos) & 1;
    br_bitpos = br_bitpos + 1;
    if (br_bitpos == 8) {
        br_bitpos = 0;
        br_addr = br_addr + 1;
    }
    return bit;
}

int br_bits(int count) {
    int value;
    int i;
    value = 0;
    for (i = 0; i < count; i = i + 1) {
        value = value | (br_bit() << i);
    }
    return value;
}

int br_align() {
    if (br_bitpos != 0) {
        br_bitpos = 0;
        br_addr = br_addr + 1;
    }
    return 0;
}

int br_pos() {
    return br_addr;
}
"""

_BIT_BY_BIT_HUFF = r"""
int hd_counts[32];       // two tables x 16 length counts
int hd_symbols[640];     // two tables x up to 320 symbols in canonical order
int hd_maxlen[2];
// A decoder that reads the primary table itself finds it all zero and walks
// every symbol through hd_slow.
int hd_fast[""" + str(2 << FAST_BITS) + r"""];

int hd_build(int table, int lengths_addr, int num_symbols) {
    int i;
    int length;
    int max_length;
    int counts_base;
    int symbols_base;
    int position;
    counts_base = table * 16;
    symbols_base = table * 320;
    for (i = 0; i < 16; i = i + 1) { hd_counts[counts_base + i] = 0; }
    max_length = 0;
    for (i = 0; i < num_symbols; i = i + 1) {
        length = peek8(lengths_addr + i);
        if (length > 15) { exit(35); }           // corrupt code length table
        if (length > 0) {
            hd_counts[counts_base + length] = hd_counts[counts_base + length] + 1;
            if (length > max_length) { max_length = length; }
        }
    }
    hd_maxlen[table] = max_length;
    position = 0;
    for (length = 1; length <= max_length; length = length + 1) {
        for (i = 0; i < num_symbols; i = i + 1) {
            if (peek8(lengths_addr + i) == length) {
                hd_symbols[symbols_base + position] = i;
                position = position + 1;
            }
        }
    }
    return 0;
}

int hd_decode(int table) {
    return hd_slow(table);
}

int hd_slow(int table) {
    int code;
    int first;
    int index;
    int length;
    int count;
    int counts_base;
    int symbols_base;
    counts_base = table * 16;
    symbols_base = table * 320;
    code = 0;
    first = 0;
    index = 0;
    for (length = 1; length <= hd_maxlen[table]; length = length + 1) {
        code = code | br_bit();
        count = hd_counts[counts_base + length];
        if (code - first < count) {
            return hd_symbols[symbols_base + index + (code - first)];
        }
        index = index + count;
        first = (first + count) << 1;
        code = code << 1;
    }
    exit(34);                                    // invalid Huffman code
    return 0;
}

int hd_fill(int table, int at, int end) {
    while (at < end) {
        poke8(at, hd_decode(table));
        at = at + 1;
    }
    return 0;
}
"""

#: The library units the oracle builds replace, by unit name.
_BIT_BY_BIT_UNITS = {"lib_bits": _BIT_BY_BIT_BITS, "lib_huff": _BIT_BY_BIT_HUFF}


class _BitByBitReader(BitReader):
    """``BitReader.read_bits`` as it was: one ``read_bit`` per bit."""

    def read_bits(self, count: int) -> int:
        value = 0
        for position in range(count):
            value |= self.read_bit() << position
        return value


class _WalkDecoder:
    """``HuffmanDecoder`` as it was: canonical order by one pass over the
    lengths per length, then the count/first-code walk one bit at a time."""

    def __init__(self, lengths: list[int]):
        max_length = max(lengths, default=0)
        if max_length > MAX_CODE_LENGTH:
            raise CodecError("code length exceeds the supported maximum")
        self._counts = [0] * (max_length + 1)
        for length in lengths:
            if length:
                self._counts[length] += 1
        self._symbols = [symbol for length in range(1, max_length + 1)
                         for symbol, symbol_length in enumerate(lengths)
                         if symbol_length == length]
        self._max_length = max_length
        unit = 1 << max_length
        if max_length and sum(unit >> length for length in lengths if length) > unit:
            raise CodecError("over-subscribed Huffman code")

    def read_symbol(self, reader: BitReader) -> int:
        if self._max_length == 0:
            raise CodecError("cannot decode with an empty Huffman table")
        code = first = index = 0
        for length in range(1, self._max_length + 1):
            code |= reader.read_bit()
            count = self._counts[length]
            if code - first < count:
                return self._symbols[index + (code - first)]
            index += count
            first = (first + count) << 1
            code <<= 1
        raise CodecError("invalid Huffman code in stream")


# -- inputs: code-length tables of every kind, streams real and random ---------------

#: An op is a symbol from table 0 (``_SYMBOL_0``), from table 1 (``_SYMBOL_1``)
#: or ``br_bits(op)``: counts up to 17 take the window, above it the loop.
_SYMBOL_0, _SYMBOL_1 = 255, 254
#: The guest harness's op ``_FILL + k - 1`` is ``hd_fill`` of k symbols.
_FILL = 200


@st.composite
def _lengths(draw) -> list[int]:
    """Complete, incomplete, over-subscribed, single-symbol and long-code
    tables of up to 300 symbols (the guest keeps 320 per table)."""
    kind = draw(st.sampled_from(["complete", "incomplete", "any", "single", "long"]))
    size = draw(st.integers(1, 300))
    if kind == "any":               # mostly over-subscribed, some incomplete
        return draw(st.lists(st.integers(0, MAX_CODE_LENGTH), min_size=size,
                             max_size=size))
    if kind == "single":
        lengths = [0] * size
        lengths[draw(st.integers(0, size - 1))] = draw(st.integers(1, MAX_CODE_LENGTH))
        return lengths
    # Frequencies spread over 2^0..2^24 give codes of 10-15 bits.
    spread = 24 if kind == "long" else 6
    frequencies = draw(st.lists(st.integers(0, spread), min_size=size, max_size=size))
    lengths = build_code_lengths([1 << exponent for exponent in frequencies])
    if kind == "incomplete":
        dropped = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=size))
        lengths = [0 if symbol in dropped else length
                   for symbol, length in enumerate(lengths)]
    return lengths


@st.composite
def _cases(draw):
    """Two tables, a script of reads and the bit stream they read."""
    tables = [draw(_lengths()), draw(_lengths())]
    ops = draw(st.lists(st.one_of(st.sampled_from([_SYMBOL_0, _SYMBOL_1]),
                                  st.integers(0, 24)), max_size=48))
    stream = draw(st.binary(max_size=40))
    try:
        codes = canonical_codes(tables[0])
    except CodecError:              # over-subscribed: random bits only
        return tables, ops, stream
    coded = [symbol for symbol, length in enumerate(tables[0]) if length]
    if coded and draw(st.booleans()):
        # Real codes of table 0, cut anywhere: where a stream usually ends.
        writer = BitWriter()
        for symbol in draw(st.lists(st.sampled_from(coded), max_size=48)):
            writer.write_code(codes[symbol], tables[0][symbol])
        real = writer.getvalue()
        stream = real[: draw(st.integers(0, len(real)))]
        ops = [_SYMBOL_0] * draw(st.integers(0, 50)) + ops
    return tables, ops, stream


# -- native ---------------------------------------------------------------------------


def _walk_run(decoder, reader, values, count):
    for _ in range(count):
        values.append(decoder.read_symbol(reader))


def _table_run(decoder, reader, values, count):
    """``count`` symbols through :meth:`HuffmanDecoder.decode_into`, the loop
    the codecs run: one call per stretch of symbols below 256, the next one
    resumed after each symbol above."""
    while count:
        out = bytearray()
        try:
            stop = decoder.decode_into(reader, out, count)
        finally:
            values.extend(out)
        count -= len(out)
        if stop >= 0:
            values.append(stop)
            count -= 1


def _run_native(decoder_class, reader_class, tables, ops, stream):
    """Every value the script reads, the error that ended it (if one did)
    and where the reader stands.  A run of symbols from one table is one
    :func:`_table_run` for :class:`HuffmanDecoder`, one read at a time for
    the oracle."""
    try:
        decoders = [decoder_class(lengths) for lengths in tables]
    except CodecError:
        return "tables rejected"
    read_run = _table_run if decoder_class is HuffmanDecoder else _walk_run
    reader = reader_class(stream)
    values = []
    try:
        for op, run in itertools.groupby(ops):
            count = len(list(run))
            if op in (_SYMBOL_0, _SYMBOL_1):
                read_run(decoders[_SYMBOL_0 - op], reader, values, count)
            else:
                values.extend(reader.read_bits(op) for _ in range(count))
        error = None
    except CodecError as exc:
        error = str(exc)
    return values, error, reader.byte_position, reader.bits_remaining


@settings(_EXAMPLES, max_examples=250)
@given(_cases())
def test_native_decoder_reads_what_the_walk_reads(case):
    tables, ops, stream = case
    assert (_run_native(HuffmanDecoder, BitReader, tables, ops, stream)
            == _run_native(_WalkDecoder, _BitByBitReader, tables, ops, stream))


@settings(_EXAMPLES, max_examples=100)
@given(st.binary(max_size=12), st.lists(st.integers(0, 40), max_size=24))
def test_multi_bit_reads_match_bit_by_bit(stream, counts):
    assert (_run_native(HuffmanDecoder, BitReader, [[1, 1]] * 2, counts, stream)
            == _run_native(HuffmanDecoder, _BitByBitReader, [[1, 1]] * 2, counts, stream))


def test_native_table_holds_each_short_code_at_its_reversed_index():
    # Lengths 1, 2, 3, 3: codes 0, 10, 110, 111 (MSB first).  An LSB-first
    # reader sees code 10 as the index bits ...01, 110 as ...011, 111 as ...111.
    decoder = HuffmanDecoder([1, 2, 3, 3])
    table = decoder.table
    assert len(table) == 1 << FAST_BITS
    assert {table[index] for index in range(0, 1 << FAST_BITS, 2)} == {0 << 4 | 1}
    assert {table[index] for index in range(1, 1 << FAST_BITS, 4)} == {1 << 4 | 2}
    assert {table[index] for index in range(3, 1 << FAST_BITS, 8)} == {2 << 4 | 3}
    assert {table[index] for index in range(7, 1 << FAST_BITS, 8)} == {3 << 4 | 3}


def test_fast_bits_fit_the_two_byte_window():
    # A window of two bytes read at bit position 7 has 16 - 7 bits left.
    assert FAST_BITS <= 16 - 7


# -- guest: a harness over the library, old and new ----------------------------------

_HARNESS = r"""
// Input: u16 n0, u16 n1, u16 ops, n0 + n1 code lengths, ops, bit stream.
// Writes each value read as a u32 -- op 200 + k - 1 writes the k bytes
// hd_fill stores from table 0 instead -- then br_addr (from the stream's
// start) and br_bitpos.
int main() {
    int src;
    int n0;
    int n1;
    int ops;
    int stream;
    int i;
    int op;
    int value;
    int cell;
    int fill;
    src = in_read_all();
    cell = alloc(8);
    fill = alloc(64);
    n0 = load_u16le(src);
    n1 = load_u16le(src + 2);
    ops = load_u16le(src + 4);
    hd_build(0, src + 6, n0);
    hd_build(1, src + 6 + n0, n1);
    stream = src + 6 + n0 + n1 + ops;
    br_init(stream, src + in_len - stream);
    for (i = 0; i < ops; i = i + 1) {
        op = peek8(src + 6 + n0 + n1 + i);
        if (op >= 200 && op < 254) {
            hd_fill(0, fill, fill + op - 199);
            write(1, fill, op - 199);
            continue;
        }
        if (op == 255) {
            value = hd_decode(0);
        } else {
            if (op == 254) { value = hd_decode(1); } else { value = br_bits(op); }
        }
        store_u32le(cell, value);
        write(1, cell, 4);
    }
    store_u32le(cell, br_addr - stream);
    store_u32le(cell + 4, br_bitpos);
    write(1, cell, 8);
    return 0;
}
"""


@functools.lru_cache(maxsize=None)
def _harness(bit_by_bit: bool) -> bytes:
    bits, huff = (_BIT_BY_BIT_BITS, _BIT_BY_BIT_HUFF) if bit_by_bit else (LIB_BITS, LIB_HUFF)
    units = [SourceUnit("lib_io", LIB_IO), SourceUnit("lib_bits", bits),
             SourceUnit("lib_huff", huff), SourceUnit("harness", _HARNESS)]
    return compile_units(units).elf


def _run_guest(vm: VirtualMachine, tables, ops, stream):
    payload = (struct.pack("<3H", len(tables[0]), len(tables[1]), len(ops))
               + bytes(tables[0]) + bytes(tables[1]) + bytes(ops) + stream)
    result = vm.decode(payload)
    return result.exit_code, result.output


@pytest.fixture(scope="module")
def harness_vms():
    return VirtualMachine(_harness(False)), VirtualMachine(_harness(True))


@settings(_EXAMPLES, max_examples=150)
@given(case=_cases(), corrupt=st.integers(0, 7))
def test_guest_library_reads_what_the_walk_reads(harness_vms, case, corrupt):
    tables, ops, stream = case
    if corrupt == 0:                # a length the guest must reject with 35
        tables = [tables[0] + [16 + len(stream) % 240], tables[1]]
    table_vm, walk_vm = harness_vms
    outcome = _run_guest(table_vm, tables, ops, stream)
    assert outcome == _run_guest(walk_vm, tables, ops, stream)
    assert outcome[0] in (0, 33, 34, 35)


@settings(_EXAMPLES, max_examples=100)
@given(case=_cases(), runs=st.lists(st.integers(1, 54), min_size=1, max_size=12))
def test_guest_fill_reads_what_the_walk_reads(harness_vms, case, runs):
    # Reads of table 0 become hd_fill runs of 1 to 54 symbols.
    tables, ops, stream = case
    fills = [_FILL + length - 1 for length in runs]
    ops = [fills.pop() if op == _SYMBOL_0 and fills else op for op in ops] + fills
    table_vm, walk_vm = harness_vms
    outcome = _run_guest(table_vm, tables, ops, stream)
    assert outcome == _run_guest(walk_vm, tables, ops, stream)
    assert outcome[0] in (0, 33, 34)


@st.composite
def _misses(draw):
    """Tables the primary table misses on -- codes of 10 to 15 bits in
    complete, incomplete and over-subscribed tables, or no code past
    FAST_BITS and holes -- with their real codes, then 0 to 3 bytes of
    anything: the walk resumes after a miss with two bytes or more left, and
    starts from the first bit with fewer."""
    kind = draw(st.sampled_from(["complete", "incomplete", "over", "short"]))
    size = draw(st.integers(2, 300))
    if kind in ("over", "short"):
        top = MAX_CODE_LENGTH if kind == "over" else FAST_BITS
        lengths = draw(st.lists(st.integers(0, top), min_size=size, max_size=size))
    else:
        frequencies = draw(st.lists(st.integers(0, 24), min_size=size, max_size=size))
        lengths = build_code_lengths([1 << exponent for exponent in frequencies])
        if kind == "incomplete":
            dropped = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=size))
            lengths = [0 if symbol in dropped else length
                       for symbol, length in enumerate(lengths)]
    writer = BitWriter()
    coded = [symbol for symbol, length in enumerate(lengths) if length]
    try:
        codes = canonical_codes(lengths)
    except CodecError:              # over-subscribed: random bits only
        coded = []
    if coded:
        for symbol in draw(st.lists(st.sampled_from(coded), max_size=24)):
            writer.write_code(codes[symbol], lengths[symbol])
    else:
        writer.write_bits(draw(st.integers(0, (1 << 48) - 1)), 48)
    stream = writer.getvalue() + draw(st.binary(max_size=3))
    return [lengths, [1]], [_SYMBOL_0] * 28, stream


@settings(_EXAMPLES, max_examples=200)
@given(case=_misses())
def test_walk_resumed_past_the_table_reads_what_the_walk_reads(harness_vms, case):
    table_vm, walk_vm = harness_vms
    outcome = _run_guest(table_vm, *case)
    assert outcome == _run_guest(walk_vm, *case)
    assert outcome[0] in (0, 33, 34)


def test_a_miss_in_a_table_no_longer_than_the_index_is_invalid_at_once(harness_vms):
    # Codes 0 and 10 (lengths 1, 2) leave index bits ...11 to no code: with
    # two bytes left hd_slow exits 34 without walking; with one, it walks
    # the two bits to the same exit.
    table_vm, walk_vm = harness_vms
    for stream in (b"\xff\xff", b"\xff\xff\xff", b"\x03\x00", b"\xff", b"\x03"):
        case = ([[1, 2], [1]], [_SYMBOL_0], stream)
        outcome = _run_guest(table_vm, *case)
        assert outcome == _run_guest(walk_vm, *case) and outcome[0] == 34


def test_fill_stops_where_the_stream_ends(harness_vms):
    # One-byte streams (every third value) read by runs of 1 to 9 codes of 1
    # to 3 bits: a run's last code may lie past the stream, where the walk
    # exits 33.
    table_vm, walk_vm = harness_vms
    exits = set()
    for lengths in ([1, 2, 2], [3] * 8):
        for byte in range(0, 256, 3):
            for run in range(1, 10):
                case = ([lengths, [1]], [_FILL + run - 1], bytes([byte]))
                outcome = _run_guest(table_vm, *case)
                assert outcome == _run_guest(walk_vm, *case), (lengths, byte, run)
                exits.add(outcome[0])
    assert exits == {0, 33}


def test_codes_of_every_length_decode_as_sent(harness_vms):
    # Table 0 has one code of each length 1..14 and two of 15; table 1 is a
    # 286-symbol alphabet of codes around the table's width.  Every symbol of
    # both, in a shuffled order, alternating tables.
    rng = random.Random(9)
    tables = [list(range(1, 16)) + [15],
              build_code_lengths([rng.randrange(1, 1 << 12) for _ in range(286)])]
    sent = [(table, symbol) for table, lengths in enumerate(tables)
            for symbol in range(len(lengths)) if lengths[symbol]] * 3
    rng.shuffle(sent)
    codes = [canonical_codes(lengths) for lengths in tables]
    writer = BitWriter()
    for table, symbol in sent:
        writer.write_code(codes[table][symbol], tables[table][symbol])
    case = (tables, [_SYMBOL_0 - table for table, _ in sent], writer.getvalue())
    values = [symbol for _, symbol in sent]
    assert {FAST_BITS, FAST_BITS + 1} <= set(tables[1])
    native = _run_native(HuffmanDecoder, BitReader, *case)
    assert native == _run_native(_WalkDecoder, _BitByBitReader, *case)
    assert native[:2] == (values, None)
    table_vm, walk_vm = harness_vms
    outcome = _run_guest(table_vm, *case)
    assert outcome == _run_guest(walk_vm, *case)
    assert outcome[1][: 4 * len(values)] == struct.pack(f"<{len(values)}I", *values)


def test_every_count_at_every_bit_position(harness_vms):
    # All ones, so a bit the window drops or adds shows in the value; long
    # enough that the window serves all but the last reads.
    table_vm, walk_vm = harness_vms
    for skip in range(8):
        ops = [skip, *range(25)] * 2
        case = ([[1, 1], [1, 1]], ops, b"\xff" * 80)
        outcome = _run_guest(table_vm, *case)
        assert outcome == _run_guest(walk_vm, *case) and outcome[0] == 0
        assert (_run_native(HuffmanDecoder, BitReader, *case)
                == _run_native(_WalkDecoder, _BitByBitReader, *case))


def test_guest_harness_exercises_every_exit(harness_vms):
    table_vm, _ = harness_vms
    lengths = [1, 2, 3, 3]
    ok = _run_guest(table_vm, [lengths, lengths], [_SYMBOL_0, _SYMBOL_1, 3], b"\xff\xff\xff")
    assert ok == (0, struct.pack("<5I", 3, 3, 7, 1, 1))
    assert _run_guest(table_vm, [lengths, lengths], [3, 3, 3], b"\xff")[0] == 33
    assert _run_guest(table_vm, [[2, 2], [1]], [_SYMBOL_0], b"\xff\xff")[0] == 34
    assert _run_guest(table_vm, [[16], [1]], [], b"")[0] == 35


# -- the fast paths stay generated in place ------------------------------------------


def _function_nodes(source: str, name: str) -> int:
    function = next(f for f in parse(source).functions if f.name == name)
    return len(list(ast.walk(function.body)))


def _assembly_of(assembly: str, function: str) -> str:
    return re.search(rf"^fn_{function}:$(.*?)^fn_{function}__end:$", assembly,
                     re.MULTILINE | re.DOTALL).group(1)


def test_fast_paths_are_small_enough_to_expand():
    # A call per symbol costs a frame, an argument push and a trace break;
    # the compiler generates a helper in place only below this size.
    assert _function_nodes(LIB_HUFF, "hd_decode") <= _EXPANSION_LIMIT
    assert _function_nodes(LIB_BITS, "br_bits") <= _EXPANSION_LIMIT


@pytest.mark.parametrize("codec, function, helpers", [
    ("vxz", "decode_stream", ("hd_decode", "br_bits")),
    ("vxbwt", "decode_stream", ("hd_decode",)),
    ("vximg", "hb_unpack", ("hd_decode",)),
    ("vxjp2", "hb_unpack", ("hd_decode",)),
    ("vxflac", "decode_stream", ("br_bits",)),
    ("vxbwt", "hd_fill", ("hd_decode",)),
    ("vxz", "lz_symbols", ("hd_decode", "br_bits", "br_bit")),
    ("vxflac", "fl_channel", ("br_bits", "br_bit")),
    ("vximg", "hb_unpack", ("br_bit", "br_skip")),
])
def test_hot_loops_call_no_bit_reader(codec, function, helpers):
    assembly = default_registry().get(codec).build_guest_decoder().assembly
    body = _assembly_of(assembly, function)
    for helper in helpers:
        assert not re.search(rf"call fn_{helper}$", body, re.MULTILINE), (codec, helper)


# -- whole decoders: the parent's images and the new ones, on damaged payloads ------


def _payloads() -> dict[str, bytes]:
    registry = default_registry()
    text = synthetic_source_file(1500, seed=5).encode()
    photo = synthetic_photo(24, 16, seed=5)
    clip = write_wav(synthetic_music(seconds=0.05, sample_rate=8000, channels=1, seed=5))
    return {
        "vxz": registry.get("vxz").encode(text),
        "vxbwt": registry.get("vxbwt").encode(text),
        "vximg": registry.get("vximg").encode_pixels(photo),
        "vxjp2": registry.get("vxjp2").encode_pixels(photo),
        "vxflac": registry.get("vxflac").encode(clip),
    }


@functools.lru_cache(maxsize=None)
def _bit_by_bit_image(name: str) -> bytes:
    """The decoder as it was built before the table: the same decoder units,
    the same compiler, the old bit reader and Huffman library."""
    codec = default_registry().get(name)
    units = [SourceUnit(unit.name, _BIT_BY_BIT_UNITS.get(unit.name, unit.text),
                        unit.category) for unit in codec.guest_units()]
    return compile_units(units, codec_name=name,
                         extra_note={"output_format": codec.info.output_format}).elf


#: A damaged header can send a decoder round a loop for tens of millions of
#: instructions (vxjp2 does).  An intact payload here takes at most 1.1 M on
#: either image, so a run that reaches this budget is a runaway on both.
_RUNAWAY = ExecutionLimits(max_instructions=4_000_000)


def _outcome(vm: VirtualMachine, payload: bytes):
    try:
        result = vm.decode(payload, limits=_RUNAWAY)
    except GuestFault as fault:
        return type(fault).__name__
    return result.exit_code, result.output


def test_damaged_payloads_decode_as_before():
    rng = random.Random(25)
    exits = set()
    for name, payload in _payloads().items():
        image = default_registry().get(name).guest_decoder_image()
        table_vm = VirtualMachine(image)
        walk_vm = VirtualMachine(_bit_by_bit_image(name))
        mutants = [payload]
        for _ in range(39):
            damaged = bytearray(payload)
            if rng.random() < 0.25:
                damaged = damaged[: rng.randrange(len(damaged))]
            else:
                for _ in range(rng.choice((1, 1, 2, 4))):
                    damaged[rng.randrange(4, len(damaged))] ^= rng.randrange(1, 256)
            mutants.append(bytes(damaged))
        for index, mutant in enumerate(mutants):
            outcome = _outcome(table_vm, mutant)
            assert outcome == _outcome(walk_vm, mutant), (name, index)
            exits.add(outcome if isinstance(outcome, str) else outcome[0])
    # The damage reached the exits the Huffman and bit readers own.
    assert {0, 33, 34, 35} <= exits


# -- archived images and newly encoded payloads ---------------------------------------

_DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("archived", ["vxz-vxc-0.1.elf", "vxz-vxc-0.2.elf"])
def test_archived_images_decode_new_payloads(archived):
    codec = default_registry().get("vxz")
    data = synthetic_source_file(3000, seed=9).encode()
    encoded = codec.encode(data)
    old = VirtualMachine((_DATA / archived).read_bytes()).decode(encoded)
    new = VirtualMachine(codec.guest_decoder_image()).decode(encoded)
    assert (old.exit_code, old.output) == (new.exit_code, new.output) == (0, data)
    archived_payload = (_DATA / "vxz-vxc-0.1.payload.vxz").read_bytes()
    assert (VirtualMachine(codec.guest_decoder_image()).decode(archived_payload).output
            == codec.decode(archived_payload))
