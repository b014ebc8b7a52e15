"""Guest decoder sources for the general-purpose codecs (vxz, vxbwt).

vxz decodes its symbols in one function, ``lz_symbols``, with the bit
reader's position in locals, literals stored through a cursor and matches
copied a word at a time when their distance allows it.  vxbwt's inverse
move-to-front keeps its alphabet as 256 bytes and moves four ranks per
word.

The LZ77 slot tables are interpolated from the same Python constants the
native encoder uses (:mod:`repro.codecs.lz77`), so the two sides can never
drift apart.
"""

from string import Template

from repro.codecs.guest.lib import NEXT_SYMBOL
from repro.codecs.lz77 import DISTANCE_SLOTS, LENGTH_SLOTS


def _int_array(name: str, values) -> str:
    body = ", ".join(str(int(value)) for value in values)
    return f"int {name}[{len(values)}] = {{ {body} }};"


_MAIN_LOOP = r"""
int main() {
    while (1) {
        decode_stream();
        if (done() != 0) { break; }
        heap_reset();
    }
    return 0;
}
"""


def vxz_source() -> str:
    """vxc source of the vxz (deflate-class) guest decoder."""
    tables = "\n".join(
        [
            _int_array("lz_len_base", [base for base, _ in LENGTH_SLOTS]),
            _int_array("lz_len_extra", [extra for _, extra in LENGTH_SLOTS]),
            _int_array("lz_dist_base", [base for base, _ in DISTANCE_SLOTS]),
            _int_array("lz_dist_extra", [extra for _, extra in DISTANCE_SLOTS]),
        ]
    )
    return (
        tables
        + Template(r"""

// vxz stream: "VXZ1", u32 original length, 286 + 30 code lengths, bit stream.

// Decode the symbols into [output, limit) and return where they end.  The
// reader's position is in locals, written back for the library calls that
// read the stream; a literal is stored through the cursor; a match of
// distance 4 or more is copied a word at a time -- each word read then lies
// wholly behind the cursor -- and a shorter one byte by byte.  A word copy
// may write up to three bytes past the match: the output buffer has 16
// spare bytes, and the next symbol writes over them.
int lz_symbols(int output, int limit) {
    int addr = br_addr;
    int bitpos = br_bitpos;
    int last = br_end - 2;
    int cursor = output;
    int entry;
    int symbol;
    int length;
    int distance;
    int stop;
    for (;;) {
        for (;;) {
$next_symbol
            if (symbol >= 256) { break; }
            if (cursor == limit) { exit(44); }            // past the original length
            poke8(cursor, symbol);
            cursor = cursor + 1;
        }
        if (symbol == 256) { break; }
        br_addr = addr;
        br_bitpos = bitpos;
        symbol = symbol - 257;
        if (symbol >= 29) { exit(42); }
        length = lz_len_base[symbol] + br_bits(lz_len_extra[symbol]);
        symbol = hd_decode(1);
        if (symbol >= 30) { exit(42); }
        distance = lz_dist_base[symbol] + br_bits(lz_dist_extra[symbol]);
        addr = br_addr;
        bitpos = br_bitpos;
        if (distance > cursor - output) { exit(43); }    // reaches before start
        stop = cursor + length;
        if (stop > limit) { exit(44); }
        if (distance >= 4) {
            while (cursor < stop) {
                poke32(cursor, peek32(cursor - distance));
                cursor = cursor + 4;
            }
        } else {
            while (cursor < stop) {
                poke8(cursor, peek8(cursor - distance));
                cursor = cursor + 1;
            }
        }
        cursor = stop;
    }
    return cursor;
}

int decode_stream() {
    int src;
    int src_len;
    int original;
    int litlen_addr;
    int dist_addr;
    int output;
    int limit;

    src = in_read_all();
    src_len = in_len;
    if (src_len < 324) { exit(40); }
    if (load_u32le(src) != 0x315a5856) { exit(41); }      // "VXZ1"
    original = load_u32le(src + 4);
    litlen_addr = src + 8;
    dist_addr = litlen_addr + 286;
    hd_build(0, litlen_addr, 286);
    hd_build(1, dist_addr, 30);
    br_init(dist_addr + 30, src_len - 324);

    output = alloc(original + 16);
    // A length of 2^31 or more, which only a wrapped alloc survives, is
    // overrun by every literal and match.
    limit = output + original;
    if (original < 0) { limit = output; }
    if (lz_symbols(output, limit) - output != original) { exit(45); }
    write_full(1, output, original);
    return 0;
}
""").substitute(next_symbol=NEXT_SYMBOL)
        + _MAIN_LOOP
    )


def vxbwt_source() -> str:
    """vxc source of the vxbwt (bzip2-class) guest decoder."""
    return (
        r"""
// vxbwt stream: "VXB1", u32 original length, u32 block size, then blocks.
// The move-to-front alphabet: rank r at byte 4 + r, above four scratch bytes.
byte bw_alphabet[260];
int bw_bins[258];

// Walk the LF mapping `count` steps from row `primary`, undoing the RLE layer
// as bytes appear: after four equal bytes the next one is how many more
// follow.  The bytes go through a local cursor into out_buf, flushed where
// out_byte flushes, when a byte meets a full buffer.  Returns the bytes
// emitted.
int bw_walk(int column, int order, int primary, int count) {
    int row;
    int value;
    int cursor;
    int limit;
    int prev;
    int run;
    int emitted;
    row = primary;
    cursor = out_buf + out_pos;
    limit = out_buf + out_cap;
    emitted = count;
    prev = 0 - 1;
    run = 0;
    while (count > 0) {
        count = count - 1;
        row = peek32(order + row * 4);
        if (row == primary) { exit(54); }
        value = peek8(column + row);
        if (cursor == limit) { cursor = out_spill(cursor); }
        poke8(cursor, value);
        cursor = cursor + 1;
        if (value == prev) {
            run = run + 1;
            if (run == 4) {
                if (count == 0) { break; }
                count = count - 1;
                row = peek32(order + row * 4);
                if (row == primary) { exit(54); }
                value = peek8(column + row);
                emitted = emitted + value - 1;
                while (value > 0) {
                    if (cursor == limit) { cursor = out_spill(cursor); }
                    poke8(cursor, prev);
                    cursor = cursor + 1;
                    value = value - 1;
                }
                prev = 0 - 1;
            }
        } else {
            prev = value;
            run = 1;
        }
    }
    out_pos = cursor - out_buf;
    return emitted;
}

int decode_stream() {
    int src;
    int src_len;
    int original;
    int offset;
    int produced;
    int raw_length;
    int transformed_length;
    int primary;
    int lengths_addr;
    int column;
    int hole;
    int end;
    int stop;
    int gap;
    int order;
    int i;
    int j;
    int rank;
    int value;
    int position;
    int count;

    src = in_read_all();
    src_len = in_len;
    if (src_len < 12) { exit(50); }
    if (load_u32le(src) != 0x31425856) { exit(51); }      // "VXB1"
    original = load_u32le(src + 4);
    offset = 12;
    produced = 0;
    out_init();

    while (1) {
        if (original > 0) {
            if (produced >= original) { break; }
        }
        if (offset + 12 > src_len) { exit(52); }
        raw_length = load_u32le(src + offset);
        transformed_length = load_u32le(src + offset + 4);
        primary = load_u32le(src + offset + 8);
        offset = offset + 12;
        lengths_addr = src + offset;
        if (offset + 256 > src_len) { exit(52); }
        hd_build(0, lengths_addr, 256);
        offset = offset + 256;
        br_init(src + offset, src_len - offset);
        if (primary > transformed_length) { exit(53); }

        // 1. Huffman-decode the MTF ranks, one byte into the buffer.
        column = alloc(transformed_length + 4);
        end = column + transformed_length + 1;
        hd_fill(0, column + 1, end);
        br_align();
        offset = br_pos() - src;

        // 2. Inverse move-to-front, in place, into the last column with a
        //    hole at row `primary` for the sentinel: rank 0 leaves the
        //    alphabet as it is; otherwise ranks 0 .. rank - 1 move up one and
        //    the byte at `rank` goes to rank 0.  Four ranks move at a time,
        //    from the top down: the word at rank k - 3 takes the four bytes
        //    from rank k - 4, which no move has written yet.  The byte itself
        //    waits below rank 0, where the last word, reaching down to rank
        //    0 and at most three scratch bytes, picks it up.  Each byte is
        //    counted into bw_bins[byte + 1].
        for (i = 0; i < 64; i = i + 1) {
            poke32(bw_alphabet + 4 + i * 4, 0x03020100 + i * 0x04040404);
        }
        for (i = 0; i < 258; i = i + 1) { bw_bins[i] = 0; }
        hole = column + primary;
        stop = hole + 1;
        gap = 1;
        i = column + 1;
        while (1) {
            while (i < stop) {
                rank = peek8(i);
                j = bw_alphabet + 4 + rank;
                value = peek8(j);
                if (rank != 0) {
                    poke8(bw_alphabet + 3, value);
                    j = j - 3;
                    do {
                        poke32(j, peek32(j - 1));
                        j = j - 4;
                    } while (j > bw_alphabet);
                }
                poke8(i - gap, value);
                j = bw_bins + value * 4 + 4;
                poke32(j, peek32(j) + 1);
                i = i + 1;
            }
            if (stop == end) { break; }
            stop = end;
            gap = 0;
        }

        // 3. Inverse BWT by a stable counting sort of the rows by their last
        //    byte: each bin becomes the address its first row goes to, after
        //    the sentinel, which sorts first.
        order = alloc((transformed_length + 1) * 4);
        poke32(order, primary);
        position = order + 4;
        for (i = 1; i < 257; i = i + 1) {
            count = bw_bins[i];
            bw_bins[i] = position;
            position = position + count * 4;
        }
        for (i = column; i < hole; i = i + 1) {
            j = bw_bins + peek8(i) * 4 + 4;
            position = peek32(j);
            poke32(position, i - column);
            poke32(j, position + 4);
        }
        for (i = hole + 1; i < end; i = i + 1) {
            j = bw_bins + peek8(i) * 4 + 4;
            position = peek32(j);
            poke32(position, i - column);
            poke32(j, position + 4);
        }

        // 4. Walk the LF mapping, undoing the RLE layer as bytes appear.
        if (bw_walk(column, order, primary, transformed_length) != raw_length) {
            exit(55);
        }
        produced = produced + raw_length;
        if (original == 0) { break; }
    }
    out_flush();
    return 0;
}
"""
        + _MAIN_LOOP
    )
