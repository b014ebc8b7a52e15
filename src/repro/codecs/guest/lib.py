"""Shared vxc library units linked into the guest decoders.

These play the role of the statically-linked support libraries in the
paper's decoders (the "C library" column of Table 2): stream input/output
over the virtual system calls, a bit reader, a canonical Huffman decoder and
writers for the BMP/WAV output containers.  They are tagged as *library*
source units so the compiler's provenance note splits decoder vs. library
code size exactly the way Table 2 does.

The width of the Huffman decoder's primary table is interpolated from the
constant the native decoder uses (:data:`repro.codecs.huffman.FAST_BITS`), so
the two sides can never drift apart.
"""

from string import Template

from repro.codecs.huffman import FAST_BITS

# --------------------------------------------------------------------------
# Buffered stream input / output over the read/write virtual system calls.
# --------------------------------------------------------------------------

LIB_IO = r"""
// Whole-stream input: reads stdin to a growable heap buffer.
int in_buf;
int in_len;
int in_cap;

int in_read_all() {
    int got;
    in_cap = 65536;
    in_buf = alloc(in_cap);
    in_len = 0;
    while (1) {
        if (in_len == in_cap) {
            int new_cap;
            int new_buf;
            new_cap = in_cap * 2;
            new_buf = alloc(new_cap);
            memcopy(new_buf, in_buf, in_len);
            in_buf = new_buf;
            in_cap = new_cap;
        }
        got = read(0, in_buf + in_len, in_cap - in_len);
        if (got <= 0) { break; }
        in_len = in_len + got;
    }
    return in_buf;
}

// Buffered output to stdout.
int out_buf;
int out_pos;
int out_cap;

int out_init() {
    out_cap = 65536;
    out_buf = alloc(out_cap);
    out_pos = 0;
    return 0;
}

int out_flush() {
    if (out_pos > 0) {
        write_full(1, out_buf, out_pos);
        out_pos = 0;
    }
    return 0;
}

int out_byte(int value) {
    if (out_pos == out_cap) { out_flush(); }
    poke8(out_buf + out_pos, value);
    out_pos = out_pos + 1;
    return 0;
}

// Flush out_buf once a caller's own cursor has filled it up to `cursor`;
// returns where the next byte goes.
int out_spill(int cursor) {
    out_pos = cursor - out_buf;
    out_flush();
    return out_buf;
}

int out_bytes(int addr, int count) {
    if (count >= out_cap) {
        out_flush();
        write_full(1, addr, count);
        return count;
    }
    if (out_pos + count > out_cap) { out_flush(); }
    memcopy(out_buf + out_pos, addr, count);
    out_pos = out_pos + count;
    return count;
}

int out_u16le(int value) {
    out_byte(value & 255);
    out_byte((value >> 8) & 255);
    return 2;
}

int out_u32le(int value) {
    out_byte(value & 255);
    out_byte((value >> 8) & 255);
    out_byte((value >> 16) & 255);
    out_byte((value >> 24) & 255);
    return 4;
}
"""

# --------------------------------------------------------------------------
# LSB-first bit reader over an in-memory buffer.
# --------------------------------------------------------------------------

LIB_BITS = r"""
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

// Step over `count` bits the caller has already peeked.
int br_skip(int count) {
    br_bitpos = br_bitpos + count;
    br_addr = br_addr + (br_bitpos >> 3);
    br_bitpos = br_bitpos & 7;
    return 0;
}

int br_bits_slow(int count) {
    int value;
    int i;
    value = 0;
    for (i = 0; i < count; i = i + 1) {
        value = value | (br_bit() << i);
    }
    return value;
}

// Whatever br_bitpos is, the three bytes at br_addr hold the next 17 bits:
// when all three lie before br_end one shifted window is the value the
// per-bit loop would assemble, and otherwise the loop runs, stopping
// (exit 33) exactly where it always stopped.  The window is a word load: its
// fourth byte, masked off, is at worst the first one past the stream, and
// in_read_all always leaves one.
int br_bits(int count) {
    int value;
    if (count <= 17 && br_end - br_addr >= 3) {
        value = peek32(br_addr) >> br_bitpos;
        br_skip(count);
        return value & ((1 << count) - 1);
    }
    return br_bits_slow(count);
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

# --------------------------------------------------------------------------
# Canonical Huffman decoder, up to two tables: one lookup in a primary table
# of 2^FAST_BITS entries per symbol, the count / first-code walk behind it.
#
# The walk reads bits MSB-first into `code` and returns at the first length
# whose canonical range [first, first + count) holds it.  Only the codes
# below 2^length can ever be held -- the rest are what an over-subscribed
# table assigns -- and no code that fits is a prefix of another: each
# length's first code lies past every extension of the shorter lengths'
# codes.  So the walk returns symbol s after L <= FAST_BITS bits exactly when
# those bits are s's code, and hd_build puts (s << 4) | L at every index of
# the table whose low L bits are that code reversed (the stream is read
# LSB-first).  Those codes cover the FAST_BITS-bit prefixes below the final
# code counter, each once; every prefix p from there on gets the entry -p.
#
# An entry of 0 or less means the walk reads more than FAST_BITS bits, or
# fails.  What it has computed by then does not depend on the bits: `first`
# and the symbol index are sums of the counts, recorded in hd_resume by
# hd_build, and `code` is the FAST_BITS bits, which are -entry.  So hd_slow,
# entered after a miss with the two bytes the lookup read still ahead,
# takes those bits at once and resumes the walk at length FAST_BITS + 1 (or
# exits 34 at once, as the walk does past a table no longer than that);
# with fewer bytes left it walks from the first bit, so exhaustion (exit
# 33) comes where it always came.  Every symbol, every stopping point and
# every exit code (33 exhausted, 34 invalid, 35 corrupt lengths) is the
# walk's, on every input; repro.codecs.huffman.HuffmanDecoder is the same
# algorithm natively.
# --------------------------------------------------------------------------

LIB_HUFF = Template(r"""
int hd_counts[32];       // two tables x 16 length counts
int hd_symbols[640];     // two tables x up to 320 symbols in canonical order
int hd_maxlen[2];
int hd_next[16];         // canonical position of the next symbol of each length
int hd_resume[4];        // two tables x the walk's (first, index) at length $fast_bits + 1
int hd_fast[$fast_tables];     // two tables x $fast_size entries: (symbol << 4) | length

int hd_build(int table, int lengths_addr, int num_symbols) {
    int i;
    int length;
    int max_length;
    int counts_base;
    int symbols_base;
    int fast_base;
    int fast_end;
    int position;
    int count;
    int code;
    int first;
    int reversed;
    int step;
    int bit;
    int entry;
    int slot;
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
    // Canonical order (by length, then symbol) in one counting pass.
    position = 0;
    for (length = 1; length < 16; length = length + 1) {
        hd_next[length] = position;
        position = position + hd_counts[counts_base + length];
    }
    for (i = 0; i < num_symbols; i = i + 1) {
        length = peek8(lengths_addr + i);
        if (length > 0) {
            hd_symbols[symbols_base + hd_next[length]] = i;
            hd_next[length] = hd_next[length] + 1;
        }
    }
    // The primary table: every code of up to $fast_bits bits that fits its
    // length, at its bit-reversed index and every 2^length entries after it.
    // `reversed` follows `code` LSB-first: a carry added at the top bit, and
    // unchanged by the shift to the next length (a 0 appended below the code
    // is a 0 above the reversed one).  `first` is the walk's.
    fast_base = table << $fast_bits;
    fast_end = fast_base + $fast_size;
    code = 0;
    first = 0;
    reversed = 0;
    position = symbols_base;
    for (length = 1; length <= $fast_bits; length = length + 1) {
        count = hd_counts[counts_base + length];
        step = 1 << length;
        for (i = 0; i < count && code < step; i = i + 1) {
            entry = (hd_symbols[position + i] << 4) | length;
            for (slot = fast_base + reversed; slot < fast_end; slot = slot + step) {
                hd_fast[slot] = entry;
            }
            code = code + 1;
            bit = step >> 1;
            while (reversed & bit) {
                reversed = reversed ^ bit;
                bit = bit >> 1;
            }
            reversed = reversed | bit;
        }
        position = position + count;
        first = (first + count) << 1;
        code = code << 1;
    }
    hd_resume[table * 2] = first;
    hd_resume[table * 2 + 1] = position - symbols_base;
    // The prefixes no code of up to $fast_bits bits covers: walk instead.
    for (code = code >> 1; code < $fast_size; code = code + 1) {
        hd_fast[fast_base + reversed] = 0 - code;
        bit = $fast_top;
        while (reversed & bit) {
            reversed = reversed ^ bit;
            bit = bit >> 1;
        }
        reversed = reversed | bit;
    }
    return 0;
}

// Two bytes at br_addr hold at least the next $fast_bits bits, whatever
// br_bitpos is.
int hd_decode(int table) {
    int entry;
    if (br_end - br_addr >= 2) {
        entry = hd_fast[(table << $fast_bits) + ((peek16(br_addr) >> br_bitpos) & $fast_mask)];
        if (entry > 0) {
            br_skip(entry & 15);
            return entry >> 4;
        }
    }
    return hd_slow(table);
}

// hd_decode for every byte of [at, end), the reader's position in locals:
// the same symbols, bits and exits as one hd_decode per byte.
int hd_fill(int table, int at, int end) {
    int addr;
    int bitpos;
    int entry;
    int fast;
    int last;
    addr = br_addr;
    bitpos = br_bitpos;
    fast = hd_fast + (table << $fast_bits) * 4;
    last = br_end - 2;
    while (at < end) {
        if (addr <= last) {
            entry = peek32(fast + (((peek16(addr) >> bitpos) & $fast_mask) << 2));
            if (entry > 0) {
                bitpos = bitpos + (entry & 15);
                addr = addr + (bitpos >> 3);
                bitpos = bitpos & 7;
                poke8(at, entry >> 4);
                at = at + 1;
                continue;
            }
        }
        br_addr = addr;
        br_bitpos = bitpos;
        poke8(at, hd_slow(table));
        addr = br_addr;
        bitpos = br_bitpos;
        at = at + 1;
    }
    br_addr = addr;
    br_bitpos = bitpos;
    return 0;
}

// The walk, for a symbol the primary table did not give: entered with two
// bytes left only after a miss.
int hd_slow(int table) {
    int code;
    int first;
    int index;
    int length;
    int count;
    int counts_base;
    int symbols_base;
    int max_length;
    counts_base = table * 16;
    symbols_base = table * 320;
    max_length = hd_maxlen[table];
    code = 0;
    first = 0;
    index = 0;
    length = 1;
    if (br_end - br_addr >= 2) {
        if (max_length <= $fast_bits) { exit(34); }      // invalid Huffman code
        code = hd_fast[(table << $fast_bits) + ((peek16(br_addr) >> br_bitpos) & $fast_mask)];
        code = (0 - code) << 1;
        br_skip($fast_bits);
        first = hd_resume[table * 2];
        index = hd_resume[table * 2 + 1];
        length = $fast_bits + 1;
    }
    while (length <= max_length) {
        code = code | br_bit();
        count = hd_counts[counts_base + length];
        if (code - first < count) {
            return hd_symbols[symbols_base + index + (code - first)];
        }
        index = index + count;
        first = (first + count) << 1;
        code = code << 1;
        length = length + 1;
    }
    exit(34);                                    // invalid Huffman code
    return 0;
}
""").substitute(
    fast_bits=FAST_BITS,
    fast_size=1 << FAST_BITS,
    fast_mask=(1 << FAST_BITS) - 1,
    fast_top=1 << (FAST_BITS - 1),
    fast_tables=2 << FAST_BITS,
)

#: hd_decode(0) for a symbol loop that keeps the reader's position in its
#: locals `addr` and `bitpos`, with `last` = br_end - 2: the symbol in
#: `symbol`, through `entry`.  The position is written back for hd_slow and
#: read again after it.
NEXT_SYMBOL = Template(r"""
            entry = 0;
            if (addr <= last) {
                entry = peek32(hd_fast + (((peek16(addr) >> bitpos) & $fast_mask) << 2));
            }
            if (entry > 0) {
                bitpos = bitpos + (entry & 15);
                addr = addr + (bitpos >> 3);
                bitpos = bitpos & 7;
                symbol = entry >> 4;
            } else {
                br_addr = addr;
                br_bitpos = bitpos;
                symbol = hd_slow(0);
                addr = br_addr;
                bitpos = br_bitpos;
            }""").substitute(fast_mask=(1 << FAST_BITS) - 1).lstrip("\n")

# --------------------------------------------------------------------------
# Huffman byte-stream layer (entropy coding used by the image codecs):
# a 257-symbol alphabet (byte values plus end-of-stream).
# --------------------------------------------------------------------------

LIB_HBYTES = Template(r"""
// Decode an entropy-coded byte stream (257 code lengths + bit stream) into a
// heap buffer.  Returns the buffer address and stores the length in hb_len.
// The reader's position lives in locals, as in hd_fill, and the bytes go
// through a cursor; the buffer doubles when a decoded byte meets it full.
int hb_len;

int hb_unpack(int addr, int end) {
    int bitpos = 0;
    int last = end - 2;
    int entry;
    int symbol;
    int buffer;
    int cursor;
    int limit;
    int grown;
    hd_build(0, addr, 257);
    br_init(addr + 257, end - (addr + 257));
    addr = br_addr;
    buffer = alloc(65536);
    cursor = buffer;
    limit = buffer + 65536;
    for (;;) {
        for (;;) {
$next_symbol
            if (symbol == 256) { break; }
            if (cursor == limit) { break; }
            poke8(cursor, symbol);
            cursor = cursor + 1;
        }
        if (symbol == 256) { break; }
        grown = alloc((limit - buffer) * 2);
        memcopy(grown, buffer, cursor - buffer);
        limit = grown + (limit - buffer) * 2;
        cursor = grown + (cursor - buffer);
        buffer = grown;
        poke8(cursor, symbol);
        cursor = cursor + 1;
    }
    hb_len = cursor - buffer;
    return buffer;
}

// Token-stream cursor over the unpacked bytes (varints and run bytes).
int tk_addr;
int tk_end;

int tk_init(int addr, int length) {
    tk_addr = addr;
    tk_end = addr + length;
    return 0;
}

int tk_byte() {
    int value;
    if (tk_addr >= tk_end) { exit(36); }         // truncated token stream
    value = peek8(tk_addr);
    tk_addr = tk_addr + 1;
    return value;
}

int tk_varint() {
    int value;
    int shift;
    int piece;
    value = 0;
    shift = 0;
    while (1) {
        piece = tk_byte();
        value = value | ((piece & 127) << shift);
        if ((piece & 128) == 0) { break; }
        shift = shift + 7;
        if (shift > 35) { exit(37); }            // runaway varint
    }
    return value;
}

int tk_done() {
    if (tk_addr >= tk_end) { return 1; }
    return 0;
}

// Zig-zag mapping of signed values (shared by image codecs).
int zz_decode(int value) {
    return (value >> 1) ^ (0 - (value & 1));
}
""").substitute(next_symbol=NEXT_SYMBOL)

# --------------------------------------------------------------------------
# BMP writer: 24-bit uncompressed, bottom-up, BGR, rows padded to 4 bytes.
# --------------------------------------------------------------------------

LIB_BMP = r"""
int bmp_stride(int width) {
    return (width * 3 + 3) & 0xfffffffc;
}

// Write the 54-byte BMP header for a width x height 24-bit image.
int bmp_begin(int width, int height) {
    int stride;
    int image_size;
    stride = bmp_stride(width);
    image_size = stride * height;
    out_byte('B');
    out_byte('M');
    out_u32le(54 + image_size);     // file size
    out_u32le(0);                   // reserved
    out_u32le(54);                  // pixel data offset
    out_u32le(40);                  // BITMAPINFOHEADER size
    out_u32le(width);
    out_u32le(height);
    out_u16le(1);                   // planes
    out_u16le(24);                  // bits per pixel
    out_u32le(0);                   // BI_RGB
    out_u32le(image_size);
    out_u32le(2835);                // x pixels per metre
    out_u32le(2835);                // y pixels per metre
    out_u32le(0);
    out_u32le(0);
    return 0;
}
"""

# --------------------------------------------------------------------------
# WAV writer: canonical 44-byte header, 16-bit PCM.
# --------------------------------------------------------------------------

LIB_WAV = r"""
int wav_begin(int sample_rate, int channels, int num_frames) {
    int data_size;
    data_size = num_frames * channels * 2;
    out_byte('R'); out_byte('I'); out_byte('F'); out_byte('F');
    out_u32le(36 + data_size);
    out_byte('W'); out_byte('A'); out_byte('V'); out_byte('E');
    out_byte('f'); out_byte('m'); out_byte('t'); out_byte(' ');
    out_u32le(16);
    out_u16le(1);                        // PCM
    out_u16le(channels);
    out_u32le(sample_rate);
    out_u32le(sample_rate * channels * 2);
    out_u16le(channels * 2);
    out_u16le(16);
    out_byte('d'); out_byte('a'); out_byte('t'); out_byte('a');
    out_u32le(data_size);
    return 0;
}
"""
