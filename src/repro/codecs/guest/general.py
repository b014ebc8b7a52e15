"""Guest decoder sources for the general-purpose codecs (vxz, vxbwt).

The LZ77 slot tables are interpolated from the same Python constants the
native encoder uses (:mod:`repro.codecs.lz77`), so the two sides can never
drift apart.
"""

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
        + r"""

// vxz stream: "VXZ1", u32 original length, 286 + 30 code lengths, bit stream.
int decode_stream() {
    int src;
    int src_len;
    int original;
    int litlen_addr;
    int dist_addr;
    int output;
    int out_position;
    int symbol;
    int slot;
    int match_length;
    int distance;
    int copy_from;
    int i;

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
    out_position = 0;
    while (1) {
        symbol = hd_decode(0);
        if (symbol < 256) {
            poke8(output + out_position, symbol);
            out_position = out_position + 1;
        } else {
            if (symbol == 256) { break; }
            slot = symbol - 257;
            if (slot >= 29) { exit(42); }
            match_length = lz_len_base[slot] + br_bits(lz_len_extra[slot]);
            slot = hd_decode(1);
            if (slot >= 30) { exit(42); }
            distance = lz_dist_base[slot] + br_bits(lz_dist_extra[slot]);
            if (distance > out_position) { exit(43); }    // reaches before start
            if (out_position + match_length > original) { exit(44); }
            copy_from = output + out_position - distance;
            for (i = 0; i < match_length; i = i + 1) {
                poke8(output + out_position, peek8(copy_from + i));
                out_position = out_position + 1;
            }
        }
        if (out_position > original) { exit(44); }
    }
    if (out_position != original) { exit(45); }
    write_full(1, output, out_position);
    return 0;
}
"""
        + _MAIN_LOOP
    )


def vxbwt_source() -> str:
    """vxc source of the vxbwt (bzip2-class) guest decoder."""
    return (
        r"""
// vxbwt stream: "VXB1", u32 original length, u32 block size, then blocks.
int bw_alphabet[256];
int bw_bins[258];

// RLE post-pass state (bzip2-style run-length layer undone while emitting).
int rle_run;
int rle_prev;
int rle_expect;
int rle_emitted;

int rle_reset() {
    rle_run = 0;
    rle_prev = 0 - 1;
    rle_expect = 0;
    rle_emitted = 0;
    return 0;
}

int rle_emit(int value) {
    int k;
    if (rle_expect) {
        for (k = 0; k < value; k = k + 1) {
            out_byte(rle_prev);
            rle_emitted = rle_emitted + 1;
        }
        rle_expect = 0;
        rle_run = 0;
        rle_prev = 0 - 1;
        return 0;
    }
    out_byte(value);
    rle_emitted = rle_emitted + 1;
    if (value == rle_prev) {
        rle_run = rle_run + 1;
    } else {
        rle_run = 1;
        rle_prev = value;
    }
    if (rle_run == 4) {
        rle_expect = 1;
    }
    return 0;
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
    int ranks;
    int order;
    int i;
    int j;
    int rank;
    int value;
    int row;
    int bin;
    int position;
    int count;
    int end;

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

        // 1. Huffman-decode the MTF ranks.
        ranks = alloc(transformed_length + 4);
        for (i = 0; i < transformed_length; i = i + 1) {
            poke8(ranks + i, hd_decode(0));
        }
        br_align();
        offset = br_pos() - src;

        // 2. Inverse move-to-front, in place: rank 0 leaves the alphabet as
        //    it is; otherwise the entries before the rank shift up by one.
        for (i = 0; i < 256; i = i + 1) { bw_alphabet[i] = i; }
        end = ranks + transformed_length;
        for (i = ranks; i < end; i = i + 1) {
            rank = peek8(i);
            if (rank == 0) {
                poke8(i, bw_alphabet[0]);
            } else {
                j = bw_alphabet + rank * 4;
                value = peek32(j);
                poke8(i, value);
                while (j - bw_alphabet >= 16) {
                    poke32(j, peek32(j - 4));
                    poke32(j - 4, peek32(j - 8));
                    poke32(j - 8, peek32(j - 12));
                    poke32(j - 12, peek32(j - 16));
                    j = j - 16;
                }
                while (j != bw_alphabet) {
                    poke32(j, peek32(j - 4));
                    j = j - 4;
                }
                bw_alphabet[0] = value;
            }
        }

        // 3. Inverse BWT via a stable counting sort over the last column,
        //    treating the virtual sentinel (bin 0) as the smallest symbol.
        order = alloc((transformed_length + 1) * 4);
        for (i = 0; i < 258; i = i + 1) { bw_bins[i] = 0; }
        for (i = 0; i <= transformed_length; i = i + 1) {
            if (i == primary) {
                bin = 0;
            } else {
                if (i < primary) {
                    bin = peek8(ranks + i) + 1;
                } else {
                    bin = peek8(ranks + i - 1) + 1;
                }
            }
            bw_bins[bin] = bw_bins[bin] + 1;
        }
        position = 0;
        for (i = 0; i < 258; i = i + 1) {
            count = bw_bins[i];
            bw_bins[i] = position;
            position = position + count;
        }
        for (i = 0; i <= transformed_length; i = i + 1) {
            if (i == primary) {
                bin = 0;
            } else {
                if (i < primary) {
                    bin = peek8(ranks + i) + 1;
                } else {
                    bin = peek8(ranks + i - 1) + 1;
                }
            }
            poke32(order + bw_bins[bin] * 4, i);
            bw_bins[bin] = bw_bins[bin] + 1;
        }

        // 4. Walk the LF mapping, undoing the RLE layer as bytes appear.
        rle_reset();
        row = primary;
        for (i = 0; i < transformed_length; i = i + 1) {
            row = peek32(order + row * 4);
            if (row == primary) {
                value = 0 - 1;
            } else {
                if (row < primary) {
                    value = peek8(ranks + row);
                } else {
                    value = peek8(ranks + row - 1);
                }
            }
            if (value < 0) { exit(54); }
            rle_emit(value);
        }
        if (rle_emitted != raw_length) { exit(55); }
        produced = produced + rle_emitted;
        if (original == 0) { break; }
    }
    out_flush();
    return 0;
}
"""
        + _MAIN_LOOP
    )
