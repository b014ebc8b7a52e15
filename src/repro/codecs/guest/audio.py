"""Guest decoder sources for the audio codecs (vxflac, vxsnd).

Both decode a block one channel per call -- ``fl_channel``, ``ad_channel``
-- with the decoder state in locals: vxflac's bit reader and four predictor
taps, vxsnd's predictor and step index.  Samples go out with ``poke16`` at a
pointer that steps by the interleaved frame's size, so no sample costs a
call, a division or a byte-by-byte store.

The IMA ADPCM step tables are interpolated from the same Python constants the
native codec uses (:mod:`repro.codecs.vxsnd`), keeping both decoders
bit-identical.
"""


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


#: For each byte, how many of its low bits are ones before the first zero;
#: 32 -- more than any window holds -- for a byte of eight ones.
_UNARY_PREFIXES = [(value ^ (value + 1)).bit_length() - 1 for value in range(255)] + [32]


def vxflac_source() -> str:
    """vxc source of the vxflac (FLAC-class) guest decoder."""
    return (
        "byte fl_ones[256] = { " + ", ".join(map(str, _UNARY_PREFIXES)) + " };"
        + r"""

// Per-channel predictor history (up to 8 channels x 4 taps, most recent first).
int fl_history[32];

// Decode one channel of a block: Rice residuals with parameter k, predicted
// with the given order from the four taps at `history`, stored as 16-bit
// samples `stride` bytes apart from `cursor` up to `stop`.  The reader and
// the taps live in locals.  A residual is a unary quotient, its stop bit
// and k low bits.  With four bytes ahead, one word holds the residual's
// bits from bitpos on: fl_ones counts its unary prefix, and when the
// prefix, the stop bit and the k bits all lie inside the word the residual
// comes from the word alone.  Otherwise it is read a bit at a time, exiting
// 33 at the end of the stream and 80 on a runaway unary code, where the
// bit-by-bit reader always did.
int fl_channel(int history, int order, int k, int cursor, int stop, int stride) {
    int addr = br_addr;
    int bitpos = br_bitpos;
    int end = br_end;
    int last = end - 4;
    int window;
    int quotient;
    int value;
    int room = 32 - k;          // the word holds the residual if bitpos + quotient < room
    int mask = (1 << k) - 1;
    int p1 = peek32(history);
    int p2 = peek32(history + 4);
    int p3 = peek32(history + 8);
    int p4 = peek32(history + 12);
    while (cursor < stop) {
        quotient = 32;
        if (addr <= last) {
            window = peek32(addr) >> bitpos;
            quotient = fl_ones[window & 255];
        }
        if (bitpos + quotient < room) {
            value = (quotient << k) | ((window >> (quotient + 1)) & mask);
            bitpos = bitpos + quotient + 1 + k;
            addr = addr + (bitpos >> 3);
            bitpos = bitpos & 7;
        } else {
            quotient = 0;
            for (;;) {
                if (addr >= end) { exit(33); }           // stream exhausted
                window = (peek8(addr) >> bitpos) & 1;
                bitpos = bitpos + 1;
                if (bitpos == 8) { bitpos = 0; addr = addr + 1; }
                if (window == 0) { break; }
                quotient = quotient + 1;
                if (quotient > 1048576) { exit(80); }    // runaway unary code
            }
            value = 0;
            for (window = 0; window < k; window = window + 1) {
                if (addr >= end) { exit(33); }
                value = value | (((peek8(addr) >> bitpos) & 1) << window);
                bitpos = bitpos + 1;
                if (bitpos == 8) { bitpos = 0; addr = addr + 1; }
            }
            value = (quotient << k) | value;
        }
        value = (value >> 1) ^ (0 - (value & 1));         // zig-zag decode
        // The fixed predictor of the block's order.
        if (order == 1) { value = value + p1; }
        else if (order == 2) { value = value + (2 * p1 - p2); }
        else if (order == 3) { value = value + (3 * p1 - 3 * p2 + p3); }
        else if (order == 4) { value = value + (4 * p1 - 6 * p2 + 4 * p3 - p4); }
        p4 = p3;
        p3 = p2;
        p2 = p1;
        p1 = value;
        if (value > 32767) { value = 32767; }
        if (value < 0 - 32768) { value = 0 - 32768; }
        poke16(cursor, value);
        cursor = cursor + stride;
    }
    br_addr = addr;
    br_bitpos = bitpos;
    poke32(history, p1);
    poke32(history + 4, p2);
    poke32(history + 8, p3);
    poke32(history + 12, p4);
    return 0;
}

int decode_stream() {
    int src;
    int src_len;
    int sample_rate;
    int channels;
    int num_frames;
    int block_size;
    int position;
    int frames;
    int channel;
    int order;
    int parameter;
    int stride;
    int block_samples;
    int i;

    src = in_read_all();
    src_len = in_len;
    if (src_len < 16) { exit(81); }
    if (load_u32le(src) != 0x31465856) { exit(82); }        // "VXF1"
    sample_rate = load_u32le(src + 4);
    channels = peek8(src + 8);
    if (peek8(src + 9) != 16) { exit(83); }
    num_frames = load_u32le(src + 10);
    block_size = load_u16le(src + 14);
    if (channels < 1) { exit(83); }
    if (channels > 8) { exit(83); }
    if (block_size < 1) { exit(83); }

    for (i = 0; i < 32; i = i + 1) { fl_history[i] = 0; }

    br_init(src + 16, src_len - 16);
    out_init();
    wav_begin(sample_rate, channels, num_frames);

    // Interleaved 16-bit output for one block at a time.
    stride = channels * 2;
    block_samples = alloc(block_size * stride);

    position = 0;
    while (position < num_frames) {
        frames = num_frames - position;
        if (frames > block_size) { frames = block_size; }
        for (channel = 0; channel < channels; channel = channel + 1) {
            br_align();
            order = br_bits(8);
            parameter = br_bits(8);
            if (order > 4) { exit(84); }
            fl_channel(fl_history + channel * 16, order, parameter, block_samples + channel * 2,
                       block_samples + frames * stride + channel * 2, stride);
        }
        br_align();
        out_bytes(block_samples, frames * stride);
        position = position + frames;
    }
    out_flush();
    return 0;
}
"""
        + _MAIN_LOOP
    )


def vxsnd_source() -> str:
    """vxc source of the vxsnd (ADPCM, Vorbis-class role) guest decoder."""
    from repro.codecs.vxsnd import INDEX_TABLE, STEP_TABLE

    tables = "\n".join(
        [
            _int_array("ad_steps", STEP_TABLE),
            _int_array("ad_index_adjust", INDEX_TABLE),
        ]
    )
    return (
        tables
        + r"""

// Decode one channel of a block: 4-bit IMA ADPCM codes from `codes`, low
// nibble first, from the block's predictor and step index, stored as 16-bit
// samples `stride` bytes apart from `cursor` up to `stop`.  The decoder
// state lives in locals; `high` says which nibble of byte_value is next.
int ad_channel(int codes, int predictor, int index, int cursor, int stop, int stride) {
    int byte_value;
    int high = 0;
    int code;
    int step;
    int difference;
    while (cursor < stop) {
        if (high == 0) {
            byte_value = peek8(codes);
            code = byte_value & 15;
        } else {
            code = byte_value >> 4;
            codes = codes + 1;
        }
        high = high ^ 1;
        step = ad_steps[index];
        difference = step >> 3;
        if (code & 4) { difference = difference + step; }
        if (code & 2) { difference = difference + (step >> 1); }
        if (code & 1) { difference = difference + (step >> 2); }
        if (code & 8) {
            predictor = predictor - difference;
        } else {
            predictor = predictor + difference;
        }
        if (predictor > 32767) { predictor = 32767; }
        if (predictor < 0 - 32768) { predictor = 0 - 32768; }
        index = index + ad_index_adjust[code];
        if (index < 0) { index = 0; }
        if (index > 88) { index = 88; }
        poke16(cursor, predictor);
        cursor = cursor + stride;
    }
    return 0;
}

int decode_stream() {
    int src;
    int src_len;
    int sample_rate;
    int channels;
    int num_frames;
    int block_size;
    int offset;
    int position;
    int frames;
    int channel;
    int index;
    int nibble_bytes;
    int stride;
    int block_samples;

    src = in_read_all();
    src_len = in_len;
    if (src_len < 15) { exit(90); }
    if (load_u32le(src) != 0x31535856) { exit(91); }        // "VXS1"
    sample_rate = load_u32le(src + 4);
    channels = peek8(src + 8);
    num_frames = load_u32le(src + 9);
    block_size = load_u16le(src + 13);
    if (channels < 1) { exit(92); }
    if (channels > 8) { exit(92); }
    if (block_size < 1) { exit(92); }

    offset = 15;
    out_init();
    wav_begin(sample_rate, channels, num_frames);
    stride = channels * 2;
    block_samples = alloc(block_size * stride);

    position = 0;
    while (position < num_frames) {
        frames = num_frames - position;
        if (frames > block_size) { frames = block_size; }
        nibble_bytes = (frames + 1) >> 1;
        for (channel = 0; channel < channels; channel = channel + 1) {
            if (offset + 4 > src_len) { exit(93); }
            index = peek8(src + offset + 2);
            if (index > 88) { exit(94); }
            offset = offset + 4;
            if (offset + nibble_bytes > src_len) { exit(93); }
            ad_channel(src + offset, peek16s(src + offset - 4), index,
                       block_samples + channel * 2,
                       block_samples + frames * stride + channel * 2, stride);
            offset = offset + nibble_bytes;
        }
        position = position + frames;
        out_bytes(block_samples, frames * stride);
    }
    out_flush();
    return 0;
}
"""
        + _MAIN_LOOP
    )
