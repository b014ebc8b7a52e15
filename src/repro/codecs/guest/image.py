"""Guest decoder sources for the still-image codecs (vximg, vxjp2).

The fixed-point IDCT basis and the zig-zag scan order are interpolated from
the same Python constants the native codec uses (:mod:`repro.codecs.dct`), so
the archived decoder and the native decoder produce bit-identical BMP output.
"""

from repro.codecs.dct import FIX_BITS, IDCT_FIXED, ZIGZAG


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

# Shared colour/pixel helpers used by both image decoders.
_PIXEL_HELPERS = r"""
int clamp255(int value) {
    if (value < 0) { return 0; }
    if (value > 255) { return 255; }
    return value;
}
"""


def vximg_source() -> str:
    """vxc source of the vximg (JPEG-class) guest decoder."""
    tables = "\n".join(
        [
            _int_array("vi_idct", IDCT_FIXED.reshape(64)),
            _int_array("vi_zigzag", ZIGZAG),
        ]
    )
    round_half = 1 << (FIX_BITS - 1)
    return (
        tables
        + _PIXEL_HELPERS
        + r"""

int vi_quant[64];      // quantisation steps, zig-zag order (as stored in the header)
int vi_coef[64];       // dequantised coefficients, row-major; zero between blocks
int vi_tmp[64];        // the column pass's output, row-major

// Fixed-point inverse DCT of vi_coef, written as pixels to `dst` (8 rows of
// 8 bytes, `stride` bytes apart).  Only the first `rows` rows and `cols`
// columns of vi_coef can hold a non-zero coefficient: every term skipped is
// exactly zero and 32-bit sums do not depend on order, so this is the full
// 8x8 product.  A column of vi_tmp at or past `cols` would round to zero, so
// it is neither computed nor read; the coefficients read are zeroed behind.
int vi_idct_block(int rows, int cols, int dst, int stride) {
    int x;
    int y;
    int acc;
    int p;
    int q;
    int end;
    for (y = 0; y < cols; y = y + 1) {
        end = vi_coef + y * 4 + rows * 32;
        for (x = 0; x < 8; x = x + 1) {
            acc = 0;
            q = vi_idct + x * 4;
            for (p = vi_coef + y * 4; p < end; p = p + 32) {
                acc = acc + peek32(q) * peek32(p);
                q = q + 32;
            }
            vi_tmp[x * 8 + y] = asr(acc + """
        + str(round_half)
        + r""", """
        + str(FIX_BITS)
        + r""");
        }
        for (p = vi_coef + y * 4; p < end; p = p + 32) { poke32(p, 0); }
    }
    for (x = 0; x < 8; x = x + 1) {
        end = vi_tmp + x * 32 + cols * 4;
        for (y = 0; y < 8; y = y + 1) {
            acc = 0;
            q = vi_idct + y * 4;
            for (p = vi_tmp + x * 32; p < end; p = p + 4) {
                acc = acc + peek32(p) * peek32(q);
                q = q + 32;
            }
            poke8(dst + y, clamp255(asr(acc + """
        + str(round_half)
        + r""", """
        + str(FIX_BITS)
        + r""") + 128));
        }
        dst = dst + stride;
    }
    return 0;
}

int decode_stream() {
    int src;
    int src_len;
    int width;
    int height;
    int channels;
    int padded_width;
    int padded_height;
    int plane_size;
    int planes;
    int tokens;
    int channel;
    int block_row;
    int block_col;
    int previous_dc;
    int delta;
    int run;
    int position;
    int rows;
    int cols;
    int i;
    int row;
    int stride_pad;
    int y_value;
    int cb_value;
    int cr_value;
    int red;
    int green;
    int blue;
    int index;
    int cr_plane;
    int pixel;
    int end;
    int cursor;
    int limit;

    src = in_read_all();
    src_len = in_len;
    if (src_len < 74) { exit(60); }
    if (load_u32le(src) != 0x31495856) { exit(61); }       // "VXI1"
    width = load_u16le(src + 4);
    height = load_u16le(src + 6);
    channels = peek8(src + 9);
    if (width == 0) { exit(62); }
    if (height == 0) { exit(62); }
    if (channels != 1) { if (channels != 3) { exit(62); } }
    for (i = 0; i < 64; i = i + 1) { vi_quant[i] = peek8(src + 10 + i); }

    tokens = hb_unpack(src + 74, src + src_len);
    tk_init(tokens, hb_len);

    padded_width = (width + 7) & 0xfffffff8;
    padded_height = (height + 7) & 0xfffffff8;
    plane_size = padded_width * padded_height;
    planes = alloc(plane_size * 3);
    memfill(planes, 128, plane_size * 3);
    // A stream that stopped mid-block left coefficients behind.
    for (i = 0; i < 64; i = i + 1) { vi_coef[i] = 0; }

    for (channel = 0; channel < channels; channel = channel + 1) {
        previous_dc = 0;
        for (block_row = 0; block_row < padded_height; block_row = block_row + 8) {
            for (block_col = 0; block_col < padded_width; block_col = block_col + 8) {
                // DC delta, then (run, value) AC pairs in zig-zag order, each
                // dequantised into its row-major place as it arrives.
                delta = zz_decode(tk_varint());
                previous_dc = previous_dc + delta;
                vi_coef[0] = previous_dc * vi_quant[0];
                rows = 1;
                cols = 1;
                position = 1;
                while (1) {
                    run = tk_byte();
                    if (run == 255) { break; }
                    position = position + run;
                    if (position >= 64) { exit(63); }
                    index = vi_zigzag[position];
                    vi_coef[index] = zz_decode(tk_varint()) * vi_quant[position];
                    if (index >= rows * 8) { rows = (index >> 3) + 1; }
                    if ((index & 7) >= cols) { cols = (index & 7) + 1; }
                    position = position + 1;
                }
                vi_idct_block(rows, cols, planes + channel * plane_size
                              + block_row * padded_width + block_col, padded_width);
            }
        }
    }

    // Emit the BMP: bottom-up rows, BGR, rows padded to 4 bytes.  Pixels
    // are stored through a local cursor, flushed when fewer than three bytes
    // of out_buf are left; the padding goes through out_byte.
    out_init();
    bmp_begin(width, height);
    stride_pad = bmp_stride(width) - width * 3;
    cr_plane = plane_size * 2;
    row = height - 1;
    while (row >= 0) {
        cursor = out_buf + out_pos;
        limit = out_buf + out_cap - 3;
        end = planes + row * padded_width + width;
        for (pixel = end - width; pixel < end; pixel = pixel + 1) {
            y_value = peek8(pixel);
            if (channels == 1) {
                red = y_value;
                green = y_value;
                blue = y_value;
            } else {
                cb_value = peek8(pixel + plane_size) - 128;
                cr_value = peek8(pixel + cr_plane) - 128;
                red = clamp255(y_value + asr(359 * cr_value, 8));
                green = clamp255(y_value - asr(88 * cb_value + 183 * cr_value, 8));
                blue = clamp255(y_value + asr(454 * cb_value, 8));
            }
            if (cursor > limit) { cursor = out_spill(cursor); }
            poke8(cursor, blue);
            poke8(cursor + 1, green);
            poke8(cursor + 2, red);
            cursor = cursor + 3;
        }
        out_pos = cursor - out_buf;
        for (i = 0; i < stride_pad; i = i + 1) { out_byte(0); }
        row = row - 1;
    }
    out_flush();
    return 0;
}
"""
        + _MAIN_LOOP
    )


def vxjp2_source() -> str:
    """vxc source of the vxjp2 (JPEG-2000-class) guest decoder."""
    return (
        _PIXEL_HELPERS
        + r"""

int wj_padded_width;
int wj_padded_height;
int wj_tmp;            // scratch buffer for one lifting line (ints)

// Quantisation step for a subband; must match repro.codecs.vxjp2.subband_step.
// kind: 0 = HL, 1 = LH, 2 = HH, 3 = LL.
int wj_step(int level, int kind, int quality) {
    int base;
    int shift;
    int step;
    if (quality >= 100) { return 1; }
    if (kind == 3) { return 1; }
    base = (100 - quality) / 8;
    if (base < 1) { base = 1; }
    shift = 3 - level;
    if (shift < 0) { shift = 0; }
    step = (base * (1 << shift)) / 4;
    if (kind == 2) { step = step * 2; }
    if (step < 1) { step = 1; }
    return step;
}

// Fill one subband rectangle of the coefficient plane from the token stream.
int wj_decode_band(int plane, int row0, int col0, int band_height, int band_width, int step) {
    int total;
    int position;
    int run;
    int value;
    int band_row;
    int band_col;
    int address;
    total = band_height * band_width;
    position = 0;
    while (1) {
        run = tk_byte();
        if (run == 255) { break; }
        position = position + run;
        if (position >= total) { exit(70); }
        value = zz_decode(tk_varint());
        band_row = row0 + udiv(position, band_width);
        band_col = col0 + umod(position, band_width);
        address = plane + (band_row * wj_padded_width + band_col) * 4;
        poke32(address, value * step);
        position = position + 1;
    }
    return 0;
}

// Inverse 5/3 lifting along `count` elements with `stride` words between them.
int wj_inverse_1d(int base, int count, int stride) {
    int step;
    int half;
    int end;
    int p;
    int t;
    int out;
    int detail;
    int detail_prev;
    int even_value;
    int even_next;
    step = stride * 4;
    half = (count / 2) * step;      // bytes from s[i] to d[i]
    // Undo the update step into wj_tmp: even[i] = s[i] - ((d[i-1] + d[i] + 2) >> 2),
    // with d[-1] = d[0].
    end = base + half;
    detail_prev = peek32(end);
    t = wj_tmp;
    for (p = base; p < end; p = p + step) {
        detail = peek32(p + half);
        poke32(t, peek32(p) - asr(detail_prev + detail + 2, 2));
        detail_prev = detail;
        t = t + 4;
    }
    // Undo the predict step and interleave in place: x[2i] = even[i],
    // x[2i+1] = d[i] + ((even[i] + even[i+1]) >> 1), with even[half] =
    // even[half-1].  The writes at 2i and 2i+1 never reach a d[j], j > i.
    end = t - 4;
    even_value = peek32(wj_tmp);
    out = base;
    for (t = wj_tmp; t < end; t = t + 4) {
        even_next = peek32(t + 4);
        poke32(out, even_value);
        poke32(out + step, peek32(p) + asr(even_value + even_next, 1));
        even_value = even_next;
        p = p + step;
        out = out + step + step;
    }
    poke32(out, even_value);
    poke32(out + step, peek32(p) + asr(even_value + even_value, 1));
    return 0;
}

int decode_stream() {
    int src;
    int src_len;
    int width;
    int height;
    int levels;
    int quality;
    int factor;
    int tokens;
    int plane_words;
    int planes;
    int plane;
    int channel;
    int level;
    int current_height;
    int current_width;
    int low_height;
    int low_width;
    int sub_height;
    int sub_width;
    int row;
    int col;
    int i;
    int stride_pad;
    int y_value;
    int u_value;
    int v_value;
    int red;
    int green;
    int blue;
    int u_plane;
    int v_plane;
    int pixel;
    int end;
    int cursor;
    int limit;

    src = in_read_all();
    src_len = in_len;
    if (src_len < 11) { exit(71); }
    if (load_u32le(src) != 0x324a5856) { exit(72); }        // "VXJ2"
    width = load_u16le(src + 4);
    height = load_u16le(src + 6);
    levels = peek8(src + 8);
    quality = peek8(src + 9);
    if (peek8(src + 10) != 3) { exit(73); }
    if (levels < 1) { exit(73); }
    if (levels > 6) { exit(73); }
    if (width == 0) { exit(73); }
    if (height == 0) { exit(73); }

    tokens = hb_unpack(src + 11, src + src_len);
    tk_init(tokens, hb_len);

    factor = 1 << levels;
    wj_padded_width = udiv(width + factor - 1, factor) * factor;
    wj_padded_height = udiv(height + factor - 1, factor) * factor;
    plane_words = wj_padded_width * wj_padded_height;
    planes = alloc(plane_words * 4 * 3);
    memfill(planes, 0, plane_words * 4 * 3);
    wj_tmp = alloc(max(wj_padded_width, wj_padded_height) * 4 + 16);

    for (channel = 0; channel < 3; channel = channel + 1) {
        plane = planes + channel * plane_words * 4;
        // Subbands arrive finest-level first (HL, LH, HH per level) then LL.
        current_height = wj_padded_height;
        current_width = wj_padded_width;
        for (level = 1; level <= levels; level = level + 1) {
            low_height = current_height / 2;
            low_width = current_width / 2;
            wj_decode_band(plane, 0, low_width, low_height, low_width,
                           wj_step(level, 0, quality));
            wj_decode_band(plane, low_height, 0, low_height, low_width,
                           wj_step(level, 1, quality));
            wj_decode_band(plane, low_height, low_width, low_height, low_width,
                           wj_step(level, 2, quality));
            current_height = low_height;
            current_width = low_width;
        }
        wj_decode_band(plane, 0, 0, current_height, current_width, 1);

        // Multi-level inverse transform: columns then rows at each scale.
        level = levels - 1;
        while (level >= 0) {
            sub_height = wj_padded_height >> level;
            sub_width = wj_padded_width >> level;
            for (col = 0; col < sub_width; col = col + 1) {
                wj_inverse_1d(plane + col * 4, sub_height, wj_padded_width);
            }
            for (row = 0; row < sub_height; row = row + 1) {
                wj_inverse_1d(plane + row * wj_padded_width * 4, sub_width, 1);
            }
            level = level - 1;
        }
    }

    // Inverse reversible colour transform and BMP output (cropping the
    // padding), stored as in vximg.
    out_init();
    bmp_begin(width, height);
    stride_pad = bmp_stride(width) - width * 3;
    u_plane = plane_words * 4;
    v_plane = plane_words * 8;
    row = height - 1;
    while (row >= 0) {
        cursor = out_buf + out_pos;
        limit = out_buf + out_cap - 3;
        end = planes + (row * wj_padded_width + width) * 4;
        for (pixel = end - width * 4; pixel < end; pixel = pixel + 4) {
            y_value = peek32(pixel);
            u_value = peek32(pixel + u_plane);
            v_value = peek32(pixel + v_plane);
            green = y_value - asr(u_value + v_value, 2);
            red = clamp255(v_value + green);
            blue = clamp255(u_value + green);
            green = clamp255(green);
            if (cursor > limit) { cursor = out_spill(cursor); }
            poke8(cursor, blue);
            poke8(cursor + 1, green);
            poke8(cursor + 2, red);
            cursor = cursor + 3;
        }
        out_pos = cursor - out_buf;
        for (i = 0; i < stride_pad; i = i + 1) { out_byte(0); }
        row = row - 1;
    }
    out_flush();
    return 0;
}
"""
        + _MAIN_LOOP
    )
