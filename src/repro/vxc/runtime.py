"""The vxc runtime library linked into every guest decoder.

This plays the role of the statically-linked C library in the paper's
decoders (Table 2 splits each decoder's code size into "decoder" and
"C library" portions; we preserve that split by tagging these functions as
library code).  It provides heap management over the ``setperm`` memory
model, bulk memory operations and buffered stream I/O over the ``read`` /
``write`` virtual system calls.
"""

RUNTIME_SOURCE = r"""
// --- vxc runtime library -------------------------------------------------
// Globals used by the allocator; _start initialises __heap_ptr/__heap_base
// to the first address past the bss section.

int __heap_ptr;
int __heap_base;

// Bump allocator.  Decoders are short-lived filters, so there is no free();
// heap_reset() recycles the whole heap between streams (done() protocol).
int alloc(int n) {
    int p;
    p = __heap_ptr;
    __heap_ptr = p + ((n + 3) & 0xfffffffc);
    if (setperm(__heap_ptr + 65536) < 0) {
        exit(12);   // ENOMEM: cannot grow the sandbox
    }
    return p;
}

int heap_reset() {
    __heap_ptr = __heap_base;
    return 0;
}

int memcopy(int dst, int src, int n) {
    int i;
    i = 0;
    while (i + 4 <= n) {
        poke32(dst + i, peek32(src + i));
        i = i + 4;
    }
    while (i < n) {
        poke8(dst + i, peek8(src + i));
        i = i + 1;
    }
    return dst;
}

int memfill(int dst, int value, int n) {
    int i;
    int word;
    word = value & 255;
    word = word | (word << 8);
    word = word | (word << 16);
    i = 0;
    while (i + 4 <= n) {
        poke32(dst + i, word);
        i = i + 4;
    }
    while (i < n) {
        poke8(dst + i, value);
        i = i + 1;
    }
    return dst;
}

// Read exactly n bytes unless end-of-stream comes first; returns bytes read.
int read_full(int fd, int buf, int n) {
    int total;
    int got;
    total = 0;
    while (total < n) {
        got = read(fd, buf + total, n - total);
        if (got <= 0) {
            return total;
        }
        total = total + got;
    }
    return total;
}

// Write all n bytes; returns n, or exits on an unwritable stream.
int write_full(int fd, int buf, int n) {
    int total;
    int put;
    total = 0;
    while (total < n) {
        put = write(fd, buf + total, n - total);
        if (put <= 0) {
            exit(5);    // EIO: the host refused our output
        }
        total = total + put;
    }
    return n;
}

int min(int a, int b) {
    if (a < b) { return a; }
    return b;
}

int max(int a, int b) {
    if (a > b) { return a; }
    return b;
}

int abs32(int a) {
    if (a < 0) { return 0 - a; }
    return a;
}

// Little-endian scalar accessors for headers in byte buffers.
int load_u16le(int addr) {
    return peek8(addr) | (peek8(addr + 1) << 8);
}

int load_u32le(int addr) {
    return peek8(addr) | (peek8(addr + 1) << 8) | (peek8(addr + 2) << 16)
         | (peek8(addr + 3) << 24);
}

int store_u16le(int addr, int value) {
    poke8(addr, value & 255);
    poke8(addr + 1, (value >> 8) & 255);
    return 2;
}

int store_u32le(int addr, int value) {
    poke8(addr, value & 255);
    poke8(addr + 1, (value >> 8) & 255);
    poke8(addr + 2, (value >> 16) & 255);
    poke8(addr + 3, (value >> 24) & 255);
    return 4;
}

// Diagnostics on the stderr virtual handle (shown by vxUnZIP in verbose mode).
int write_cstr(int fd, int addr) {
    int n;
    n = 0;
    while (peek8(addr + n) != 0) {
        n = n + 1;
    }
    return write(fd, addr, n);
}
"""
