"""End-to-end tests for the vxc compiler: compile programs, run them on the VM."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro.errors import VxcSemanticError, VxcSyntaxError
from repro.vm.machine import ENGINE_INTERPRETER, ENGINE_TRANSLATOR, VirtualMachine
from repro.vxc.compiler import compile_source
from repro.vxc.lexer import tokenize
from repro.vxc.parser import parse

ENGINES = [ENGINE_TRANSLATOR, ENGINE_INTERPRETER]


def run_vxc(source: str, stdin: bytes = b"", engine: str = ENGINE_TRANSLATOR):
    """Compile ``source`` and execute it in the VM; return the DecodeResult."""
    result = compile_source(source, codec_name="test")
    vm = VirtualMachine(result.elf, engine=engine)
    return vm.decode(stdin)


# -- lexer / parser ------------------------------------------------------------


def test_tokenize_basic():
    tokens = tokenize("int x = 0x10 + 'A'; // comment\n")
    kinds = [token.kind for token in tokens]
    assert kinds == ["keyword", "ident", "op", "number", "op", "number", "op", "eof"]
    assert tokens[3].value == 16
    assert tokens[5].value == 65


def test_tokenize_rejects_garbage():
    with pytest.raises(VxcSyntaxError):
        tokenize("int x = `;")


def test_tokenize_block_comment_and_string():
    tokens = tokenize('/* multi\nline */ byte s[] = "hi\\n";')
    assert tokens[0].value == "byte"
    assert any(token.kind == "string" and token.value == "hi\n" for token in tokens)


def test_parse_rejects_missing_semicolon():
    with pytest.raises(VxcSyntaxError):
        parse("int main() { return 0 }")


def test_parse_rejects_bad_assignment_target():
    with pytest.raises(VxcSyntaxError):
        parse("int main() { 1 = 2; return 0; }")


# -- semantic errors -----------------------------------------------------------


def test_missing_main_rejected():
    with pytest.raises(VxcSemanticError):
        compile_source("int helper() { return 1; }")


def test_undeclared_identifier_rejected():
    with pytest.raises(VxcSemanticError):
        compile_source("int main() { return nope; }")


def test_wrong_arity_rejected():
    with pytest.raises(VxcSemanticError):
        compile_source("int f(int a, int b) { return a + b; } int main() { return f(1); }")


def test_break_outside_loop_rejected():
    with pytest.raises(VxcSemanticError):
        compile_source("int main() { break; return 0; }")


def test_assign_to_const_rejected():
    with pytest.raises(VxcSemanticError):
        compile_source("const int K = 3; int main() { K = 4; return 0; }")


def test_index_of_scalar_rejected():
    with pytest.raises(VxcSemanticError):
        compile_source("int x; int main() { return x[0]; }")


def test_duplicate_function_rejected():
    with pytest.raises(VxcSemanticError):
        compile_source("int main() { return 0; } int main() { return 1; }")


def test_indexing_parameter_suggests_peek():
    with pytest.raises(VxcSemanticError) as excinfo:
        compile_source("int f(int p) { return p[0]; } int main() { return f(0); }")
    assert "peek" in str(excinfo.value)


# -- execution semantics --------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_return_value_becomes_exit_code(engine):
    assert run_vxc("int main() { return 7; }", engine=engine).exit_code == 7


@pytest.mark.parametrize("engine", ENGINES)
def test_arithmetic_precedence(engine):
    source = "int main() { return 2 + 3 * 4 - 10 / 2; }"  # 2+12-5 = 9
    assert run_vxc(source, engine=engine).exit_code == 9


@pytest.mark.parametrize("engine", ENGINES)
def test_signed_division_and_modulo(engine):
    source = """
    int main() {
        if ((0 - 7) / 2 != 0 - 3) { return 1; }
        if ((0 - 7) % 2 != 0 - 1) { return 2; }
        if (7 / (0 - 2) != 0 - 3) { return 3; }
        return 0;
    }
    """
    assert run_vxc(source, engine=engine).exit_code == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_shift_right_is_logical_and_asr_is_arithmetic(engine):
    source = """
    int main() {
        int x;
        x = 0 - 4;                      // 0xfffffffc
        if ((x >> 1) != 0x7ffffffe) { return 1; }
        if (asr(x, 1) != 0 - 2) { return 2; }
        if (udiv(0xfffffffc, 4) != 0x3fffffff) { return 3; }
        if (umod(10, 3) != 1) { return 4; }
        return 0;
    }
    """
    assert run_vxc(source, engine=engine).exit_code == 0


def test_while_and_for_loops():
    source = """
    int main() {
        int total;
        int i;
        total = 0;
        for (i = 1; i <= 10; i = i + 1) {
            total = total + i;
        }
        while (total > 50) {
            total = total - 1;
        }
        return total;      // sum 1..10 = 55, decremented to 50
    }
    """
    assert run_vxc(source).exit_code == 50


def test_do_while_executes_at_least_once():
    source = """
    int main() {
        int n;
        n = 0;
        do { n = n + 1; } while (n < 0);
        return n;
    }
    """
    assert run_vxc(source).exit_code == 1


def test_break_and_continue():
    source = """
    int main() {
        int i;
        int total;
        total = 0;
        for (i = 0; i < 100; i = i + 1) {
            if (i % 2 == 0) { continue; }
            if (i > 10) { break; }
            total = total + i;     // 1+3+5+7+9 = 25
        }
        return total;
    }
    """
    assert run_vxc(source).exit_code == 25


def test_nested_loops_with_break():
    source = """
    int main() {
        int i; int j; int hits;
        hits = 0;
        for (i = 0; i < 5; i = i + 1) {
            for (j = 0; j < 5; j = j + 1) {
                if (j == 3) { break; }
                hits = hits + 1;
            }
        }
        return hits;     // 5 * 3
    }
    """
    assert run_vxc(source).exit_code == 15


def test_logical_operators_short_circuit():
    source = """
    int calls;
    int bump() { calls = calls + 1; return 1; }
    int main() {
        calls = 0;
        if (0 && bump()) { return 100; }
        if (1 || bump()) { calls = calls; }
        if (calls != 0) { return 1; }
        if (!(3 > 2) != 0) { return 2; }
        return 0;
    }
    """
    assert run_vxc(source).exit_code == 0


def test_ternary_operator():
    source = "int main() { int x; x = 7; return x > 5 ? 1 : 2; }"
    assert run_vxc(source).exit_code == 1


def test_compound_assignment_and_increment():
    source = """
    int main() {
        int x;
        x = 10;
        x += 5;
        x -= 3;
        x *= 2;
        x /= 4;       // 6
        x <<= 4;      // 96
        x >>= 2;      // 24
        x |= 1;       // 25
        x &= 0x1f;    // 25
        x ^= 3;       // 26
        ++x;          // 27
        --x;          // 26
        return x;
    }
    """
    assert run_vxc(source).exit_code == 26


def test_recursion_fibonacci():
    source = """
    int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    int main() { return fib(12); }   // 144
    """
    assert run_vxc(source).exit_code == 144


def test_global_scalars_arrays_and_const():
    source = """
    const int SCALE = 3;
    int counter = 5;
    int table[4] = { 10, 20, 30, 40 };
    byte flags[8];
    int main() {
        int i;
        counter = counter + SCALE;            // 8
        for (i = 0; i < 8; i = i + 1) { flags[i] = i * i; }
        if (flags[7] != 49) { return 1; }
        if (table[2] != 30) { return 2; }
        table[2] = table[2] + counter;        // 38
        return table[2];
    }
    """
    assert run_vxc(source).exit_code == 38


def test_byte_arrays_are_unsigned():
    source = """
    byte data[4];
    int main() {
        data[0] = 0xff;
        if (data[0] != 255) { return 1; }
        data[1] = 300;                 // truncated to 44
        if (data[1] != 44) { return 2; }
        return 0;
    }
    """
    assert run_vxc(source).exit_code == 0


def test_local_arrays_and_argument_passing():
    source = """
    int sum_words(int addr, int count) {
        int i; int total;
        total = 0;
        for (i = 0; i < count; i = i + 1) {
            total = total + peek32(addr + i * 4);
        }
        return total;
    }
    int main() {
        int values[5];
        int i;
        for (i = 0; i < 5; i = i + 1) { values[i] = i + 1; }
        return sum_words(values, 5);     // 15
    }
    """
    assert run_vxc(source).exit_code == 15


def test_peek_poke_signed_variants():
    source = """
    byte scratch[8];
    int main() {
        poke8(scratch, 0xf0);
        poke16(scratch + 2, 0x8001);
        poke32(scratch + 4, 0xdeadbeef);
        if (peek8(scratch) != 0xf0) { return 1; }
        if (peek8s(scratch) != 0 - 16) { return 2; }
        if (peek16(scratch + 2) != 0x8001) { return 3; }
        if (peek16s(scratch + 2) != 0 - 32767) { return 4; }
        if (peek32(scratch + 4) != 0xdeadbeef) { return 5; }
        return 0;
    }
    """
    assert run_vxc(source).exit_code == 0


def test_global_initializer_expressions():
    source = """
    const int BITS = 1 << 4;
    int mask = (1 << 4) - 1;
    int main() { return BITS + mask; }     // 16 + 15
    """
    assert run_vxc(source).exit_code == 31


@pytest.mark.parametrize("engine", ENGINES)
def test_stream_io_echo_program(engine):
    source = """
    byte buffer[512];
    int main() {
        int n;
        while (1) {
            n = read(0, buffer, 512);
            if (n <= 0) { break; }
            write_full(1, buffer, n);
        }
        return 0;
    }
    """
    payload = bytes(range(256)) * 8
    result = run_vxc(source, stdin=payload, engine=engine)
    assert result.exit_code == 0
    assert result.output == payload


def test_stderr_diagnostics_via_string_literal():
    source = """
    byte message[] = "decoder warning\n";
    int main() {
        write_cstr(2, message);
        return 0;
    }
    """
    result = run_vxc(source)
    assert result.stderr == b"decoder warning\n"
    assert result.output == b""


def test_runtime_alloc_memcopy_memfill():
    source = """
    int main() {
        int a; int b; int i;
        a = alloc(1024);
        b = alloc(1024);
        memfill(a, 0xab, 1024);
        memcopy(b, a, 1024);
        for (i = 0; i < 1024; i = i + 1) {
            if (peek8(b + i) != 0xab) { return 1; }
        }
        if (a == b) { return 2; }
        heap_reset();
        if (alloc(16) != a) { return 3; }
        return 0;
    }
    """
    assert run_vxc(source).exit_code == 0


def test_min_max_abs_helpers():
    source = """
    int main() {
        if (min(3, 5) != 3) { return 1; }
        if (max(3, 5) != 5) { return 2; }
        if (abs32(0 - 9) != 9) { return 3; }
        if (min(0 - 2, 1) != 0 - 2) { return 4; }
        return 0;
    }
    """
    assert run_vxc(source).exit_code == 0


def test_load_store_le_helpers():
    source = """
    byte buf[16];
    int main() {
        store_u32le(buf, 0x11223344);
        store_u16le(buf + 4, 0xbeef);
        if (load_u32le(buf) != 0x11223344) { return 1; }
        if (load_u16le(buf + 4) != 0xbeef) { return 2; }
        if (peek8(buf) != 0x44) { return 3; }
        return 0;
    }
    """
    assert run_vxc(source).exit_code == 0


def test_translator_and_interpreter_agree_on_compiled_code():
    source = """
    int lcg;
    int next_random() {
        lcg = lcg * 1103515245 + 12345;
        return (lcg >> 16) & 0x7fff;
    }
    byte out[4096];
    int main() {
        int i;
        lcg = 42;
        for (i = 0; i < 4096; i = i + 1) {
            out[i] = next_random() & 255;
        }
        write_full(1, out, 4096);
        return 0;
    }
    """
    compiled = compile_source(source, codec_name="prng")
    outputs = []
    for engine in ENGINES:
        vm = VirtualMachine(compiled.elf, engine=engine)
        outputs.append(vm.decode(b"").output)
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 4096


def test_compile_result_reports_code_provenance():
    source = """
    int helper(int a) { return a * 3; }
    int main() { return helper(memcopy(0, 0, 0) + 14); }
    """
    result = compile_source(source, codec_name="prov")
    assert result.note["codec"] == "prov"
    assert result.note["toolchain"] == "vxc-0.3"
    assert result.note["decoder_code_bytes"] > 0
    assert result.note["library_code_bytes"] > 0
    assert result.text_size >= (
        result.category_sizes["decoder"] + result.category_sizes["library"]
    )
    assert "main" in result.function_sizes
    assert "memcopy" in result.function_sizes
    assert result.compressed_size < result.image_size


# -- the code generator's register convention (read off the assembly, no clock) --


def _function_body(assembly: str, name: str) -> list[str]:
    """Instructions and labels of ``fn_<name>``, label line excluded."""
    lines = [line.strip() for line in assembly.splitlines()]
    start = lines.index(f"fn_{name}:") + 1
    end = lines.index("ret", start) + 1
    return lines[start:end]


def _between(lines: list[str], first_prefix: str, last_prefix: str) -> list[str]:
    first = next(i for i, line in enumerate(lines) if line.startswith(first_prefix))
    last = next(i for i, line in enumerate(lines) if line.startswith(last_prefix))
    return lines[first:last]


def _compile_bare(source: str):
    return compile_source(source, codec_name="gate", include_runtime=False)


def test_hot_scalars_of_a_counting_loop_never_touch_the_frame():
    source = """
    int main() {
        int i; int n; int total;
        n = 10; total = 0;
        for (i = 0; i < n; i = i + 1) { total = total + i; }
        return total;
    }
    """
    body = _function_body(_compile_bare(source).assembly, "main")
    loop = _between(body, ".for", ".endfor")
    assert loop and not [line for line in loop if "[fp" in line or "push" in line]
    assert run_vxc(source).exit_code == 45


@pytest.mark.parametrize("statement", [
    "r = x + y;", "r = x < n;", "if (x < n) { r = 1; }", "a[i] = v;", "g[i] = v;",
    "r = udiv(x, n);", "r = x - K;", "x += y;", "poke32(a, v);", "r = x * total;",
])
def test_leaf_right_operands_skip_the_stack(statement):
    # Four hot scalars (x, y, n, i): some of the leaves live in registers,
    # the others in frame slots, parameters and globals.
    source = f"""
    const int K = 5;
    int g[8]; int total;
    int f(int v, int n) {{
        int a[8]; int x; int y; int i; int r;
        x = 1; y = 2; i = 3; r = 0;
        while (i < 8) {{ x = x + y; y = y + n; i = i + x; }}
        {statement}
        return r;
    }}
    int main() {{ return f(1, 2); }}
    """
    body = _function_body(_compile_bare(source).assembly, "f")
    tail = body[body.index(next(line for line in body if line.startswith(".endwhile"))):]
    assert not [line for line in tail if line.startswith(("push", "pop r0", "pop r1"))]


def test_function_without_register_locals_keeps_the_plain_frame():
    source = """
    int pick(int a, int b) { int t[2]; t[0] = a; if (t[0] < b) { return a; } return b; }
    int main() { return pick(3, 4); }
    """
    body = _function_body(_compile_bare(source).assembly, "pick")
    assert body[:4] == ["push fp", "mov fp, sp", "subi sp, 16", "lea r0, [fp-8]"]
    assert body[-4:] == ["fn_pick__end:", "mov sp, fp", "pop fp", "ret"]
    assert not [line for line in body if "r2" in line or "r3" in line or "r5" in line]


def test_register_saves_and_restores_pair_up_in_every_function():
    from repro.codecs.guest import vximg_guest_units
    from repro.vxc.compiler import compile_units

    result = compile_units(vximg_guest_units(), codec_name="vximg")
    assigned_somewhere = 0
    for name in result.function_sizes:
        if name == "_start":
            continue
        body = _function_body(result.assembly, name)
        entry = body[2:] if not body[2].startswith("subi sp") else body[3:]
        saves = []
        while entry[len(saves)].startswith("st32 [fp-") and entry[len(saves)][-2:] in (
                "r2", "r3", "r5"):
            saves.append(entry[len(saves)])
        epilogue = body[body.index(f"fn_{name}__end:") + 1:]
        restores = [f"ld32 {save[-2:]}, {save[5:-4]}" for save in saves]
        assert epilogue == restores + ["mov sp, fp", "pop fp", "ret"], name
        saved = {save[-2:] for save in saves}
        assert [save[5:-4] for save in saves] == [
            f"[fp-{4 * (index + 1)}]" for index in range(len(saves))], name
        # Only saved registers are ever assigned.  read/write load R2 and R3
        # inside their own ``push r2; push r3 ... pop r3; pop r2`` bracket.
        outside_io, in_bracket = [], False
        for previous, line in zip([""] + body, body):
            if (previous, line) == ("push r2", "push r3"):
                in_bracket = True
            elif not in_bracket:
                outside_io.append(line)
            elif line == "pop r2":
                in_bracket = False
        assert not in_bracket, name
        written = {line.split()[1].rstrip(",") for line in outside_io
                   if line.startswith(("mov r", "ld32 r", "movi r", "lea r"))}
        assert written & {"r2", "r3", "r5"} <= saved, name
        assigned_somewhere += len(saves)
    assert assigned_somewhere > 20


def test_same_source_compiles_to_identical_bytes():
    from repro.codecs.guest import vxbwt_guest_units
    from repro.vxc.compiler import compile_units

    first = compile_units(vxbwt_guest_units(), codec_name="vxbwt")
    second = compile_units(vxbwt_guest_units(), codec_name="vxbwt")
    assert first.elf == second.elf
    assert first.assembly == second.assembly
    assert "\n.ret" in first.assembly          # calls generated in place, too


def test_bundled_images_do_not_depend_on_the_hash_seed():
    """The image hash is the registry key and the archive's dedup key, so the
    six bundled images must come out the same in every interpreter: the
    compiler walks functions and call sites in source order, never a ``set``."""
    script = (
        "import hashlib\n"
        "from repro.codecs.registry import default_registry\n"
        "for codec in default_registry():\n"
        "    print(codec.name, hashlib.sha256(codec.guest_decoder_image()).hexdigest())\n"
    )
    source_root = str(pathlib.Path(__file__).parent.parent / "src")
    listings = []
    for hash_seed in ("0", "1", "random"):
        environment = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source_root)
        listings.append(subprocess.run(
            [sys.executable, "-c", script], env=environment, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    assert listings[0].count("\n") == 6
    assert listings[0] == listings[1] == listings[2]


#: SHA-256 of each bundled decoder image.  The digest is the registry key and
#: the archive's dedup key, so a change to a decoder's source or to what vxc
#: emits moves its pin, nothing else may, and every Python CI runs must build
#: the same bytes.
_IMAGE_DIGESTS = {
    "vxz": "c27c4bc6adfe3cdb907f99ddd805241b6f598c255f647a5edb20db54bab1fd38",
    "vxbwt": "7594a6a70d88d29b56d23d861220f90d938e12b28d70c556dd74715376a65c9c",
    "vximg": "912492fda7ded15fbe8d2fa7d2d5843aa0d1eed1c4c078a9ff19f4e2e7444df5",
    "vxjp2": "43341a05366a74e1653ca7ccb8a0662459503f070c0f86becc6ce0198a2b3167",
    "vxflac": "6e11d194e4159bb80c2cda8814a83ea8c1c866a8ab298677dbf9796bba4d3758",
    "vxsnd": "632692e3e0f7a7f47abcd870284dbd18bbb9c37366546c36ca9070d66fb06599",
}


def test_bundled_images_are_pinned():
    from repro.codecs.registry import default_registry

    digests = {codec.name: hashlib.sha256(codec.guest_decoder_image()).hexdigest()
               for codec in default_registry()}
    assert digests == _IMAGE_DIGESTS
