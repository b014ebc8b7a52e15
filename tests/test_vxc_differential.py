"""Differential tests for the vxc compiler: generated programs vs. a reference.

Every other compiler test runs a fixed program against a hand-computed
answer.  Here seeded random programs, plus a few fixed ones aimed at the
register convention of ``repro.vxc.codegen`` and at the calls it generates in
place, are compiled and run on both engines, and their exit code and stdout
are compared with a direct evaluation of the parsed AST (:class:`_Reference`,
which calls every function): 32-bit wrap-around, signed ``/ %`` and
comparisons, logical ``>>``, short-circuit ``&& ||``, and the evaluation
order the language has always had (operands left to right, call arguments
right to left, a compound assignment reads its target before its value).

The reference refuses to read a variable or array cell that was never
written, so a generator bug cannot hide behind whatever a register or a
frame slot happened to hold.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass

import pytest

from repro.vm.limits import ExecutionLimits
from repro.vm.machine import ENGINE_INTERPRETER, ENGINE_TRANSLATOR, VirtualMachine
from repro.vxc import ast_nodes as ast
from repro.vxc.compiler import compile_source
from repro.vxc.parser import parse

_MASK = 0xFFFFFFFF


def _signed(value: int) -> int:
    return value - (1 << 32) if value & 0x80000000 else value


def _truncating_divmod(left: int, right: int) -> tuple[int, int]:
    quotient = abs(left) // abs(right)
    if (left < 0) != (right < 0):
        quotient = -quotient
    return quotient, left - quotient * right


_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << (b & 31),
    ">>": lambda a, b: a >> (b & 31),
    "/": lambda a, b: _truncating_divmod(_signed(a), _signed(b))[0],
    "%": lambda a, b: _truncating_divmod(_signed(a), _signed(b))[1],
}

_COMPARISONS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


# -- the reference evaluator -------------------------------------------------------


@dataclass
class _Array:
    cells: list
    cell_mask: int


@dataclass
class _Pointer:
    """The value of an array name, or of that plus a byte offset."""

    array: _Array
    offset: int = 0


class _Return(Exception):
    def __init__(self, value: int):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Reference:
    """Evaluates a parsed vxc program directly."""

    def __init__(self, program: ast.Program, stdin: bytes):
        self._functions = {function.name: function for function in program.functions}
        self._stdin = io.BytesIO(stdin)
        self._stdout = bytearray()
        self._scopes: list[dict] = [{}]
        for declaration in program.globals:
            self._scopes[0][declaration.name] = self._global_value(declaration)

    def run(self) -> tuple[int, bytes]:
        return _signed(self._call("main", [])), bytes(self._stdout)

    @staticmethod
    def _global_value(declaration: ast.GlobalDecl):
        initializer = declaration.initializer
        if declaration.array_length is None:
            return (initializer or 0) & _MASK
        cell_mask = 0xFF if declaration.elem_kind == "byte" else _MASK
        cells = [value & cell_mask for value in initializer or []]
        cells += [0] * (declaration.array_length - len(cells))
        return _Array(cells, cell_mask)

    # -- names ---------------------------------------------------------------------

    def _scope_of(self, name: str) -> dict:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope
        raise AssertionError(f"undeclared {name!r}")

    def _array(self, node: ast.Index) -> tuple[_Array, int]:
        array = self._scope_of(node.base.name)[node.base.name]
        index = self._expr(node.index)
        assert index < len(array.cells), "generated index out of bounds"
        return array, index

    # -- expressions -----------------------------------------------------------------

    def _expr(self, node: ast.Expr):
        if isinstance(node, ast.NumberLiteral):
            return node.value & _MASK
        if isinstance(node, ast.Identifier):
            value = self._scope_of(node.name)[node.name]
            assert value is not None, f"{node.name!r} read before it was written"
            return _Pointer(value) if isinstance(value, _Array) else value
        if isinstance(node, ast.UnaryOp):
            operand = self._expr(node.operand)
            if node.op == "!":
                return int(operand == 0)
            return (-operand if node.op == "-" else ~operand) & _MASK
        if isinstance(node, ast.BinaryOp):
            return self._binary(node)
        if isinstance(node, ast.Conditional):
            return self._expr(node.then if self._expr(node.cond) else node.otherwise)
        if isinstance(node, ast.Assignment):
            return self._assign(node)
        if isinstance(node, ast.Index):
            array, index = self._array(node)
            assert array.cells[index] is not None, "cell read before it was written"
            return array.cells[index]
        if isinstance(node, ast.Call):
            if node.name in self._functions:
                # Arguments are pushed right to left, so evaluated in that order.
                values = [self._expr(argument) for argument in reversed(node.args)]
                return self._call(node.name, values[::-1])
            return self._builtin(node.name, [self._expr(arg) for arg in node.args])
        raise AssertionError(f"no reference semantics for {type(node).__name__}")

    def _binary(self, node: ast.BinaryOp) -> int:
        if node.op == "&&":
            return int(self._expr(node.left) != 0 and self._expr(node.right) != 0)
        if node.op == "||":
            return int(self._expr(node.left) != 0 or self._expr(node.right) != 0)
        left = self._expr(node.left)
        right = self._expr(node.right)
        if node.op in _COMPARISONS:
            return int(_COMPARISONS[node.op](_signed(left), _signed(right)))
        if isinstance(left, _Pointer):
            assert node.op == "+"
            return _Pointer(left.array, left.offset + right)
        return _ARITHMETIC[node.op](left, right) & _MASK

    def _assign(self, node: ast.Assignment) -> int:
        target = node.target
        if isinstance(target, ast.Identifier):
            if node.op == "=":
                value = self._expr(node.value)
            else:
                old = self._expr(target)
                value = _ARITHMETIC[node.op[:-1]](old, self._expr(node.value)) & _MASK
            self._scope_of(target.name)[target.name] = value
            return value
        array, index = self._array(target)
        if node.op == "=":
            value = self._expr(node.value)
        else:
            old = array.cells[index]
            assert old is not None, "cell updated before it was written"
            value = _ARITHMETIC[node.op[:-1]](old, self._expr(node.value)) & _MASK
        array.cells[index] = value & array.cell_mask
        return value        # the untruncated word stays in R0

    def _builtin(self, name: str, args: list) -> int:
        if name == "udiv":
            return args[0] // args[1]
        if name == "umod":
            return args[0] % args[1]
        if name == "asr":
            return (_signed(args[0]) >> (args[1] & 31)) & _MASK
        if name in ("peek8", "poke8", "peek32", "poke32"):
            pointer = args[0]
            width = 1 if name.endswith("8") else 4
            cells, cell_mask = pointer.array.cells, pointer.array.cell_mask
            assert cell_mask == (0xFF if width == 1 else _MASK) and pointer.offset % width == 0
            if name.startswith("poke"):
                cells[pointer.offset // width] = args[1] & cell_mask
                return args[1]
            assert cells[pointer.offset // width] is not None, "cell read before it was written"
            return cells[pointer.offset // width]
        descriptor, pointer, count = args
        cells = pointer.array.cells
        assert pointer.array.cell_mask == 0xFF and pointer.offset + count <= len(cells)
        if name == "read":
            data = self._stdin.read(count) if descriptor == 0 else b""
            cells[pointer.offset : pointer.offset + len(data)] = data
            return len(data)
        assert name == "write" and descriptor == 1
        self._stdout += bytes(cells[pointer.offset : pointer.offset + count])
        return count

    def _call(self, name: str, values: list[int]) -> int:
        function = self._functions[name]
        caller_scopes = self._scopes
        parameters = {param.name: value for param, value in zip(function.params, values)}
        self._scopes = [caller_scopes[0], parameters]
        try:
            self._stmt(function.body)
        except _Return as returned:
            return returned.value
        finally:
            self._scopes = caller_scopes
        return 0

    # -- statements ------------------------------------------------------------------

    def _stmt(self, node: ast.Stmt) -> None:
        if isinstance(node, ast.Block):
            self._scopes.append({})
            try:
                for statement in node.statements:
                    self._stmt(statement)
            finally:
                self._scopes.pop()
        elif isinstance(node, ast.VarDecl):
            # As in C, the name is in scope (and unwritten) in its own initializer.
            self._scopes[-1][node.name] = None
            if node.array_length is not None:
                cell_mask = 0xFF if node.elem_kind == "byte" else _MASK
                self._scopes[-1][node.name] = _Array([None] * node.array_length, cell_mask)
            elif node.initializer is not None:
                self._scopes[-1][node.name] = self._expr(node.initializer)
        elif isinstance(node, ast.ExprStmt):
            self._expr(node.expr)
        elif isinstance(node, ast.If):
            if self._expr(node.cond):
                self._stmt(node.then)
            elif node.otherwise is not None:
                self._stmt(node.otherwise)
        elif isinstance(node, ast.While):
            while self._expr(node.cond) and self._body_continues(node.body):
                pass
        elif isinstance(node, ast.DoWhile):
            while self._body_continues(node.body) and self._expr(node.cond):
                pass
        elif isinstance(node, ast.For):
            self._scopes.append({})
            try:
                if node.init is not None:
                    self._stmt(node.init)
                while node.cond is None or self._expr(node.cond):
                    if not self._body_continues(node.body):
                        break
                    if node.step is not None:
                        self._expr(node.step)
            finally:
                self._scopes.pop()
        elif isinstance(node, ast.Return):
            raise _Return(0 if node.value is None else self._expr(node.value))
        elif isinstance(node, ast.Break):
            raise _Break
        elif isinstance(node, ast.Continue):
            raise _Continue
        else:
            raise AssertionError(f"no reference semantics for {type(node).__name__}")

    def _body_continues(self, body: ast.Stmt) -> bool:
        """Run one iteration of a loop body; ``False`` if it executed ``break``."""
        try:
            self._stmt(body)
        except _Break:
            return False
        except _Continue:
            pass
        return True


# -- the program generator -----------------------------------------------------------

_PREAMBLE = """
const int K = 7;
int g0;
int g1 = 0x7ffffffd;
int gw[8];
int gt[8] = { 3, 0x80000000, 5, 0xffffffff, 11, 13, 0x12345678, 19 };
byte gb[8];
byte io[8];
int emit(int v) {
    io[0] = v; io[1] = v >> 8; io[2] = v >> 16; io[3] = v >> 24;
    return write(1, io, 4);
}
"""

_BINARY_OPS = ("+", "-", "*", "&", "|", "^")


class _Generator:
    """Emits one terminating, fully-defined vxc program per seed.

    Every loop has a dedicated counter nothing else assigns, every index is
    masked to the array length, every divisor is positive, and functions only
    call functions defined before them (``rec`` recurses on a counter).  The
    five ``h*`` helpers are small enough to be generated in place wherever a
    loop calls them, and are called at any loop depth.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._lines: list[str] = []
        self._fresh = 0
        self._callable: list[tuple[str, int]] = [("emit", 1)]
        self._helpers: list[tuple[str, int]] = []
        self._scalars: list[str] = []       # readable scalars in scope
        self._writable: list[str] = []      # ... that are not loop counters
        self._arrays: list[str] = []        # fully written arrays in scope
        self._words = {"gw", "gt"}          # ... the ``int`` ones, by name
        self._loop_depth = 0

    def program(self) -> str:
        self._lines = [_PREAMBLE]
        self._declare_helpers()
        for index in range(3):
            self._function(f"f{index}", self._rng.randint(1, 4))
        self._lines.append(
            "int rec(int n, int acc) {\n"
            f"    int t = {self._with(['n', 'acc'], self._expr)};\n"
            "    if (n <= 0) { return acc ^ t; }\n"
            f"    acc = rec(n - 1, acc * 31 + t) + {self._with(['n', 'acc', 't'], self._expr)};\n"
            "    return acc + n + t;\n"
            "}"
        )
        self._callable.append(("rec", 2))
        self._function("main", 0)
        return "\n".join(self._lines)

    # -- helpers -------------------------------------------------------------------

    def _name(self, prefix: str) -> str:
        self._fresh += 1
        return f"{prefix}{self._fresh}"

    def _with(self, scalars: list[str], build):
        saved = self._scalars, self._writable, self._arrays
        self._scalars, self._writable = list(scalars), list(scalars)
        self._arrays = ["gw", "gt", "gb"]
        try:
            return build()
        finally:
            self._scalars, self._writable, self._arrays = saved

    def _emit(self, indent: int, text: str) -> None:
        self._lines.append("    " * indent + text)

    def _declare_helpers(self) -> None:
        """Small functions, one per thing a copy generated in place must get
        right: a ``return`` out of its own loop, ``break``/``continue`` in it,
        assigned parameters, a global written, copies inside arguments."""
        rng = self._rng
        op = lambda: rng.choice(_BINARY_OPS)  # noqa: E731
        k = lambda: rng.randint(1, 9)  # noqa: E731
        self._lines.append(f"""
int hret(int a, int n) {{
    for (int i = 0; i < {rng.randint(2, 5)}; ++i) {{
        a = a * {k()} {op()} i;
        if ((a & {rng.choice((1, 3, 7))}) == {rng.randint(0, 3)}) {{ return a ^ n; }}
    }}
    return a {op()} n;
}}
int hbrk(int a, int b) {{
    int s = b;
    for (int i = 0; i < {rng.randint(3, 6)}; ++i) {{
        if (((a >> i) & 1) == {rng.randint(0, 1)}) {{ continue; }}
        s = s {op()} (a + i);
        if ((s & 15) > {rng.randint(4, 14)}) {{ break; }}
    }}
    return s;
}}
int hpar(int p, int q) {{ p = p {op()} q * {k()}; q ^= p; p -= q >> {k()}; return p {op()} q; }}
int hglob(int v) {{ g0 = g0 * {k()} + v; return g0 ^ (v {op()} g1); }}
int hnest(int x, int y) {{ return hpar(hret(x, y), hglob(y)) {op()} hbrk(y, x); }}
""")
        self._helpers = [("hret", 2), ("hbrk", 2), ("hpar", 2), ("hglob", 1), ("hnest", 2)]
        self._callable += self._helpers

    # -- expressions -----------------------------------------------------------------

    def _leaf(self) -> str:
        rng = self._rng
        roll = rng.random()
        if roll < 0.45 and self._scalars:
            return rng.choice(self._scalars)
        if roll < 0.60:
            return rng.choice(("g0", "g1", "K"))
        if roll < 0.85:
            return str(rng.randint(0, 9))
        return hex(rng.getrandbits(32))

    def _index(self, depth: int) -> str:
        return f"{self._rng.choice(self._arrays)}[({self._expr(depth + 1)}) & 7]"

    def _expr(self, depth: int = 0) -> str:
        rng = self._rng
        if depth >= 3 or rng.random() < 0.25:
            return self._leaf()
        sub = lambda: self._expr(depth + 1)  # noqa: E731
        kind = rng.choice(("binary", "binary", "binary", "compare", "logic", "shift",
                           "divide", "unary", "ternary", "index", "index", "call",
                           "call", "assign", "builtin", "stale"))
        if kind == "binary":
            return f"({sub()} {rng.choice(_BINARY_OPS)} {sub()})"
        if kind == "compare":
            return f"({sub()} {rng.choice(tuple(_COMPARISONS))} {sub()})"
        if kind == "logic":
            return f"({sub()} {rng.choice(('&&', '||'))} {sub()})"
        if kind == "shift":
            count = str(rng.randint(0, 31)) if rng.random() < 0.5 else f"({sub()} & 31)"
            return f"({sub()} {rng.choice(('<<', '>>'))} {count})"
        if kind == "divide":
            divisor = str(rng.randint(1, 9)) if rng.random() < 0.5 else f"(({sub()} & 15) + 1)"
            return f"({sub()} {rng.choice(('/', '%'))} {divisor})"
        if kind == "unary":
            return f"({rng.choice(('-', '~', '!'))}{sub()})"
        if kind == "ternary":
            return f"({sub()} ? {sub()} : {sub()})"
        if kind == "index":
            return self._index(depth)
        if kind == "call":
            # The f's loop and ``rec`` recurses: two loops deep, helpers only.
            name, arity = rng.choice(self._callable if self._loop_depth < 2 else self._helpers)
            if name == "rec":
                return f"rec(({sub()}) & 3, {sub()})"
            return f"{name}({', '.join(sub() for _ in range(arity))})"
        if kind == "assign" and self._writable:
            op = rng.choice(("=", "+=", "-=", "^=", "*="))
            return f"({rng.choice(self._writable)} {op} {sub()})"
        if kind == "stale":
            # A leaf left operand that its right operand changes: read first.
            op = rng.choice(_BINARY_OPS + tuple(_COMPARISONS))
            if self._writable and rng.random() < 0.6:
                name = rng.choice(self._writable)
                return f"({name} {op} ({name} {rng.choice(('=', '+=', '^='))} {sub()}))"
            return f"(g0 {op} hglob({sub()}))"
        if kind == "builtin":
            choice = rng.choice(("udiv", "umod", "asr", "peek8", "peek32"))
            if choice == "peek8":
                return f"peek8(gb + (({sub()}) & 7))"
            if choice == "peek32":
                words = rng.choice([name for name in self._arrays if name in self._words])
                return f"peek32({words} + ((({sub()}) & 7) << 2))"
            if choice == "asr":
                return f"asr({sub()}, {sub()} & 31)"
            return f"{choice}({sub()}, ({sub()} & 15) + 1)"
        return self._leaf()

    # -- statements ------------------------------------------------------------------

    def _function(self, name: str, arity: int) -> None:
        params = [f"p{index}" for index in range(arity)]
        self._scalars, self._writable = list(params), list(params)
        self._arrays = ["gw", "gt", "gb"]
        self._emit(0, f"int {name}({', '.join('int ' + param for param in params)}) {{")
        # More hot scalars than there are registers, so both homes are used.
        for _ in range(self._rng.randint(2, 5)):
            self._declare(1)
        self._block(1, self._rng.randint(3, 6))
        if name == "main":
            for scalar in self._scalars:
                self._emit(1, f"emit({scalar});")
            for array in ("gw", "gb"):
                self._emit(1, f"for (int i = 0; i < 8; ++i) {{ emit({array}[i]); }}")
        self._emit(1, f"return {self._expr()};")
        self._emit(0, "}")
        self._callable.append((name, arity))

    def _declare(self, indent: int, name: str | None = None) -> None:
        name = name or self._name("v")
        # A shadowing declaration must not read itself: the new binding is
        # already in scope in its initializer, and holds nothing yet.
        for names in (self._scalars, self._writable):
            if name in names:
                names.remove(name)
        self._emit(indent, f"int {name} = {self._expr()};")
        self._scalars.append(name)
        self._writable.append(name)

    def _block(self, indent: int, count: int) -> None:
        saved = list(self._scalars), list(self._writable), list(self._arrays)
        for _ in range(count):
            self._statement(indent)
        self._scalars, self._writable, self._arrays = saved

    def _loop_body(self, indent: int, counter: str) -> None:
        self._scalars.append(counter)
        self._loop_depth += 1
        if self._rng.random() < 0.3:
            jump = self._rng.choice(("break", "continue"))
            self._emit(indent + 1, f"if ({self._expr(1)}) {{ {jump}; }}")
        self._block(indent + 1, self._rng.randint(1, 3))
        self._loop_depth -= 1
        self._scalars.remove(counter)

    def _statement(self, indent: int) -> None:
        rng = self._rng
        nested = indent < 3
        kind = rng.choice(("declare", "assign", "assign", "store", "store", "poke",
                           "emit", "io", "if", "for", "while", "do", "shadow", "array",
                           "return"))
        if kind == "declare":
            self._declare(indent)
        elif kind == "assign" and self._writable:
            op = rng.choice(("=", "=", "+=", "-=", "*=", "&=", "|=", "^=", "<<=", ">>="))
            value = f"({self._expr()} & 31)" if op in ("<<=", ">>=") else self._expr()
            self._emit(indent, f"{rng.choice(self._writable)} {op} {value};")
        elif kind == "store":
            op = rng.choice(("=", "=", "+=", "^=", "-="))
            # Leaf values take the no-push path, anything else the stack path.
            value = self._leaf() if rng.random() < 0.5 else self._expr()
            self._emit(indent, f"{self._index(1)} {op} {value};")
        elif kind == "poke":
            value = self._leaf() if rng.random() < 0.5 else self._expr()
            self._emit(indent, f"poke8(gb + (({self._expr(1)}) & 7), {value});")
        elif kind == "emit":
            self._emit(indent, f"emit({self._expr()});")
        elif kind == "io" and self._writable:
            if rng.random() < 0.5:
                self._emit(indent, f"{rng.choice(self._writable)} = read(0, gb, 3);")
            else:
                self._emit(indent, f"write(1, gb, ({self._expr(1)}) & 7);")
        elif kind == "if" and nested:
            self._emit(indent, f"if ({self._expr()}) {{")
            self._block(indent + 1, rng.randint(1, 3))
            if rng.random() < 0.5:
                self._emit(indent, "} else {")
                self._block(indent + 1, rng.randint(1, 2))
            self._emit(indent, "}")
        elif kind == "for" and nested:
            counter = self._name("i")
            step = rng.choice((f"{counter} = {counter} + 1", f"++{counter}", f"{counter} += 1"))
            self._emit(indent, f"for (int {counter} = 0; {counter} < {rng.randint(1, 4)}; {step}) {{")
            self._loop_body(indent, counter)
            self._emit(indent, "}")
        elif kind in ("while", "do") and nested:
            counter = self._name("c")
            self._emit(indent, f"int {counter} = {rng.randint(1, 4)};")
            cond = f"(({counter} -= 1) >= 0)"
            self._emit(indent, f"while {cond} {{" if kind == "while" else "do {")
            self._loop_body(indent, counter)
            self._emit(indent, "}" if kind == "while" else f"}} while {cond};")
        elif kind == "shadow" and nested and self._scalars:
            # A block-scoped local hiding an outer one of the same name.
            self._emit(indent, "{")
            saved = list(self._scalars), list(self._writable)
            self._declare(indent + 1, rng.choice(self._scalars))
            self._block(indent + 1, rng.randint(1, 2))
            self._scalars, self._writable = saved
            self._emit(indent, "}")
        elif kind == "array" and nested:
            array = self._name("a")
            kind_name = rng.choice(("int", "byte"))
            self._emit(indent, f"{kind_name} {array}[8];")
            cell = f"{array}[i] = {self._expr(1)}"
            if kind_name == "int":
                self._words.add(array)
                if rng.random() < 0.5:
                    cell = f"poke32({array} + i * 4, {self._expr(1)})"
            self._emit(indent, f"for (int i = 0; i < 8; ++i) {{ {cell}; }}")
            self._arrays.append(array)
        elif kind == "return" and indent > 1:
            self._emit(indent, f"if ({self._expr(1)}) {{ return {self._expr()}; }}")
        else:
            self._emit(indent, f"g0 = {self._expr()};")


# -- the check ---------------------------------------------------------------------

_STDIN = bytes(range(201, 211))

#: The programs run for at most ~100k instructions; the ceiling turns a
#: miscompiled loop into a fast failure instead of a hang.
_LIMITS = ExecutionLimits(max_instructions=2_000_000)


def _check_against_reference(source: str) -> None:
    expected = _Reference(parse(source), _STDIN).run()
    image = compile_source(source, codec_name="differential", include_runtime=False).elf
    for engine in (ENGINE_TRANSLATOR, ENGINE_INTERPRETER):
        vm = VirtualMachine(image, engine=engine, limits=_LIMITS)
        result = vm.decode(_STDIN, limits=_LIMITS)
        assert (result.exit_code, result.output) == expected, engine


@pytest.mark.parametrize("seed", range(1600, 1660))
def test_random_program_matches_reference(seed):
    _check_against_reference(_Generator(seed).program())


def test_random_programs_have_calls_generated_in_place():
    """The generator reaches what it is there for: most programs have calls
    expanded (each leaves a ``.ret`` label) beside calls that stayed calls."""
    expanded = called = programs = 0
    for seed in range(1600, 1620):
        assembly = compile_source(_Generator(seed).program(), codec_name="differential",
                                  include_runtime=False).assembly
        expanded += assembly.count("\n.ret")
        called += assembly.count("call fn_h")
        programs += "\n.ret" in assembly
    assert expanded >= 100 and called >= 100 and programs >= 14


#: Fixed programs, one per way the register convention, or a call generated
#: in place of itself, can go wrong.
_SHAPES = {
    # Seven scalars, all used in the loop: three get registers, four stay in
    # the frame, and every operator sees both kinds on both sides.
    "register-and-frame-residents-mix": """
        int main() {
            int a = 1; int b = 2; int c = 3; int d = 4; int e = 5; int f = 6;
            for (int i = 0; i < 9; ++i) {
                a = a + b * i; b = b ^ (c + a); c = c - d; d = d + (e & i);
                e = (e << 1) | (f > a); f = f + a - b + c - d + e;
            }
            emit(a); emit(b); emit(c); emit(d); emit(e); emit(f);
            return a ^ b ^ c ^ d ^ e ^ f;
        }
    """,
    # Callee and caller both keep values in R2/R3/R5 across the call.
    "register-locals-live-across-calls-and-recursion": """
        int mix(int x, int y, int z) {
            for (int i = 0; i < 3; ++i) { x = x * 33 + y; y = y ^ z + i; z = z + x; }
            return x + y + z;
        }
        int walk(int n, int salt) {
            int here = n * salt + 1;
            int below = 0;
            if (n > 0) { below = walk(n - 1, salt + here) + walk(n - 1, here); }
            return here + below * 3 + n + salt;
        }
        int main() {
            int a = 7; int b = 11; int c = 13;
            for (int i = 0; i < 4; ++i) { a = a + mix(a, b, c); b = b + walk(3, a); c = c ^ a; }
            emit(a); emit(b); emit(c);
            return a + b + c;
        }
    """,
    # read and write load their arguments into R1-R3.
    "register-locals-live-across-read-and-write": """
        int main() {
            int total = 0; int n = 1; int rounds = 0;
            while (n > 0) {
                n = read(0, gb, 4);
                for (int i = 0; i < n; ++i) { total = total * 3 + gb[i]; }
                rounds = rounds + write(1, gb, n) + total;
            }
            emit(total); emit(n); emit(rounds);
            return total + rounds;
        }
    """,
    # ... and an argument may itself assign the local that lives in R2 or R3:
    # the assignment must survive the restore.
    "register-locals-assigned-inside-read-and-write-arguments": """
        int main() {
            int k = 0; int n = 0; int sum = 0;
            for (int i = 0; i < 3; ++i) {
                sum = sum + read((k = 0), gb + (n = i), (k += 2) + 1) + k * 8 + n;
                sum = sum * 5 + write((n = 1), gb + (k = 1), (n += 1)) + k + n;
            }
            emit(k); emit(n); emit(sum);
            return sum;
        }
    """,
    # A call or an assignment in a right operand must take the stack path:
    # it overwrites R0 and R1 while the left operand is waiting.
    "calls-and-assignments-inside-right-operands": """
        int twice(int x) { int y = x + x; return y + (x < 3); }
        int main() {
            int a = 5; int b = 9;
            int r = a - twice(b);
            r = r * 7 + (a < twice(a)) + udiv(r, (b = b + 1));
            r = r ^ (a + (a = 40)) ^ (a - (a += 2));
            gw[a & 7] = twice(r);
            gw[b & 7] += twice(a) - (b = 3);
            poke8(gb + 2, twice(b));
            emit(r); emit(a); emit(b); emit(gw[2]); emit(gw[3]); emit(gb[2]);
            return r;
        }
    """,
    # Index and value are both register locals; the element is int and byte.
    "compound-assignment-to-element-from-registers": """
        int main() {
            int wide[8]; byte narrow[8];
            int i = 0; int v = 0x1234567;
            for (i = 0; i < 8; ++i) { wide[i] = i; narrow[i] = v; v = v * 5 + i; }
            for (i = 0; i < 8; ++i) {
                wide[i] += v; wide[7 - i] ^= i; narrow[i] += v; narrow[i & 3] -= i;
                gt[i] *= v; v = v + wide[i] + narrow[i];
            }
            for (i = 0; i < 8; ++i) { emit(wide[i]); emit(narrow[i]); emit(gt[i]); }
            return v;
        }
    """,
    # The same name bound in a nested block and in two for-init scopes.
    "shadowing-in-blocks-and-for-init": """
        int main() {
            int x = 3; int sum = 0;
            for (int x = 10; x < 14; ++x) { sum = sum + x; }
            {
                int x = sum + 100;
                for (int x = 0; x < 3; ++x) { sum = sum * 2 + x; }
                sum = sum + x;
                { int sum = x * x; x = sum + 1; }
                sum = sum + x;
            }
            emit(x); emit(sum);
            return sum - x;
        }
    """,
    # A helper called per iteration is generated in place, twice in one
    # statement and again one loop deeper; its locals and parameters compete
    # for the registers with the caller's and the losers take frame slots.
    "helper-calls-expanded-inside-loops": """
        int scale(int v, int k) { int t = v * k; t = t + (v >> 3); return t ^ k; }
        int clamp(int v) { if (v < 0) { return 0; } if (v > 255) { return 255; } return v; }
        int main() {
            int acc = 1; int sum = 0;
            for (int i = 0; i < 12; ++i) {
                acc = scale(acc, i + 3) - 4000;
                sum = sum + clamp(asr(acc, 4)) + clamp(i - 5);
                for (int j = 0; j < 3; ++j) {
                    sum = sum * 3 + scale(j, sum & 15); gb[j] = clamp(sum);
                }
            }
            emit(acc); emit(sum); emit(gb[0]); emit(gb[1]); emit(gb[2]);
            return sum;
        }
    """,
    # x, y and z take the registers, so the parameters of ``outer`` live in
    # frame slots -- and are stored one by one while the copies of ``inner``
    # in the other arguments run: their slots must lie above, not beside.
    "expanded-call-inside-an-argument-of-another": """
        int inner(int a, int b) { int t = a * 7 + b; int u = t ^ (a << 2); return t + u; }
        int outer(int p, int q, int r) { int s = p - q; return s * r + p + q; }
        int main() {
            int x = 3; int y = 5; int z = 7; int total = 0;
            for (int i = 0; i < 6; ++i) {
                for (int j = 0; j < 4; ++j) { x = x + y * j; y = y ^ z + i; z = z + x; }
                total = total + outer(inner(x, i), inner(y, inner(z, i)), inner(i, total));
            }
            emit(x); emit(y); emit(z); emit(total);
            return total;
        }
    """,
    # ``return`` ends the copy, not the function it was copied into.
    "early-return-from-inside-a-callee-loop": """
        int find(int needle) {
            for (int i = 0; i < 8; ++i) { if (gt[i] == needle) { return i; } }
            return 0 - 1;
        }
        int main() {
            int hits = 0; int last = 0;
            for (int k = 0; k < 24; ++k) {
                last = find(k);
                if (last >= 0) { hits = hits * 8 + last; }
                hits = hits + 1;
            }
            emit(hits); emit(last);
            return hits + find(19) * 100 + find(4);
        }
    """,
    # The copy's ``break`` and ``continue`` belong to the copy's loop, the
    # caller's to the caller's, on either side of the copy.
    "break-and-continue-in-a-callee-called-from-a-loop": """
        int odd_sum(int limit) {
            int s = 0;
            for (int i = 0; i < 10; ++i) {
                if ((i & 1) == 0) { continue; }
                if (i > limit) { break; }
                s = s + i;
            }
            return s;
        }
        int main() {
            int total = 0; int rounds = 0;
            for (int n = 0; n < 12; ++n) {
                if (n == 10) { break; }
                total = total * 2 + odd_sum(n);
                if (odd_sum(n + 1) == odd_sum(n)) { continue; }
                rounds = rounds + 1;
            }
            emit(total); emit(rounds);
            return total + rounds;
        }
    """,
    # Arguments are copied: the callee counts its parameters down, the
    # caller's variables of the same names stay what they were.
    "callee-assigns-its-parameter": """
        int countdown(int n, int step) {
            int c = 0;
            while (n > 0) { n = n - step; step += 1; c = c + 1; }
            return c * 16 + step;
        }
        int main() {
            int n = 40; int step = 2; int seen = 0;
            for (int i = 0; i < 5; ++i) {
                seen = seen * 3 + countdown(n, step) + countdown(n + i, i + 1);
                n = n + 1;
            }
            emit(n); emit(step); emit(seen);
            return seen;
        }
    """,
    # ... and a name the callee does not declare is the global, even where
    # the caller has a local of that name in scope at the call.
    "callee-names-resolve-in-the-callee-scope": """
        int tick(int by) { g1 = g1 + by; return g1 ^ g0; }
        int main() {
            int g1 = 100; int g0 = 7; int sum = 0;
            for (int i = 0; i < 5; ++i) {
                sum = sum * 5 + tick(i + g1); g1 = g1 + 1; g0 = g0 ^ sum;
            }
            emit(g1); emit(g0); emit(sum); emit(tick(0));
            return sum;
        }
    """,
    # A leaf left operand is loaded after its right operand only when the
    # right operand cannot change it: not past an assignment to it, and for a
    # global not past a call, expanded or not.
    "leaf-left-operands-the-right-operand-changes": """
        int bump(int v) { g0 = g0 + v; return g0 * 2; }
        int main() {
            int x = 5; int r = 0;
            for (int i = 0; i < 4; ++i) {
                r = r + (x + (x = i + 10)) + (x - (x += 3)) + (x < (x = x - 20));
                r = r ^ (g0 + bump(i)) ^ (g0 * bump(x));
                r += (x * (gw[i] = x + r)) + (K - bump(K));
                x += (x = 2) + bump(1);
            }
            r = r + (g0 - bump(3)) + udiv(x, (x = 3) + bump(0));
            emit(x); emit(r); emit(g0);
            return r;
        }
    """,
    # The hottest name in the function is an array: it still has no register.
    "hot-local-array-stays-in-the-frame": """
        int main() {
            int a[8]; int n = 0;
            for (int i = 0; i < 8; ++i) { poke32(a + i * 4, i * i); }
            for (int i = 0; i < 8; ++i) {
                a[i] = a[i] + peek32(a + (7 - i) * 4); n = n + a[i]; a[n & 7] ^= n;
                poke32(a + (n & 7) * 4, peek32(a + i * 4) + n);
            }
            for (int i = 0; i < 8; ++i) { emit(a[i]); }
            return n;
        }
    """,
}


@pytest.mark.parametrize("shape", _SHAPES)
def test_register_convention_shape_matches_reference(shape):
    _check_against_reference(_PREAMBLE + _SHAPES[shape])
