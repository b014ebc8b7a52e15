"""Semantic analysis for vxc programs.

Performs the checks and pre-computations the code generator relies on:

* duplicate global / function detection,
* call arity checking (user functions and builtins),
* ``break`` / ``continue`` placement,
* assignment-target validation (no assigning to arrays, constants or
  functions),
* array subscript validation (only declared arrays are indexable; raw
  addresses must use the ``peek``/``poke`` builtins),
* which calls are generated in place (:func:`_mark_expandable` says which
  functions may be, a call site inside a loop says where) and which functions
  are still called out of line from ``main`` and so must be emitted,
* storage layout: per function, the hottest ``int`` scalars (parameters and
  the symbols of expanded calls included) are assigned the callee-saved
  registers r2/r3/r5, every other local declaration a distinct
  frame-pointer-relative slot, and the symbols of expanded calls slots above
  those, shared between calls that are never live together.

The results are returned as a :class:`SemanticInfo` object consumed by
:mod:`repro.vxc.codegen`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import VxcSemanticError
from repro.vxc import ast_nodes as ast

#: Builtin functions: name -> (argument count, description).
BUILTINS = {
    # virtual system calls (paper section 4.3)
    "read": 3,
    "write": 3,
    "exit": 1,
    "setperm": 1,
    "done": 0,
    # raw memory access (byte-addressed, for buffers passed by address)
    "peek8": 1,
    "peek8s": 1,
    "peek16": 1,
    "peek16s": 1,
    "peek32": 1,
    "poke8": 2,
    "poke16": 2,
    "poke32": 2,
    # explicit unsigned / arithmetic variants of operators
    "udiv": 2,
    "umod": 2,
    "asr": 2,
}

_ELEM_SIZES = {"int": 4, "byte": 1}

#: Callee-saved registers that hold hot scalars, in assignment order.  r0 is
#: the accumulator, r1 the second operand and r4 the address scratch.
LOCAL_REGISTERS = ("r2", "r3", "r5")

#: A use inside a loop counts this many times one outside it, per nesting level.
_LOOP_WEIGHT = 8

#: A function of more statements and expressions than this is always called.
_EXPANSION_LIMIT = 60

#: A function that makes one of these calls itself is always called: they
#: take their arguments in R1-R3, so they bracket the call with saves of the
#: register locals, and they move data or the sandbox's end under the
#: enclosing function -- in a copy that is per-iteration cost and lost proofs.
_NEVER_EXPANDED = ("read", "write", "setperm")


@dataclass
class GlobalSymbol:
    """A global variable placed in the data or bss section."""

    name: str
    elem_kind: str
    elem_size: int
    length: int | None            # None for scalars
    is_const: bool
    init_bytes: bytes | None      # None -> zero-initialised (bss)
    const_value: int | None = None  # set for const scalars folded to immediates

    @property
    def is_array(self) -> bool:
        return self.length is not None

    @property
    def size_bytes(self) -> int:
        count = self.length if self.length is not None else 1
        return count * self.elem_size if self.is_array else 4


@dataclass
class LocalSymbol:
    """A parameter, local variable or local array and where it lives."""

    name: str
    elem_kind: str
    elem_size: int
    length: int | None
    offset: int = 0               # from the frame pointer: parameters >= 8, locals < 0
    register: str | None = None   # home register; the frame slot is then unused
    weight: int = 0               # static use count, scaled by loop depth

    @property
    def is_array(self) -> bool:
        return self.length is not None

    @property
    def is_param(self) -> bool:
        """Whether this is a function's parameter, at home in its argument slot
        (the parameter of a call generated in place is placed like a local)."""
        return self.offset > 0


@dataclass
class Expansion:
    """The symbols of one generated copy of a function body.

    A function's own copy is its :class:`FunctionInfo`; below it hangs one
    ``Expansion`` per call generated in place, keyed by ``id`` of the ``Call``
    node and nested the way the copies' lifetimes nest: a site in the
    arguments or in the body of an expanded call belongs to that expansion.
    """

    params: list[LocalSymbol]
    locals_by_decl: dict[int, LocalSymbol] = field(default_factory=dict)
    expansions: dict[int, Expansion] = field(default_factory=dict)

    def symbols(self):
        """Every symbol of this copy and of those below it, in source order."""
        yield from self.params
        yield from self.locals_by_decl.values()
        for nested in self.expansions.values():
            yield from nested.symbols()


@dataclass
class FunctionInfo(Expansion):
    """Per-function layout information."""

    frame_size: int = 0
    #: Symbols given a register, in ``LOCAL_REGISTERS`` order; the k-th one's
    #: register is saved at ``[fp - 4*(k+1)]`` for the life of the frame.
    register_symbols: list[LocalSymbol] = field(default_factory=list)
    #: Whether a call to this function inside a loop is generated in place.
    expandable: bool = False
    #: The functions this one still calls, its expansions' calls included.
    calls: list[str] = field(default_factory=list)


@dataclass
class SemanticInfo:
    """Everything the code generator needs beyond the AST itself."""

    globals: dict[str, GlobalSymbol] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``main`` and what is reachable from it through calls that stayed calls:
    #: the functions the image needs.
    emitted: set[str] = field(default_factory=set)


def analyze(program: ast.Program) -> SemanticInfo:
    """Validate ``program`` and compute layouts.

    Raises:
        VxcSemanticError: on any semantic violation.
    """
    info = SemanticInfo()
    _collect_globals(program, info)
    _collect_functions(program, info)
    _mark_expandable(program, info)
    definitions = {function.name: function for function in program.functions}
    for function in program.functions:
        _FunctionChecker(function, info, definitions).run()
    if "main" not in info.functions:
        raise VxcSemanticError("program has no 'main' function")
    if info.functions["main"].params:
        raise VxcSemanticError("'main' must take no parameters")
    pending = ["main"]
    while pending:
        name = pending.pop()
        if name not in info.emitted:
            info.emitted.add(name)
            pending += info.functions[name].calls
    return info


# -- globals ---------------------------------------------------------------------

def _collect_globals(program: ast.Program, info: SemanticInfo) -> None:
    for declaration in program.globals:
        if declaration.name in info.globals:
            raise VxcSemanticError(
                f"line {declaration.line}: duplicate global {declaration.name!r}"
            )
        elem_size = _ELEM_SIZES[declaration.elem_kind]
        length = declaration.array_length
        if length is not None and length <= 0:
            raise VxcSemanticError(
                f"line {declaration.line}: array {declaration.name!r} must have "
                "a positive length"
            )
        init_bytes = _encode_initializer(declaration, elem_size, length)
        const_value = None
        if (
            declaration.is_const
            and length is None
            and isinstance(declaration.initializer, int)
        ):
            const_value = declaration.initializer & 0xFFFFFFFF
        info.globals[declaration.name] = GlobalSymbol(
            name=declaration.name,
            elem_kind=declaration.elem_kind,
            elem_size=elem_size,
            length=length,
            is_const=declaration.is_const,
            init_bytes=init_bytes,
            const_value=const_value,
        )


def _encode_initializer(declaration: ast.GlobalDecl, elem_size: int,
                        length: int | None) -> bytes | None:
    initializer = declaration.initializer
    if initializer is None:
        return None
    if isinstance(initializer, bytes):
        if length is None:
            raise VxcSemanticError(
                f"line {declaration.line}: string initializer requires an array"
            )
        data = initializer
    elif isinstance(initializer, list):
        if length is None:
            raise VxcSemanticError(
                f"line {declaration.line}: brace initializer requires an array"
            )
        data = b"".join(
            (value & (0xFF if elem_size == 1 else 0xFFFFFFFF)).to_bytes(
                elem_size, "little"
            )
            for value in initializer
        )
    else:  # scalar integer
        data = (initializer & 0xFFFFFFFF).to_bytes(4, "little")
    expected = (length if length is not None else 1) * elem_size
    if len(data) > expected:
        raise VxcSemanticError(
            f"line {declaration.line}: initializer for {declaration.name!r} has "
            f"{len(data)} bytes but the array holds {expected}"
        )
    return data + b"\x00" * (expected - len(data))


# -- functions ---------------------------------------------------------------------

def _collect_functions(program: ast.Program, info: SemanticInfo) -> None:
    for function in program.functions:
        if function.name in info.functions:
            raise VxcSemanticError(
                f"line {function.line}: duplicate function {function.name!r}"
            )
        if function.name in BUILTINS:
            raise VxcSemanticError(
                f"line {function.line}: {function.name!r} is a builtin and cannot "
                "be redefined"
            )
        if function.name in info.globals:
            raise VxcSemanticError(
                f"line {function.line}: {function.name!r} already declared as a global"
            )
        seen_params = set()
        for param in function.params:
            if param.name in seen_params:
                raise VxcSemanticError(
                    f"line {param.line}: duplicate parameter {param.name!r}"
                )
            seen_params.add(param.name)
        info.functions[function.name] = FunctionInfo(
            params=[
                LocalSymbol(param.name, "int", 4, None, offset=8 + 4 * index)
                for index, param in enumerate(function.params)
            ],
        )


def _mark_expandable(program: ast.Program, info: SemanticInfo) -> None:
    """Decide, in one pass over the program, which functions a call inside a
    loop is replaced by: the small ones that make no call in
    ``_NEVER_EXPANDED`` and cannot reach themselves."""
    callees: dict[str, list[str]] = {}
    for function in program.functions:
        nodes = list(ast.walk(function.body))
        called = [node.name for node in nodes if isinstance(node, ast.Call)]
        callees[function.name] = [name for name in called if name in info.functions]
        info.functions[function.name].expandable = len(nodes) <= _EXPANSION_LIMIT and not any(
            name in _NEVER_EXPANDED for name in called
        )
    for name in _on_a_cycle(callees):
        info.functions[name].expandable = False


def _on_a_cycle(callees: dict[str, list[str]]) -> list[str]:
    """The functions of every call-graph component that has an edge inside it
    (Tarjan's algorithm: each function and each call is visited once)."""
    low: dict[str, int] = {}
    stack: list[str] = []
    cyclic: list[str] = []

    def visit(name: str) -> None:
        first = low[name] = len(low)
        stack.append(name)
        for callee in callees[name]:
            if callee not in low:
                visit(callee)
            low[name] = min(low[name], low[callee])
        if low[name] == first:
            component = []
            while not component or component[-1] != name:
                component.append(stack.pop())
                low[component[-1]] = len(callees)    # finished: below nothing
            if len(component) > 1 or name in callees[name]:
                cyclic.extend(component)

    for name in callees:
        if name not in low:
            visit(name)
    return cyclic


class _FunctionChecker:
    """Walks one function body, and the body of every call it expands:
    scoping, arity, loop placement, storage layout."""

    def __init__(self, function: ast.FunctionDef, info: SemanticInfo,
                 definitions: dict[str, ast.FunctionDef]):
        self._function = function
        self._info = info
        self._definitions = definitions
        self._layout = info.functions[function.name]
        self._live: Expansion = self._layout      # the copy being walked
        self._scopes: list[dict[str, LocalSymbol]] = []
        self._loop_depth = 0

    def run(self) -> None:
        self._scopes.append({symbol.name: symbol for symbol in self._layout.params})
        self._check_stmt(self._function.body)
        self._scopes.pop()
        self._assign_storage()

    def _assign_storage(self) -> None:
        """Give the hottest ``int`` scalars registers and the rest frame slots.

        A register costs a save and a restore (and, for a parameter, the load
        from its argument slot), so a scalar only gets one when its weight
        exceeds that.  The symbols of expanded calls compete with the
        function's own: their uses were weighed at the depth of the call
        site.  The sort is stable, so ties go to the earlier declaration and
        the same source always yields the same image.
        """
        layout = self._layout
        candidates = [
            symbol
            for symbol in layout.symbols()
            if not symbol.is_array and symbol.elem_kind == "int"
            and symbol.weight > 2 + symbol.is_param
        ]
        candidates.sort(key=lambda symbol: -symbol.weight)
        layout.register_symbols = candidates[: len(LOCAL_REGISTERS)]
        for register, symbol in zip(LOCAL_REGISTERS, layout.register_symbols):
            symbol.register = register
        deepest = self._place(layout, 4 * len(layout.register_symbols))
        layout.frame_size = (deepest + 15) & ~15

    def _place(self, copy: Expansion, top: int) -> int:
        """Lay the frame residents of ``copy`` out below ``fp - top`` and the
        copies nested in it below those; return the deepest byte used.

        Sibling expansions start from the same ``top``: the slots of one are
        dead when the next begins, so the frame grows by the deepest chain of
        nested expansions and not by the number of sites.
        """
        for symbol in (*copy.params, *copy.locals_by_decl.values()):
            if symbol.register is None and not symbol.is_param:
                size = symbol.length * symbol.elem_size if symbol.is_array else 4
                top += (size + 3) & ~3
                symbol.offset = -top
        return max((self._place(nested, top) for nested in copy.expansions.values()),
                   default=top)

    # -- helpers ------------------------------------------------------------------

    def _error(self, node, message: str):
        raise VxcSemanticError(f"line {getattr(node, 'line', '?')}: {message}")

    def _lookup(self, name: str):
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        if name in self._info.globals:
            return self._info.globals[name]
        return None

    def _count_use(self, symbol) -> None:
        if isinstance(symbol, LocalSymbol):
            symbol.weight += _LOOP_WEIGHT ** self._loop_depth

    def _declare_local(self, decl: ast.VarDecl) -> None:
        scope = self._scopes[-1]
        if decl.name in scope:
            self._error(decl, f"duplicate local {decl.name!r}")
        if decl.array_length is not None and decl.array_length <= 0:
            self._error(decl, f"array {decl.name!r} must have a positive length")
        symbol = LocalSymbol(
            name=decl.name,
            elem_kind=decl.elem_kind,
            elem_size=_ELEM_SIZES[decl.elem_kind],
            length=decl.array_length,
        )
        if decl.initializer is not None:
            self._count_use(symbol)
        scope[decl.name] = symbol
        self._live.locals_by_decl[id(decl)] = symbol

    # -- statements ------------------------------------------------------------------

    def _check_stmt(self, node: ast.Stmt) -> None:
        if isinstance(node, ast.Block):
            self._scopes.append({})
            for statement in node.statements:
                self._check_stmt(statement)
            self._scopes.pop()
        elif isinstance(node, ast.VarDecl):
            # Declared first: as in C (and in codegen) the name is already in
            # scope in its own initializer, so uses there are credited to it.
            self._declare_local(node)
            if node.initializer is not None:
                if node.array_length is not None:
                    self._error(node, "local arrays cannot have initializers")
                self._check_expr(node.initializer)
        elif isinstance(node, ast.ExprStmt):
            self._check_expr(node.expr)
        elif isinstance(node, ast.If):
            self._check_expr(node.cond)
            self._check_stmt(node.then)
            if node.otherwise is not None:
                self._check_stmt(node.otherwise)
        elif isinstance(node, (ast.While, ast.DoWhile)):
            self._loop_depth += 1
            self._check_expr(node.cond)
            self._check_stmt(node.body)
            self._loop_depth -= 1
        elif isinstance(node, ast.For):
            self._scopes.append({})
            if node.init is not None:
                self._check_stmt(node.init)
            self._loop_depth += 1
            if node.cond is not None:
                self._check_expr(node.cond)
            if node.step is not None:
                self._check_expr(node.step)
            self._check_stmt(node.body)
            self._loop_depth -= 1
            self._scopes.pop()
        elif isinstance(node, ast.Return):
            # A bare 'return;' is allowed in int functions (it returns 0).
            if node.value is not None:
                self._check_expr(node.value)
        elif isinstance(node, ast.Break):
            if self._loop_depth == 0:
                self._error(node, "'break' outside of a loop")
        elif isinstance(node, ast.Continue):
            if self._loop_depth == 0:
                self._error(node, "'continue' outside of a loop")
        else:  # pragma: no cover - parser produces no other statement kinds
            self._error(node, f"unsupported statement {type(node).__name__}")

    # -- expressions --------------------------------------------------------------------

    def _check_expr(self, node: ast.Expr) -> None:
        if isinstance(node, (ast.NumberLiteral, ast.StringLiteral)):
            return
        if isinstance(node, ast.Identifier):
            symbol = self._lookup(node.name)
            if symbol is None:
                if node.name in self._info.functions or node.name in BUILTINS:
                    self._error(node, f"{node.name!r} is a function, not a value")
                self._error(node, f"undeclared identifier {node.name!r}")
            self._count_use(symbol)
            return
        if isinstance(node, ast.UnaryOp):
            self._check_expr(node.operand)
            return
        if isinstance(node, ast.BinaryOp):
            self._check_expr(node.left)
            self._check_expr(node.right)
            return
        if isinstance(node, ast.Conditional):
            self._check_expr(node.cond)
            self._check_expr(node.then)
            self._check_expr(node.otherwise)
            return
        if isinstance(node, ast.Assignment):
            self._check_assign_target(node.target)
            self._check_expr(node.value)
            return
        if isinstance(node, ast.Index):
            self._check_index(node)
            return
        if isinstance(node, ast.Call):
            self._check_call(node)
            return
        self._error(node, f"unsupported expression {type(node).__name__}")  # pragma: no cover

    def _check_assign_target(self, target: ast.Expr) -> None:
        if isinstance(target, ast.Identifier):
            symbol = self._lookup(target.name)
            if symbol is None:
                self._error(target, f"undeclared identifier {target.name!r}")
            if isinstance(symbol, GlobalSymbol):
                if symbol.is_const:
                    self._error(target, f"cannot assign to const {target.name!r}")
                if symbol.is_array:
                    self._error(target, f"cannot assign to array {target.name!r}")
            if isinstance(symbol, LocalSymbol) and symbol.is_array:
                self._error(target, f"cannot assign to array {target.name!r}")
            self._count_use(symbol)
            return
        if isinstance(target, ast.Index):
            self._check_index(target)
            return
        self._error(target, "assignment target must be a variable or array element")

    def _check_index(self, node: ast.Index) -> None:
        base = node.base
        if not isinstance(base, ast.Identifier):
            self._error(node, "only declared arrays can be subscripted; "
                              "use peek/poke for raw addresses")
        symbol = self._lookup(base.name)
        if symbol is None:
            self._error(base, f"undeclared identifier {base.name!r}")
        if not symbol.is_array:
            self._error(node, f"{base.name!r} is not an array; "
                              "use peek/poke to dereference addresses")
        self._check_expr(node.index)

    def _check_call(self, node: ast.Call) -> None:
        if node.name in BUILTINS:
            expected = BUILTINS[node.name]
        elif node.name in self._info.functions:
            expected = len(self._info.functions[node.name].params)
        else:
            self._error(node, f"call to undefined function {node.name!r}")
        if len(node.args) != expected:
            self._error(
                node,
                f"{node.name!r} expects {expected} argument(s), got {len(node.args)}",
            )
        callee = self._info.functions.get(node.name)
        if callee is None or not (callee.expandable and self._loop_depth):
            if callee is not None:
                self._layout.calls.append(node.name)
            for argument in node.args:
                self._check_expr(argument)
            return
        # Generated in place: fresh symbols for this copy, weighed at the
        # depth of the site.  The copy is live from before its first argument
        # is evaluated (a copy expanded inside an argument must not share
        # slots with parameters already stored) until its body ends.
        expansion = Expansion(
            [LocalSymbol(param.name, "int", 4, None) for param in callee.params]
        )
        self._live.expansions[id(node)] = expansion
        enclosing, self._live = self._live, expansion
        for argument, symbol in zip(node.args, expansion.params):
            self._check_expr(argument)
            self._count_use(symbol)
        caller_scopes = self._scopes
        self._scopes = [{symbol.name: symbol for symbol in expansion.params}]
        self._check_stmt(self._definitions[node.name].body)
        self._scopes, self._live = caller_scopes, enclosing
