"""Code generation: vxc AST -> VXA-32 assembly text.

Model
-----

* all values are 32-bit integers.  Per function, up to three scalar ``int``
  locals or parameters -- those with the highest static use weight, see
  :mod:`repro.vxc.semantics` -- live in the callee-saved registers R2, R3
  and R5 for the whole call; arrays and the remaining scalars live in frame
  slots at ``[fp-k]``, parameters at ``[fp+8+4i]``,
* a function saves exactly the registers it assigns, to ``[fp-4]``,
  ``[fp-8]``, ``[fp-12]`` in its prologue, loads register-resident
  parameters once from their argument slots, and restores at its single
  epilogue ``fn_<name>__end``; a function that assigns none has the plain
  ``push fp; mov fp, sp; subi sp, N`` frame.  Nothing is done at call sites,
* a call to a user function is *generated in place* -- no ``call``, no
  frame, no argument pushes -- when the callee is on no call-graph cycle, has
  at most 60 statements and expressions, makes no ``read``/``write``/
  ``setperm`` call itself, and the site is inside a loop of the function
  being generated or of a copy already being generated in it (so everything
  a copy calls is a candidate).  The arguments are evaluated right to left,
  as for a call, each stored straight into a symbol that belongs to this
  copy alone; the body is generated with scopes of its own (a name it does
  not declare is a global, whatever the caller has in scope) and an end
  label its ``return`` jumps to, and the value is in R0 there.  The copy's
  symbols compete for R2/R3/R5 with the function's, weighed at the loop
  depth of the site,
* the copy's symbols that get no register take frame slots above the
  function's own, in stack discipline: a copy's slots are reserved from
  before its first argument is evaluated until its body ends, so a copy
  made inside an argument or inside the body lies above them, and two
  copies that are never live together share theirs.  The frame grows by the
  deepest chain of copies, not by the number of sites,
* only ``main`` and what is still *called* from it, directly or not, is
  emitted, in source order: a helper whose every site was generated in
  place is not in the image, nor is a library function nobody uses,
* a local that is read before it is written holds whatever its home held:
  for a register local that is the *caller's* value of that register, not
  a stale stack word -- and for a local of a copy generated in place, the
  register or frame slot of the function it was copied *into*, with whatever
  the previous copy to use that slot left there.  As in C, the name is in
  scope in its own initializer,
* R0 is the accumulator and the return value, R1 the second operand, R4 the
  address scratch for globals and array bases.  A binary operator,
  comparison, compound assignment to a scalar or ``udiv``/``umod``/``asr``
  whose right operand is a leaf (a literal, a ``const``, a scalar or an
  array name) loads it straight into R1.  One whose *left* operand is the
  leaf evaluates the right operand first, moves it to R1 and then loads the
  leaf -- whenever the right operand cannot change what the leaf reads: a
  literal, ``const`` or array name always, a local unless the right operand
  assigns it, a global scalar unless the right operand assigns it or calls a
  user function.  Only otherwise is the right operand evaluated with the
  left one pushed.  An element store or ``poke`` whose value is a leaf keeps
  the address in R1 instead of pushing it.  The *values* are those of
  operands evaluated left to right and call arguments right to left,
* the ``read``/``write`` builtins take their arguments in R1-R3 and so push
  R2 and R3 once the arguments are evaluated (through R4 and R0, an
  argument may assign a register local) and pop both after the ``vxcall``,
* ``/`` and ``%`` are signed (C ``int`` semantics), ``>>`` is a *logical*
  shift (use the ``asr`` builtin for an arithmetic shift, ``udiv``/``umod``
  for unsigned division), comparisons are signed,
* a call that stays a call pushes its arguments right-to-left, so the first
  argument sits at ``[fp+8]``; the return value is in R0; the caller pops
  its arguments,
* globals live in ``.data`` (initialised) or a bss region following it
  (zero-initialised); ``const int`` scalars fold to immediates,
* ``_start`` initialises the runtime heap pointer, calls ``main`` and passes
  its return value to the ``exit`` virtual system call.

Images already in archives were built with whatever convention their
compiler had (see ``repro.vxc.compiler.TOOLCHAIN``) and run unchanged: the
convention is between functions of one image, never between an image and
the VM.
"""

from __future__ import annotations

from repro.errors import VxcSemanticError
from repro.vxc import ast_nodes as ast
from repro.vxc.semantics import BUILTINS, Expansion, GlobalSymbol, LocalSymbol, SemanticInfo

_WORD_BINOPS = {
    "+": ("add", "addi"),
    "-": ("sub", "subi"),
    "*": ("mul", "muli"),
    "&": ("and", "andi"),
    "|": ("or", "ori"),
    "^": ("xor", "xori"),
    "<<": ("shl", "shli"),
    ">>": ("shru", "shrui"),
    "/": ("divs", None),
    "%": ("rems", None),
}

_COMPARE_JUMPS = {
    "==": "je",
    "!=": "jne",
    "<": "jlts",
    "<=": "jles",
    ">": "jgts",
    ">=": "jges",
}

_SYSCALL_NUMBERS = {"exit": 0, "read": 1, "write": 2, "setperm": 3, "done": 4}

_PEEK_INSTRUCTIONS = {
    "peek8": "ld8u",
    "peek8s": "ld8s",
    "peek16": "ld16u",
    "peek16s": "ld16s",
    "peek32": "ld32",
}

_POKE_INSTRUCTIONS = {"poke8": "st8", "poke16": "st16", "poke32": "st32"}

#: Operands :meth:`CodeGenerator._gen_leaf` loads into any register without
#: touching the stack: literals, ``const`` and scalar names, array names.
_LEAVES = (ast.NumberLiteral, ast.StringLiteral, ast.Identifier)


def _mem(base: str, offset: int) -> str:
    if offset >= 0:
        return f"[{base}+{offset}]"
    return f"[{base}-{-offset}]"


class CodeGenerator:
    """Generates assembly for one analysed program."""

    def __init__(self, program: ast.Program, info: SemanticInfo):
        self._program = program
        self._info = info
        self._lines: list[str] = []
        self._label_counter = 0
        self._string_literals: list[bytes] = []
        self._definitions = {function.name: function for function in program.functions}
        self._loop_stack: list[tuple[str, str]] = []
        self._scopes: list[dict[str, object]] = []
        # The copy being generated (a function, or a call expanded in it) and
        # the label its ``return`` jumps to.
        self._live: Expansion = Expansion([])
        self._return_label = ""
        # Global placement: name -> address expression usable as an immediate.
        self._global_address: dict[str, str] = {}
        self._bss_total = 0
        self._place_globals()

    # -- public API ------------------------------------------------------------

    def generate(self) -> str:
        """Return the complete assembly source for the program."""
        for function in self._program.functions:
            if function.name in self._info.emitted:
                self._gen_function(function)
        self._gen_start()
        self._gen_data_section()
        return "\n".join(self._lines) + "\n"

    # -- layout ------------------------------------------------------------------

    def _place_globals(self) -> None:
        bss_offset = 0
        for symbol in self._info.globals.values():
            if symbol.const_value is not None:
                continue
            if symbol.init_bytes is not None:
                self._global_address[symbol.name] = f"g_{symbol.name}"
            else:
                size = (symbol.size_bytes + 3) & ~3
                self._global_address[symbol.name] = f"__bss_start+{bss_offset}"
                bss_offset += size
        self._bss_total = bss_offset

    # -- emission helpers ------------------------------------------------------------

    def _emit(self, line: str) -> None:
        self._lines.append("    " + line)

    def _emit_label(self, label: str) -> None:
        self._lines.append(f"{label}:")

    def _new_label(self, hint: str = "L") -> str:
        self._label_counter += 1
        return f".{hint}{self._label_counter}"

    def _error(self, node, message: str):
        raise VxcSemanticError(f"line {getattr(node, 'line', '?')}: {message}")

    # -- name resolution (scoped) ------------------------------------------------------

    def _lookup(self, name: str):
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return self._info.globals.get(name)

    # -- functions ------------------------------------------------------------------------

    def _gen_function(self, function: ast.FunctionDef) -> None:
        layout = self._info.functions[function.name]
        self._emit_label(f"fn_{function.name}")
        self._emit("push fp")
        self._emit("mov fp, sp")
        if layout.frame_size:
            self._emit(f"subi sp, {layout.frame_size}")
        saves = [
            (symbol.register, _mem("fp", -4 * (index + 1)))
            for index, symbol in enumerate(layout.register_symbols)
        ]
        for register, slot in saves:
            self._emit(f"st32 {slot}, {register}")
        for symbol in layout.register_symbols:
            if symbol.is_param:
                self._emit(f"ld32 {symbol.register}, {_mem('fp', symbol.offset)}")
        self._live = layout
        self._gen_body(function, f"fn_{function.name}__end")
        for register, slot in saves:
            self._emit(f"ld32 {register}, {slot}")
        self._emit("mov sp, fp")
        self._emit("pop fp")
        self._emit("ret")

    def _gen_body(self, function: ast.FunctionDef, return_label: str) -> None:
        """Generate the live copy of ``function``'s body, ending at ``return_label``.

        The copy resolves names in scopes of its own, whose outermost holds
        its parameters, and its ``return`` is a jump to the label.
        """
        enclosing = self._scopes, self._return_label
        self._return_label = return_label
        self._scopes = [{symbol.name: symbol for symbol in self._live.params}]
        self._gen_stmt(function.body)
        statements = function.body.statements
        if not (statements and isinstance(statements[-1], ast.Return)):
            self._emit("movi r0, 0")  # implicit return value for fall-through
        self._emit_label(return_label)
        self._scopes, self._return_label = enclosing

    def _gen_start(self) -> None:
        self._emit_label("_start")
        heap_base = f"__bss_start+{self._bss_total}"
        for heap_global in ("__heap_ptr", "__heap_base"):
            if heap_global in self._global_address:
                self._emit(f"movi r4, {self._global_address[heap_global]}")
                self._emit(f"movi r0, {heap_base}")
                self._emit("st32 [r4], r0")
        self._emit("call fn_main")
        self._emit("mov r1, r0")
        self._emit("movi r0, 0")
        self._emit("vxcall")

    def _gen_data_section(self) -> None:
        self._lines.append(".data")
        for symbol in self._info.globals.values():
            if symbol.const_value is not None or symbol.init_bytes is None:
                continue
            self._emit_label(f"g_{symbol.name}")
            self._emit_bytes(symbol.init_bytes)
        for index, literal in enumerate(self._string_literals):
            self._emit_label(f"str_{index}")
            self._emit_bytes(literal + b"\x00")
        self._emit(".align 4")
        self._emit_label("__bss_start")
        if self._bss_total:
            self._emit(f".bss {self._bss_total}")

    def _emit_bytes(self, data: bytes) -> None:
        for start in range(0, len(data), 16):
            chunk = data[start : start + 16]
            self._emit(".byte " + ", ".join(f"0x{byte:02x}" for byte in chunk))

    # -- statements ------------------------------------------------------------------------

    def _gen_stmt(self, node: ast.Stmt) -> None:
        if isinstance(node, ast.Block):
            self._scopes.append({})
            for statement in node.statements:
                self._gen_stmt(statement)
            self._scopes.pop()
        elif isinstance(node, ast.VarDecl):
            symbol = self._live.locals_by_decl[id(node)]
            self._scopes[-1][node.name] = symbol
            if node.initializer is not None:
                self._gen_expr(node.initializer)
                self._gen_scalar_store(node, symbol)
        elif isinstance(node, ast.ExprStmt):
            self._gen_expr(node.expr)
        elif isinstance(node, ast.If):
            label_then = self._new_label("then")
            label_else = self._new_label("else")
            label_end = self._new_label("endif")
            self._gen_branch(node.cond, label_then, label_else)
            self._emit_label(label_then)
            self._gen_stmt(node.then)
            if node.otherwise is not None:
                self._emit(f"jmp {label_end}")
            self._emit_label(label_else)
            if node.otherwise is not None:
                self._gen_stmt(node.otherwise)
                self._emit_label(label_end)
        elif isinstance(node, ast.While):
            label_cond = self._new_label("while")
            label_body = self._new_label("body")
            label_end = self._new_label("endwhile")
            self._emit_label(label_cond)
            self._gen_branch(node.cond, label_body, label_end)
            self._emit_label(label_body)
            self._loop_stack.append((label_end, label_cond))
            self._gen_stmt(node.body)
            self._loop_stack.pop()
            self._emit(f"jmp {label_cond}")
            self._emit_label(label_end)
        elif isinstance(node, ast.DoWhile):
            label_body = self._new_label("dobody")
            label_cond = self._new_label("docond")
            label_end = self._new_label("enddo")
            self._emit_label(label_body)
            self._loop_stack.append((label_end, label_cond))
            self._gen_stmt(node.body)
            self._loop_stack.pop()
            self._emit_label(label_cond)
            self._gen_branch(node.cond, label_body, label_end)
            self._emit_label(label_end)
        elif isinstance(node, ast.For):
            label_cond = self._new_label("for")
            label_body = self._new_label("forbody")
            label_step = self._new_label("forstep")
            label_end = self._new_label("endfor")
            self._scopes.append({})
            if node.init is not None:
                self._gen_stmt(node.init)
            self._emit_label(label_cond)
            if node.cond is not None:
                self._gen_branch(node.cond, label_body, label_end)
            self._emit_label(label_body)
            self._loop_stack.append((label_end, label_step))
            self._gen_stmt(node.body)
            self._loop_stack.pop()
            self._emit_label(label_step)
            if node.step is not None:
                self._gen_expr(node.step)
            self._emit(f"jmp {label_cond}")
            self._emit_label(label_end)
            self._scopes.pop()
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self._gen_expr(node.value)
            else:
                self._emit("movi r0, 0")
            self._emit(f"jmp {self._return_label}")
        elif isinstance(node, ast.Break):
            self._emit(f"jmp {self._loop_stack[-1][0]}")
        elif isinstance(node, ast.Continue):
            self._emit(f"jmp {self._loop_stack[-1][1]}")
        else:  # pragma: no cover
            self._error(node, f"cannot generate statement {type(node).__name__}")

    # -- branch-context expressions ------------------------------------------------------

    def _gen_branch(self, cond: ast.Expr, label_true: str, label_false: str) -> None:
        """Generate code that jumps to ``label_true`` or ``label_false``."""
        if isinstance(cond, ast.BinaryOp) and cond.op in _COMPARE_JUMPS:
            self._gen_compare_operands(cond)
            self._emit(f"{_COMPARE_JUMPS[cond.op]} {label_true}")
            self._emit(f"jmp {label_false}")
            return
        if isinstance(cond, ast.BinaryOp) and cond.op == "&&":
            label_mid = self._new_label("and")
            self._gen_branch(cond.left, label_mid, label_false)
            self._emit_label(label_mid)
            self._gen_branch(cond.right, label_true, label_false)
            return
        if isinstance(cond, ast.BinaryOp) and cond.op == "||":
            label_mid = self._new_label("or")
            self._gen_branch(cond.left, label_true, label_mid)
            self._emit_label(label_mid)
            self._gen_branch(cond.right, label_true, label_false)
            return
        if isinstance(cond, ast.UnaryOp) and cond.op == "!":
            self._gen_branch(cond.operand, label_false, label_true)
            return
        self._gen_expr(cond)
        self._emit("cmpi r0, 0")
        self._emit(f"jne {label_true}")
        self._emit(f"jmp {label_false}")

    def _gen_compare_operands(self, node: ast.BinaryOp) -> None:
        """Leave comparison operands staged and emit the ``cmp``."""
        if isinstance(node.right, ast.NumberLiteral):
            self._gen_expr(node.left)
            self._emit(f"cmpi r0, {node.right.value & 0xFFFFFFFF}")
            return
        self._gen_operands(node.left, node.right)
        self._emit("cmp r0, r1")

    # -- value-context expressions ---------------------------------------------------------

    def _gen_expr(self, node: ast.Expr) -> None:
        """Generate code leaving the expression value in R0."""
        if isinstance(node, _LEAVES):
            self._gen_leaf(node, "r0")
        elif isinstance(node, ast.UnaryOp):
            self._gen_unary(node)
        elif isinstance(node, ast.BinaryOp):
            self._gen_binary(node)
        elif isinstance(node, ast.Conditional):
            label_then = self._new_label("ctrue")
            label_else = self._new_label("cfalse")
            label_end = self._new_label("cend")
            self._gen_branch(node.cond, label_then, label_else)
            self._emit_label(label_then)
            self._gen_expr(node.then)
            self._emit(f"jmp {label_end}")
            self._emit_label(label_else)
            self._gen_expr(node.otherwise)
            self._emit_label(label_end)
        elif isinstance(node, ast.Assignment):
            self._gen_assignment(node)
        elif isinstance(node, ast.Index):
            symbol = self._index_symbol(node)
            self._gen_element_address(node, symbol)
            load = "ld8u" if symbol.elem_size == 1 else "ld32"
            self._emit(f"{load} r0, [r0]")
        elif isinstance(node, ast.Call):
            self._gen_call(node)
        else:  # pragma: no cover
            self._error(node, f"cannot generate expression {type(node).__name__}")

    def _gen_leaf(self, node: ast.Expr, register: str) -> None:
        """Load one of ``_LEAVES`` into ``register``.

        This writes no register but ``register`` and R4, runs no guest code
        and leaves the stack alone, so it is safe while another operand waits
        in R0 or R1.
        """
        if isinstance(node, ast.NumberLiteral):
            self._emit(f"movi {register}, {node.value & 0xFFFFFFFF}")
        elif isinstance(node, ast.StringLiteral):
            index = len(self._string_literals)
            self._string_literals.append(node.value)
            self._emit(f"movi {register}, str_{index}")
        else:
            self._gen_identifier(node, register)

    def _gen_identifier(self, node: ast.Identifier, register: str) -> None:
        symbol = self._lookup(node.name)
        if symbol is None:
            self._error(node, f"undeclared identifier {node.name!r}")
        if isinstance(symbol, LocalSymbol):
            if symbol.register is not None:
                self._emit(f"mov {register}, {symbol.register}")
            elif symbol.is_array:
                self._emit(f"lea {register}, {_mem('fp', symbol.offset)}")
            else:
                self._emit(f"ld32 {register}, {_mem('fp', symbol.offset)}")
        elif isinstance(symbol, GlobalSymbol):
            if symbol.const_value is not None:
                self._emit(f"movi {register}, {symbol.const_value}")
            elif symbol.is_array:
                self._emit(f"movi {register}, {self._global_address[symbol.name]}")
            else:
                self._emit(f"movi r4, {self._global_address[symbol.name]}")
                self._emit(f"ld32 {register}, [r4]")
        else:  # pragma: no cover
            self._error(node, f"cannot evaluate {node.name!r}")

    def _gen_operands(self, left: ast.Expr, right: ast.Expr) -> None:
        """Leave ``left`` in R0 and ``right`` in R1, as if evaluated in that order."""
        if isinstance(left, _LEAVES) and not isinstance(right, _LEAVES) and (
                self._survives(left, right)):
            self._gen_expr(right)
            self._emit("mov r1, r0")
            self._gen_leaf(left, "r0")
        else:
            self._gen_expr(left)
            self._gen_right_operand(right)

    def _survives(self, leaf: ast.Expr, other: ast.Expr) -> bool:
        """Whether ``leaf`` reads the same after ``other`` is evaluated as before.

        A literal, a ``const`` or an array name always does.  A local can only
        change by an assignment written in ``other`` (an expanded call's body
        has its own names), a global scalar also inside any function called.
        """
        if not isinstance(leaf, ast.Identifier):
            return True
        symbol = self._lookup(leaf.name)
        is_global = isinstance(symbol, GlobalSymbol)
        if symbol.is_array or (is_global and symbol.const_value is not None):
            return True
        for node in ast.walk(other):
            if isinstance(node, ast.Assignment):
                if isinstance(node.target, ast.Identifier) and node.target.name == leaf.name:
                    return False
            elif is_global and isinstance(node, ast.Call) and node.name not in BUILTINS:
                return False
        return True

    def _gen_right_operand(self, node: ast.Expr) -> None:
        """R0 holds a left operand: leave it there and put ``node`` in R1."""
        if isinstance(node, _LEAVES):
            self._gen_leaf(node, "r1")
        else:
            self._emit("push r0")
            self._gen_expr(node)
            self._emit("mov r1, r0")
            self._emit("pop r0")

    def _gen_unary(self, node: ast.UnaryOp) -> None:
        self._gen_expr(node.operand)
        if node.op == "-":
            self._emit("neg r0, r0")
        elif node.op == "~":
            self._emit("not r0, r0")
        elif node.op == "!":
            label_true = self._new_label("nz")
            label_end = self._new_label("notend")
            self._emit("cmpi r0, 0")
            self._emit(f"jne {label_true}")
            self._emit("movi r0, 1")
            self._emit(f"jmp {label_end}")
            self._emit_label(label_true)
            self._emit("movi r0, 0")
            self._emit_label(label_end)
        else:  # pragma: no cover
            self._error(node, f"unsupported unary operator {node.op!r}")

    def _gen_binary(self, node: ast.BinaryOp) -> None:
        if node.op in ("&&", "||"):
            label_true = self._new_label("btrue")
            label_false = self._new_label("bfalse")
            label_end = self._new_label("bend")
            self._gen_branch(node, label_true, label_false)
            self._emit_label(label_true)
            self._emit("movi r0, 1")
            self._emit(f"jmp {label_end}")
            self._emit_label(label_false)
            self._emit("movi r0, 0")
            self._emit_label(label_end)
            return
        if node.op in _COMPARE_JUMPS:
            label_true = self._new_label("cmpt")
            label_end = self._new_label("cmpe")
            self._gen_compare_operands(node)
            self._emit(f"{_COMPARE_JUMPS[node.op]} {label_true}")
            self._emit("movi r0, 0")
            self._emit(f"jmp {label_end}")
            self._emit_label(label_true)
            self._emit("movi r0, 1")
            self._emit_label(label_end)
            return
        self._apply_binop(node.op, node.left, node.right)

    def _apply_binop(self, op: str, left: ast.Expr | None, right: ast.Expr) -> None:
        """Leave ``left op right`` in R0; with no ``left``, R0 holds that operand."""
        mnemonic, immediate_form = _WORD_BINOPS[op]
        if immediate_form is not None and isinstance(right, ast.NumberLiteral):
            if left is not None:
                self._gen_expr(left)
            self._emit(f"{immediate_form} r0, {right.value & 0xFFFFFFFF}")
            return
        if left is None:
            self._gen_right_operand(right)
        else:
            self._gen_operands(left, right)
        self._emit(f"{mnemonic} r0, r1")

    def _gen_assignment(self, node: ast.Assignment) -> None:
        target = node.target
        compound_op = node.op[:-1] if node.op != "=" else None
        if isinstance(target, ast.Identifier):
            symbol = self._lookup(target.name)
            if symbol is None:
                self._error(target, f"undeclared identifier {target.name!r}")
            if compound_op is None:
                self._gen_expr(node.value)
            else:
                self._apply_binop(compound_op, target, node.value)
            self._gen_scalar_store(target, symbol)
            return
        # Array element target.
        symbol = self._index_symbol(target)
        store = "st8" if symbol.elem_size == 1 else "st32"
        self._gen_element_address(target, symbol)
        if compound_op is None:
            self._gen_store_value(node.value)
        else:
            load = "ld8u" if symbol.elem_size == 1 else "ld32"
            self._emit("push r0")                   # [address]
            self._emit(f"{load} r0, [r0]")
            self._apply_binop(compound_op, None, node.value)
            self._emit("pop r1")                    # address
        self._emit(f"{store} [r1], r0")

    def _gen_store_value(self, value: ast.Expr) -> None:
        """R0 holds a store address: move it to R1 and put ``value`` in R0."""
        if isinstance(value, _LEAVES):
            self._emit("mov r1, r0")
            self._gen_leaf(value, "r0")
        else:
            self._emit("push r0")
            self._gen_expr(value)
            self._emit("pop r1")

    def _gen_scalar_store(self, node, symbol) -> None:
        """Store R0 to the scalar variable ``symbol``."""
        if isinstance(symbol, LocalSymbol) and symbol.register is not None:
            self._emit(f"mov {symbol.register}, r0")
        elif isinstance(symbol, LocalSymbol) and not symbol.is_array:
            self._emit(f"st32 {_mem('fp', symbol.offset)}, r0")
        elif isinstance(symbol, GlobalSymbol) and not symbol.is_array and not symbol.is_const:
            self._emit(f"movi r4, {self._global_address[symbol.name]}")
            self._emit("st32 [r4], r0")
        else:
            self._error(node, f"cannot assign to {node.name!r}")

    def _index_symbol(self, node: ast.Index):
        base = node.base
        symbol = self._lookup(base.name)
        if symbol is None or not symbol.is_array:
            self._error(node, f"{base.name!r} is not an array")
        return symbol

    def _gen_element_address(self, node: ast.Index, symbol) -> None:
        """Leave the address of ``base[index]`` in R0."""
        if isinstance(node.index, ast.NumberLiteral):
            offset = node.index.value * symbol.elem_size
            if isinstance(symbol, LocalSymbol):
                self._emit(f"lea r0, {_mem('fp', symbol.offset + offset)}")
            else:
                self._emit(f"movi r0, {self._global_address[symbol.name]}")
                if offset:
                    self._emit(f"addi r0, {offset}")
            return
        self._gen_expr(node.index)
        if symbol.elem_size == 4:
            self._emit("shli r0, 2")
        if isinstance(symbol, LocalSymbol):
            self._emit(f"lea r4, {_mem('fp', symbol.offset)}")
        else:
            self._emit(f"movi r4, {self._global_address[symbol.name]}")
        self._emit("add r0, r4")

    # -- calls -----------------------------------------------------------------------------

    def _gen_call(self, node: ast.Call) -> None:
        if node.name in BUILTINS:
            self._gen_builtin(node)
            return
        expansion = self._live.expansions.get(id(node))
        if expansion is not None:
            # Generated in place.  The copy is live from before its arguments
            # are evaluated (in the caller's scopes; a site inside one is
            # looked up under the copy) and stored to its parameters.
            enclosing, self._live = self._live, expansion
            for argument, symbol in reversed(list(zip(node.args, expansion.params))):
                self._gen_expr(argument)
                self._gen_scalar_store(argument, symbol)
            self._gen_body(self._definitions[node.name], self._new_label("ret"))
            self._live = enclosing
            return
        for argument in reversed(node.args):
            self._gen_expr(argument)
            self._emit("push r0")
        self._emit(f"call fn_{node.name}")
        if node.args:
            self._emit(f"addi sp, {4 * len(node.args)}")

    def _gen_builtin(self, node: ast.Call) -> None:
        name = node.name
        if name in ("read", "write"):
            # The call takes its arguments in R1-R3, and R2 and R3 may hold
            # locals: they are saved once the arguments (which may assign
            # those locals) are evaluated, and restored after the call.
            for argument in node.args[:2]:
                self._gen_expr(argument)
                self._emit("push r0")
            self._gen_expr(node.args[2])
            self._emit("pop r4")
            self._emit("pop r1")
            self._emit("push r2")
            self._emit("push r3")
            self._emit("mov r2, r4")
            self._emit("mov r3, r0")
            self._emit(f"movi r0, {_SYSCALL_NUMBERS[name]}")
            self._emit("vxcall")
            self._emit("pop r3")
            self._emit("pop r2")
            return
        if name in ("exit", "setperm"):
            self._gen_expr(node.args[0])
            self._emit("mov r1, r0")
            self._emit(f"movi r0, {_SYSCALL_NUMBERS[name]}")
            self._emit("vxcall")
            return
        if name == "done":
            self._emit(f"movi r0, {_SYSCALL_NUMBERS[name]}")
            self._emit("vxcall")
            return
        if name in _PEEK_INSTRUCTIONS:
            self._gen_expr(node.args[0])
            self._emit(f"{_PEEK_INSTRUCTIONS[name]} r0, [r0]")
            return
        if name in _POKE_INSTRUCTIONS:
            self._gen_expr(node.args[0])
            self._gen_store_value(node.args[1])
            self._emit(f"{_POKE_INSTRUCTIONS[name]} [r1], r0")
            return
        if name in ("udiv", "umod", "asr"):
            mnemonic = {"udiv": "divu", "umod": "remu", "asr": "shrs"}[name]
            self._gen_operands(node.args[0], node.args[1])
            self._emit(f"{mnemonic} r0, r1")
            return
        self._error(node, f"unknown builtin {name!r}")  # pragma: no cover


def generate(program: ast.Program, info: SemanticInfo) -> str:
    """Generate assembly text for an analysed program."""
    return CodeGenerator(program, info).generate()
