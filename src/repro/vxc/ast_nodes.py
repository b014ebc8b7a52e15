"""Abstract syntax tree node definitions for the vxc compiler."""

from __future__ import annotations

from dataclasses import dataclass, field


# -- expressions ---------------------------------------------------------------

@dataclass
class Expr:
    line: int = 0


@dataclass
class NumberLiteral(Expr):
    value: int = 0


@dataclass
class StringLiteral(Expr):
    value: bytes = b""


@dataclass
class Identifier(Expr):
    name: str = ""


@dataclass
class UnaryOp(Expr):
    op: str = ""
    operand: Expr | None = None


@dataclass
class BinaryOp(Expr):
    op: str = ""
    left: Expr | None = None
    right: Expr | None = None


@dataclass
class Conditional(Expr):
    """Ternary ``cond ? a : b``."""

    cond: Expr | None = None
    then: Expr | None = None
    otherwise: Expr | None = None


@dataclass
class Assignment(Expr):
    """``target = value`` or compound ``target op= value``."""

    op: str = "="
    target: Expr | None = None
    value: Expr | None = None


@dataclass
class Index(Expr):
    """Array subscript ``base[index]``."""

    base: Expr | None = None
    index: Expr | None = None


@dataclass
class Call(Expr):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


# -- statements ----------------------------------------------------------------

@dataclass
class Stmt:
    line: int = 0


@dataclass
class ExprStmt(Stmt):
    expr: Expr | None = None


@dataclass
class Block(Stmt):
    statements: list[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr | None = None
    then: Stmt | None = None
    otherwise: Stmt | None = None


@dataclass
class While(Stmt):
    cond: Expr | None = None
    body: Stmt | None = None


@dataclass
class DoWhile(Stmt):
    cond: Expr | None = None
    body: Stmt | None = None


@dataclass
class For(Stmt):
    init: Stmt | None = None
    cond: Expr | None = None
    step: Expr | None = None
    body: Stmt | None = None


@dataclass
class Return(Stmt):
    value: Expr | None = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class VarDecl(Stmt):
    """Local variable or array declaration."""

    name: str = ""
    elem_kind: str = "int"          # "int" or "byte"
    array_length: int | None = None  # None for scalars
    initializer: Expr | None = None


# -- top-level declarations -----------------------------------------------------

@dataclass
class GlobalDecl:
    name: str
    elem_kind: str                   # "int" or "byte"
    array_length: int | None         # None for scalars
    initializer: list[int] | bytes | int | None
    is_const: bool
    line: int


@dataclass
class Param:
    name: str
    line: int


@dataclass
class FunctionDef:
    name: str
    params: list[Param]
    body: Block
    line: int
    returns_value: bool = True


@dataclass
class Program:
    globals: list[GlobalDecl] = field(default_factory=list)
    functions: list[FunctionDef] = field(default_factory=list)


def walk(node: Expr | Stmt):
    """Yield ``node`` and every expression and statement below it, in source order."""
    yield node
    for child in vars(node).values():
        if isinstance(child, (Expr, Stmt)):
            yield from walk(child)
        elif isinstance(child, list):
            for item in child:
                yield from walk(item)
