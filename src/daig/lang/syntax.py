"""Statement and expression syntax for the analyzed language.

Programs are flow graphs whose edges carry one atomic statement each;
`if`/`while` never appear here because the parser compiles their guards
into paired ``assume`` edges.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

ARITH_OPS = ("+", "-", "*", "/")
CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")
BINOPS = ARITH_OPS + CMP_OPS


# --- expressions ---------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class ArrayRead:
    array: str
    index: "Expr"


@dataclass(frozen=True)
class Binop:
    op: str
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class And:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Or:
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[IntLit, Var, ArrayRead, Binop, Not, And, Or]


# --- statements ----------------------------------------------------------


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Assign:
    var: str
    rhs: Expr


@dataclass(frozen=True)
class Assume:
    cond: Expr


@dataclass(frozen=True)
class Print:
    arg: Expr


@dataclass(frozen=True)
class ArrayWrite:
    array: str
    index: Expr
    rhs: Expr


@dataclass(frozen=True)
class Call:
    lhs: str
    callee: str
    actual: Optional[Expr] = None


Stmt = Union[Skip, Assign, Assume, Print, ArrayWrite, Call]

SKIP = Skip()


def is_stmt(value: object) -> bool:
    return isinstance(value, (Skip, Assign, Assume, Print, ArrayWrite, Call))


# --- rendering -----------------------------------------------------------
#
# Compound subexpressions are always parenthesized, so the printed form is
# unambiguous and re-parses to the same tree.  Negative literals print as
# (0 - n) because the source grammar has no unary minus.


def expr_text(e: Expr) -> str:
    if isinstance(e, IntLit):
        if e.value < 0:
            return f"(0 - {-e.value})"
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, ArrayRead):
        return f"{e.array}[{expr_text(e.index)}]"
    if isinstance(e, Binop):
        return f"({expr_text(e.lhs)} {e.op} {expr_text(e.rhs)})"
    if isinstance(e, Not):
        return f"!{expr_text(e.operand)}"
    if isinstance(e, And):
        return f"({expr_text(e.lhs)} && {expr_text(e.rhs)})"
    if isinstance(e, Or):
        return f"({expr_text(e.lhs)} || {expr_text(e.rhs)})"
    raise TypeError(f"not an expression: {e!r}")


def stmt_text(s: Stmt) -> str:
    if isinstance(s, Skip):
        return "skip;"
    if isinstance(s, Assign):
        return f"{s.var} = {expr_text(s.rhs)};"
    if isinstance(s, Assume):
        return f"assume({expr_text(s.cond)});"
    if isinstance(s, Print):
        return f"print({expr_text(s.arg)});"
    if isinstance(s, ArrayWrite):
        return f"{s.array}[{expr_text(s.index)}] = {expr_text(s.rhs)};"
    if isinstance(s, Call):
        arg = expr_text(s.actual) if s.actual is not None else ""
        return f"{s.lhs} = {s.callee}({arg});"
    raise TypeError(f"not a statement: {s!r}")
