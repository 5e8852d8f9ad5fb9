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


# --- nodes ---------------------------------------------------------------
#
# Memo keys hold statements, so a statement is hashed on every memo lookup.
# Each node works out its hash once, on first use, and keeps it in a slot.
# The hash is value-based (the class name and the fields), since set and dict
# order must not depend on addresses.  String hashes differ between processes
# (PYTHONHASHSEED), so the cached hash is never pickled or copied: a node is
# rebuilt through its constructor and hashes afresh.


class _Node:
    __slots__ = ("_h",)

    def __hash__(self) -> int:
        try:
            return self._h
        except AttributeError:
            h = hash((type(self).__name__, *self._values()))
            object.__setattr__(self, "_h", h)
            return h

    def _values(self) -> tuple:
        # A dataclass's ``__match_args__`` names its fields in order.
        return tuple(getattr(self, f) for f in self.__match_args__)

    def __reduce__(self):
        return (type(self), self._values())


def _node(cls):
    """A frozen slotted dataclass with field equality and `_Node`'s hash."""
    cls = dataclass(frozen=True, slots=True)(cls)
    del cls.__hash__  # the generated one re-walks the tree on every call
    return cls


# --- expressions ---------------------------------------------------------


@_node
class IntLit(_Node):
    value: int


@_node
class Var(_Node):
    name: str


@_node
class ArrayRead(_Node):
    array: str
    index: "Expr"


@_node
class Binop(_Node):
    op: str
    lhs: "Expr"
    rhs: "Expr"


@_node
class Not(_Node):
    operand: "Expr"


@_node
class And(_Node):
    lhs: "Expr"
    rhs: "Expr"


@_node
class Or(_Node):
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[IntLit, Var, ArrayRead, Binop, Not, And, Or]


# --- statements ----------------------------------------------------------


@_node
class Skip(_Node):
    pass


@_node
class Assign(_Node):
    var: str
    rhs: Expr


@_node
class Assume(_Node):
    cond: Expr


@_node
class Print(_Node):
    arg: Expr


@_node
class ArrayWrite(_Node):
    array: str
    index: Expr
    rhs: Expr


@_node
class Call(_Node):
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
