"""Finite-height foil domains: signs and constants.

Both lattices have finite height, so widening coincides with join.  They
exist for differential testing against the interval domain and exercise the
engine with a domain where loops converge without real widening.
"""

from __future__ import annotations

from typing import Optional

from ..lang.syntax import (
    And,
    ArrayRead,
    ArrayWrite,
    Assign,
    Assume,
    Binop,
    Call,
    Expr,
    IntLit,
    Not,
    Or,
    Print,
    Skip,
    Stmt,
    Var,
)
from .base import AbstractDomain, ContractViolation, SWAPPED_CMP, negate_cmp, refine_condition

NEG, ZERO, POS, TOP = "neg", "zero", "pos", "top"
_SIGNS = (NEG, ZERO, POS)


class _MapState:
    """Shared immutable map-or-bottom representation for flat domains."""

    __slots__ = ("bindings", "bottom", "_items", "_hash", "_text")

    def __init__(self, bindings: Optional[dict] = None, bottom: bool = False):
        self.bindings = {} if bottom else {v: s for v, s in (bindings or {}).items() if s != TOP}
        self.bottom = bottom
        self._items = tuple(sorted(self.bindings.items()))
        self._hash = hash((bottom, self._items))
        self._text: Optional[str] = None

    def get(self, var: str):
        return self.bindings.get(var, TOP)

    def bind(self, var: str, val) -> "_MapState":
        if self.bottom:
            return self
        if val is None:  # empty meet
            return type(self)(bottom=True)
        out = dict(self.bindings)
        if val == TOP:
            out.pop(var, None)
        else:
            out[var] = val
        return type(self)(out)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.bottom == other.bottom
            and self._items == other._items
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: a pickled hash would be stale in
        # a process with another string-hash seed.
        return (type(self), (self.bindings, self.bottom))

    def text(self) -> str:
        if self._text is None:
            if self.bottom:
                self._text = "bot"
            else:
                self._text = "{" + ", ".join(f"{v}:{s}" for v, s in self._items) + "}"
        return self._text

    def __repr__(self):
        return self.text()


class SignState(_MapState):
    pass


class ConstState(_MapState):
    pass


def sign_of(n: int) -> str:
    return ZERO if n == 0 else (POS if n > 0 else NEG)


_ADD = {
    (NEG, NEG): NEG, (NEG, ZERO): NEG, (ZERO, NEG): NEG,
    (POS, POS): POS, (POS, ZERO): POS, (ZERO, POS): POS,
    (ZERO, ZERO): ZERO,
}


def _sign_add(a: str, b: str) -> str:
    return _ADD.get((a, b), TOP) if TOP not in (a, b) else TOP


def _sign_neg(a: str) -> str:
    return {NEG: POS, POS: NEG, ZERO: ZERO, TOP: TOP}[a]


def _sign_mul(a: str, b: str) -> str:
    if ZERO in (a, b):
        return ZERO
    if TOP in (a, b):
        return TOP
    return POS if a == b else NEG


def _sign_div(a: str, b: str) -> str:
    # Floor division: pos//pos may hit zero, neg//neg is nonnegative;
    # only a zero or negative-by-positive dividend keeps a definite sign.
    if a == ZERO and b in (NEG, POS):
        return ZERO
    if (a, b) in ((NEG, POS), (POS, NEG)):
        return NEG
    return TOP


def eval_sign(e: Expr, state: SignState) -> str:
    if isinstance(e, IntLit):
        return sign_of(e.value)
    if isinstance(e, Var):
        return state.get(e.name)
    if isinstance(e, ArrayRead):
        return TOP
    if isinstance(e, Binop):
        a, b = eval_sign(e.lhs, state), eval_sign(e.rhs, state)
        if e.op == "+":
            return _sign_add(a, b)
        if e.op == "-":
            return _sign_add(a, _sign_neg(b))
        if e.op == "*":
            return _sign_mul(a, b)
        if e.op == "/":
            return _sign_div(a, b)
        t = _cmp_signs(e.op, a, b)
        return t if t is not None else TOP
    if isinstance(e, (Not, And, Or)):
        t = _sign_truth(e, state)
        if t is True:
            return POS
        if t is False:
            return ZERO
        return TOP
    raise TypeError(e)


def _cmp_signs(op: str, a: str, b: str) -> Optional[str]:
    """Sign of a comparison result when decidable (pos=true, zero=false)."""
    defs = {
        "<": {(NEG, ZERO): POS, (NEG, POS): POS, (ZERO, POS): POS,
              (ZERO, NEG): ZERO, (POS, NEG): ZERO, (POS, ZERO): ZERO, (ZERO, ZERO): ZERO},
        "<=": {(NEG, ZERO): POS, (NEG, POS): POS, (ZERO, POS): POS, (ZERO, ZERO): POS,
               (ZERO, NEG): ZERO, (POS, NEG): ZERO, (POS, ZERO): ZERO},
        "==": {(ZERO, ZERO): POS, (NEG, ZERO): ZERO, (ZERO, NEG): ZERO,
               (POS, ZERO): ZERO, (ZERO, POS): ZERO, (NEG, POS): ZERO, (POS, NEG): ZERO},
    }
    if op in (">", ">="):
        return _cmp_signs(SWAPPED_CMP[op], b, a)
    if op == "!=":
        t = _cmp_signs("==", a, b)
        return {POS: ZERO, ZERO: POS, None: None}[t]
    return defs[op].get((a, b))


def _sign_truth(e: Expr, state: SignState) -> Optional[bool]:
    s = None
    if isinstance(e, Not):
        t = _sign_truth(e.operand, state)
        return None if t is None else not t
    if isinstance(e, And):
        a, b = _sign_truth(e.lhs, state), _sign_truth(e.rhs, state)
        if a is False or b is False:
            return False
        if a is True and b is True:
            return True
        return None
    if isinstance(e, Or):
        a, b = _sign_truth(e.lhs, state), _sign_truth(e.rhs, state)
        if a is True or b is True:
            return True
        if a is False and b is False:
            return False
        return None
    s = eval_sign(e, state)
    if s == ZERO:
        return False
    if s in (NEG, POS):
        return True
    return None


def _sign_meet(a: str, b: str) -> Optional[str]:
    if a == TOP:
        return b
    if b == TOP or a == b:
        return a
    return None


def _sign_refine_atom(e: Expr, state: SignState, positive: bool) -> SignState:
    if isinstance(e, Binop) and e.op in SWAPPED_CMP:
        if not positive:
            e = negate_cmp(e)
        op, lhs, rhs = e.op, e.lhs, e.rhs
        if isinstance(lhs, IntLit) and isinstance(rhs, Var):
            op, lhs, rhs = SWAPPED_CMP[op], rhs, lhs
        if isinstance(lhs, Var):
            rsign = eval_sign(rhs, state)
            want: Optional[str] = None
            if op == "==":
                want = rsign
            elif op == "<" and rsign in (ZERO, NEG):
                want = NEG
            elif op == "<=" and rsign == NEG:
                want = NEG
            elif op == ">" and rsign in (ZERO, POS):
                want = POS
            elif op == ">=" and rsign == POS:
                want = POS
            if want is not None and want != TOP:
                return state.bind(lhs.name, _sign_meet(state.get(lhs.name), want))
        t = _sign_truth(e, state)
        return SignState(bottom=True) if t is False else state
    if positive:
        if isinstance(e, Var) and state.get(e.name) == ZERO:
            return SignState(bottom=True)
        t = _sign_truth(e, state)
        return SignState(bottom=True) if t is False else state
    if isinstance(e, Var):
        return state.bind(e.name, _sign_meet(state.get(e.name), ZERO))
    t = _sign_truth(e, state)
    return SignState(bottom=True) if t is True else state


class _FlatDomain(AbstractDomain):
    """Common join/widen/leq machinery for the flat map domains."""

    state_cls: type = _MapState

    def init(self):
        return self.state_cls({})

    def bottom(self):
        return self.state_cls(bottom=True)

    def is_bot(self, state) -> bool:
        return state.bottom

    def drop_var(self, state, var: str):
        return state.bind(var, TOP)

    def to_text(self, state) -> str:
        return state.text()

    def leq(self, a, b) -> bool:
        if a.bottom:
            return True
        if b.bottom:
            return False
        return all(a.get(v) == s for v, s in b.bindings.items())

    def join(self, a, b):
        if a.bottom:
            return b
        if b.bottom:
            return a
        out = {}
        for v in a.bindings.keys() & b.bindings.keys():
            if a.bindings[v] == b.bindings[v]:
                out[v] = a.bindings[v]
        return self.state_cls(out)

    def widen(self, a, b):
        return self.join(a, b)

    def eval_arg(self, expr, state):
        raise NotImplementedError

    def entry_state_for_call(self, param, arg_value):
        if param is None:
            return self.state_cls({})
        return self.state_cls({}).bind(param, arg_value)

    def return_state(self, caller_state, lhs: str, exit_state):
        if caller_state.bottom or exit_state.bottom:
            return self.state_cls(bottom=True)
        return caller_state.bind(lhs, exit_state.get("ret"))


class SignDomain(_FlatDomain):
    name = "sign"
    state_cls = SignState

    def transfer(self, stmt: Stmt, state: SignState) -> SignState:
        if state.bottom:
            return state
        if isinstance(stmt, (Skip, Print, ArrayWrite)):
            return state
        if isinstance(stmt, Assign):
            return state.bind(stmt.var, eval_sign(stmt.rhs, state))
        if isinstance(stmt, Assume):
            return refine_condition(self, stmt.cond, state, _sign_refine_atom)
        if isinstance(stmt, Call):
            raise ContractViolation("call statements are resolved by the interprocedural engine")
        raise TypeError(stmt)

    def models(self, sigma, state: SignState) -> bool:
        if state.bottom:
            return False
        return all(sign_of(sigma.value_of(v)) == s for v, s in state.bindings.items())

    def eval_arg(self, expr: Expr, state: SignState) -> str:
        return eval_sign(expr, state)


def _const_binop(op: str, a, b):
    if a == TOP or b == TOP:
        return TOP
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return TOP if b == 0 else a // b
    return int(_cmp_const(op, a, b))


def _cmp_const(op: str, a: int, b: int) -> bool:
    return {
        "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
        "==": a == b, "!=": a != b,
    }[op]


def eval_const(e: Expr, state: ConstState):
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Var):
        return state.get(e.name)
    if isinstance(e, ArrayRead):
        return TOP
    if isinstance(e, Binop):
        return _const_binop(e.op, eval_const(e.lhs, state), eval_const(e.rhs, state))
    if isinstance(e, Not):
        v = eval_const(e.operand, state)
        return TOP if v == TOP else int(v == 0)
    if isinstance(e, And):
        a, b = eval_const(e.lhs, state), eval_const(e.rhs, state)
        if a == 0 or b == 0:
            return 0
        if TOP in (a, b):
            return TOP
        return 1
    if isinstance(e, Or):
        a, b = eval_const(e.lhs, state), eval_const(e.rhs, state)
        if a != TOP and a != 0 or b != TOP and b != 0:
            return 1
        if a == 0 and b == 0:
            return 0
        return TOP
    raise TypeError(e)


def _const_refine_atom(e: Expr, state: ConstState, positive: bool) -> ConstState:
    if isinstance(e, Binop) and e.op in SWAPPED_CMP:
        if not positive:
            e = negate_cmp(e)
        op, lhs, rhs = e.op, e.lhs, e.rhs
        if isinstance(lhs, IntLit) and isinstance(rhs, Var):
            op, lhs, rhs = SWAPPED_CMP[op], rhs, lhs
        if op == "==" and isinstance(lhs, Var):
            rv = eval_const(rhs, state)
            if rv != TOP:
                cur = state.get(lhs.name)
                if cur == TOP:
                    return state.bind(lhs.name, rv)
                return state if cur == rv else ConstState(bottom=True)
        a, b = eval_const(lhs, state), eval_const(rhs, state)
        if a != TOP and b != TOP and not _cmp_const(op, a, b):
            return ConstState(bottom=True)
        return state
    v = eval_const(e, state)
    if positive:
        if isinstance(e, Var) and v == TOP:
            return state
        if v == 0:
            return ConstState(bottom=True)
        return state
    if isinstance(e, Var):
        cur = state.get(e.name)
        if cur == TOP:
            return state.bind(e.name, 0)
        return state if cur == 0 else ConstState(bottom=True)
    if v != TOP and v != 0:
        return ConstState(bottom=True)
    return state


class ConstDomain(_FlatDomain):
    name = "const"
    state_cls = ConstState

    def transfer(self, stmt: Stmt, state: ConstState) -> ConstState:
        if state.bottom:
            return state
        if isinstance(stmt, (Skip, Print, ArrayWrite)):
            return state
        if isinstance(stmt, Assign):
            return state.bind(stmt.var, eval_const(stmt.rhs, state))
        if isinstance(stmt, Assume):
            return refine_condition(self, stmt.cond, state, _const_refine_atom)
        if isinstance(stmt, Call):
            raise ContractViolation("call statements are resolved by the interprocedural engine")
        raise TypeError(stmt)

    def models(self, sigma, state: ConstState) -> bool:
        if state.bottom:
            return False
        return all(sigma.value_of(v) == c for v, c in state.bindings.items())

    def eval_arg(self, expr: Expr, state: ConstState):
        return eval_const(expr, state)


SIGN = SignDomain()
CONST = ConstDomain()
