"""Finite-height foil domains: signs and constants.

Both lattices have finite height, so widening coincides with join.  They
exist for differential testing against the interval domain and exercise the
engine with a domain where loops converge without real widening.
"""

from __future__ import annotations

from typing import Optional

from ..lang.syntax import And, ArrayRead, Binop, Expr, IntLit, Not, Or, Var
from .base import MAGNITUDE_LIMIT, SWAPPED_CMP, MapDomain, MapState, connective_truth

NEG, ZERO, POS, TOP = "neg", "zero", "pos", "top"


def _flat_join(a, b):
    return a if a == b else TOP


def _flat_leq(a, b) -> bool:
    return a == b or b == TOP


class _FlatState(MapState):
    """A map into a flat lattice: ``TOP`` above incomparable values; an
    empty meet is ``None``."""

    __slots__ = ()

    TOP = TOP
    value_text = str

    @staticmethod
    def stored(value):
        return value


class SignState(_FlatState):
    __slots__ = ()


class ConstState(_FlatState):
    __slots__ = ()

    @staticmethod
    def stored(value):
        # A constant past the magnitude limit is given up to top.
        if type(value) is int and not -MAGNITUDE_LIMIT <= value <= MAGNITUDE_LIMIT:
            return TOP
        return value


# -- signs -------------------------------------------------------------------


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


_SIGN_OF_TRUTH = {True: POS, False: ZERO, None: TOP}


def _truth_of_sign(s: str) -> Optional[bool]:
    return None if s == TOP else s != ZERO


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
        return _cmp_signs(e.op, a, b)
    if isinstance(e, (Not, And, Or)):
        return _SIGN_OF_TRUTH[connective_truth(e, state, eval_sign, _truth_of_sign)]
    raise TypeError(e)


_CMP_SIGNS = {
    "<": {(NEG, ZERO): POS, (NEG, POS): POS, (ZERO, POS): POS,
          (ZERO, NEG): ZERO, (POS, NEG): ZERO, (POS, ZERO): ZERO, (ZERO, ZERO): ZERO},
    "<=": {(NEG, ZERO): POS, (NEG, POS): POS, (ZERO, POS): POS, (ZERO, ZERO): POS,
           (ZERO, NEG): ZERO, (POS, NEG): ZERO, (POS, ZERO): ZERO},
    "==": {(ZERO, ZERO): POS, (NEG, ZERO): ZERO, (ZERO, NEG): ZERO,
           (POS, ZERO): ZERO, (ZERO, POS): ZERO, (NEG, POS): ZERO, (POS, NEG): ZERO},
}


def _cmp_signs(op: str, a: str, b: str) -> str:
    """Sign of a comparison result (pos=true, zero=false, top=unknown)."""
    if op in (">", ">="):
        return _cmp_signs(SWAPPED_CMP[op], b, a)
    if op == "!=":
        return {POS: ZERO, ZERO: POS, TOP: TOP}[_cmp_signs("==", a, b)]
    return _CMP_SIGNS[op].get((a, b), TOP)


def _sign_meet(a: str, b: str) -> Optional[str]:
    if a == TOP:
        return b
    if b == TOP or a == b:
        return a
    return None


def _refine_sign_cmp(op: str, lhs: Var, rhs: Expr, state: SignState) -> Optional[SignState]:
    rsign = eval_sign(rhs, state)
    if op == "==" and rsign != TOP:
        want = rsign
    elif op == "<" and rsign in (ZERO, NEG) or op == "<=" and rsign == NEG:
        want = NEG
    elif op == ">" and rsign in (ZERO, POS) or op == ">=" and rsign == POS:
        want = POS
    else:
        return None
    return state.bind(lhs.name, _sign_meet(state.get(lhs.name), want))


class SignDomain(MapDomain):
    name = "sign"
    state_cls = SignState

    evaluate = staticmethod(eval_sign)
    truth = staticmethod(_truth_of_sign)
    refine_cmp = staticmethod(_refine_sign_cmp)
    value_join = value_widen = staticmethod(_flat_join)
    value_leq = staticmethod(_flat_leq)

    @staticmethod
    def contains(s: str, n: int) -> bool:
        return sign_of(n) == s


# -- constants ---------------------------------------------------------------


def _cmp_const(op: str, a: int, b: int) -> bool:
    return {
        "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
        "==": a == b, "!=": a != b,
    }[op]


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


_CONST_OF_TRUTH = {True: 1, False: 0, None: TOP}


def _truth_of_const(c) -> Optional[bool]:
    return None if c == TOP else c != 0


def eval_const(e: Expr, state: ConstState):
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Var):
        return state.get(e.name)
    if isinstance(e, ArrayRead):
        return TOP
    if isinstance(e, Binop):
        return _const_binop(e.op, eval_const(e.lhs, state), eval_const(e.rhs, state))
    if isinstance(e, (Not, And, Or)):
        return _CONST_OF_TRUTH[connective_truth(e, state, eval_const, _truth_of_const)]
    raise TypeError(e)


def _refine_const_cmp(op: str, lhs: Var, rhs: Expr, state: ConstState) -> Optional[ConstState]:
    if op != "==":
        return None
    rv = eval_const(rhs, state)
    if rv == TOP:
        return None
    cur = state.get(lhs.name)
    if cur == TOP:
        return state.bind(lhs.name, rv)
    return state if cur == rv else CONST.bottom()


class ConstDomain(MapDomain):
    name = "const"
    state_cls = ConstState

    evaluate = staticmethod(eval_const)
    truth = staticmethod(_truth_of_const)
    refine_cmp = staticmethod(_refine_const_cmp)
    value_join = value_widen = staticmethod(_flat_join)
    value_leq = staticmethod(_flat_leq)

    @staticmethod
    def contains(c: int, n: int) -> bool:
        return c == n


SIGN = SignDomain()
CONST = ConstDomain()
