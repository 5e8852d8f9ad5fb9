"""Finite-height foil domains: signs and constants.

Both lattices have finite height, so widening coincides with join.  They
exist for differential testing against the interval domain and exercise the
engine with a domain where loops converge without real widening.
"""

from __future__ import annotations

import operator
from typing import Optional

from ..lang.syntax import Expr, Var
from .base import MAGNITUDE_LIMIT, MapDomain, MapState

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


def _sign_sub(a: str, b: str) -> str:
    return _sign_add(a, {NEG: POS, POS: NEG, ZERO: ZERO, TOP: TOP}[b])


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


def _truth_of_sign(s: str) -> Optional[bool]:
    return None if s == TOP else s != ZERO


_CMP_SIGNS = {
    "<": {(NEG, ZERO): POS, (NEG, POS): POS, (ZERO, POS): POS,
          (ZERO, NEG): ZERO, (POS, NEG): ZERO, (POS, ZERO): ZERO, (ZERO, ZERO): ZERO},
    "<=": {(NEG, ZERO): POS, (NEG, POS): POS, (ZERO, POS): POS, (ZERO, ZERO): POS,
           (ZERO, NEG): ZERO, (POS, NEG): ZERO, (POS, ZERO): ZERO},
    "==": {(ZERO, ZERO): POS, (NEG, ZERO): ZERO, (ZERO, NEG): ZERO,
           (POS, ZERO): ZERO, (ZERO, POS): ZERO, (NEG, POS): ZERO, (POS, NEG): ZERO},
}


def _cmp_signs(op: str, a: str, b: str) -> str:
    """Sign of ``a op b`` for ``op`` one of ``<``, ``<=`` and ``==``
    (pos=true, zero=false, top=unknown)."""
    return _CMP_SIGNS[op].get((a, b), TOP)


def _sign_meet(a: str, b: str) -> Optional[str]:
    if a == TOP:
        return b
    if b == TOP or a == b:
        return a
    return None


def _refine_sign_cmp(op: str, lhs: Var, rhs: Expr, state: SignState) -> Optional[SignState]:
    rsign = SIGN.evaluate(rhs, state)
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

    literal = staticmethod(sign_of)
    arith = {"+": _sign_add, "-": _sign_sub, "*": _sign_mul, "/": _sign_div}
    compare = staticmethod(_cmp_signs)
    truth = staticmethod(_truth_of_sign)
    of_truth = {True: POS, False: ZERO, None: TOP}
    refine_cmp = staticmethod(_refine_sign_cmp)
    value_join = value_widen = staticmethod(_flat_join)
    value_leq = staticmethod(_flat_leq)

    @staticmethod
    def contains(s: str, n: int) -> bool:
        return sign_of(n) == s


# -- constants ---------------------------------------------------------------


def _const_arith(op):
    """``op`` on two constants, top if either is."""
    return lambda a, b: TOP if a == TOP or b == TOP else op(a, b)


_CONST_CMP = {"<": operator.lt, "<=": operator.le, "==": operator.eq}


def _cmp_const(op: str, a, b):
    """``a op b`` as 1 or 0 for ``op`` one of ``<``, ``<=`` and ``==``,
    top if either constant is."""
    return TOP if a == TOP or b == TOP else int(_CONST_CMP[op](a, b))


def _truth_of_const(c) -> Optional[bool]:
    return None if c == TOP else c != 0


def _refine_const_cmp(op: str, lhs: Var, rhs: Expr, state: ConstState) -> Optional[ConstState]:
    if op != "==":
        return None
    rv = CONST.evaluate(rhs, state)
    if rv == TOP:
        return None
    cur = state.get(lhs.name)
    if cur == TOP:
        return state.bind(lhs.name, rv)
    return state if cur == rv else CONST.bottom()


class ConstDomain(MapDomain):
    name = "const"
    state_cls = ConstState

    literal = staticmethod(int)
    arith = {
        "+": _const_arith(operator.add),
        "-": _const_arith(operator.sub),
        "*": _const_arith(operator.mul),
        "/": _const_arith(lambda a, b: TOP if b == 0 else a // b),
    }
    compare = staticmethod(_cmp_const)
    truth = staticmethod(_truth_of_const)
    of_truth = {True: 1, False: 0, None: TOP}
    refine_cmp = staticmethod(_refine_const_cmp)
    value_join = value_widen = staticmethod(_flat_join)
    value_leq = staticmethod(_flat_leq)

    @staticmethod
    def contains(c: int, n: int) -> bool:
        return c == n


SIGN = SignDomain()
CONST = ConstDomain()
