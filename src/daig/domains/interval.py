"""Interval domain: each variable abstracted by an integer range.

States map variables to [lo, hi] bounds; an absent variable means
[-inf, +inf], and bindings that widen to the full range are dropped so the
representation is canonical.  A bound is an ``int`` or a float infinity;
no finite bound is ever a float, and a bound past ``MAGNITUDE_LIMIT`` is
stored widened to an infinity or to the limit.  Arrays are abstracted
away: reads evaluate to the full range, writes leave the scalar
environment unchanged.
"""

from __future__ import annotations

from typing import Optional, Union

from ..lang.syntax import Expr, IntLit, Var
from .base import MAGNITUDE_LIMIT, SWAPPED_CMP, MapDomain, MapState

NEG_INF = float("-inf")
POS_INF = float("inf")

Bound = Union[int, float]
Range = tuple[Bound, Bound]

TOP_RANGE: Range = (NEG_INF, POS_INF)


def _bound_text(b: Bound) -> str:
    if type(b) is int:
        return str(b)
    return "+inf" if b > 0 else "-inf"


class IntervalState(MapState):
    """Immutable variable-to-range map, or the distinguished bottom state."""

    __slots__ = ()

    TOP = TOP_RANGE

    @staticmethod
    def stored(r: Range) -> Optional[Range]:
        """None for an empty range; otherwise ``r`` with a bound past the
        magnitude limit on its own side made infinite, and one past it on
        the other side set to the limit."""
        lo, hi = r
        if lo > hi:
            return None
        # Only an int can be past the limit: infinite bounds are floats.
        if (type(lo) is int and not -MAGNITUDE_LIMIT <= lo <= MAGNITUDE_LIMIT) or (
            type(hi) is int and not -MAGNITUDE_LIMIT <= hi <= MAGNITUDE_LIMIT
        ):
            return (
                NEG_INF if lo < -MAGNITUDE_LIMIT else min(lo, MAGNITUDE_LIMIT),
                POS_INF if hi > MAGNITUDE_LIMIT else max(hi, -MAGNITUDE_LIMIT),
            )
        return r

    @staticmethod
    def value_text(r: Range) -> str:
        return f"[{_bound_text(r[0])},{_bound_text(r[1])}]"


# -- range arithmetic ------------------------------------------------------


# Where an infinity meets an int, the result is chosen by sign rather than
# computed: an int beyond the float range would overflow on conversion.


def _add(x: Bound, y: Bound) -> Bound:
    if type(x) is int:
        return x + y if type(y) is int else y
    return x


def _mul(x: Bound, y: Bound) -> Bound:
    # 0 * inf is 0: a zero bound is exact, an infinite one only a limit.
    if type(x) is int and type(y) is int:
        return x * y
    if not x or not y:
        return 0
    return POS_INF if (x > 0) == (y > 0) else NEG_INF


def r_const(n: int) -> Range:
    return (n, n)


def r_add(a: Range, b: Range) -> Range:
    return (_add(a[0], b[0]), _add(a[1], b[1]))


def r_sub(a: Range, b: Range) -> Range:
    return (_add(a[0], -b[1]), _add(a[1], -b[0]))


def r_mul(a: Range, b: Range) -> Range:
    corners = [_mul(x, y) for x in a for y in b]
    return (min(corners), max(corners))


def _floordiv(x: Bound, y: Bound) -> Bound:
    """Floor division of two nonzero-divisor bounds, with the limits at
    infinity: a finite dividend over an infinite divisor gives 0 or -1."""
    if type(x) is int:
        if type(y) is int:
            return x // y
        return 0 if x == 0 or (x > 0) == (y > 0) else -1
    return POS_INF if (x > 0) == (y > 0) else NEG_INF


def r_div(a: Range, b: Range) -> Range:
    # A divisor range containing zero yields the full range: division
    # stays total and monotone.  Otherwise both divisor corners share a
    # sign and floor division is monotone in each argument, so the hull
    # of the corner quotients is exact.
    if b[0] <= 0 <= b[1]:
        return TOP_RANGE
    corners = [_floordiv(x, y) for x in a for y in b]
    return (min(corners), max(corners))


def r_hull(a: Range, b: Range) -> Range:
    return (min(a[0], b[0]), max(a[1], b[1]))


def r_widen(a: Range, b: Range) -> Range:
    return (NEG_INF if b[0] < a[0] else a[0], POS_INF if b[1] > a[1] else a[1])


def r_leq(a: Range, b: Range) -> bool:
    return b[0] <= a[0] and a[1] <= b[1]


def r_meet(a: Range, b: Range) -> Range:
    return (max(a[0], b[0]), min(a[1], b[1]))


def r_contains(r: Range, v: int) -> bool:
    return r[0] <= v <= r[1]


TRUE_RANGE: Range = (1, 1)
FALSE_RANGE: Range = (0, 0)
BOOL_RANGE: Range = (0, 1)


def _truth_of_range(r: Range) -> Optional[bool]:
    """Three-valued truth of a numeric range (nonzero is true)."""
    if r == FALSE_RANGE:
        return False
    if not r[0] <= 0 <= r[1]:
        return True
    return None


def _cmp_ranges(op: str, a: Range, b: Range) -> Range:
    """The truth range of ``a op b`` for ``op`` one of ``<``, ``<=`` and ``==``."""
    if op == "<":
        if a[1] < b[0]:
            return TRUE_RANGE
        if a[0] >= b[1]:
            return FALSE_RANGE
        return BOOL_RANGE
    if op == "<=":
        if a[1] <= b[0]:
            return TRUE_RANGE
        if a[0] > b[1]:
            return FALSE_RANGE
        return BOOL_RANGE
    if a == b and a[0] == a[1] and type(a[0]) is int:
        return TRUE_RANGE
    if max(a[0], b[0]) > min(a[1], b[1]):
        return FALSE_RANGE
    return BOOL_RANGE


# -- assume refinement -----------------------------------------------------
#
# Comparisons of a variable with a constant or another variable tighten
# bounds pairwise; anything else falls back to the shared unsatisfiability
# check by evaluation.  Precision beyond that is not the goal, but the
# refinement must stay monotone, which pairwise bound arithmetic is.


def _refine_cmp(op: str, lhs: Var, rhs: Expr, state: IntervalState) -> Optional[IntervalState]:
    x = lhs.name
    a = state.get(x)
    if isinstance(rhs, IntLit):
        c = rhs.value
        if op == "<":
            return state.bind(x, (a[0], min(a[1], c - 1)))
        if op == "<=":
            return state.bind(x, (a[0], min(a[1], c)))
        if op == ">":
            return state.bind(x, (max(a[0], c + 1), a[1]))
        if op == ">=":
            return state.bind(x, (max(a[0], c), a[1]))
        if op == "==":
            return state.bind(x, r_meet(a, (c, c)))
        lo, hi = a
        if lo == c == hi:
            return INTERVAL_BOTTOM
        if lo == c:
            lo = c + 1
        if hi == c:
            hi = c - 1
        return state.bind(x, (lo, hi))
    if isinstance(rhs, Var):
        y = rhs.name
        b = state.get(y)
        if op == "<":
            s = state.bind(x, (a[0], min(a[1], b[1] - 1)))
            return s.bind(y, (max(b[0], a[0] + 1), b[1]))
        if op == "<=":
            s = state.bind(x, (a[0], min(a[1], b[1])))
            return s.bind(y, (max(b[0], a[0]), b[1]))
        if op in (">", ">="):
            return _refine_cmp(SWAPPED_CMP[op], rhs, lhs, state)
        if op == "==":
            m = r_meet(a, b)
            return state.bind(x, m).bind(y, m)
        if b[0] == b[1] and type(b[0]) is int:
            return _refine_cmp("!=", lhs, IntLit(b[0]), state)
        if a[0] == a[1] and type(a[0]) is int:
            return _refine_cmp("!=", rhs, IntLit(a[0]), state)
        return state
    return None


class IntervalDomain(MapDomain):
    name = "interval"
    state_cls = IntervalState

    literal = staticmethod(r_const)
    arith = {"+": r_add, "-": r_sub, "*": r_mul, "/": r_div}
    compare = staticmethod(_cmp_ranges)
    truth = staticmethod(_truth_of_range)
    of_truth = {True: TRUE_RANGE, False: FALSE_RANGE, None: BOOL_RANGE}
    refine_cmp = staticmethod(_refine_cmp)
    value_join = staticmethod(r_hull)
    value_widen = staticmethod(r_widen)
    value_leq = staticmethod(r_leq)
    contains = staticmethod(r_contains)


INTERVAL = IntervalDomain()
INTERVAL_BOTTOM = INTERVAL.bottom()
