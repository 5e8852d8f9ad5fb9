"""Interval domain: each variable abstracted by an integer range.

States map variables to [lo, hi] bounds; an absent variable means
[-inf, +inf], and bindings that widen to the full range are dropped so the
representation is canonical.  Arrays are abstracted away: reads evaluate to
the full range, writes leave the scalar environment unchanged.
"""

from __future__ import annotations

from typing import Optional, Union

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


class _Inf:
    """Signed infinity usable as an interval bound next to plain ints."""

    __slots__ = ("positive",)

    def __init__(self, positive: bool):
        self.positive = positive

    def __repr__(self):
        return "+inf" if self.positive else "-inf"

    def __eq__(self, other):
        return isinstance(other, _Inf) and other.positive == self.positive

    def __hash__(self):
        return hash(("inf", self.positive))

    def __lt__(self, other):
        if isinstance(other, _Inf):
            return not self.positive and other.positive
        return not self.positive

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        if isinstance(other, _Inf):
            return self.positive and not other.positive
        return self.positive

    def __ge__(self, other):
        return self == other or self > other

    def __neg__(self):
        return _Inf(not self.positive)

    def __add__(self, other):
        if isinstance(other, _Inf) and other.positive != self.positive:
            raise ArithmeticError("inf - inf")
        return self

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, _Inf) else 0)

    def __rsub__(self, other):
        return -self

    def __mul__(self, other):
        if isinstance(other, _Inf):
            return _Inf(self.positive == other.positive)
        if other == 0:
            return 0
        return _Inf(self.positive == (other > 0))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __floordiv__(self, other):
        if isinstance(other, _Inf):
            return _Inf(self.positive == other.positive)
        if other == 0:
            raise ZeroDivisionError
        return _Inf(self.positive == (other > 0))

    def __rfloordiv__(self, other):
        # Limit of floor(x / y) as y goes to +/-inf: 0 or -1 by sign.
        if self.positive:
            return 0 if other >= 0 else -1
        return 0 if other <= 0 else -1


NEG_INF = _Inf(False)
POS_INF = _Inf(True)

Bound = Union[int, _Inf]
Range = tuple[Bound, Bound]

TOP_RANGE: Range = (NEG_INF, POS_INF)


def _bound_text(b: Bound) -> str:
    if isinstance(b, _Inf):
        return "+inf" if b.positive else "-inf"
    return str(b)


class IntervalState:
    """Immutable variable-to-range map, or the distinguished bottom state."""

    __slots__ = ("bindings", "bottom", "_items", "_hash", "_text")

    def __init__(self, bindings: Optional[dict[str, Range]] = None, bottom: bool = False):
        if bottom:
            self.bindings: dict[str, Range] = {}
        else:
            self.bindings = {
                v: r for v, r in (bindings or {}).items() if r != TOP_RANGE
            }
        self.bottom = bottom
        self._items = tuple(sorted(self.bindings.items()))
        self._hash = hash((bottom, self._items))
        self._text: Optional[str] = None

    def get(self, var: str) -> Range:
        return self.bindings.get(var, TOP_RANGE)

    def bind(self, var: str, rng: Range) -> "IntervalState":
        if self.bottom:
            return self
        if rng[0] > rng[1]:
            return INTERVAL_BOTTOM
        out = dict(self.bindings)
        if rng == TOP_RANGE:
            out.pop(var, None)
        else:
            out[var] = rng
        return IntervalState(out)

    def __eq__(self, other):
        return (
            isinstance(other, IntervalState)
            and self.bottom == other.bottom
            and self._items == other._items
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: a pickled hash would be stale in
        # a process with another string-hash seed.
        return (IntervalState, (self.bindings, self.bottom))

    def text(self) -> str:
        if self._text is None:
            if self.bottom:
                self._text = "bot"
            else:
                parts = (
                    f"{v}:[{_bound_text(lo)},{_bound_text(hi)}]"
                    for v, (lo, hi) in self._items
                )
                self._text = "{" + ", ".join(parts) + "}"
        return self._text

    def __repr__(self):
        return self.text()


INTERVAL_BOTTOM = IntervalState(bottom=True)
INTERVAL_TOP = IntervalState({})


# -- range arithmetic ------------------------------------------------------


def r_add(a: Range, b: Range) -> Range:
    return (a[0] + b[0], a[1] + b[1])


def r_sub(a: Range, b: Range) -> Range:
    return (a[0] - b[1], a[1] - b[0])


def r_mul(a: Range, b: Range) -> Range:
    corners = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return (min(corners), max(corners))


def r_div(a: Range, b: Range) -> Range:
    # A divisor range containing zero yields the full range: division
    # stays total and monotone.  Otherwise both divisor corners share a
    # sign and floor division is monotone in each argument, so the hull
    # of the corner quotients is exact.
    if b[0] <= 0 <= b[1]:
        return TOP_RANGE
    corners = [a[0] // b[0], a[0] // b[1], a[1] // b[0], a[1] // b[1]]
    return (min(corners), max(corners))


def r_hull(a: Range, b: Range) -> Range:
    return (min(a[0], b[0]), max(a[1], b[1]))


def r_meet(a: Range, b: Range) -> Range:
    return (max(a[0], b[0]), min(a[1], b[1]))


def r_contains(r: Range, v: int) -> bool:
    return r[0] <= v <= r[1]


TRUE_RANGE: Range = (1, 1)
FALSE_RANGE: Range = (0, 0)
BOOL_RANGE: Range = (0, 1)


def _truthiness(r: Range) -> Range:
    """Abstract truth value of a numeric range (nonzero is true)."""
    if r == (0, 0):
        return FALSE_RANGE
    if not r_contains(r, 0):
        return TRUE_RANGE
    return BOOL_RANGE


def _cmp_ranges(op: str, a: Range, b: Range) -> Range:
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
    if op in (">", ">="):
        return _cmp_ranges(SWAPPED_CMP[op], b, a)
    if op == "==":
        if a == b and a[0] == a[1] and not isinstance(a[0], _Inf):
            return TRUE_RANGE
        if r_meet(a, b)[0] > r_meet(a, b)[1]:
            return FALSE_RANGE
        return BOOL_RANGE
    if op == "!=":
        t = _cmp_ranges("==", a, b)
        if t == TRUE_RANGE:
            return FALSE_RANGE
        if t == FALSE_RANGE:
            return TRUE_RANGE
        return BOOL_RANGE
    raise ValueError(op)


def eval_range(e: Expr, state: IntervalState) -> Range:
    """Interval evaluation of an expression; array reads are unknown."""
    if isinstance(e, IntLit):
        return (e.value, e.value)
    if isinstance(e, Var):
        return state.get(e.name)
    if isinstance(e, ArrayRead):
        return TOP_RANGE
    if isinstance(e, Binop):
        a = eval_range(e.lhs, state)
        b = eval_range(e.rhs, state)
        if e.op == "+":
            return r_add(a, b)
        if e.op == "-":
            return r_sub(a, b)
        if e.op == "*":
            return r_mul(a, b)
        if e.op == "/":
            return r_div(a, b)
        return _cmp_ranges(e.op, a, b)
    if isinstance(e, Not):
        t = _truthiness(eval_range(e.operand, state))
        if t == TRUE_RANGE:
            return FALSE_RANGE
        if t == FALSE_RANGE:
            return TRUE_RANGE
        return BOOL_RANGE
    if isinstance(e, And):
        ta = _truthiness(eval_range(e.lhs, state))
        tb = _truthiness(eval_range(e.rhs, state))
        if ta == FALSE_RANGE or tb == FALSE_RANGE:
            return FALSE_RANGE
        if ta == TRUE_RANGE and tb == TRUE_RANGE:
            return TRUE_RANGE
        return BOOL_RANGE
    if isinstance(e, Or):
        ta = _truthiness(eval_range(e.lhs, state))
        tb = _truthiness(eval_range(e.rhs, state))
        if ta == TRUE_RANGE or tb == TRUE_RANGE:
            return TRUE_RANGE
        if ta == FALSE_RANGE and tb == FALSE_RANGE:
            return FALSE_RANGE
        return BOOL_RANGE
    raise TypeError(e)


# -- assume refinement -----------------------------------------------------
#
# Comparisons over single variables (var-const and var-var) tighten bounds
# pairwise; other conditions only fall back to an unsatisfiability check
# via abstract evaluation.  Precision beyond that is not the goal, but the
# refinement must stay monotone, which pairwise bound arithmetic is.


def _refine_cmp(op: str, lhs: Expr, rhs: Expr, state: IntervalState) -> IntervalState:
    if isinstance(lhs, IntLit) and isinstance(rhs, Var):
        return _refine_cmp(SWAPPED_CMP[op], rhs, lhs, state)
    if not isinstance(lhs, Var):
        return _refine_fallback(Binop(op, lhs, rhs), state)
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
        if op == "!=":
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
        if op == "!=":
            if b[0] == b[1] and not isinstance(b[0], _Inf):
                return _refine_cmp("!=", lhs, IntLit(b[0]), state)
            if a[0] == a[1] and not isinstance(a[0], _Inf):
                return _refine_cmp("!=", rhs, IntLit(a[0]), state)
            return state
    return _refine_fallback(Binop(op, lhs, rhs), state)


def _refine_fallback(e: Expr, state: IntervalState) -> IntervalState:
    return INTERVAL_BOTTOM if _truthiness(eval_range(e, state)) == FALSE_RANGE else state


_ZERO = IntLit(0)


def _refine_atom(e: Expr, state: IntervalState, positive: bool) -> IntervalState:
    if isinstance(e, Binop) and e.op in SWAPPED_CMP:
        if not positive:
            e = negate_cmp(e)
        return _refine_cmp(e.op, e.lhs, e.rhs, state)
    # Non-comparison condition: truthy means nonzero, falsy means zero.
    if positive:
        if isinstance(e, Var):
            return _refine_cmp("!=", e, _ZERO, state)
        return _refine_fallback(e, state)
    if isinstance(e, Var):
        return _refine_cmp("==", e, _ZERO, state)
    t = _truthiness(eval_range(e, state))
    return INTERVAL_BOTTOM if t == TRUE_RANGE else state


class IntervalDomain(AbstractDomain):
    name = "interval"

    def init(self) -> IntervalState:
        return INTERVAL_TOP

    def bottom(self) -> IntervalState:
        return INTERVAL_BOTTOM

    def transfer(self, stmt: Stmt, state: IntervalState) -> IntervalState:
        if state.bottom:
            return state
        if isinstance(stmt, (Skip, Print, ArrayWrite)):
            return state
        if isinstance(stmt, Assign):
            return state.bind(stmt.var, eval_range(stmt.rhs, state))
        if isinstance(stmt, Assume):
            return refine_condition(self, stmt.cond, state, _refine_atom)
        if isinstance(stmt, Call):
            raise ContractViolation(
                "call statements are resolved by the interprocedural engine"
            )
        raise TypeError(stmt)

    def leq(self, a: IntervalState, b: IntervalState) -> bool:
        if a.bottom:
            return True
        if b.bottom:
            return False
        for v, rb in b.bindings.items():
            ra = a.get(v)
            if not (rb[0] <= ra[0] and ra[1] <= rb[1]):
                return False
        return True

    def join(self, a: IntervalState, b: IntervalState) -> IntervalState:
        if a.bottom:
            return b
        if b.bottom:
            return a
        out: dict[str, Range] = {}
        for v in a.bindings.keys() | b.bindings.keys():
            out[v] = r_hull(a.get(v), b.get(v))
        return IntervalState(out)

    def widen(self, a: IntervalState, b: IntervalState) -> IntervalState:
        if a.bottom:
            return b
        if b.bottom:
            return a
        out: dict[str, Range] = {}
        for v in a.bindings.keys() | b.bindings.keys():
            (l1, u1), (l2, u2) = a.get(v), b.get(v)
            out[v] = (NEG_INF if l2 < l1 else l1, POS_INF if u2 > u1 else u1)
        return IntervalState(out)

    def is_bot(self, state: IntervalState) -> bool:
        return state.bottom

    def drop_var(self, state: IntervalState, var: str) -> IntervalState:
        return state.bind(var, TOP_RANGE)

    def to_text(self, state: IntervalState) -> str:
        return state.text()

    def models(self, sigma, state: IntervalState) -> bool:
        if state.bottom:
            return False
        for v, rng in state.bindings.items():
            if not r_contains(rng, sigma.value_of(v)):
                return False
        return True

    def eval_arg(self, expr: Expr, state: IntervalState) -> Range:
        return eval_range(expr, state)

    def entry_state_for_call(self, param: str | None, arg_value: Range) -> IntervalState:
        if param is None:
            return INTERVAL_TOP
        return INTERVAL_TOP.bind(param, arg_value)

    def return_state(
        self, caller_state: IntervalState, lhs: str, exit_state: IntervalState
    ) -> IntervalState:
        if caller_state.bottom or exit_state.bottom:
            return INTERVAL_BOTTOM
        return caller_state.bind(lhs, exit_state.get("ret"))


INTERVAL = IntervalDomain()
