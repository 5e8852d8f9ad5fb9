"""The abstract interpreter contract and the one framework that every
domain here instantiates.

A domain bundles an abstract state type with its initial state, transfer
function, partial order, join, and widen.  Widening must be an upper bound
that stabilizes every increasing chain in finitely many steps; transfer
must be monotone.  These laws are exercised by the property-test suite
rather than enforced here.

Every domain is non-relational: it lifts a lattice of values pointwise to
maps from variables to values (``MapState``).  ``MapDomain`` implements all
that such domains share: the map state and its bottom, ``transfer``, the
one evaluator of expression syntax, the refinement of ``assume``
conditions (And/Or/Not, comparison negation and the literal-left swap, a
bare variable as ``!= 0``/``== 0``, and an evaluate-then-truth fallback),
the pointwise join/widen/leq, ``models``, and the interprocedural hooks.
A domain supplies value operations only: its value lattice (top, value
join/widen/leq, ``contains``, the text of a value, the form a binding
stores or its emptiness), the value of a literal, arithmetic, the
comparisons ``<``, ``<=`` and ``==``, the truth of a value and the value
of a truth, and its comparison refiner.
"""

from __future__ import annotations

from typing import Any, Optional

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


class ContractViolation(RuntimeError):
    """A statement reached a domain that cannot interpret it (engine wiring bug)."""


NEGATED_CMP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
SWAPPED_CMP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}

_ZERO = IntLit(0)

# The largest magnitude a state stores: a bound or constant past it is
# given up (to an infinity or to top), which only loses precision, so
# repeated multiplication cannot grow integers without limit.
MAGNITUDE_LIMIT = 2**64


class MapState:
    """Immutable variable-to-value map, or the distinguished bottom state.

    An absent variable has the value ``TOP``, and top bindings are dropped,
    so equal states have equal bindings.  A subclass defines its value
    lattice's ``TOP``, ``value_text(value)`` (how a value prints) and
    ``stored(value)``: the value a binding keeps, within
    ``MAGNITUDE_LIMIT``, or None for a value no concrete integer has,
    which binds the state to bottom.

    Every state's slots are set by ``_fill`` from canonical bindings.  The
    constructor drops top values first; ``bind``, which changes one binding
    of a canonical state, skips that filter and returns the state itself
    when the binding is unchanged.
    """

    __slots__ = ("bindings", "bottom", "_items", "_hash", "_text")

    TOP: Any

    def __init__(self, bindings: Optional[dict] = None, bottom: bool = False):
        top = self.TOP
        self._fill({} if bottom else {v: x for v, x in (bindings or {}).items() if x != top}, bottom)

    def _fill(self, bindings: dict, bottom: bool) -> None:
        self.bindings = bindings
        self.bottom = bottom
        self._items = tuple(sorted(bindings.items()))
        self._hash = hash((bottom, self._items))
        self._text = None

    def get(self, var: str):
        return self.bindings.get(var, self.TOP)

    def bind(self, var: str, value) -> "MapState":
        if self.bottom:
            return self
        value = self.stored(value)
        bindings = self.bindings
        if value is None:
            new, bottom = {}, True
        elif value == self.TOP:
            if var not in bindings:
                return self
            new, bottom = dict(bindings), False
            del new[var]
        elif bindings.get(var) == value:
            return self
        else:
            new, bottom = dict(bindings), False
            new[var] = value
        out = object.__new__(type(self))
        out._fill(new, bottom)
        return out

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
                vt = self.value_text
                self._text = "{" + ", ".join(f"{v}:{vt(x)}" for v, x in self._items) + "}"
        return self._text

    def __repr__(self):
        return self.text()


# Three-valued logic: True, False, or None for unknown.
_TRUTHS = (True, False, None)
_NOT = {True: False, False: True, None: None}
_AND = {(a, b): False if False in (a, b) else a and b for a in _TRUTHS for b in _TRUTHS}
_OR = {(a, b): _NOT[_AND[_NOT[a], _NOT[b]]] for a in _TRUTHS for b in _TRUTHS}
# ``a > b`` is ``b < a`` and ``a >= b`` is ``b <= a``.
_FLIPPED = {">": "<", ">=": "<="}


def _evaluator(dom: type) -> tuple:
    """``evaluate`` and ``binop`` for a domain class (see ``MapDomain``),
    as closures over its value operations: a method recursing through
    ``self`` would cost an attribute lookup per node on this hot path.
    ``binop`` is the one dispatch of an operator on two values."""
    top = dom.state_cls.TOP
    literal, arith, compare = dom.literal, dom.arith, dom.compare
    truth, of_truth = dom.truth, dom.of_truth

    def binop(op: str, a, b):
        f = arith.get(op)
        if f is not None:
            return f(a, b)
        swapped = _FLIPPED.get(op)
        if swapped is not None:
            return compare(swapped, b, a)
        if op == "!=":
            return of_truth[_NOT[truth(compare("==", a, b))]]
        return compare(op, a, b)

    def evaluate(e: Expr, state):
        t = type(e)
        if t is Var:
            return state.bindings.get(e.name, top)
        if t is IntLit:
            return literal(e.value)
        if t is Binop:
            return binop(e.op, evaluate(e.lhs, state), evaluate(e.rhs, state))
        if t is ArrayRead:
            return top
        if t is Not:
            return of_truth[_NOT[truth(evaluate(e.operand, state))]]
        if t is And or t is Or:
            ab = (truth(evaluate(e.lhs, state)), truth(evaluate(e.rhs, state)))
            return of_truth[(_AND if t is And else _OR)[ab]]
        raise TypeError(e)

    return evaluate, binop


class MapDomain:
    """A value lattice lifted pointwise to ``state_cls`` maps.

    The engines call ``init``, ``transfer``, ``leq``, ``equal``, ``join``,
    ``widen``, ``is_bot``, ``drop_var``, ``to_text``, ``models`` (whether
    a concrete state is abstracted by an abstract one), ``digest`` and the
    hooks ``eval_arg``, ``entry_state_for_call`` and ``return_state``.

    A subclass supplies its ``state_cls``, a ``MapState`` subclass, and
    value operations only, as static methods or tables: ``literal(n)``;
    ``arith``, the functions of ``+ - * /`` on two values; ``compare(op,
    a, b)`` for ``op`` one of ``<``, ``<=`` and ``==``; ``truth(value)``,
    True, False or None for a value read as a condition (nonzero is
    true), and ``of_truth``, the value of each; ``refine_cmp(op, var, rhs,
    state)``, the state refined by ``var op rhs``, or None to fall back
    to ``truth``; the value ``value_join``, ``value_widen`` and
    ``value_leq``; and ``contains(value, n)``, whether ``n`` is
    abstracted by ``value``.

    Each subclass gets from them the one ``evaluate(expr, state)``: a
    literal goes through ``literal``, a variable reads its binding, an
    array read is top, operators go through ``binop(op, a, b)``, and
    ``!``, ``&&`` and ``||`` (both operands evaluated) are three-valued
    over ``truth``, mapped back through ``of_truth``.  ``binop`` sends
    arithmetic to ``arith``, swaps the operands of ``>`` and ``>=`` for
    ``<`` and ``<=``, and negates the truth of ``==`` for ``!=``.  Both
    are static methods of the class, made once per class: an instance
    attribute would not pickle, and engines pickle their domain.
    """

    state_cls: type

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        evaluate, binop = _evaluator(cls)
        cls.evaluate, cls.binop = staticmethod(evaluate), staticmethod(binop)

    def __init__(self):
        self._init = self.state_cls({})
        self._bottom = self.state_cls(bottom=True)

    def init(self):
        return self._init

    def bottom(self):
        return self._bottom

    def is_bot(self, state) -> bool:
        return state.bottom

    def equal(self, a, b) -> bool:
        return a == b

    def digest(self, state) -> str:
        """The full canonical form, domain-tagged: equal exactly when the
        states are equal.  The engine's memo keys by the states themselves."""
        return f"{self.name}|{state.text()}"

    def drop_var(self, state, var: str):
        """Forget one variable (rebind it to top)."""
        return state.bind(var, state.TOP)

    def to_text(self, state) -> str:
        return state.text()

    def transfer(self, stmt: Stmt, state):
        if state.bottom:
            return state
        if isinstance(stmt, Assign):
            return state.bind(stmt.var, self.evaluate(stmt.rhs, state))
        if isinstance(stmt, Assume):
            return self._refine(stmt.cond, state, True)
        if isinstance(stmt, (Skip, Print, ArrayWrite)):
            return state
        if isinstance(stmt, Call):
            raise ContractViolation(
                "call statements are resolved by the interprocedural engine"
            )
        raise TypeError(stmt)

    # -- assume refinement ---------------------------------------------------
    #
    # Conjunction refines sequentially, disjunction joins the branch
    # refinements, and negation is pushed inward (De Morgan) as a polarity
    # flag.  Each domain's comparison refiner must stay monotone.

    def _refine(self, cond: Expr, state, positive: bool):
        if state.bottom:
            return state
        if isinstance(cond, Not):
            return self._refine(cond.operand, state, not positive)
        if isinstance(cond, (And, Or)):
            if isinstance(cond, And) is positive:
                return self._refine(cond.rhs, self._refine(cond.lhs, state, positive), positive)
            return self.join(
                self._refine(cond.lhs, state, positive),
                self._refine(cond.rhs, state, positive),
            )
        if isinstance(cond, Var):
            # A bare variable is true when nonzero.
            op, lhs, rhs = ("!=" if positive else "=="), cond, _ZERO
        elif isinstance(cond, Binop) and cond.op in NEGATED_CMP:
            op = cond.op if positive else NEGATED_CMP[cond.op]
            lhs, rhs = cond.lhs, cond.rhs
            if isinstance(lhs, IntLit) and isinstance(rhs, Var):
                op, lhs, rhs = SWAPPED_CMP[op], rhs, lhs
        else:
            t = self.truth(self.evaluate(cond, state))
            return state if t is None or t is positive else self._bottom
        if isinstance(lhs, Var):
            out = self.refine_cmp(op, lhs, rhs, state)
            if out is not None:
                return out
        t = self.truth(self.binop(op, self.evaluate(lhs, state), self.evaluate(rhs, state)))
        return self._bottom if t is False else state

    # -- pointwise lattice ---------------------------------------------------
    #
    # Top absorbs join and widen, so only variables bound on both sides
    # can stay bound.

    def leq(self, a, b) -> bool:
        if a.bottom:
            return True
        if b.bottom:
            return False
        le, ab, top = self.value_leq, a.bindings, a.TOP
        return all(le(ab.get(v, top), x) for v, x in b.bindings.items())

    def join(self, a, b):
        return self._pointwise(self.value_join, a, b)

    def widen(self, a, b):
        return self._pointwise(self.value_widen, a, b)

    def _pointwise(self, op, a, b):
        if a.bottom:
            return b
        if b.bottom:
            return a
        ab, bb = a.bindings, b.bindings
        return self.state_cls({v: op(ab[v], bb[v]) for v in ab.keys() & bb.keys()})

    def models(self, sigma, state) -> bool:
        if state.bottom:
            return False
        return all(self.contains(x, sigma.value_of(v)) for v, x in state.bindings.items())

    # -- interprocedural hooks -----------------------------------------------

    def eval_arg(self, expr: Expr, state):
        return self.evaluate(expr, state)

    def entry_state_for_call(self, param: str | None, arg_value):
        """Callee entry state: the parameter bound, everything else top."""
        if param is None:
            return self._init
        return self._init.bind(param, arg_value)

    def return_state(self, caller_state, lhs: str, exit_state):
        """Post-call state: ``lhs`` receives the callee's ``ret``; other
        caller variables are preserved."""
        if caller_state.bottom or exit_state.bottom:
            return self._bottom
        return caller_state.bind(lhs, exit_state.get("ret"))
