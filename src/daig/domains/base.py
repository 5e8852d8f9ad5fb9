"""The abstract interpreter contract shared by every domain.

A domain bundles an abstract state type with its initial state, transfer
function, partial order, join, and widen.  Widening must be an upper bound
that stabilizes every increasing chain in finitely many steps; transfer
must be monotone.  These laws are exercised by the property-test suite
rather than enforced here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, TYPE_CHECKING

from ..lang.syntax import And, Binop, Expr, Not, Or, Stmt

if TYPE_CHECKING:
    from .concrete import ConcreteState


class ContractViolation(RuntimeError):
    """A statement reached a domain that cannot interpret it (engine wiring bug)."""


class AbstractDomain(ABC):
    """Operations every abstract domain provides over its state type."""

    name: str = "abstract"

    @abstractmethod
    def init(self) -> Any:
        """The initial abstract state (unknown inputs)."""

    @abstractmethod
    def transfer(self, stmt: Stmt, state: Any) -> Any:
        ...

    @abstractmethod
    def leq(self, a: Any, b: Any) -> bool:
        ...

    @abstractmethod
    def join(self, a: Any, b: Any) -> Any:
        ...

    @abstractmethod
    def widen(self, a: Any, b: Any) -> Any:
        ...

    @abstractmethod
    def is_bot(self, state: Any) -> bool:
        ...

    @abstractmethod
    def drop_var(self, state: Any, var: str) -> Any:
        """Forget one variable (rebinding it to unknown)."""

    @abstractmethod
    def to_text(self, state: Any) -> str:
        """Canonical serialization; variables sorted, top bindings dropped."""

    @abstractmethod
    def models(self, sigma: "ConcreteState", state: Any) -> bool:
        """Whether a concrete state is abstracted by ``state``."""

    def equal(self, a: Any, b: Any) -> bool:
        return a == b

    def digest(self, state: Any) -> str:
        """The full canonical form, domain-tagged: equal exactly when the
        states are equal.  The engine's memo keys by the states themselves."""
        return f"{self.name}|{self.to_text(state)}"

    # -- interprocedural hooks ---------------------------------------------

    @abstractmethod
    def eval_arg(self, expr: Expr, state: Any) -> Any:
        """Abstract value of a call argument, as a single-variable binding aid."""

    @abstractmethod
    def entry_state_for_call(self, param: str | None, arg_value: Any) -> Any:
        """Callee entry state: the parameter bound, everything else unknown."""

    @abstractmethod
    def return_state(self, caller_state: Any, lhs: str, exit_state: Any) -> Any:
        """Post-call state: ``lhs`` receives the callee's ``ret``; other
        caller variables are preserved."""


def refine_condition(domain, cond: Expr, state, atom):
    """Shared boolean-structure walker for assume refinement.

    ``atom(expr, state, positive)`` refines by one non-boolean expression.
    Conjunction refines sequentially, disjunction joins the branch
    refinements, and negation is pushed inward by De Morgan; comparisons
    are negated by operator flipping inside ``atom`` itself.
    """
    if domain.is_bot(state):
        return state
    if isinstance(cond, And):
        return refine_condition(domain, cond.rhs, refine_condition(domain, cond.lhs, state, atom), atom)
    if isinstance(cond, Or):
        return domain.join(
            refine_condition(domain, cond.lhs, state, atom),
            refine_condition(domain, cond.rhs, state, atom),
        )
    if isinstance(cond, Not):
        inner = cond.operand
        if isinstance(inner, And):
            return refine_condition(domain, Or(Not(inner.lhs), Not(inner.rhs)), state, atom)
        if isinstance(inner, Or):
            return refine_condition(domain, And(Not(inner.lhs), Not(inner.rhs)), state, atom)
        if isinstance(inner, Not):
            return refine_condition(domain, inner.operand, state, atom)
        return atom(inner, state, False)
    return atom(cond, state, True)


NEGATED_CMP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
SWAPPED_CMP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def negate_cmp(e: Binop) -> Binop:
    return Binop(NEGATED_CMP[e.op], e.lhs, e.rhs)
