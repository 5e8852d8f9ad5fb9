"""Abstract domains and the concrete-semantics oracle."""

from .base import ContractViolation, MapDomain, MapState
from .concrete import STUCK, ConcreteState, collecting_bounded, concrete_step
from .finite import CONST, SIGN, ConstDomain, ConstState, SignDomain, SignState
from .interval import INTERVAL, IntervalDomain, IntervalState

_DOMAINS = {d.name: d for d in (INTERVAL, SIGN, CONST)}


def domain_by_name(name: str) -> MapDomain:
    try:
        return _DOMAINS[name]
    except KeyError:
        raise ValueError(
            f"unknown domain {name!r}; available: {', '.join(sorted(_DOMAINS))}"
        ) from None


__all__ = [
    "ContractViolation",
    "MapDomain",
    "MapState",
    "ConcreteState",
    "STUCK",
    "collecting_bounded",
    "concrete_step",
    "INTERVAL",
    "SIGN",
    "CONST",
    "IntervalDomain",
    "IntervalState",
    "SignDomain",
    "SignState",
    "ConstDomain",
    "ConstState",
    "domain_by_name",
]
