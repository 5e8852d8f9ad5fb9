"""Control-flow graphs: statement-labelled edges between integer locations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .syntax import Call, Stmt, stmt_text

Loc = int


class CfgError(ValueError):
    """A structural invariant of a Cfg or Program is violated."""


@dataclass(frozen=True, slots=True)
class Edge:
    """A statement-labelled edge; equality uses (src, stmt, dst).

    ``text`` is the statement printed once at construction, so sorting by
    ``sort_key`` never re-prints it.  Hashing uses (src, dst, text): equal
    statements print alike, and a string keeps its hash, so hashing an edge
    never walks its statement.
    """

    src: Loc
    stmt: Stmt
    dst: Loc
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "text", stmt_text(self.stmt))

    def __hash__(self) -> int:
        return hash((self.src, self.dst, self.text))

    def sort_key(self) -> tuple:
        return (self.src, self.dst, self.text)


@dataclass(frozen=True)
class Cfg:
    locs: frozenset[Loc]
    edges: frozenset[Edge]
    entry: Loc
    exit: Loc

    def out_edges(self, loc: Loc) -> list[Edge]:
        return sorted((e for e in self.edges if e.src == loc), key=Edge.sort_key)

    def fresh_loc(self) -> Loc:
        return max(self.locs) + 1


@dataclass(frozen=True)
class Proc:
    name: str
    param: Optional[str]
    cfg: Cfg


@dataclass
class Program:
    procedures: dict[str, Proc] = field(default_factory=dict)
    main: str = "main"

    def proc(self, name: str) -> Proc:
        if name not in self.procedures:
            raise CfgError(f"unknown procedure {name!r}")
        return self.procedures[name]

    def replace_cfg(self, name: str, cfg: Cfg) -> None:
        old = self.proc(name)
        self.procedures[name] = Proc(old.name, old.param, cfg)

    def call_order(self) -> list[str]:
        """Procedures in bottom-up call order (callees before callers).

        Raises CfgError on a recursive call cycle.
        """
        callees: dict[str, set[str]] = {name: set() for name in self.procedures}
        for name, proc in self.procedures.items():
            for e in proc.cfg.edges:
                if isinstance(e.stmt, Call):
                    if e.stmt.callee not in self.procedures:
                        raise CfgError(
                            f"call to unknown procedure {e.stmt.callee!r} in {name!r}"
                        )
                    callees[name].add(e.stmt.callee)
        # Depth-first over sorted callees with an explicit stack: a nested
        # function calling itself would leave a reference cycle per call.
        order: list[str] = []
        done: set[str] = set()
        for root in sorted(self.procedures):
            if root in done:
                continue
            trail = [root]
            stack = [iter(sorted(callees[root]))]
            while stack:
                c = next(stack[-1], None)
                if c is None:
                    stack.pop()
                    done.add(trail[-1])
                    order.append(trail.pop())
                elif c in trail:
                    cycle = " -> ".join(trail + [c])
                    raise CfgError(f"recursive call cycle: {cycle}")
                elif c not in done:
                    trail.append(c)
                    stack.append(iter(sorted(callees[c])))
        return order
