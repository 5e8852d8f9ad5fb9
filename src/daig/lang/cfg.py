"""Control-flow graphs: statement-labelled edges between integer locations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .syntax import Stmt, stmt_text

Loc = int


class CfgError(ValueError):
    """A structural invariant of a Cfg or Program is violated."""


@dataclass(frozen=True)
class Edge:
    src: Loc
    stmt: Stmt
    dst: Loc

    def sort_key(self) -> tuple:
        return (self.src, self.dst, stmt_text(self.stmt))


@dataclass(frozen=True)
class Cfg:
    locs: frozenset[Loc]
    edges: frozenset[Edge]
    entry: Loc
    exit: Loc

    def out_edges(self, loc: Loc) -> list[Edge]:
        return sorted((e for e in self.edges if e.src == loc), key=Edge.sort_key)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges, key=Edge.sort_key)

    def fresh_loc(self) -> Loc:
        return max(self.locs) + 1

    def validate(self) -> None:
        if self.entry not in self.locs:
            raise CfgError(f"entry l{self.entry} not a member of locs")
        if self.exit not in self.locs:
            raise CfgError(f"exit l{self.exit} not a member of locs")
        for e in self.edges:
            if e.src not in self.locs or e.dst not in self.locs:
                raise CfgError(f"edge endpoint missing from locs: {e}")


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
        from .syntax import Call

        callees: dict[str, set[str]] = {name: set() for name in self.procedures}
        for name, proc in self.procedures.items():
            for e in proc.cfg.edges:
                if isinstance(e.stmt, Call):
                    if e.stmt.callee not in self.procedures:
                        raise CfgError(
                            f"call to unknown procedure {e.stmt.callee!r} in {name!r}"
                        )
                    callees[name].add(e.stmt.callee)
        order: list[str] = []
        state: dict[str, int] = {}  # 1 = visiting, 2 = done

        def visit(n: str, trail: tuple[str, ...]) -> None:
            if state.get(n) == 2:
                return
            if state.get(n) == 1:
                cycle = " -> ".join(trail + (n,))
                raise CfgError(f"recursive call cycle: {cycle}")
            state[n] = 1
            for c in sorted(callees[n]):
                visit(c, trail + (n,))
            state[n] = 2
            order.append(n)

        for name in sorted(self.procedures):
            visit(name, ())
        return order
