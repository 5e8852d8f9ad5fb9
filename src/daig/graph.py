"""Reified analysis graphs: named cells, computation hyperedges, checkers.

A graph holds uniquely named mutable reference cells (program statements
and abstract states) connected by function-labelled computations with a
single destination each.  Loops are encoded acyclically: a loop head owns
numbered abstract-iterate cells chained by widening, and a distinguished
``fix`` computation from the two greatest iterates to the head's
fixed-point cell stands in for the cyclic dependency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .lang.cfg import Cfg, CfgError, Edge, Loc
from .lang.loops import LoopInfo
from .lang.syntax import stmt_text

# --- names ----------------------------------------------------------------


class LocN:
    __slots__ = ("loc", "_h")

    def __init__(self, loc: Loc):
        self.loc = loc
        self._h = hash(("loc", loc))

    def __eq__(self, other):
        return type(other) is LocN and other.loc == self.loc

    def __hash__(self):
        return self._h

    def __repr__(self):
        return f"l{self.loc}"


class IdxN:
    __slots__ = ("index", "_h")

    def __init__(self, index: int):
        self.index = index
        self._h = hash(("idx", index))

    def __eq__(self, other):
        return type(other) is IdxN and other.index == self.index

    def __hash__(self):
        return self._h

    def __repr__(self):
        return str(self.index)


class Prod:
    """Right-nested name product; use :func:`prod` to build canonically."""

    __slots__ = ("left", "right", "_h")

    def __init__(self, left: "Name", right: "Name"):
        assert not isinstance(left, Prod), "products are right-nested"
        self.left = left
        self.right = right
        self._h = hash(("prod", left, right))

    def __eq__(self, other):
        return type(other) is Prod and other.left == self.left and other.right == self.right

    def __hash__(self):
        return self._h

    def __repr__(self):
        return f"{self.left!r}.{self.right!r}"


class Iter:
    """A location name tagged with one iteration count per enclosing loop head."""

    __slots__ = ("base", "counts", "_h")

    def __init__(self, base: LocN, counts: Iterable[tuple[Loc, int]]):
        self.base = base
        self.counts = tuple(sorted(counts))
        assert self.counts, "Iter requires at least one loop-head count"
        self._h = hash(("iter", base, self.counts))

    def count_of(self, head: Loc) -> int:
        for h, c in self.counts:
            if h == head:
                return c
        return 0

    def with_count(self, head: Loc, value: int) -> "Iter":
        rest = tuple((h, c) for h, c in self.counts if h != head)
        return Iter(self.base, rest + ((head, value),))

    def __eq__(self, other):
        return type(other) is Iter and other.base == self.base and other.counts == self.counts

    def __hash__(self):
        return self._h

    def __repr__(self):
        if len(self.counts) == 1:
            return f"{self.base!r}^({self.counts[0][1]})"
        inner = ",".join(f"l{h}:{c}" for h, c in self.counts)
        return f"{self.base!r}^({inner})"


Name = Union[LocN, IdxN, Prod, Iter]


def prod(*parts: Name) -> Name:
    """Right-nested product of names (a single part is itself)."""
    assert parts
    out = parts[-1]
    for p in reversed(parts[:-1]):
        if isinstance(p, Prod):
            out = prod(p.left, prod(p.right, out))
        else:
            out = Prod(p, out)
    return out


def name_key(n: Name) -> tuple:
    if isinstance(n, LocN):
        return (0, n.loc)
    if isinstance(n, IdxN):
        return (1, n.index)
    if isinstance(n, Iter):
        return (2, name_key(n.base), n.counts)
    if isinstance(n, Prod):
        return (3, name_key(n.left), name_key(n.right))
    raise TypeError(n)


# --- cells and computations -------------------------------------------------


class FnSymbol(enum.Enum):
    TRANSFER = "transfer"
    JOIN = "join"
    WIDEN = "widen"
    FIX = "fix"


class CellType(enum.Enum):
    STMT = "stmt"
    STATE = "state"


class RefCell:
    __slots__ = ("name", "ty", "contents")

    def __init__(self, name: Name, ty: CellType, contents=None):
        self.name = name
        self.ty = ty
        self.contents = contents

    def is_empty(self) -> bool:
        return self.contents is None

    def __repr__(self):
        what = "eps" if self.contents is None else repr(self.contents)
        return f"{self.name!r}[{what}:{self.ty.value}]"


@dataclass(frozen=True)
class Computation:
    dest: Name
    fn: FnSymbol
    srcs: tuple[Name, ...]

    def __repr__(self):
        args = ", ".join(repr(s) for s in self.srcs)
        return f"{self.dest!r} <- {self.fn.value}({args})"


_ARITY = {FnSymbol.TRANSFER: 2, FnSymbol.WIDEN: 2, FnSymbol.FIX: 2}


@dataclass(frozen=True)
class Violation:
    kind: str
    name: Optional[Name] = None
    detail: str = ""

    def __str__(self):
        where = f"({self.name!r})" if self.name is not None else ""
        return f"{self.kind}{where} {self.detail}".strip()


class GraphError(KeyError):
    pass


class Daig:
    """Mutable cell/computation store with a consumer index for dirtying."""

    def __init__(self, entry_name: Name, entry_state):
        self.refs: dict[Name, RefCell] = {}
        self.comps: dict[Name, Computation] = {}
        self.entry_name = entry_name
        self.entry_state = entry_state
        self._consumers: dict[Name, set[Name]] = {}

    # -- construction and mutation ------------------------------------------

    def add_cell(self, name: Name, ty: CellType, contents=None) -> RefCell:
        if name in self.refs:
            raise GraphError(f"duplicate cell name {name!r}")
        cell = RefCell(name, ty, contents)
        self.refs[name] = cell
        return cell

    def set_comp(self, comp: Computation) -> None:
        old = self.comps.get(comp.dest)
        if old is not None:
            for s in old.srcs:
                self._consumers.get(s, set()).discard(old.dest)
        self.comps[comp.dest] = comp
        for s in comp.srcs:
            self._consumers.setdefault(s, set()).add(comp.dest)

    def cell(self, name: Name) -> RefCell:
        try:
            return self.refs[name]
        except KeyError:
            raise GraphError(f"unknown cell name {name!r}") from None

    def value(self, name: Name):
        return self.cell(name).contents

    def consumers(self, name: Name) -> set[Name]:
        return self._consumers.get(name, set())

    def copy(self) -> "Daig":
        out = Daig(self.entry_name, self.entry_state)
        out.refs = {n: RefCell(c.name, c.ty, c.contents) for n, c in self.refs.items()}
        out.comps = dict(self.comps)
        out._consumers = {n: set(s) for n, s in self._consumers.items()}
        return out

    # -- reachability ---------------------------------------------------------

    def reaches(self, n: Name, target: Name) -> bool:
        """Whether ``target`` transitively (non-reflexively) depends on ``n``."""
        self.cell(n)
        self.cell(target)
        seen = set()
        stack = [n]
        while stack:
            cur = stack.pop()
            for dest in self._consumers.get(cur, ()):
                if dest == target:
                    return True
                if dest not in seen:
                    seen.add(dest)
                    stack.append(dest)
        return False

    def forward_set(self, n: Name) -> set[Name]:
        seen: set[Name] = set()
        stack = [n]
        while stack:
            for dest in self._consumers.get(stack.pop(), ()):
                if dest not in seen:
                    seen.add(dest)
                    stack.append(dest)
        return seen

    def backward_set(self, n: Name) -> set[Name]:
        seen: set[Name] = set()
        stack = [n]
        while stack:
            comp = self.comps.get(stack.pop())
            if comp is None:
                continue
            for s in comp.srcs:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return seen


# --- naming a CFG's cells ---------------------------------------------------


def _zero_counts(heads: tuple[Loc, ...]) -> tuple[tuple[Loc, int], ...]:
    return tuple((h, 0) for h in heads)


def loc_state_name(loc: Loc, loops: LoopInfo) -> Name:
    """Initial abstract-state cell name: iterate-0 inside loops, plain outside.

    A loop head's own initial name is its 0th iterate; its fixed point lives
    in the separate cell named by :func:`head_fix_name`.
    """
    heads = loops.enclosing_heads(loc)
    if loc in loops.natural_loops:
        heads = heads + (loc,)
    if not heads:
        return LocN(loc)
    return Iter(LocN(loc), _zero_counts(heads))


def head_iter_name(head: Loc, i: int, loops: LoopInfo) -> Iter:
    counts = _zero_counts(loops.enclosing_heads(head)) + ((head, i),)
    return Iter(LocN(head), counts)


def head_fix_name(head: Loc, loops: LoopInfo) -> Name:
    heads = loops.enclosing_heads(head)
    if not heads:
        return LocN(head)
    return Iter(LocN(head), _zero_counts(heads))


def prewiden_name(head: Loc, loops: LoopInfo) -> Name:
    return Prod(head_iter_name(head, 0, loops), head_iter_name(head, 1, loops))


def edge_join_index(edge: Edge, loops: LoopInfo) -> Optional[int]:
    indexed = loops.join_indices.get(edge.dst)
    if indexed is None:
        return None
    return indexed.index(edge) + 1


def stmt_cell_name(edge: Edge, loops: LoopInfo) -> Name:
    base = Prod(LocN(edge.src), LocN(edge.dst))
    if edge in loops.back_edges:
        return base
    idx = edge_join_index(edge, loops)
    if idx is None:
        return base
    return prod(IdxN(idx), base)


def src_nm(src: Loc, dst: Loc, loops: LoopInfo) -> Name:
    """State cell read by the flow ``src -> dst``: the fixed point when the
    flow leaves a loop at its head, the current iterate otherwise."""
    if src in loops.natural_loops and dst != src and dst not in loops.natural_loops[src]:
        return head_fix_name(src, loops)
    return loc_state_name(src, loops)


def incr_name(n: Name, head: Loc, loops: LoopInfo) -> Name:
    """Bump the ``head`` iteration count in names rooted in that loop.

    Identity on everything else; distributes over products, so statement
    cell names (bare location products) never change.
    """
    if isinstance(n, Prod):
        left = incr_name(n.left, head, loops)
        right = incr_name(n.right, head, loops)
        if left is n.left and right is n.right:
            return n
        return Prod(left, right)
    if isinstance(n, Iter):
        base = n.base.loc
        if base == head or base in loops.natural_loops.get(head, frozenset()):
            return n.with_count(head, n.count_of(head) + 1)
        return n
    return n


def incr_comp(c: Computation, head: Loc, loops: LoopInfo) -> Computation:
    return Computation(
        dest=incr_name(c.dest, head, loops),
        fn=c.fn,
        srcs=tuple(incr_name(s, head, loops) for s in c.srcs),
    )


def stmt_cell_locs(name: Name) -> tuple[Loc, Loc]:
    """(source, destination) locations encoded in a statement cell name."""
    if isinstance(name, Prod) and isinstance(name.left, IdxN):
        name = name.right
    if (
        isinstance(name, Prod)
        and isinstance(name.left, LocN)
        and isinstance(name.right, LocN)
    ):
        return name.left.loc, name.right.loc
    raise GraphError(f"not a statement cell name: {name!r}")


# --- initial construction ----------------------------------------------------


class UnsupportedCfg(CfgError):
    pass


CellSpec = tuple[Name, CellType, object]


def dest_structures(
    cfg: Cfg, loops: LoopInfo, d: Loc
) -> tuple[list[CellSpec], list[Computation]]:
    """Cells and computations encoding all flow into location ``d``.

    The union over locations (plus the pre-filled entry) is the initial
    graph; the same templates drive consistency checking and the structural
    surgery after program edits.
    """
    cells: list[CellSpec] = []
    comps: list[Computation] = []
    n_d = loc_state_name(d, loops)
    if d != cfg.entry:
        cells.append((n_d, CellType.STATE, None))

    indexed = loops.join_indices.get(d)
    if indexed is not None:
        operands = []
        for pos, e in enumerate(indexed):
            i = pos + 1
            sname = prod(IdxN(i), LocN(e.src), LocN(d))
            pre = Prod(IdxN(i), n_d)
            cells.append((sname, CellType.STMT, e.stmt))
            cells.append((pre, CellType.STATE, None))
            comps.append(Computation(pre, FnSymbol.TRANSFER, (sname, src_nm(e.src, d, loops))))
            operands.append(pre)
        comps.append(Computation(n_d, FnSymbol.JOIN, tuple(operands)))
    else:
        for e in loops.fwd_in[d]:
            sname = Prod(LocN(e.src), LocN(d))
            cells.append((sname, CellType.STMT, e.stmt))
            comps.append(Computation(n_d, FnSymbol.TRANSFER, (sname, src_nm(e.src, d, loops))))

    if d in loops.natural_loops:
        back = loops.back_edge_of(d)
        iter1 = head_iter_name(d, 1, loops)
        pre_w = prewiden_name(d, loops)
        fix = head_fix_name(d, loops)
        sname = Prod(LocN(back.src), LocN(d))
        cells.append((sname, CellType.STMT, back.stmt))
        cells.append((iter1, CellType.STATE, None))
        cells.append((pre_w, CellType.STATE, None))
        cells.append((fix, CellType.STATE, None))
        comps.append(Computation(pre_w, FnSymbol.TRANSFER, (sname, src_nm(back.src, d, loops))))
        comps.append(
            Computation(iter1, FnSymbol.WIDEN, (head_iter_name(d, 0, loops), pre_w))
        )
        comps.append(Computation(fix, FnSymbol.FIX, (head_iter_name(d, 0, loops), iter1)))
    return cells, comps


def _check_structured_loops(cfg: Cfg, loops: LoopInfo) -> None:
    for e in loops.fwd_edges:
        for h in loops.enclosing_heads(e.src):
            if e.dst not in loops.natural_loops[h]:
                raise UnsupportedCfg(
                    f"forward edge l{e.src} -> l{e.dst} leaves the loop headed "
                    f"at l{h} from inside its body; loops may only be exited "
                    "at their head"
                )


def init_daig(cfg: Cfg, loops: LoopInfo, domain, entry_state=None) -> Daig:
    """Fresh graph for a CFG: statement cells filled, the entry state cell
    pre-filled, every other abstract-state cell empty, loops encoded at
    unrolling depth one."""
    _check_structured_loops(cfg, loops)
    if cfg.entry in loops.natural_loops or loops.enclosing_heads(cfg.entry):
        raise UnsupportedCfg("the entry location may not participate in a loop")
    if entry_state is None:
        entry_state = domain.init()
    d = Daig(entry_name=LocN(cfg.entry), entry_state=entry_state)
    d.add_cell(LocN(cfg.entry), CellType.STATE, entry_state)
    for loc in sorted(cfg.locs):
        cells, comps = dest_structures(cfg, loops, loc)
        for name, ty, contents in cells:
            if name not in d.refs:
                d.add_cell(name, ty, contents)
        for comp in comps:
            d.set_comp(comp)
    return d


# --- checkers -----------------------------------------------------------------


def check_wf(d: Daig) -> list[Violation]:
    """The five well-formedness conditions; an empty list means well-formed."""
    out: list[Violation] = []
    for name, cell in d.refs.items():
        if cell.name != name:
            out.append(Violation("BadName", name, "cell keyed under a different name"))
    for dest, comp in d.comps.items():
        if comp.dest != dest:
            out.append(Violation("BadDest", dest, "computation keyed under a different name"))
        missing = [s for s in comp.srcs if s not in d.refs]
        if comp.dest not in d.refs:
            out.append(Violation("MissingRef", comp.dest, "destination has no cell"))
        for s in missing:
            out.append(Violation("MissingRef", s, f"source of {dest!r} has no cell"))
        if missing or comp.dest not in d.refs:
            continue
        arity = _ARITY.get(comp.fn)
        if arity is not None and len(comp.srcs) != arity:
            out.append(Violation("BadArity", dest, f"{comp.fn.value} takes {arity} sources"))
        if comp.fn is FnSymbol.JOIN and len(comp.srcs) < 2:
            out.append(Violation("BadArity", dest, "join takes at least 2 sources"))
        if d.refs[dest].ty is not CellType.STATE:
            out.append(Violation("BadType", dest, "computation into a non-state cell"))
        expect_stmt_first = comp.fn is FnSymbol.TRANSFER
        for i, s in enumerate(comp.srcs):
            want = CellType.STMT if (expect_stmt_first and i == 0) else CellType.STATE
            if d.refs[s].ty is not want:
                out.append(Violation("BadType", s, f"source {i} of {dest!r} should be {want.value}"))

    # acyclicity by Kahn's algorithm over the computation hyperedges
    indeg = {n: 0 for n in d.refs}
    for comp in d.comps.values():
        if comp.dest in indeg and all(s in d.refs for s in comp.srcs):
            indeg[comp.dest] = len(set(comp.srcs))
    ready = [n for n, k in indeg.items() if k == 0]
    removed = 0
    while ready:
        n = ready.pop()
        removed += 1
        for dest in d.consumers(n):
            comp = d.comps.get(dest)
            if comp is None or dest not in indeg:
                continue
            if n in comp.srcs:
                indeg[dest] -= len([s for s in set(comp.srcs) if s == n])
                if indeg[dest] == 0:
                    ready.append(dest)
    if removed != len(indeg):
        stuck = sorted((n for n, k in indeg.items() if k > 0), key=name_key)
        for n in stuck[:1]:
            out.append(Violation("Acyclicity", n, "cell participates in a dependency cycle"))

    for name, cell in d.refs.items():
        if cell.is_empty() and name not in d.comps:
            out.append(Violation("EmptyNeedsDep", name, "empty cell has no incoming computation"))
    return out


def _fix_depth(comp: Computation, head: Loc) -> Optional[int]:
    if comp.fn is not FnSymbol.FIX or len(comp.srcs) != 2:
        return None
    a, b = comp.srcs
    if not (isinstance(a, Iter) and isinstance(b, Iter)):
        return None
    k = b.count_of(head)
    if a.count_of(head) != k - 1 or k < 1:
        return None
    return k


def set_counts(n: Name, version: dict[Loc, int]) -> Name:
    """Re-version a template name: overwrite the iteration counts of the
    heads mentioned in ``version``, leaving other dimensions alone."""
    if isinstance(n, Prod):
        return Prod(set_counts(n.left, version), set_counts(n.right, version))
    if isinstance(n, Iter):
        counts = tuple((h, version.get(h, c)) for h, c in n.counts)
        return Iter(n.base, counts)
    return n


def set_counts_comp(c: Computation, version: dict[Loc, int]) -> Computation:
    return Computation(
        dest=set_counts(c.dest, version),
        fn=c.fn,
        srcs=tuple(set_counts(s, version) for s in c.srcs),
    )


def check_cfg_consistency(
    d: Daig, cfg: Cfg, loops: LoopInfo, reasons: Optional[list[str]] = None
) -> bool:
    """Whether the graph encodes this CFG's abstract interpretation.

    Forward-edge and join structures must match the construction templates
    exactly; every back edge must be present at some unrolling depth k >= 1
    with all intermediate iterations in place.
    """

    def fail(msg: str) -> bool:
        if reasons is not None:
            reasons.append(msg)
        return False

    if d.entry_name != LocN(cfg.entry):
        return fail("entry cell name does not match the CFG entry")
    if d.entry_name not in d.refs:
        return fail("entry cell missing")

    template_cells: list[CellSpec] = []
    template_comps: list[Computation] = []
    for loc in sorted(cfg.locs):
        cells, comps = dest_structures(cfg, loops, loc)
        template_cells += cells
        template_comps += comps

    for name, ty, contents in template_cells:
        cell = d.refs.get(name)
        if cell is None:
            return fail(f"missing cell {name!r}")
        if cell.ty is not ty:
            return fail(f"cell {name!r} has type {cell.ty.value}, wanted {ty.value}")
        if ty is CellType.STMT and cell.contents != contents:
            return fail(
                f"statement cell {name!r} holds {stmt_text(cell.contents)!r}, "
                f"wanted {stmt_text(contents)!r}"
            )

    loop_base: dict[Loc, list[Computation]] = {h: [] for h in loops.natural_loops}

    def mentions_iter0_of(comp: Computation, h: Loc) -> bool:
        body = loops.natural_loops[h]

        def hits(n: Name) -> bool:
            if isinstance(n, Prod):
                return hits(n.left) or hits(n.right)
            return isinstance(n, Iter) and n.base.loc in body and n.count_of(h) == 0

        return any(hits(x) for x in (comp.dest,) + comp.srcs)

    for comp in template_comps:
        for h in loop_base:
            if mentions_iter0_of(comp, h):
                loop_base[h].append(comp)

    for comp in template_comps:
        if comp.fn is FnSymbol.FIX:
            continue  # checked per live loop version below
        actual = d.comps.get(comp.dest)
        if actual is None:
            return fail(f"missing computation into {comp.dest!r}")
        if actual != comp:
            return fail(f"computation at {comp.dest!r} is {actual!r}, wanted {comp!r}")

    # Every loop must be present at every live version: once per iteration
    # count of each enclosing loop, each version at its own depth k >= 1,
    # with the full widen chain and body copies up to that depth.  Nested
    # fix structures are validated by their own versions, not as copies.
    failure: list[str] = []

    def check_loop_version(h: Loc, version: dict[Loc, int]) -> Optional[int]:
        fix_name = set_counts(head_fix_name(h, loops), version)
        actual = d.comps.get(fix_name)
        if actual is None:
            failure.append(f"missing fix computation at {fix_name!r}")
            return None
        k = _fix_depth(actual, h)
        if k is None:
            failure.append(f"fix computation at {fix_name!r} is malformed: {actual!r}")
            return None
        for i in range(k):
            it = set_counts(head_iter_name(h, i, loops), version)
            it1 = set_counts(head_iter_name(h, i + 1, loops), version)
            widen = Computation(it1, FnSymbol.WIDEN, (it, Prod(it, it1)))
            if d.comps.get(widen.dest) != widen:
                failure.append(f"missing widen step {widen!r}")
                return None
            if it1 not in d.refs or Prod(it, it1) not in d.refs:
                failure.append(f"missing iterate cells for step {i + 1} at l{h}")
                return None
        for i in range(1, k):
            for base in loop_base[h]:
                if base.fn is FnSymbol.FIX:
                    continue
                want = set_counts_comp(base, version)
                for _ in range(i):
                    want = incr_comp(want, h, loops)
                if d.comps.get(want.dest) != want:
                    failure.append(f"missing unrolled copy {want!r}")
                    return None
                if want.dest not in d.refs:
                    failure.append(f"missing unrolled cell {want.dest!r}")
                    return None
        return k

    heads = sorted(
        loops.natural_loops, key=lambda h: (len(loops.enclosing_heads(h)), h)
    )
    depth_at: dict[tuple[Loc, tuple[tuple[Loc, int], ...]], int] = {}
    for h in heads:
        parents = loops.enclosing_heads(h)
        if not parents:
            versions = [{}]
        else:
            parent = parents[-1]
            versions = []
            for (ph, pv), pk in depth_at.items():
                if ph != parent:
                    continue
                for i in range(pk):
                    v = dict(pv)
                    v[parent] = i
                    versions.append(v)
        for v in versions:
            k = check_loop_version(h, v)
            if k is None:
                return fail(failure[-1])
            depth_at[(h, tuple(sorted(v.items())))] = k
    return True


def check_ai_consistency(
    d: Daig, domain, reasons: Optional[list[str]] = None, call_transfer=None
) -> bool:
    """Whether every filled state cell equals its computation over filled
    sources (fix cells must equal both of their converged sources).

    Transfer computations over call statements are structural only; pass
    ``call_transfer`` to recompute them, otherwise their values are trusted.
    """
    from .lang.syntax import Call

    def fail(msg: str) -> bool:
        if reasons is not None:
            reasons.append(msg)
        return False

    entry = d.refs.get(d.entry_name)
    if entry is None or entry.is_empty() or not domain.equal(entry.contents, d.entry_state):
        return fail("entry cell does not hold the initial abstract state")

    for name, cell in d.refs.items():
        if cell.ty is not CellType.STATE or cell.is_empty():
            continue
        comp = d.comps.get(name)
        if comp is None:
            continue
        vals = []
        for s in comp.srcs:
            sc = d.refs.get(s)
            if sc is None or sc.is_empty():
                return fail(f"filled cell {name!r} has empty source {s!r}")
            vals.append(sc.contents)
        if comp.fn is FnSymbol.FIX:
            if not (domain.equal(vals[0], vals[1]) and domain.equal(cell.contents, vals[0])):
                return fail(f"fix cell {name!r} does not equal its converged iterates")
        elif comp.fn is FnSymbol.TRANSFER:
            if isinstance(vals[0], Call):
                if call_transfer is None:
                    continue
                want = call_transfer(vals[0], vals[1])
            else:
                want = domain.transfer(vals[0], vals[1])
            if not domain.equal(cell.contents, want):
                return fail(f"transfer result at {name!r} is stale")
        elif comp.fn is FnSymbol.JOIN:
            acc = vals[0]
            for v in vals[1:]:
                acc = domain.join(acc, v)
            if not domain.equal(cell.contents, acc):
                return fail(f"join result at {name!r} is stale")
        elif comp.fn is FnSymbol.WIDEN:
            if not domain.equal(cell.contents, domain.widen(vals[0], vals[1])):
                return fail(f"widen result at {name!r} is stale")
    return True


# --- rendering -----------------------------------------------------------------


def to_dot(d: Daig, domain=None) -> str:
    """Graphviz rendering: cells as boxes (filled when they hold a value),
    computations as labelled junction points fanning in their sources."""
    ids: dict[Name, str] = {}

    def nid(n: Name) -> str:
        if n not in ids:
            ids[n] = f"n{len(ids)}"
        return ids[n]

    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph daig {", "  rankdir=TB;", '  node [fontsize=10];']
    for name, cell in sorted(d.refs.items(), key=lambda kv: name_key(kv[0])):
        label = repr(name)
        if cell.ty is CellType.STMT:
            label += "\\n" + esc(stmt_text(cell.contents))
            style = "rounded,filled"
            fill = "gray92"
        elif not cell.is_empty():
            shown = domain.to_text(cell.contents) if domain else repr(cell.contents)
            label += "\\n" + esc(shown)
            style = "filled"
            fill = "lightyellow"
        else:
            style = "dashed"
            fill = "white"
        lines.append(
            f'  {nid(name)} [shape=box, style="{style}", fillcolor={fill}, label="{esc(label)}"];'
        )
    for i, comp in enumerate(sorted(d.comps.values(), key=lambda c: name_key(c.dest))):
        j = f"f{i}"
        lines.append(f'  {j} [shape=point, xlabel="{comp.fn.value}"];')
        for s in comp.srcs:
            lines.append(f"  {nid(s)} -> {j} [arrowhead=none];")
        lines.append(f"  {j} -> {nid(comp.dest)};")
    lines.append("}")
    return "\n".join(lines)
