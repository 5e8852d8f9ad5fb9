import pickle
import random

import pytest

from daig.batch import batch_analyze
from daig.domains import INTERVAL
from daig.graph import (
    Bumps,
    CellType,
    Computation,
    FnSymbol,
    IdxN,
    Iter,
    LocN,
    LocNames,
    Prod,
    RefCell,
    UnsupportedCfg,
    check_ai_consistency,
    check_cfg_consistency,
    check_wf,
    head_fix_name,
    init_daig,
    to_dot,
    unroll,
)
from daig.engine import Engine, PreservationError
from daig.lang.cfg import Cfg, Edge
from daig.lang.edits import apply_edit
from daig.lang.loops import analyze_loops
from daig.lang.parser import parse_program, parse_stmt_text
from daig.workload import gen_edit, gen_program_source

from helpers import (
    APPEND_SRC,
    append_cfg,
    computations,
    ivl,
    no_reference_cycles,
    run_under_hash_seed,
    while_cfg,
)


def build(src):
    cfg = parse_program(src).proc("main").cfg
    loops = analyze_loops(cfg)
    return cfg, loops, init_daig(cfg, LocNames(loops), INTERVAL)


def test_single_edge_daig():
    cfg, loops, d = build("fn main() { x = 1; }")
    assert len(d.refs) == 3  # statement, filled entry, empty exit
    (comp,) = computations(d).values()
    assert comp.fn is FnSymbol.TRANSFER
    assert d.cell(LocN(cfg.entry)).contents == INTERVAL.init()
    assert d.cell(LocN(cfg.exit)).is_empty()


def test_append_daig_structure():
    cfg, loops, d = build(APPEND_SRC)
    (back,) = loops.back_edges
    head = back.dst
    # one fix edge from the two first iterates into the head's fixed point
    fix = d.refs[head_fix_name(head, loops)].comp
    assert fix.fn is FnSymbol.FIX
    it0 = LocNames(loops)[head][1]
    assert fix.srcs == (it0, it0.with_count(head, 1))
    # the return join has two ordered operands
    join = d.refs[LocN(cfg.exit)].comp
    assert join.fn is FnSymbol.JOIN
    assert join.srcs == (
        Prod(IdxN(1), LocN(cfg.exit)),
        Prod(IdxN(2), LocN(cfg.exit)),
    )
    # statement cells are exactly the edges
    stmt_cells = [c for c in d.refs.values() if c.ty is CellType.STMT]
    assert len(stmt_cells) == len(cfg.edges)
    assert check_wf(d) == []
    assert check_cfg_consistency(d, cfg, loops)
    assert check_ai_consistency(d, INTERVAL)


def test_cell_count_formula():
    rng = random.Random(4)
    for _ in range(25):
        cfg, loops, d = build(gen_program_source(rng))
        n_stmt = sum(1 for c in d.refs.values() if c.ty is CellType.STMT)
        assert n_stmt == len(cfg.edges)
        expected_state = len(cfg.locs)
        expected_state += sum(len(es) for es in loops.join_indices.values())
        expected_state += 3 * len(loops.back_edges)  # iterate-1, pre-widen, fix
        n_state = sum(1 for c in d.refs.values() if c.ty is CellType.STATE)
        assert n_state == expected_state


def test_init_daig_is_deterministic():
    cfg = append_cfg()
    loops = analyze_loops(cfg)
    a = init_daig(cfg, LocNames(loops), INTERVAL)
    b = init_daig(cfg, LocNames(loops), INTERVAL)
    assert list(a.refs) == list(b.refs)
    assert computations(a) == computations(b)


# A join in front of the outer loop's head and of the nested loop's head.
JOINED_LOOPS_SRC = """
fn main() {
  if (x0 < 1) { x0 = 1; }
  while (x0 < 9) {
    if (x1 < x0) { x1 = x0; } else { x2 = x1; }
    while (x1 < 5) { x1 = x1 + 1; }
    x0 = x0 + 1;
  }
}
"""


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fresh_graphs_are_well_formed_and_answer_like_batch(seed):
    rng = random.Random(seed)
    entry_states = [None, ivl(x0=(0, 3), x1=(None, 2))]
    cfg = parse_program(JOINED_LOOPS_SRC).proc("main").cfg
    nested = joined_heads = 0
    for step in range(121):
        if step % 8 == 0:
            loops = analyze_loops(cfg)
            nested += any(loops.enclosing[h] for h in loops.natural_loops)
            joined_heads += any(h in loops.join_indices for h in loops.natural_loops)
            for entry_state in entry_states:
                d = init_daig(cfg, LocNames(loops), INTERVAL, entry_state)
                assert check_wf(d) == []
                assert check_cfg_consistency(d, cfg, loops)
                # a debug engine checks its fresh graph with assert_invariants
                Engine(cfg, INTERVAL, loops=loops, debug=True, entry_state=entry_state)
                eng = Engine(cfg, INTERVAL, loops=loops, entry_state=entry_state)
                oracle = batch_analyze(cfg, loops, INTERVAL, entry_state=entry_state)
                for loc in sorted(cfg.locs):
                    assert INTERVAL.equal(eng.query_loc(loc), oracle.invariants[loc])
                eng.assert_invariants()
        cfg, _delta = apply_edit(cfg, gen_edit(rng, cfg), validate=False)
    assert nested and joined_heads


def test_wf_and_debug_engine_catch_a_stale_index(monkeypatch):
    cfg = parse_program(JOINED_LOOPS_SRC).proc("main").cfg
    loops = analyze_loops(cfg)
    refs = init_daig(cfg, LocNames(loops), INTERVAL).refs
    fix = next(n for n, c in refs.items() if c.comp is not None and c.comp.fn is FnSymbol.FIX)
    final = refs[fix].comp.srcs[1]
    exit_name = LocN(cfg.exit)  # read by no computation
    cases = [
        (
            lambda d: d.consumer_index[final].discard(fix),
            ("StaleIndex", final, f"consumer {fix!r} is not indexed"),
        ),
        (
            lambda d: d.consumer_index.setdefault(exit_name, set()).add(fix),
            ("StaleIndex", exit_name, f"indexed consumer {fix!r} does not read it"),
        ),
    ]
    for corrupt, want in cases:
        d = init_daig(cfg, LocNames(loops), INTERVAL)
        assert check_wf(d) == []
        corrupt(d)
        assert [(v.kind, v.name, v.detail) for v in check_wf(d)] == [want]

        def bad_build(*args, corrupt=corrupt):
            d = init_daig(*args)
            corrupt(d)
            return d

        monkeypatch.setattr("daig.engine.init_daig", bad_build)
        Engine(cfg, INTERVAL, loops=loops)
        with pytest.raises(PreservationError, match="StaleIndex"):
            Engine(cfg, INTERVAL, loops=loops, debug=True)


def hand_cfg(entry: int, exit: int, *edges: tuple[int, str, int]) -> Cfg:
    """A Cfg built edge by edge, bypassing the parser's structured lowering."""
    es = frozenset(Edge(src, parse_stmt_text(stmt), dst) for src, stmt, dst in edges)
    return Cfg(frozenset(l for e in es for l in (e.src, e.dst)), es, entry, exit)


def test_engine_rejects_a_loop_left_from_inside_its_body():
    # l1 heads the loop {l2}; l2 -> l3 leaves it without passing the head.
    cfg = hand_cfg(
        0, 3,
        (0, "x = 0;", 1),
        (1, "assume(x < 3);", 2),
        (2, "x = x + 1;", 1),
        (2, "assume(x == 2);", 3),
        (1, "assume(!(x < 3));", 3),
    )
    with pytest.raises(UnsupportedCfg) as exc:
        Engine(cfg, INTERVAL)
    assert str(exc.value) == (
        "forward edge l2 -> l3 leaves the loop headed at l1 from inside its "
        "body; loops may only be exited at their head"
    )


def test_engine_rejects_an_entry_inside_a_loop():
    # The entry l0 heads the loop {l1}.
    cfg = hand_cfg(
        0, 2,
        (0, "assume(x < 3);", 1),
        (1, "x = x + 1;", 0),
        (0, "assume(!(x < 3));", 2),
    )
    with pytest.raises(UnsupportedCfg) as exc:
        Engine(cfg, INTERVAL)
    assert str(exc.value) == "the entry location may not participate in a loop"


def test_wf_detects_self_dependency():
    cfg, loops, d = build("fn main() { x = 1; }")
    exit_name = LocN(cfg.exit)
    d.set_comp(Computation(exit_name, FnSymbol.JOIN, (exit_name, exit_name)))
    kinds = {v.kind for v in check_wf(d)}
    assert "Acyclicity" in kinds


def test_wf_detects_empty_without_dependency():
    cfg, loops, d = build("fn main() { x = 1; }")
    d.refs[LocN(77)] = RefCell(LocN(77), CellType.STATE)
    violations = check_wf(d)
    assert any(v.kind == "EmptyNeedsDep" and v.name == LocN(77) for v in violations)


def test_wf_detects_type_and_arity_errors():
    cfg, loops, d = build("fn main() { x = 1; }")
    stmt_name = next(n for n, c in d.refs.items() if c.ty is CellType.STMT)
    d.set_comp(Computation(LocN(cfg.exit), FnSymbol.TRANSFER, (LocN(cfg.entry), stmt_name)))
    kinds = {v.kind for v in check_wf(d)}
    assert "BadType" in kinds
    d.set_comp(Computation(LocN(cfg.exit), FnSymbol.WIDEN, (LocN(cfg.entry),)))
    assert "BadArity" in {v.kind for v in check_wf(d)}


def test_wf_detects_stale_cell_links():
    eng = Engine(while_cfg(), INTERVAL, debug=True)
    eng.query_loc(eng.cfg.exit)
    d = eng.daig
    assert check_wf(d) == []
    name, cell = next(
        (n, c)
        for n, c in d.refs.items()
        if c.srcs is not None
        and c.comp.fn is FnSymbol.TRANSFER
        and c.comp.srcs[1] is not d.entry_name
    )
    linked = cell.srcs
    assert linked == tuple(d.refs[s] for s in cell.comp.srcs)

    # a cached source that is not the cell its computation names
    cell.srcs = (linked[0], RefCell(linked[1].name, linked[1].ty, linked[1].contents))
    assert [(v.kind, v.name) for v in check_wf(d)] == [("StaleLink", name)]
    cell.srcs = linked
    assert check_wf(d) == []

    # a computation with other sources written into the cell behind
    # set_comp's back: the cached sources and the consumer index are stale
    recorded = cell.comp
    stmt, old_src = recorded.srcs
    cell.comp = Computation(recorded.dest, recorded.fn, (stmt, d.entry_name))
    assert [(v.kind, v.name) for v in check_wf(d)] == [("StaleLink", name)] + sorted(
        [("StaleIndex", d.entry_name), ("StaleIndex", old_src)]
    )
    with pytest.raises(PreservationError, match="StaleLink"):
        eng.query_loc(eng.cfg.exit)
    cell.comp = recorded

    # set_comp drops the cached sources along with the computation it replaces
    d.set_comp(recorded)
    assert cell.srcs is None
    assert check_wf(d) == []


def test_cfg_consistency_after_unrolling():
    cfg = while_cfg()
    loops = analyze_loops(cfg)
    eng = Engine(cfg, INTERVAL)
    eng.query_loc(cfg.exit)  # forces one demanded unrolling (depth two)
    assert eng.metrics.unrollings == 1
    assert check_cfg_consistency(eng.daig, cfg, loops)


def test_cfg_consistency_fails_against_pre_edit_cfg():
    cfg = while_cfg()
    loops = analyze_loops(cfg)
    eng = Engine(cfg, INTERVAL)
    from daig.lang.edits import RelabelEdge
    from daig.lang.parser import parse_stmt_text
    from daig.lang.syntax import stmt_text

    edge = next(e for e in cfg.edges if stmt_text(e.stmt) == "x = 0;")
    eng.apply_program_edit(RelabelEdge(edge.src, edge.dst, parse_stmt_text("x = 5;")))
    assert check_cfg_consistency(eng.daig, eng.cfg, eng.loops)
    assert not check_cfg_consistency(eng.daig, cfg, loops)


# Queried everywhere, the inner loop converges at depth one in the outer
# loop's first iterate and at depth two in its second.
NESTED_SRC = """
fn main() {
  i = 0;
  while (i < 3) {
    j = 0;
    while (j < i) { j = j + 1; }
    i = i + 1;
  }
}
"""


def nested_engine() -> Engine:
    eng = Engine(parse_program(NESTED_SRC).proc("main").cfg, INTERVAL)
    for loc in sorted(eng.cfg.locs):
        eng.query_loc(loc)
    return eng


def nested_heads(loops):
    """(outer, inner) loop heads of ``NESTED_SRC``."""
    (inner,) = (h for h in loops.natural_loops if loops.enclosing[h])
    (outer,) = loops.enclosing[inner]
    return outer, inner


def test_cfg_consistency_catches_faults_in_unrolled_nested_loops():
    eng = nested_engine()
    d, cfg, loops = eng.daig, eng.cfg, eng.loops
    outer, inner = nested_heads(loops)

    def at(loc, o, i=None):
        """State cell of ``loc`` at outer count ``o`` (and inner count ``i``)."""
        name = LocNames(loops)[loc][1].with_count(outer, o)
        return name if i is None else name.with_count(inner, i)

    def inner_fix(o):
        return Iter(LocN(inner), ((outer, o),))

    def depth(fix_name, head):
        return d.refs[fix_name].comp.srcs[1].count_of(head)

    assert depth(LocN(outer), outer) == 2
    assert [depth(inner_fix(o), inner) for o in (0, 1)] == [1, 2]
    reasons: list[str] = []
    assert check_cfg_consistency(d, cfg, loops, reasons) and not reasons

    (inner_body,) = loops.natural_loops[inner]
    after_inner = loops.back_edge_of(outer).src  # reads the inner fixed point
    exit_stmt = Prod(LocN(inner), LocN(after_inner))
    assert d.refs[exit_stmt].ty is CellType.STMT

    def delete(g, name):
        del g.refs[name]

    def drop_comp(g, name):
        g.refs[name].comp = None

    def swap_srcs(g, name):
        comp = g.refs[name].comp
        g.set_comp(Computation(name, comp.fn, comp.srcs[::-1]))

    def misread(g, name):
        g.set_comp(Computation(name, FnSymbol.TRANSFER, (exit_stmt, inner_fix(0))))

    faults = [
        ("unrolled body cell deleted", delete, at(inner_body, 1, 1)),
        ("widen step removed", drop_comp, at(inner, 1, 2)),
        ("fix sources swapped", swap_srcs, LocN(outer)),
        ("inner fix at outer iterate 1 missing", delete, inner_fix(1)),
        ("copied transfer reads the first iterate's fixed point", misread, at(after_inner, 1)),
    ]
    for what, corrupt, victim in faults:
        snap = eng.snapshot()
        corrupt(snap.daig, victim)
        reasons = []
        assert not check_cfg_consistency(snap.daig, cfg, loops, reasons), what
        assert reasons and repr(victim) in reasons[0], (what, reasons)

    # Roll the inner loop back by an edit and query again: it now converges
    # at depth one in both outer iterates, and its deeper iterates stay
    # behind, read by nothing live.
    from daig.lang.edits import RelabelEdge
    from daig.lang.parser import parse_stmt_text

    back = loops.back_edge_of(inner)
    eng.apply_program_edit(RelabelEdge(back.src, back.dst, parse_stmt_text("j = 0;")))
    for loc in sorted(eng.cfg.locs):
        eng.query_loc(loc)
    assert [depth(inner_fix(o), inner) for o in (0, 1)] == [1, 1]
    assert at(inner, 1, 2) in d.refs
    reasons = []
    assert check_cfg_consistency(d, eng.cfg, eng.loops, reasons) and not reasons


def test_unroll_of_an_outer_loop_adds_one_iterate_and_a_depth_one_inner_loop():
    cfg = parse_program(NESTED_SRC).proc("main").cfg
    loops = analyze_loops(cfg)
    d = init_daig(cfg, LocNames(loops), INTERVAL)
    outer, inner = nested_heads(loops)
    (body,) = loops.natural_loops[inner]  # j = j + 1
    tail = loops.back_edge_of(outer).src  # i = i + 1
    (start,) = loops.natural_loops[outer] - loops.natural_loops[inner] - {inner, tail}

    def stmt(a, b):
        return Prod(LocN(a), LocN(b))

    def at(loc, o, i=None):
        counts = ((outer, o),) if i is None else ((outer, o), (inner, i))
        return Iter(LocN(loc), counts)

    T, W, F = FnSymbol.TRANSFER, FnSymbol.WIDEN, FnSymbol.FIX
    pre = Prod(at(outer, 1), at(outer, 2))
    inner_pre = Prod(at(inner, 1, 0), at(inner, 1, 1))
    added = [
        Computation(at(outer, 2), W, (at(outer, 1), pre)),
        Computation(pre, T, (stmt(tail, outer), at(tail, 1))),
        Computation(at(start, 1), T, (stmt(outer, start), at(outer, 1))),
        Computation(at(inner, 1, 0), T, (stmt(start, inner), at(start, 1))),
        Computation(at(body, 1, 0), T, (stmt(inner, body), at(inner, 1, 0))),
        Computation(inner_pre, T, (stmt(body, inner), at(body, 1, 0))),
        Computation(at(inner, 1, 1), W, (at(inner, 1, 0), inner_pre)),
        Computation(at(inner, 1), F, (at(inner, 1, 0), at(inner, 1, 1))),
        Computation(at(tail, 1), T, (stmt(inner, tail), at(inner, 1))),
    ]
    slid = Computation(LocN(outer), F, (at(outer, 1), at(outer, 2)))

    names_before, comps_before = set(d.refs), computations(d)
    region = unroll(d, d.refs[LocN(outer)].comp)
    assert region == {
        Prod(at(outer, 0), at(outer, 1)),
        at(start, 0),
        at(inner, 0, 0),
        at(body, 0, 0),
        Prod(at(inner, 0, 0), at(inner, 0, 1)),
        at(inner, 0, 1),
        at(inner, 0),
        at(tail, 0),
    }
    assert set(d.refs) - names_before == {c.dest for c in added}
    for c in added:
        assert d.refs[c.dest].ty is CellType.STATE and d.refs[c.dest].is_empty()
    changed = {n: c for n, c in computations(d).items() if comps_before.get(n) != c}
    assert changed == {c.dest: c for c in added + [slid]}
    assert check_wf(d) == []


def test_consistency_check_leaves_no_reference_cycles():
    eng = nested_engine()
    with no_reference_cycles():
        assert check_cfg_consistency(eng.daig, eng.cfg, eng.loops)


def test_ai_consistency_vacuous_then_preserved_then_detects_corruption():
    cfg = while_cfg()
    loops = analyze_loops(cfg)
    d = init_daig(cfg, LocNames(loops), INTERVAL)
    assert check_ai_consistency(d, INTERVAL)  # only the entry is filled
    eng = Engine(cfg, INTERVAL)
    eng.query_loc(cfg.exit)
    assert check_ai_consistency(eng.daig, INTERVAL)
    # corrupt one filled non-entry cell
    from helpers import ivl

    victim = next(
        n
        for n, c in eng.daig.refs.items()
        if c.ty is CellType.STATE and not c.is_empty() and n != eng.daig.entry_name
    )
    eng.daig.refs[victim].contents = ivl(zz=(41, 41))
    assert not check_ai_consistency(eng.daig, INTERVAL)


def reaches(d, n, target) -> bool:
    """Whether ``target`` transitively (non-reflexively) depends on ``n``."""
    d.cell(n)
    d.cell(target)
    return target in d.forward_set(n)


def test_reaches():
    cfg, loops, d = build(APPEND_SRC)
    (comp,) = [c for c in computations(d).values() if c.dest == LocNames(loops)[2][1]]
    assert reaches(d, comp.srcs[0], comp.dest)
    assert not reaches(d, comp.dest, comp.dest)  # irreflexive on acyclic graphs
    assert reaches(d, LocN(cfg.entry), LocN(cfg.exit))
    with pytest.raises(KeyError):
        reaches(d, LocN(123), LocN(cfg.exit))


def test_bump_examples():
    cfg = append_cfg()
    loops = analyze_loops(cfg)
    (back,) = loops.back_edges
    head, tail = back.dst, back.src
    tail0 = LocNames(loops)[tail][1]
    assert Bumps(head)[tail0] == Iter(LocN(tail), ((head, 1),))
    # statement cell names never change
    stmt_name = Prod(LocN(tail), LocN(head))
    assert Bumps(head)[stmt_name] is stmt_name
    # unrelated locations unchanged
    assert Bumps(head)[LocN(cfg.exit)] == LocN(cfg.exit)


def test_bump_nested_counts():
    src = """
    fn main() {
      i = 0;
      while (i < 3) {
        j = 0;
        while (j < 2) { j = j + 1; }
        i = i + 1;
      }
    }
    """
    cfg = parse_program(src).proc("main").cfg
    loops = analyze_loops(cfg)
    inner = min(loops.natural_loops, key=lambda h: len(loops.natural_loops[h]))
    outer = max(loops.natural_loops, key=lambda h: len(loops.natural_loops[h]))
    body_loc = sorted(loops.natural_loops[inner])[0]
    name = Iter(LocN(body_loc), ((outer, 1), (inner, 0)))
    # bumped names and re-counted names equal the names built afresh
    assert Bumps(inner)[name] == Iter(LocN(body_loc), ((outer, 1), (inner, 1)))
    assert Bumps(outer)[name] == Iter(LocN(body_loc), ((outer, 2), (inner, 0)))
    inner0 = LocNames(loops)[inner][1]
    pair = Prod(name, inner0)
    assert Bumps(inner)[pair] == Prod(
        Iter(LocN(body_loc), ((outer, 1), (inner, 1))), inner0.with_count(inner, 1)
    )
    assert name.with_count(inner, 4) == Iter(LocN(body_loc), ((inner, 4), (outer, 1)))
    assert name.with_count(outer, 0) == Iter(LocN(body_loc), ((outer, 0), (inner, 0)))
    top = Iter(LocN(outer), ((outer, 0),))
    assert top.with_count(inner, 1) == Iter(LocN(outer), ((inner, 1), (outer, 0)))


def test_pre_widen_and_fix_names():
    cfg = while_cfg()
    loops = analyze_loops(cfg)
    d = init_daig(cfg, LocNames(loops), INTERVAL)
    (head,) = loops.natural_loops
    assert head_fix_name(head, loops) == LocN(head)
    it0 = LocNames(loops)[head][1]
    it1 = it0.with_count(head, 1)
    pw = Prod(it0, it1)
    assert d.refs[pw].comp.fn is FnSymbol.TRANSFER
    assert d.refs[it1].comp == Computation(it1, FnSymbol.WIDEN, (it0, pw))


def test_dot_export_mentions_cells_and_functions():
    cfg, loops, d = build(APPEND_SRC)
    dot = to_dot(d, INTERVAL)
    assert dot.startswith("digraph")
    assert "transfer" in dot and "join" in dot and "fix" in dot and "widen" in dot
    assert "shape=box" in dot


def rebuilt(n):
    """``n`` built afresh through the constructors, from its fields."""
    if isinstance(n, LocN):
        return LocN(n.loc)
    if isinstance(n, IdxN):
        return IdxN(n.index)
    if isinstance(n, Prod):
        return Prod(rebuilt(n.left), rebuilt(n.right))
    return Iter(rebuilt(n.base), n.counts)


def test_names_built_apart_are_equal_and_find_one_cell():
    a = Iter(LocN(5), ((3, 1), (7, 0), (9, 2)))
    for b in (Iter(LocN(5), [(9, 2), (3, 1), (7, 0)]), Iter(LocN(5), iter([(7, 0), (9, 2), (3, 1)]))):
        assert b == a and hash(b) == hash(a) and type(b) is Iter
    assert Iter(LocN(5), ((3, 1), (7, 0), (9, 3))) != a
    assert Prod(LocN(1), LocN(2)) == Prod(LocN(1), LocN(2))
    assert LocN(3) != IdxN(3)
    eng = Engine(append_cfg(), INTERVAL)
    eng.query_loc(eng.cfg.exit)
    refs = eng.daig.refs
    for n, cell in refs.items():
        built = rebuilt(n)
        assert built == n and hash(built) == hash(n)
        assert refs[built] is cell
        if cell.comp is not None:
            assert [refs[rebuilt(s)] for s in cell.comp.srcs] == list(eng.daig.sources(cell))


def _warm_engine(seed: int) -> Engine:
    rng = random.Random(seed)
    eng = Engine(parse_program(gen_program_source(rng)).proc("main").cfg, INTERVAL)
    for _ in range(30):
        eng.apply_program_edit(gen_edit(rng, eng.cfg))
        eng.query_loc(rng.choice(sorted(eng.cfg.locs)))
    assert eng.metrics.unrollings > 0
    return eng


def test_pickled_and_snapshot_engines_have_equal_names():
    eng = _warm_engine(0)
    for other in (pickle.loads(pickle.dumps(eng)), eng.snapshot()):
        assert list(other.daig.refs) == list(eng.daig.refs)
        assert other.daig.entry_name == eng.daig.entry_name
        assert computations(other.daig) == computations(eng.daig)
        for n in other.daig.refs:
            assert repr(n) == repr(rebuilt(n))
        rng = random.Random(11)
        other.apply_program_edit(gen_edit(rng, other.cfg))
        oracle = batch_analyze(other.cfg, analyze_loops(other.cfg), INTERVAL)
        for loc in sorted(other.cfg.locs):
            assert INTERVAL.equal(other.query_loc(loc), oracle.invariants[loc])


# One name of each kind and shape, in no particular order.
MIXED_NAMES = [
    Prod(Iter(LocN(4), ((5, 0),)), Iter(LocN(4), ((5, 1),))),
    IdxN(2),
    Iter(LocN(3), ((5, 1),)),
    LocN(10),
    Prod(IdxN(1), Prod(LocN(2), LocN(3))),
    Iter(LocN(3), ((7, 2), (5, 0))),
    Prod(LocN(2), Iter(LocN(3), ((5, 1),))),
    LocN(3),
    IdxN(1),
    Iter(LocN(2), ((9, 4),)),
    Prod(LocN(2), LocN(3)),
]


def test_name_hashes_are_the_same_under_every_hash_seed():
    code = "from test_graph import MIXED_NAMES\nprint([hash(n) for n in MIXED_NAMES])\n"
    here = str([hash(n) for n in MIXED_NAMES])
    assert run_under_hash_seed("1", code).strip() == here
    assert run_under_hash_seed("2", code).strip() == here


def test_names_sort_by_kind_then_by_their_parts():
    # Locations, then indices, then iterates, then products; within a kind
    # by location number (not by text: l3 before l10), counts, then parts.
    assert [repr(n) for n in sorted(MIXED_NAMES)] == [
        "l3",
        "l10",
        "1",
        "2",
        "l2^(4)",
        "l3^(l5:0,l7:2)",
        "l3^(1)",
        "l2.l3",
        "l2.l3^(1)",
        "1.l2.l3",
        "l4^(0).l4^(1)",
    ]
