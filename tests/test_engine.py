import pickle
import random
from collections import Counter

import pytest

from daig.batch import batch_analyze
from daig.domains import INTERVAL
from daig.engine import Engine, EngineError
from daig.graph import (
    FIX,
    STATE,
    STMT,
    CellType,
    IdxN,
    Iter,
    LocN,
    LocNames,
    Prod,
    check_wf,
    head_fix_name,
    init_daig,
    stmt_cell_locs,
)
from daig.lang.cfg import Cfg, Edge
from daig.lang.edits import (
    InsertIf,
    InsertStmtAfter,
    InsertWhile,
    RelabelEdge,
    apply_edit,
    relabel,
)
from daig.lang.loops import analyze_loops
from daig.lang.parser import parse_expr_text, parse_program, parse_stmt_text
from daig.lang.syntax import Assume, Skip, stmt_text
from daig.workload import (
    EMPTY_MAIN,
    VAR_POOL,
    gen_cond,
    gen_edit,
    gen_program_source,
    gen_simple_stmt,
)

from helpers import (
    append_cfg,
    computations,
    count_loop_analyses,
    ivl,
    no_reference_cycles,
    while_cfg,
)


def test_query_reuse_costs_nothing():
    cfg = while_cfg()
    eng = Engine(cfg, INTERVAL)
    v = eng.query(LocN(cfg.entry))
    assert v == INTERVAL.init()
    m = eng.metrics
    assert (m.transfer_evals, m.join_evals, m.widen_evals, m.memo_misses) == (0, 0, 0, 0)


def test_demand_chain_computes_exactly_two_transfers():
    cfg = append_cfg()
    eng = Engine(cfg, INTERVAL, enable_memo=False)
    pre_join = Prod(IdxN(1), LocN(cfg.exit))
    eng.query(pre_join)
    assert eng.metrics.transfer_evals == 2
    assert eng.metrics.join_evals == 0
    # exactly the demanded chain is filled: branch state then pre-join state
    filled = {
        n
        for n, c in eng.daig.refs.items()
        if c.ty is CellType.STATE and not c.is_empty() and n != eng.daig.entry_name
    }
    assert filled == {LocNames(eng.loops)[2][1], pre_join}


def test_shared_memo_match_costs_no_evaluation():
    cfg = parse_program("fn main() { x = 1; }").proc("main").cfg
    memo = {}
    first = Engine(cfg, INTERVAL, memo=memo)
    first.query_loc(cfg.exit)
    assert first.metrics.transfer_evals == 1
    second = Engine(cfg, INTERVAL, memo=memo)
    second.query_loc(cfg.exit)
    assert second.metrics.transfer_evals == 0
    assert second.metrics.memo_hits == 1
    assert INTERVAL.equal(
        second.daig.cell(LocN(cfg.exit)).contents, first.daig.cell(LocN(cfg.exit)).contents
    )


def test_while_loop_converges_after_one_unrolling():
    cfg = while_cfg()
    loops = analyze_loops(cfg)
    (head,) = loops.natural_loops
    eng = Engine(cfg, INTERVAL, debug=True)
    assert INTERVAL.to_text(eng.query_loc(head)) == "{x:[0,+inf]}"
    assert INTERVAL.to_text(eng.query_loc(cfg.exit)) == "{x:[10,+inf]}"
    assert eng.metrics.unrollings == 1
    # the two greatest iterates hold equal values and the fix cell matches
    fix = eng.daig.refs[head_fix_name(head, eng.loops)].comp
    v1 = eng.daig.cell(fix.srcs[0]).contents
    v2 = eng.daig.cell(fix.srcs[1]).contents
    assert INTERVAL.equal(v1, v2)
    assert INTERVAL.equal(eng.daig.cell(head_fix_name(head, eng.loops)).contents, v1)


def test_unreachable_loop_converges_without_unrolling():
    src = """
    fn main() {
      x = 0;
      assume(x > 5);
      while (x < 3) { x = x + 1; }
    }
    """
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL, debug=True)
    v = eng.query_loc(cfg.exit)
    assert INTERVAL.is_bot(v)
    assert eng.metrics.unrollings == 0


def test_unroll_adds_three_cells_and_never_copies_statements():
    cfg = while_cfg()
    eng = Engine(cfg, INTERVAL)
    loops = eng.loops
    (head,) = loops.natural_loops
    (body_loc,) = loops.natural_loops[head]
    names_before = set(eng.daig.refs)
    stmt_cells_before = [n for n, c in eng.daig.refs.items() if c.ty is CellType.STMT]
    eng.query(head_fix_name(head, loops))
    assert eng.metrics.unrollings == 1
    added = set(eng.daig.refs) - names_before
    it1 = LocNames(loops)[head][1].with_count(head, 1)
    it2 = LocNames(loops)[head][1].with_count(head, 2)
    assert added == {
        Iter(LocN(body_loc), ((head, 1),)),
        Prod(it1, it2),
        it2,
    }
    stmt_cells_after = [n for n, c in eng.daig.refs.items() if c.ty is CellType.STMT]
    assert stmt_cells_before == stmt_cells_after
    # the fix edge moved forward one iteration
    assert eng.daig.refs[head_fix_name(head, loops)].comp.srcs == (it1, it2)


def test_unroll_is_idempotent_after_rollback():
    cfg = while_cfg()
    eng = Engine(cfg, INTERVAL, debug=True)
    loops = eng.loops
    (head,) = loops.natural_loops
    eng.query(head_fix_name(head, loops))
    shape_before = (computations(eng.daig), sorted(map(repr, eng.daig.refs)))
    # roll the loop back by editing the back-edge statement, then re-demand
    (back,) = loops.back_edges
    eng.apply_program_edit(RelabelEdge(back.src, back.dst, back.stmt))
    eng.write_cell(Prod(LocN(back.src), LocN(back.dst)), parse_stmt_text("x = x + 1;"))
    fix = eng.daig.refs[head_fix_name(head, eng.loops)].comp
    it0 = LocNames(loops)[head][1]
    assert fix.srcs == (it0, it0.with_count(head, 1))
    eng.query(head_fix_name(head, loops))
    shape_after = (computations(eng.daig), sorted(map(repr, eng.daig.refs)))
    assert shape_before == shape_after


def test_write_cell_commit_only_touches_target_when_downstream_empty():
    cfg = while_cfg()
    eng = Engine(cfg, INTERVAL, debug=True)
    edge = next(e for e in cfg.edges if stmt_text(e.stmt) == "x = 0;")
    name = Prod(LocN(edge.src), LocN(edge.dst))
    eng.write_cell(name, parse_stmt_text("x = 2;"))
    assert eng.metrics.cells_dirtied == 0
    assert eng.daig.cell(name).contents == parse_stmt_text("x = 2;")


def test_write_cell_dirty_set_is_exact_on_branch_edit():
    cfg = append_cfg()
    eng = Engine(cfg, INTERVAL, debug=True)
    eng.query_loc(cfg.exit)
    filled = {n for n, c in eng.daig.refs.items() if not c.is_empty()}
    # relabel the then-branch statement (an indexed cell, since it feeds the
    # join): only its pre-join cell and the join itself depend on it
    eng.write_cell(Prod(IdxN(1), Prod(LocN(2), LocN(cfg.exit))), parse_stmt_text("ret = 0;"))
    emptied = {n for n in filled if eng.daig.refs[n].contents is None}
    assert emptied == {Prod(IdxN(1), LocN(cfg.exit)), LocN(cfg.exit)}


def test_editing_converged_loop_rolls_back_and_empties_iterates():
    src = "fn main() { x = 0; while (x < 3) { x = x + 1; } }"
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL, debug=True)
    (head,) = eng.loops.natural_loops
    eng.query_loc(cfg.exit)
    assert eng.metrics.unrollings >= 1  # converged at depth two
    fix_before = eng.daig.refs[head_fix_name(head, eng.loops)].comp
    assert fix_before.srcs[1].count_of(head) == 2
    (back,) = eng.loops.back_edges
    eng.write_cell(Prod(LocN(back.src), LocN(back.dst)), parse_stmt_text("x = x + 2;"))
    fix_after = eng.daig.refs[head_fix_name(head, eng.loops)].comp
    assert fix_after.srcs == (
        LocNames(eng.loops)[head][1].with_count(head, 0),
        LocNames(eng.loops)[head][1].with_count(head, 1),
    )
    for name, cell in eng.daig.refs.items():
        if isinstance(name, Iter) and name.count_of(head) >= 1:
            assert cell.is_empty()


def test_writing_the_entry_cell_sets_the_entry_state():
    cfg = parse_program("fn main() { y = x + 1; }").proc("main").cfg
    eng = Engine(cfg, INTERVAL, debug=True)
    eng.query_loc(cfg.exit)
    entry = INTERVAL.init().bind("x", (5, 5))
    eng.write_cell(eng.daig.entry_name, entry)
    assert eng.daig.entry_state == entry
    want = batch_analyze(cfg, analyze_loops(cfg), INTERVAL, entry_state=entry)
    assert eng.query_loc(cfg.exit) == want.invariants[cfg.exit]
    assert eng.query_loc(cfg.exit).text() == "{x:[5,5], y:[6,6]}"


def test_write_cell_errors():
    cfg = while_cfg()
    eng = Engine(cfg, INTERVAL)
    with pytest.raises(KeyError):
        eng.write_cell(LocN(99), None)
    with pytest.raises(EngineError, match="source cell"):
        eng.write_cell(LocN(cfg.entry), None)  # entry has no incoming computation
    stmt_name = next(n for n, c in eng.daig.refs.items() if c.ty is CellType.STMT)
    with pytest.raises(EngineError, match="statements"):
        eng.write_cell(stmt_name, ivl(x=(0, 0)))
    with pytest.raises(EngineError, match="abstract states"):
        eng.write_cell(LocN(cfg.exit), parse_stmt_text("skip;"))


def test_statement_write_cannot_merge_parallel_edges():
    # An empty-branch if lowers to two parallel edges into one join; writing
    # one edge's statement into the other's cell would make them coincide.
    src = "fn main() { x = 0; if (x < 1) { } y = 1; }"
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL, debug=True)
    eng.query_loc(cfg.exit)
    ((join_loc, (first, second)),) = eng.loops.join_indices.items()
    join_indices = dict(eng.loops.join_indices)
    contents = {n: c.contents for n, c in eng.daig.refs.items()}
    with pytest.raises(EngineError, match="duplicate an existing edge"):
        eng.write_cell(Prod(IdxN(2), Prod(LocN(second.src), LocN(join_loc))), first.stmt)
    assert eng.cfg == cfg
    assert eng.loops.join_indices == join_indices
    assert {n: c.contents for n, c in eng.daig.refs.items()} == contents


def _relabel_cases(seed: int):
    """Fully queried engine on a random program, plus (cell, new statement)
    for every statement cell whose edge has a unique (src, dst) pair."""
    rng = random.Random(seed)
    cfg = parse_program(gen_program_source(rng)).proc("main").cfg
    eng = Engine(cfg, INTERVAL)
    for loc in sorted(cfg.locs):
        eng.query_loc(loc)
    pairs = [(e.src, e.dst) for e in cfg.edges]
    cases = []
    for name, cell in sorted(eng.daig.refs.items(), key=lambda kv: repr(kv[0])):
        if cell.ty is not CellType.STMT or pairs.count(stmt_cell_locs(name)) != 1:
            continue
        new = gen_simple_stmt(rng, ("x0", "x1", "x2", "x3"))
        if new != cell.contents:
            cases.append((name, new))
    return eng, cases


def test_statement_write_matches_relabel_edit():
    kinds = set()
    n_cases = 0
    for seed in range(12):
        base, cases = _relabel_cases(seed)
        for name, new in cases:
            src, dst = stmt_cell_locs(name)
            edge = next(e for e in base.cfg.edges if (e.src, e.dst) == (src, dst))
            if edge in base.loops.back_edges:
                kinds.add("back")
            elif dst in base.loops.join_indices:
                kinds.add("join")
            written, edited = base.snapshot(), base.snapshot()
            written.write_cell(name, new)
            edited.apply_program_edit(RelabelEdge(src, dst, new))
            written.assert_invariants()
            assert written.cfg == edited.cfg
            assert written.loops.join_indices == edited.loops.join_indices
            assert {n: c.contents for n, c in written.daig.refs.items()} == {
                n: c.contents for n, c in edited.daig.refs.items()
            }
            assert computations(written.daig) == computations(edited.daig)
            assert written.metrics.cells_dirtied == edited.metrics.cells_dirtied
            oracle = batch_analyze(written.cfg, analyze_loops(written.cfg), INTERVAL)
            for loc in sorted(written.cfg.locs):
                want = oracle.invariants[loc]
                assert INTERVAL.equal(written.query_loc(loc), want)
                assert INTERVAL.equal(edited.query_loc(loc), want)
            n_cases += 1
    assert kinds == {"back", "join"}
    assert n_cases >= 100


def test_relabel_recomputes_one_transfer_per_downstream_edge():
    src = "fn main() { x = 1; y = x + 1; z = y + 1; }"
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL, enable_memo=False, debug=True)
    eng.query_loc(cfg.exit)
    base = eng.metrics.transfer_evals
    edge = next(e for e in cfg.edges if stmt_text(e.stmt) == "x = 1;")
    eng.apply_program_edit(RelabelEdge(edge.src, edge.dst, parse_stmt_text("x = 2;")))
    eng.query_loc(cfg.exit)
    assert eng.metrics.transfer_evals - base == 3  # x=2, y=x+1, z=y+1
    assert INTERVAL.to_text(eng.query_loc(cfg.exit)) == "{x:[2,2], y:[3,3], z:[4,4]}"


def test_print_insertion_reuses_all_but_two_transfers_and_one_join():
    cfg = append_cfg()
    eng = Engine(cfg, INTERVAL, enable_memo=False, debug=True)
    eng.query_loc(cfg.exit)  # fills the whole graph, including the loop
    t0, j0 = eng.metrics.transfer_evals, eng.metrics.join_evals
    eng.apply_program_edit(InsertStmtAfter(2, parse_stmt_text("print(0);")))
    eng.query_loc(eng.cfg.exit)
    assert eng.metrics.transfer_evals - t0 == 2
    assert eng.metrics.join_evals - j0 == 1


def test_deletion_is_relabel_to_skip():
    src = "fn main() { x = 1; y = 2; }"
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL, debug=True)
    eng.query_loc(cfg.exit)
    edge = next(e for e in cfg.edges if stmt_text(e.stmt) == "y = 2;")
    eng.apply_program_edit(RelabelEdge(edge.src, edge.dst, parse_stmt_text("skip;")))
    assert eng.cfg.locs == cfg.locs
    assert len(eng.cfg.edges) == len(cfg.edges)
    assert INTERVAL.to_text(eng.query_loc(eng.cfg.exit)) == "{x:[1,1]}"


def test_edit_analyzes_loops_once_per_cfg_it_needs(monkeypatch):
    # A relabel keeps every (source, destination) pair, so only the new CFG
    # is analyzed; an insertion also reads the old CFG's loops to decide
    # which outgoing edges move.
    cfg = append_cfg()
    eng = Engine(cfg, INTERVAL, debug=True)
    eng.query_loc(cfg.exit)
    calls = count_loop_analyses(monkeypatch)
    edge = next(e for e in cfg.edges if stmt_text(e.stmt) == "rn = q;")
    eng.apply_program_edit(RelabelEdge(edge.src, edge.dst, parse_stmt_text("rn = 3;")))
    assert len(calls) == 1
    assert calls == [eng.cfg]
    del calls[:]
    relabelled = eng.cfg
    eng.apply_program_edit(InsertStmtAfter(2, parse_stmt_text("print(0);")))
    assert len(calls) == 2
    assert calls == [relabelled, eng.cfg]
    oracle = batch_analyze(eng.cfg, analyze_loops(eng.cfg), INTERVAL)
    for loc in sorted(eng.cfg.locs):
        assert INTERVAL.equal(eng.query_loc(loc), oracle.invariants[loc]), loc


def test_query_loc_dispatch():
    cfg = while_cfg()
    loops = analyze_loops(cfg)
    (head,) = loops.natural_loops
    (body_loc,) = loops.natural_loops[head]
    eng = Engine(cfg, INTERVAL, debug=True)
    assert eng.query_loc(cfg.entry) == INTERVAL.init()
    res = batch_analyze(cfg, loops, INTERVAL)
    assert INTERVAL.equal(eng.query_loc(body_loc), res.invariants[body_loc])
    assert INTERVAL.to_text(eng.query_loc(body_loc)) == "{x:[0,9]}"


def test_monotone_work_within_a_session():
    cfg = append_cfg()
    eng = Engine(cfg, INTERVAL)
    for loc in sorted(cfg.locs):
        eng.query_loc(loc)
    m = eng.metrics
    demands = m.memo_hits + m.memo_misses
    evals = m.transfer_evals + m.join_evals + m.widen_evals
    assert evals == m.memo_misses
    assert demands >= evals
    # re-querying everything does no new work
    before = (m.transfer_evals, m.join_evals, m.widen_evals, m.memo_misses)
    for loc in sorted(cfg.locs):
        eng.query_loc(loc)
    after = (m.transfer_evals, m.join_evals, m.widen_evals, m.memo_misses)
    assert before == after


def test_no_duplicate_evaluations_with_memo():
    rng = random.Random(6)
    src = gen_program_source(rng)
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL)
    seen: set[tuple] = set()
    original = eng.domain

    class CountingDomain:
        def __getattr__(self, item):
            return getattr(original, item)

        def transfer(self, stmt, state):
            key = ("t", stmt_text(stmt), original.digest(state))
            assert key not in seen, f"duplicate evaluation {key}"
            seen.add(key)
            return original.transfer(stmt, state)

    eng.domain = CountingDomain()
    for loc in sorted(cfg.locs):
        eng.query_loc(loc)


def test_preservation_under_random_interleavings():
    rng = random.Random(21)
    src = gen_program_source(rng)
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL, debug=True)  # checks run after every operation
    for _ in range(120):
        if rng.random() < 0.5:
            eng.apply_program_edit(gen_edit(rng, eng.cfg))
        else:
            eng.query_loc(rng.choice(sorted(eng.cfg.locs)))


def test_snapshot_is_independent():
    cfg = while_cfg()
    eng = Engine(cfg, INTERVAL)
    eng.query_loc(cfg.exit)
    snap = eng.snapshot()
    edge = next(e for e in cfg.edges if stmt_text(e.stmt) == "x = 0;")
    eng.apply_program_edit(RelabelEdge(edge.src, edge.dst, parse_stmt_text("x = 5;")))
    assert INTERVAL.to_text(snap.query_loc(cfg.exit)) == "{x:[10,+inf]}"
    assert INTERVAL.to_text(eng.query_loc(cfg.exit)) == "{x:[10,+inf]}"
    assert INTERVAL.to_text(eng.query_loc(eng.loops.back_edge_of(1).dst)) == "{x:[5,+inf]}"


def test_snapshot_shares_no_cell_and_leaves_the_original_alone():
    cfg = while_cfg()
    eng = Engine(cfg, INTERVAL)
    eng.query_loc(cfg.exit)
    edge = next(e for e in cfg.edges if stmt_text(e.stmt) == "x = 0;")
    eng.apply_program_edit(RelabelEdge(edge.src, edge.dst, parse_stmt_text("x = 5;")))
    cells = {n: c.contents for n, c in eng.daig.refs.items()}
    snap = eng.snapshot()
    own = {id(c) for c in eng.daig.refs.values()}
    assert not own & {id(c) for c in snap.daig.refs.values()}
    assert INTERVAL.to_text(snap.query_loc(snap.cfg.exit)) == "{x:[10,+inf]}"
    linked = [s for c in snap.daig.refs.values() if c.srcs is not None for s in c.srcs]
    assert linked and not own & {id(s) for s in linked}
    assert {n: c.contents for n, c in eng.daig.refs.items()} == cells
    assert check_wf(snap.daig) == [] and check_wf(eng.daig) == []


def test_long_session_pickles_without_walking_its_cell_links():
    # Cached source links run the length of the program; a pickle that
    # followed them would recurse once per statement.
    eng = Engine(parse_program(EMPTY_MAIN).proc("main").cfg, INTERVAL)
    inc = parse_stmt_text("y = y + 1;")
    for _ in range(1199):
        eng.apply_program_edit(InsertStmtAfter(eng.cfg.entry, inc))
    eng.apply_program_edit(InsertStmtAfter(eng.cfg.entry, parse_stmt_text("y = 0;")))
    assert INTERVAL.to_text(eng.query_loc(eng.cfg.exit)) == "{y:[1199,1199]}"
    clone = pickle.loads(pickle.dumps(eng))
    assert all(c.srcs is None for c in clone.daig.refs.values())
    oracle = batch_analyze(clone.cfg, analyze_loops(clone.cfg), INTERVAL)
    for loc in (clone.cfg.exit, *sorted(clone.cfg.locs)[::97]):
        assert INTERVAL.equal(clone.query_loc(loc), oracle.invariants[loc])
    assert check_wf(clone.daig) == []


DEEPENING_SRC = """
fn main() {
  i = 0;
  while (i < 10) {
    j = 0;
    while (j < i) { j = j + 1; }
    i = i + 1;
  }
}
"""


@pytest.mark.parametrize("debug", [False, True])
def test_location_resolution_survives_rollbacks_and_copies(debug):
    # An edit inside the inner body rolls both loops back; each engine,
    # copy or not, must then resolve every location through the deepened
    # loops again, with the name table the edit left.
    eng = Engine(parse_program(DEEPENING_SRC).proc("main").cfg, INTERVAL, debug=debug)
    loops = eng.loops
    outer = max(loops.natural_loops, key=lambda h: len(loops.natural_loops[h]))
    (inner,) = set(loops.natural_loops) - {outer}
    inner_fix = Iter(LocN(inner), ((outer, 1),))  # the instance the final outer iterate runs

    def depths(e):
        fixes = ((LocN(outer), outer), (inner_fix, inner))
        return tuple(e.daig.refs[f].comp.srcs[1].count_of(h) for f, h in fixes)

    def assert_matches_batch(e):
        oracle = batch_analyze(e.cfg, analyze_loops(e.cfg), INTERVAL)
        for loc in sorted(e.cfg.locs):
            assert INTERVAL.equal(e.query_loc(loc), oracle.invariants[loc])

    assert_matches_batch(eng)
    assert depths(eng) == (2, 2)
    (body,) = loops.natural_loops[inner]
    eng.apply_program_edit(InsertStmtAfter(body, parse_stmt_text("k = j;")))
    assert depths(eng) == (1, 1)
    for e in (eng, eng.snapshot(), pickle.loads(pickle.dumps(eng))):
        assert_matches_batch(e)
        assert depths(e) == (2, 2)
    for e in (eng.snapshot(), pickle.loads(pickle.dumps(eng))):
        assert_matches_batch(e)


def test_unroll_region_skips_stale_iterates_of_a_rolled_back_inner_loop(monkeypatch):
    src = """
    fn main() {
      i = 0;
      while (i < 3) {
        j = 0;
        while (j < n) { j = j + 1; }
        i = i + 1;
      }
    }
    """
    eng = Engine(parse_program(src).proc("main").cfg, INTERVAL, debug=True)
    loops = eng.loops
    outer = max(loops.natural_loops, key=lambda h: len(loops.natural_loops[h]))
    (inner,) = set(loops.natural_loops) - {outer}
    eng.query_loc(eng.cfg.exit)
    inner_fix = Iter(LocN(inner), ((outer, 0),))
    assert eng.daig.refs[inner_fix].comp.srcs[1].count_of(inner) == 2
    # The inner body now leaves j at 0: after the edit the inner loop
    # converges at depth one, and its depth-two structure stays behind.
    (back,) = [e for e in loops.back_edges if e.dst == inner]
    eng.apply_program_edit(RelabelEdge(back.src, back.dst, parse_stmt_text("j = 0;")))
    it1 = Iter(LocN(inner), ((outer, 0), (inner, 1)))
    it2 = Iter(LocN(inner), ((outer, 0), (inner, 2)))
    stale = {it2, Prod(it1, it2)}
    first, final = eng.daig.refs[LocN(outer)].comp.srcs
    assert (first.count_of(outer), final.count_of(outer)) == (0, 1)
    region = eng.daig.backward_set(final, stop=first)
    assert stale <= eng.daig.forward_set(first) & set(computations(eng.daig))
    assert not stale & region
    assert region == eng.daig.forward_set(first) & eng.daig.backward_set(final)

    regions = []
    backward_set = eng.daig.backward_set

    def recording(n, stop=None):
        out = backward_set(n, stop)
        if stop is not None:
            regions.append(out)
        return out

    monkeypatch.setattr(eng.daig, "backward_set", recording)
    oracle = batch_analyze(eng.cfg, analyze_loops(eng.cfg), INTERVAL)
    for loc in sorted(eng.cfg.locs):
        assert INTERVAL.equal(eng.query_loc(loc), oracle.invariants[loc])
    assert eng.daig.refs[inner_fix].comp.srcs[1].count_of(inner) == 1
    assert regions and not any(stale & r for r in regions)


def test_unroll_region_along_seeded_edit_streams():
    # debug=True checks every unrolling's region against the reachability
    # intersection, besides the graph invariants after every operation.
    unrollings = 0
    for seed in range(16):
        rng = random.Random(700 + seed)
        eng = Engine(parse_program(EMPTY_MAIN).proc("main").cfg, INTERVAL, debug=True)
        for _ in range(120):
            eng.apply_program_edit(gen_edit(rng, eng.cfg))
            eng.query_loc(rng.choice(sorted(eng.cfg.locs)))
        # The final sweep checks the invariants once, not after every query.
        eng.debug = False
        oracle = batch_analyze(eng.cfg, analyze_loops(eng.cfg), INTERVAL)
        for loc in sorted(eng.cfg.locs):
            assert INTERVAL.equal(eng.query_loc(loc), oracle.invariants[loc])
        eng.assert_invariants()
        unrollings += eng.metrics.unrollings
    assert unrollings >= 300


def mixed_edit(rng, cfg, loops):
    """One edit of a stream mixing ``gen_edit`` insertions with relabels of
    existing edges (to ``skip``, to a fresh simple statement, of a loop
    guard, of a back edge); returns the edit's kind and the edit."""
    pairs = Counter((e.src, e.dst) for e in cfg.edges)
    edges = sorted((e for e in cfg.edges if pairs[e.src, e.dst] == 1), key=Edge.sort_key)
    pools = {
        "skip": edges,
        "stmt": edges,
        "guard": [e for e in edges if e.src in loops.natural_loops and e not in loops.back_edges],
        "back": [e for e in edges if e in loops.back_edges],
    }
    kind = rng.choice(("insert", "insert", "skip", "stmt", "guard", "back"))
    if not pools.get(kind):
        return "insert", gen_edit(rng, cfg)
    e = rng.choice(pools[kind])
    if kind == "skip":
        new = Skip()
    elif kind == "guard":
        new = Assume(gen_cond(rng, 1, VAR_POOL[:4]))
    else:
        new = gen_simple_stmt(rng, VAR_POOL[:4])
    return kind, RelabelEdge(e.src, e.dst, new)


@pytest.mark.parametrize("seed", [0, 3, 5])  # seeds whose sessions unroll loops
def test_relabels_mixed_with_insertions_match_batch(seed):
    rng = random.Random(seed)
    eng = Engine(parse_program(gen_program_source(rng)).proc("main").cfg, INTERVAL, debug=True)
    kinds = set()
    for _ in range(40):
        kind, edit = mixed_edit(rng, eng.cfg, eng.loops)
        kinds.add(kind)
        eng.apply_program_edit(edit)
        locs = sorted(eng.cfg.locs)
        for _ in range(3):
            eng.query_loc(rng.choice(locs))
        # The sweep checks the invariants once, not after every query.
        eng.debug = False
        oracle = batch_analyze(eng.cfg, analyze_loops(eng.cfg), INTERVAL)
        for loc in locs:
            assert INTERVAL.equal(eng.query_loc(loc), oracle.invariants[loc])
        eng.assert_invariants()
        eng.debug = True
    assert kinds == {"insert", "skip", "stmt", "guard", "back"}
    assert eng.metrics.unrollings > 0


def test_seeded_session_counters_are_pinned():
    # How cell names are built and how an unrolling finds its region must
    # not change what the engine computes: these counters are exact.
    rng = random.Random(4)
    eng = Engine(parse_program(EMPTY_MAIN).proc("main").cfg, INTERVAL)
    for _ in range(60):
        eng.apply_program_edit(gen_edit(rng, eng.cfg))
        locs = sorted(eng.cfg.locs)
        for _ in range(5):
            eng.query_loc(rng.choice(locs))
    assert eng.metrics.snapshot() == {
        "transfer_evals": 193,
        "join_evals": 17,
        "widen_evals": 14,
        "memo_hits": 840,
        "memo_misses": 224,
        "unrollings": 12,
        "cells_dirtied": 964,
    }
    assert len(eng.daig.refs) == 297



def edit_and_compare(eng, edit):
    """Apply ``edit``; return the state cells that lost the value they held
    before it (emptied, or given another value), and the cells that
    dirtying without a cut-off would have emptied: every filled cell that
    is, or is downstream of, a state cell whose computation the edit
    replaced."""
    refs = eng.daig.refs
    comps = {n: c.comp for n, c in refs.items()}
    filled = {n: c.contents for n, c in refs.items() if c.ty is STATE and c.contents is not None}
    eng.apply_program_edit(edit)
    replaced = {
        n for n, comp in comps.items()
        if comp is not None and comp.fn is not FIX and refs[n].comp != comp
    }
    reach = set(replaced)
    for n in replaced:
        reach |= eng.daig.forward_set(n)
    lost = {n for n, v in filled.items() if refs[n].contents is None or refs[n].contents != v}
    return lost, reach & filled.keys()


def assert_matches_batch(eng):
    want = batch_analyze(eng.cfg, analyze_loops(eng.cfg), INTERVAL).invariants
    for loc in sorted(eng.cfg.locs):
        assert INTERVAL.equal(eng.query_loc(loc), want[loc]), loc


def test_cut_off_after_an_if_with_an_empty_else_matches_batch():
    # Inserting before the ``if`` moves both of its edges: the then branch's
    # first cell, whose value changes, and the join's else input, which lies
    # downstream of the then branch's cells through the join.
    src = "fn main() { x = 0; if (x > 3) { y = x; } z = x + 1; }"
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL, debug=True)
    for loc in sorted(cfg.locs):
        eng.query_loc(loc)
    (branch,) = [loc for loc in cfg.locs if len(cfg.out_edges(loc)) == 2]
    then_loc = next(e.dst for e in cfg.out_edges(branch) if stmt_text(e.stmt) == "assume((x > 3));")
    assert INTERVAL.is_bot(eng.query_loc(then_loc))
    lost, parent = edit_and_compare(eng, InsertStmtAfter(branch, parse_stmt_text("x = 5;")))
    assert lost == parent
    assert eng.query_loc(then_loc) == ivl(x=(5, 5))
    assert_matches_batch(eng)


def test_cut_off_empties_nothing_when_no_value_changes():
    src = "fn main() { x = 1; y = 2; z = x + y; }"
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL, debug=True)
    for loc in sorted(cfg.locs):
        eng.query_loc(loc)
    at = next(e.dst for e in cfg.edges if stmt_text(e.stmt) == "x = 1;")
    lost, parent = edit_and_compare(eng, InsertStmtAfter(at, parse_stmt_text("x = 1;")))
    assert lost == set() and eng.metrics.cells_dirtied == 0
    assert parent  # without the cut-off, the rest of the program is emptied
    assert_matches_batch(eng)

    # A changed value empties what dirtying without the cut-off empties; the
    # touched cell itself keeps its new value.
    (first,) = eng.cfg.out_edges(eng.cfg.entry)
    touched = LocN(first.dst)
    lost, parent = edit_and_compare(eng, InsertStmtAfter(eng.cfg.entry, parse_stmt_text("y = 5;")))
    assert lost == parent and len(lost) > 1 and touched in lost
    assert eng.daig.refs[touched].contents == ivl(x=(1, 1), y=(5, 5))
    assert_matches_batch(eng)


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_cut_off_empties_at_most_what_dirtying_empties(seed):
    # With the memo off the cut-off is off, and an insertion empties exactly
    # the filled cells at or downstream of a replaced computation; with it
    # on, an insertion empties a subset of them.
    rng = random.Random(seed)
    cfg = parse_program(gen_program_source(rng)).proc("main").cfg
    lazy = Engine(cfg, INTERVAL, enable_memo=False)
    eager = Engine(cfg, INTERVAL)
    smaller = 0
    for _ in range(40):
        edit = gen_edit(rng, eager.cfg)
        lost, parent = edit_and_compare(lazy, edit)
        assert lost == parent
        lost, parent = edit_and_compare(eager, edit)
        assert lost <= parent
        smaller += lost < parent
        locs = sorted(eager.cfg.locs)
        for loc in (rng.choice(locs) for _ in range(4)):
            assert INTERVAL.equal(eager.query_loc(loc), lazy.query_loc(loc))
    assert smaller > 0
    eager.assert_invariants()
    assert_matches_batch(eager)


def test_debug_check_runs_once_per_query_loc(monkeypatch):
    src = """fn main() { x = 0; while (x < 2) { y = 0; while (y < 2) {
        z = 0; while (z < 2) { z = z + 1; } y = y + 1; } x = x + 1; } }"""
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL, debug=True)
    loops = eng.loops
    inner = next(loc for loc in cfg.locs if len(loops.enclosing[loc]) == 3)
    head = next(h for h in loops.natural_loops if len(loops.enclosing[h]) == 2)
    checks = []
    check = Engine.assert_invariants
    monkeypatch.setattr(Engine, "assert_invariants", lambda self: (checks.append(self), check(self)))
    for loc in (inner, head, inner):
        del checks[:]
        eng.query_loc(loc)
        assert len(checks) == 1
    assert eng.metrics.unrollings > 0


@pytest.mark.parametrize("seed", [900, 901, 902])
def test_name_table_carries_across_edits(seed):
    # An edit's name table starts with the old table's entries; none of them
    # may differ from the entry a fresh table makes for the new structure.
    rng = random.Random(seed)
    eng = Engine(parse_program(gen_program_source(rng)).proc("main").cfg, INTERVAL)
    kinds = set()
    for _ in range(60):
        old = dict(eng.names)
        kind, edit = mixed_edit(rng, eng.cfg, eng.loops)
        kinds.add(kind)
        eng.apply_program_edit(edit)
        assert old.items() <= eng.names.items()
        fresh = LocNames(eng.loops)
        assert all(fresh[loc] == entry for loc, entry in eng.names.items())
        locs = sorted(eng.cfg.locs)
        for _ in range(3):
            eng.query_loc(rng.choice(locs))
    assert kinds == {"insert", "skip", "stmt", "guard", "back"}
    assert_matches_batch(eng)


def stmt_cell(eng, edge):
    """The name of the statement cell that holds ``edge``'s statement."""
    (name,) = (
        n for n, c in eng.daig.refs.items()
        if c.ty is STMT and c.contents == edge.stmt and stmt_cell_locs(n) == (edge.src, edge.dst)
    )
    return name


@pytest.mark.parametrize("seed", [910, 911, 912])
def test_edits_patch_the_adjacency_a_fresh_cfg_builds(seed):
    # Every edit derives the new program's adjacency from the old one's; it
    # must equal the adjacency that a Cfg rebuilt from the same fields builds.
    # Each edit is made twice: on the Cfg alone, where nothing has analysed
    # the result yet, and through the engine.
    rng = random.Random(seed)
    eng = Engine(parse_program(gen_program_source(rng)).proc("main").cfg, INTERVAL)
    kinds = Counter()
    for _ in range(80):
        cfg, heads = eng.cfg, sorted(eng.loops.natural_loops)
        stmt = gen_simple_stmt(rng, VAR_POOL[:4])
        kind = rng.choice(("exit", "while", "relabel", "write") + ("head",) * bool(heads))
        if kind == "head":
            edit = InsertStmtAfter(rng.choice(heads), stmt)
        elif kind == "exit":
            edit = InsertIf(cfg.exit, gen_cond(rng, 1, VAR_POOL[:4]), (stmt,))
        elif kind == "while":
            loc = rng.choice(sorted(cfg.locs))
            edit = InsertWhile(loc, gen_cond(rng, 1, VAR_POOL[:4]), (stmt,))
        else:
            edit = None
            while not isinstance(edit, RelabelEdge):
                _kind, edit = mixed_edit(rng, cfg, eng.loops)
        if kind == "write":
            (old,) = (e for e in cfg.out_edges(edit.src) if e.dst == edit.dst)
            new, _delta = relabel(cfg, old, edit.new_stmt)
            eng.write_cell(stmt_cell(eng, old), edit.new_stmt)
        else:
            new, _delta = apply_edit(cfg, edit, validate=False)
            eng.apply_program_edit(edit)
        if new is cfg:  # a relabel to the same statement
            continue
        kinds[kind] += 1
        assert "adjacency" in vars(new)  # derived, not built on demand
        assert new.adjacency == Cfg(new.locs, new.edges, new.entry, new.exit).adjacency
        assert eng.cfg == new and eng.cfg.adjacency == new.adjacency
        for _ in range(2):
            eng.query_loc(rng.choice(sorted(new.locs)))
    assert len(kinds) == 5 and min(kinds.values()) >= 5, kinds
    assert_matches_batch(eng)


# Per (seed, size): the counters of ``Metrics.snapshot()`` in field order,
# then the number of cells, of consumer-index entries and of fix-index
# entries after every location of the program was queried once.
COLD_PINS = {
    (0, 20): ((22, 0, 3, 2, 25, 1, 0), (51, 50, 2)),
    (0, 100): ((118, 4, 6, 31, 128, 2, 0), (270, 269, 4)),
    (0, 180): ((214, 6, 11, 59, 231, 2, 0), (498, 497, 13)),
    (1, 20): ((20, 1, 1, 1, 22, 0, 0), (46, 45, 1)),
    (1, 100): ((110, 7, 5, 5, 122, 1, 0), (242, 241, 4)),
    (1, 180): ((230, 12, 20, 45, 262, 6, 0), (538, 535, 16)),
    (2, 20): ((18, 1, 0, 2, 19, 0, 0), (42, 41, 0)),
    (2, 100): ((104, 8, 4, 7, 116, 0, 0), (239, 238, 4)),
    (2, 180): ((193, 14, 5, 17, 212, 0, 0), (442, 441, 8)),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cold_engine_counters_and_graph_sizes_are_pinned(seed):
    # How a fresh graph is built, how a location resolves to its cell and
    # how unrolling names its cells must not change what a cold engine
    # computes or how many cells and index entries it holds.
    rng = random.Random(seed)
    cfg = parse_program(EMPTY_MAIN).proc("main").cfg
    for size in (20, 100, 180):
        while len(cfg.locs) < size:
            cfg, _delta = apply_edit(cfg, gen_edit(rng, cfg))
        loops = analyze_loops(cfg)
        eng = Engine(cfg, INTERVAL, loops=loops)
        order = sorted(cfg.locs)
        rng.shuffle(order)
        want = batch_analyze(cfg, loops, INTERVAL).invariants
        for loc in order:
            assert INTERVAL.equal(eng.query_loc(loc), want[loc])
        d = eng.daig
        counters, sizes = COLD_PINS[seed, size]
        assert eng.metrics.snapshot() == dict(zip(eng.metrics.COUNTER_FIELDS, counters))
        assert (len(d.refs), len(d.consumer_index), len(d.fix_by_final)) == sizes


NESTED_SRC = "fn main() { x = 0; while (x < 9) { y = 0; while (y < x) { y = y + 1; } x = x + 1; } }"


def built(d) -> bool:
    """Whether the graph ``d`` has built its consumer and fix indexes."""
    return "indexes" in vars(d)


def test_a_fresh_graph_and_a_query_only_engine_build_no_index():
    cfg = parse_program(NESTED_SRC).proc("main").cfg
    loops = analyze_loops(cfg)
    assert not built(init_daig(cfg, LocNames(loops), INTERVAL))
    eng = Engine(cfg, INTERVAL, loops=loops)
    for loc in sorted(cfg.locs):
        eng.query_loc(loc)
    assert eng.metrics.unrollings > 0
    assert not built(eng.daig)
    # A debug engine's first check reads them, and it keeps them after that.
    assert built(Engine(cfg, INTERVAL, loops=loops, debug=True).daig)


def nonempty(index: dict) -> dict:
    return {n: users for n, users in index.items() if users}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_indexes_built_on_first_use_equal_ones_kept_from_the_build(seed):
    """A lazily indexed engine and a twin that built its indexes at
    construction and kept them in step since hold equal indexes after every
    step of a stream of insertions, relabels, cell writes and queries."""
    rng = random.Random(seed)
    cfg = parse_program(NESTED_SRC).proc("main").cfg
    lazy, twin = Engine(cfg, INTERVAL), Engine(cfg, INTERVAL)
    twin.daig.indexes
    was_built = []
    for _ in range(60):
        was_built.append(built(lazy.daig))
        what = rng.random()
        if what < 0.5:
            edit = mixed_edit(rng, lazy.cfg, lazy.loops)[1]
            for eng in (lazy, twin):
                eng.apply_program_edit(edit)
        elif what < 0.6:
            name = rng.choice(sorted(n for n, c in lazy.daig.refs.items() if c.comp is not None))
            for eng in (lazy, twin):
                eng.write_cell(name, None)
        else:
            loc = rng.choice(sorted(lazy.cfg.locs))
            for eng in (lazy, twin):
                eng.query_loc(loc)
        # Comparing reads a copy's indexes while the engine's are not built.
        d = lazy.daig if built(lazy.daig) else lazy.daig.copy()
        assert built(lazy.daig) is (d is lazy.daig)
        assert nonempty(d.consumer_index) == nonempty(twin.daig.consumer_index)
        assert d.fix_by_final == twin.daig.fix_by_final
        assert check_wf(d) == []
        assert check_wf(twin.daig) == []
    assert not was_built[0] and was_built[-1]
    assert lazy.metrics.snapshot() == twin.metrics.snapshot()
    assert lazy.metrics.unrollings > 0


def test_copies_and_pickles_carry_the_indexes_only_if_built():
    cfg = parse_program(NESTED_SRC).proc("main").cfg
    eng = Engine(cfg, INTERVAL)
    eng.query_loc(cfg.exit)
    for d in (eng.daig.copy(), eng.snapshot().daig, pickle.loads(pickle.dumps(eng)).daig):
        assert not built(d)
    assert not built(eng.daig)

    users, fixes = eng.daig.indexes
    for d in (eng.daig.copy(), eng.snapshot().daig, pickle.loads(pickle.dumps(eng)).daig):
        assert built(d)
        assert d.consumer_index == users and d.fix_by_final == fixes
        assert d.consumer_index is not users and d.fix_by_final is not fixes
        assert all(d.consumer_index[n] is not users[n] for n in users)
    # A copy's indexes and the original's change independently.
    copy = eng.daig.copy()
    final, fix = next(iter(fixes.items()))
    copy.consumer_index[final].discard(fix)
    del copy.fix_by_final[final]
    assert fix in users[final] and fixes[final] == fix
    assert check_wf(eng.daig) == []
    kept = ({n: set(u) for n, u in copy.consumer_index.items()}, dict(copy.fix_by_final))
    eng.apply_program_edit(InsertStmtAfter(cfg.entry, parse_stmt_text("y = 2;")))
    assert check_wf(eng.daig) == []
    assert eng.daig.consumer_index != kept[0]
    assert (copy.consumer_index, copy.fix_by_final) == kept


@pytest.mark.parametrize("seed", [0, 7, 9])  # seeds whose sessions unroll loops
def test_a_session_leaves_no_reference_cycles(seed):
    """Graphs, engines and batch results are freed by reference counting
    alone: after a whole session with the cyclic collector off, it finds
    nothing to collect."""
    rng = random.Random(seed)
    with no_reference_cycles():
        cfg = parse_program(gen_program_source(rng, loop_budget=4)).proc("main").cfg
        eng = Engine(cfg, INTERVAL)
        for loc in sorted(eng.cfg.locs):
            eng.query_loc(loc)
        for _ in range(20):
            eng.apply_program_edit(gen_edit(rng, eng.cfg))
            locs = sorted(eng.cfg.locs)
            for _ in range(3):
                eng.query_loc(rng.choice(locs))
        result = batch_analyze(eng.cfg, analyze_loops(eng.cfg), INTERVAL)
        assert result.invariants[eng.cfg.exit] == eng.query_loc(eng.cfg.exit)
        assert eng.metrics.unrollings > 0
        del cfg, eng, result


CALL_SRC = "fn main() { x = 1; while (x < 5) { x = x + 1; } }"


@pytest.mark.parametrize(
    "kind",
    ["insert-after", "insert-if", "insert-while", "relabel", "write-cell"],
)
def test_standalone_engine_rejects_inserting_a_call_before_any_state_changes(kind):
    cfg = parse_program(CALL_SRC).proc("main").cfg
    eng = Engine(cfg, INTERVAL, debug=True)
    eng.query_loc(cfg.exit)
    call = parse_stmt_text("x = f(1);")
    skip = parse_stmt_text("skip;")
    edge = next(e for e in cfg.edges if e.src == cfg.entry)
    stmt_cell = next(
        n for n, c in eng.daig.refs.items()
        if c.ty is CellType.STMT and stmt_cell_locs(n) == (edge.src, edge.dst)
    )
    cells = {n: c.contents for n, c in eng.daig.refs.items()}
    metrics = eng.metrics.snapshot()
    with pytest.raises(EngineError, match="cannot insert call statement 'x = f\\(1\\);'"):
        if kind == "insert-after":
            eng.apply_program_edit(InsertStmtAfter(cfg.entry, call))
        elif kind == "insert-if":
            eng.apply_program_edit(InsertIf(cfg.entry, parse_expr_text("x > 0"), (skip,), (call,)))
        elif kind == "insert-while":
            eng.apply_program_edit(InsertWhile(cfg.entry, parse_expr_text("x > 9"), (call,)))
        elif kind == "relabel":
            eng.apply_program_edit(RelabelEdge(edge.src, edge.dst, call))
        else:
            eng.write_cell(stmt_cell, call)
    assert eng.cfg is cfg
    assert {n: c.contents for n, c in eng.daig.refs.items()} == cells
    assert eng.metrics.snapshot() == metrics
    # The engine stays usable: a call-free edit still gives the batch answers.
    eng.apply_program_edit(InsertStmtAfter(cfg.entry, parse_stmt_text("y = 2;")))
    loops = analyze_loops(eng.cfg)
    want = batch_analyze(eng.cfg, loops, INTERVAL).invariants
    assert all(eng.query_loc(loc) == want[loc] for loc in sorted(eng.cfg.locs))
