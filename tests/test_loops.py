import dataclasses
import pickle
import random
from collections import Counter

import pytest

from daig.lang.cfg import Cfg, CfgError, Edge
from daig.lang.edits import apply_edit
from daig.lang.loops import IrreducibleError, analyze_loops
from daig.lang.parser import parse_program
from daig.lang.syntax import SKIP, Assign, Binop, IntLit

from helpers import (
    APPEND_SRC,
    brute_force_dominators,
    brute_force_idom,
    brute_force_natural_loops,
    reference_loop_info,
    run_under_hash_seed,
)
from daig.workload import gen_edit, gen_program_source


def diamond() -> Cfg:
    s = Assign("x", IntLit(1))
    edges = {Edge(0, s, 1), Edge(0, SKIP, 2), Edge(1, SKIP, 3), Edge(2, s, 3)}
    return Cfg(frozenset({0, 1, 2, 3}), frozenset(edges), entry=0, exit=3)


def test_acyclic_diamond():
    loops = analyze_loops(diamond())
    assert not loops.back_edges
    assert loops.fwd_edges == diamond().edges
    assert list(loops.join_indices) == [3]
    assert len(loops.join_indices[3]) == 2
    # ascending source id: the edge from l1 gets index 1
    assert [e.src for e in loops.join_indices[3]] == [1, 2]


def test_append_loop_structure():
    cfg = parse_program(APPEND_SRC).proc("main").cfg
    loops = analyze_loops(cfg)
    (back,) = loops.back_edges
    assert loops.natural_loops[back.dst] >= {back.src}
    assert back.dst not in loops.natural_loops[back.dst]


def test_two_sequential_loops_are_disjoint():
    src = """
    fn main() {
      i = 0;
      while (i < 3) { i = i + 1; }
      j = 0;
      while (j < 4) { j = j + 1; }
    }
    """
    cfg = parse_program(src).proc("main").cfg
    loops = analyze_loops(cfg)
    assert len(loops.natural_loops) == 2
    bodies = list(loops.natural_loops.values())
    assert not (bodies[0] & bodies[1])
    # agree with the definition-level loop finder
    assert {h: set(b) for h, b in loops.natural_loops.items()} == brute_force_natural_loops(cfg)


def test_dominators_match_brute_force_on_random_programs():
    rng = random.Random(31)
    for _ in range(25):
        cfg = parse_program(gen_program_source(rng)).proc("main").cfg
        loops = analyze_loops(cfg)
        doms = {l: set(loops.dominators_of(l)) for l in cfg.locs}
        assert doms == brute_force_dominators(cfg)
        assert {h: set(b) for h, b in loops.natural_loops.items()} == brute_force_natural_loops(cfg)


def test_purity_and_determinism():
    cfg = parse_program(APPEND_SRC).proc("main").cfg
    a = analyze_loops(cfg)
    b = analyze_loops(cfg)
    assert a.fwd_edges == b.fwd_edges
    assert a.back_edges == b.back_edges
    assert a.natural_loops == b.natural_loops
    assert a.join_indices == b.join_indices
    assert a.idom == b.idom


def irreducible_cfg() -> Cfg:
    # Two entries into a cycle; neither cycle node dominates the other.
    s = SKIP
    edges = {Edge(0, s, 1), Edge(0, s, 2), Edge(1, s, 2), Edge(2, s, 1), Edge(1, s, 3)}
    return Cfg(frozenset({0, 1, 2, 3}), frozenset(edges), entry=0, exit=3)


def unreachable_cfg() -> Cfg:
    edges = {Edge(0, SKIP, 1)}
    return Cfg(frozenset({0, 1, 9}), frozenset(edges), entry=0, exit=1)


def double_back_edge_cfg() -> Cfg:
    s1 = Assign("x", IntLit(1))
    edges = {
        Edge(0, SKIP, 1),
        Edge(1, SKIP, 2),
        Edge(2, s1, 1),
        Edge(2, SKIP, 1),  # second back edge into l1
        Edge(1, s1, 3),
    }
    return Cfg(frozenset({0, 1, 2, 3}), frozenset(edges), entry=0, exit=3)


def test_irreducible_graph_reports_offending_edge():
    with pytest.raises(IrreducibleError) as exc:
        analyze_loops(irreducible_cfg())
    bad = exc.value.edge
    assert {bad.src, bad.dst} <= {1, 2}


def test_unreachable_location_rejected():
    with pytest.raises(CfgError, match="unreachable"):
        analyze_loops(unreachable_cfg())


def test_double_back_edge_rejected():
    with pytest.raises(CfgError, match="more than one"):
        analyze_loops(double_back_edge_cfg())


def test_enclosing_heads_order_is_outermost_first():
    src = """
    fn main() {
      i = 0;
      while (i < 3) {
        j = 0;
        while (j < 3) { j = j + 1; }
        i = i + 1;
      }
    }
    """
    cfg = parse_program(src).proc("main").cfg
    loops = analyze_loops(cfg)
    heads = sorted(loops.natural_loops, key=lambda h: len(loops.natural_loops[h]))
    inner, outer = heads[0], heads[-1]
    assert inner in loops.natural_loops[outer]
    for loc in loops.natural_loops[inner]:
        assert loops.enclosing[loc] == (outer, inner)


def check_against_definitions(cfg: Cfg) -> None:
    loops = analyze_loops(cfg)
    doms = brute_force_dominators(cfg)
    back = {e for e in cfg.edges if e.dst in doms[e.src]}
    assert loops.back_edges == back
    assert loops.fwd_edges == cfg.edges - back
    assert loops.idom == brute_force_idom(cfg)
    bodies = brute_force_natural_loops(cfg)
    assert {h: set(b) for h, b in loops.natural_loops.items()} == bodies
    for l in cfg.locs:
        heads = sorted((h for h, b in bodies.items() if l in b), key=lambda h: (-len(bodies[h]), h))
        assert loops.enclosing[l] == tuple(heads), l
        incoming = sorted((e for e in cfg.edges - back if e.dst == l), key=Edge.sort_key)
        assert loops.fwd_in[l] == tuple(incoming), l
        if len(incoming) >= 2:
            assert loops.join_indices[l] == loops.fwd_in[l], l
        else:
            assert l not in loops.join_indices, l


def test_loop_structure_matches_definitions_along_edit_streams():
    for seed in range(12):
        rng = random.Random(1000 + seed)
        cfg = parse_program(gen_program_source(rng)).proc("main").cfg
        for step in range(40):
            if step % 5 == 0:
                check_against_definitions(cfg)
            cfg, _delta = apply_edit(cfg, gen_edit(rng, cfg))
        check_against_definitions(cfg)


@pytest.mark.parametrize(
    "cfg, message",
    [
        (Cfg(frozenset({0, 1}), frozenset({Edge(0, SKIP, 1)}), entry=5, exit=1),
         "entry l5 not a member of locs"),
        (Cfg(frozenset({0, 1}), frozenset({Edge(0, SKIP, 1)}), entry=0, exit=7),
         "exit l7 not a member of locs"),
        (Cfg(frozenset({0, 1}), frozenset({Edge(0, SKIP, 1), Edge(1, SKIP, 4)}), entry=0, exit=1),
         "edge endpoint missing from locs: Edge(src=1, stmt=Skip(), dst=4)"),
    ],
    ids=["entry", "exit", "edge-endpoint"],
)
def test_members_of_locs_are_checked_first(cfg, message):
    with pytest.raises(CfgError) as exc:
        analyze_loops(cfg)
    assert type(exc.value) is CfgError
    assert str(exc.value) == message


_STMTS = (
    SKIP,
    Assign("x", IntLit(1)),
    # print alike, so edges labelled with them tie on Edge.sort_key
    Assign("x", IntLit(-1)),
    Assign("x", Binop("-", IntLit(0), IntLit(1))),
)


def random_digraph(rng: random.Random) -> Cfg:
    """Up to eight locations with sparse ids.  Each non-entry location gets an
    edge from the entry or a location placed before it, with probability
    0.95, so most graphs are reachable; random extra edges then add
    self-loops, parallel edges, double back edges and irreducible cycles."""
    locs = rng.sample(range(12), rng.randint(1, 8))
    entry = locs[0]
    edges = set()
    for i in range(1, len(locs)):
        if rng.random() < 0.95:
            edges.add(Edge(rng.choice(locs[:i]), rng.choice(_STMTS), locs[i]))
    for _ in range(rng.randint(0, 2 * len(locs))):
        edges.add(Edge(rng.choice(locs), rng.choice(_STMTS), rng.choice(locs)))
    return Cfg(frozenset(locs), frozenset(edges), entry, rng.choice(locs))


def outcome(analyze, cfg: Cfg):
    """``analyze(cfg)`` as its LoopInfo fields, every dict as its item list so
    that key order counts, or as the type and message of its error."""
    try:
        info = analyze(cfg)
    except CfgError as exc:
        return type(exc), str(exc)
    return [
        list(v.items()) if isinstance(v, dict) else v
        for v in (getattr(info, f.name) for f in dataclasses.fields(info))
    ]


def test_random_digraphs_match_the_reference():
    rng = random.Random(2001)
    kinds = Counter()
    for _ in range(3000):
        cfg = random_digraph(rng)
        want = outcome(reference_loop_info, cfg)
        assert outcome(analyze_loops, cfg) == want, cfg
        if isinstance(want, list):
            kinds["reducible"] += 1
        else:
            kinds.update(k for k in ("irreducible", "unreachable", "more than one") if k in want[1])
    assert len(kinds) == 4 and min(kinds.values()) >= 100, kinds


def test_edges_that_print_alike_hash_alike_but_stay_distinct():
    a = Edge(0, Assign("x", IntLit(-1)), 1)
    b = Edge(0, Assign("x", Binop("-", IntLit(0), IntLit(1))), 1)
    assert a.text == b.text
    assert hash(a) == hash(b)
    assert a != b
    both = frozenset({a, b})
    assert len(both) == 2 and a in both and b in both
    assert both - {a} == {b}


# Run in a fresh interpreter: loop structure of a pickled Cfg, then the
# messages of the three structural errors.
_REPORT = """
import pickle, sys
from daig.lang.loops import analyze_loops
from test_loops import double_back_edge_cfg, irreducible_cfg, unreachable_cfg

with open(sys.argv[1], "rb") as f:
    loops = analyze_loops(pickle.load(f))
print([(l, [e.sort_key() for e in es]) for l, es in loops.join_indices.items()])
print([(h, sorted(b)) for h, b in loops.natural_loops.items()])
for make in (irreducible_cfg, unreachable_cfg, double_back_edge_cfg):
    try:
        analyze_loops(make())
    except ValueError as exc:
        print(type(exc).__name__, exc)
"""


def test_loop_structure_and_errors_do_not_depend_on_string_hashing(tmp_path):
    rng = random.Random(7)
    cfg = parse_program(gen_program_source(rng)).proc("main").cfg
    for _ in range(30):
        cfg, _delta = apply_edit(cfg, gen_edit(rng, cfg))
    loops = analyze_loops(cfg)
    assert len(loops.join_indices) >= 2 and loops.natural_loops
    path = tmp_path / "cfg.pickle"
    path.write_bytes(pickle.dumps(cfg))
    outputs = [run_under_hash_seed(hash_seed, _REPORT, path) for hash_seed in ("1", "2")]
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines() == [
        str([(l, [e.sort_key() for e in es]) for l, es in loops.join_indices.items()]),
        str([(h, sorted(b)) for h, b in loops.natural_loops.items()]),
        "IrreducibleError irreducible control flow: retreating edge l2 -> l1 (skip;)",
        "CfgError l9 is unreachable from entry",
        "CfgError l1 has more than one incoming back edge",
    ]
