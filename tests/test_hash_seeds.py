"""Pickles cross processes whose string hashes differ (``PYTHONHASHSEED``),
and outputs do not depend on hashes or memory addresses.

Syntax nodes and states keep their hash in a slot, and contexts are tuples
that hash afresh.  Pickling rebuilds them through their constructors, so an
object loaded in another process hashes like a fresh equal one, and an
engine loaded there still hits its memo.  Cell names are tuples of locations and counts, whose hashes no
seed changes; a session gives the same graph, cell order and counters in
every process.
"""

import hashlib
import pickle
import random

from daig.batch import batch_analyze
from daig.domains import INTERVAL, ConstState, SignState
from daig.engine import Engine
from daig.graph import to_dot
from daig.interproc import Context
from daig.lang.loops import analyze_loops
from daig.lang.parser import parse_program
from daig.workload import EMPTY_MAIN, WorkloadSpec, gen_edit, gen_program_source

from helpers import ivl, run_under_hash_seed


def hashable_samples() -> list:
    """Statements of a generated program, plus states and contexts."""
    cfg = parse_program(gen_program_source(random.Random(3))).proc("main").cfg
    stmts = sorted({e.stmt for e in cfg.edges}, key=repr)
    assert len(stmts) >= 5
    return stmts + [
        ivl(x=(0, 9), y=(None, 3)),
        ivl(),
        INTERVAL.bottom(),
        SignState({"x": "pos", "y": "neg"}),
        ConstState({"x": 4}),
        ConstState(bottom=True),
        Context((("main", 3), ("f", 7))),
        Context(),
    ]


_DUMP = """
import pickle, sys
from test_hash_seeds import hashable_samples

samples = hashable_samples()
table = {value: i for i, value in enumerate(samples)}
with open(sys.argv[1], "wb") as f:
    pickle.dump((samples, table), f)
"""

_LOAD = """
import pickle, sys
from test_hash_seeds import hashable_samples

with open(sys.argv[1], "rb") as f:
    loaded, table = pickle.load(f)
for i, (old, fresh) in enumerate(zip(loaded, hashable_samples(), strict=True)):
    print(i, old == fresh, hash(old) == hash(fresh), table.get(fresh))
"""


def test_pickled_values_hash_like_fresh_ones_under_another_seed(tmp_path):
    path = tmp_path / "values.pickle"
    run_under_hash_seed("1", _DUMP, path)
    lines = run_under_hash_seed("2", _LOAD, path).splitlines()
    assert lines == [f"{i} True True {i}" for i in range(len(hashable_samples()))]


def warm_engine() -> Engine:
    rng = random.Random(0)
    eng = Engine(parse_program(gen_program_source(rng)).proc("main").cfg, INTERVAL)
    for _ in range(30):
        eng.apply_program_edit(gen_edit(rng, eng.cfg))
        eng.query_loc(rng.choice(sorted(eng.cfg.locs)))
    assert eng.metrics.unrollings > 0 and eng.memo
    return eng


def continue_session(eng: Engine) -> list[str]:
    """One edit and five queries; each answer is checked against the batch
    oracle, and the engine's counters close the report."""
    rng = random.Random(11)
    eng.apply_program_edit(gen_edit(rng, eng.cfg))
    oracle = batch_analyze(eng.cfg, analyze_loops(eng.cfg), INTERVAL)
    out = []
    for _ in range(5):
        loc = rng.choice(sorted(eng.cfg.locs))
        value = eng.query_loc(loc)
        out.append(f"l{loc} {value.text()} {INTERVAL.equal(value, oracle.invariants[loc])}")
    out.append(str(eng.metrics.snapshot()))
    return out


_WARM = """
import pickle, sys
from test_hash_seeds import continue_session, warm_engine

eng = warm_engine()
with open(sys.argv[1], "wb") as f:
    pickle.dump(eng, f)
print("\\n".join(continue_session(eng)))
"""

_RESUME = """
import pickle, sys
from test_hash_seeds import continue_session

with open(sys.argv[1], "rb") as f:
    eng = pickle.load(f)
print("\\n".join(continue_session(eng)))
"""


def test_engine_pickled_under_one_seed_continues_under_another(tmp_path):
    path = tmp_path / "engine.pickle"
    in_process = run_under_hash_seed("1", _WARM, path).splitlines()
    resumed = run_under_hash_seed("2", _RESUME, path).splitlines()
    assert len(in_process) == 6
    assert all(line.endswith(" True") for line in in_process[:5])
    # Equal counters: the engine loaded under seed 2 hit its memo as often
    # as the original did, and as one loaded in this process does.
    assert resumed == in_process
    assert continue_session(pickle.loads(path.read_bytes())) == in_process


def nested_loop_session() -> list[str]:
    """60 edits of a growing program, each followed by 5 queries: digests of
    the graph's DOT text and of its cell order, then the counters."""
    spec = WorkloadSpec(seed=0, edit_count=60, p_stmt=0.6, p_if=0.15, p_while=0.25)
    rng = random.Random(5)
    eng = Engine(parse_program(EMPTY_MAIN).proc("main").cfg, INTERVAL)
    for _ in range(60):
        eng.apply_program_edit(gen_edit(rng, eng.cfg, spec))
        locs = sorted(eng.cfg.locs)
        for _ in range(5):
            eng.query_loc(rng.choice(locs))
    assert max(len(heads) for heads in eng.loops.enclosing.values()) >= 2
    assert eng.metrics.unrollings > 0
    return [
        hashlib.sha256(to_dot(eng.daig, INTERVAL).encode()).hexdigest(),
        hashlib.sha256("\n".join(map(repr, eng.daig.refs)).encode()).hexdigest(),
        str(eng.metrics.snapshot()),
    ]


_SESSION = """
from test_hash_seeds import nested_loop_session

print("\\n".join(nested_loop_session()))
"""


def test_a_session_gives_the_same_graph_and_counters_in_every_process():
    first = run_under_hash_seed("1", _SESSION).splitlines()
    assert len(first) == 3
    assert run_under_hash_seed("2", _SESSION).splitlines() == first
    assert nested_loop_session() == first


_BAD_ENDPOINTS = """
from daig.lang.cfg import Cfg, CfgError, Edge
from daig.lang.loops import analyze_loops
from daig.lang.syntax import Skip

edges = {Edge(0, Skip(), 1)} | {Edge(1, Skip(), dst) for dst in range(50, 58)}
try:
    analyze_loops(Cfg(frozenset({0, 1}), frozenset(edges), 0, 1))
except CfgError as exc:
    print(exc)
"""


def test_the_endpoint_error_names_the_least_bad_edge_under_every_seed():
    want = "edge endpoint missing from locs: Edge(src=1, stmt=Skip(), dst=50)\n"
    assert run_under_hash_seed("1", _BAD_ENDPOINTS) == want
    assert run_under_hash_seed("3", _BAD_ENDPOINTS) == want


_BAD_CALLS = """
from daig.lang.cfg import CfgError
from daig.lang.parser import parse_program

try:
    parse_program("fn main() { a = p(1); b = q(2); c = r(3); d = s(4); }")
except CfgError as exc:
    print(exc)
"""


def test_the_first_bad_call_is_reported_under_every_seed():
    want = "call to unknown procedure 'p' in 'main'\n"
    for seed in ("0", "1", "2", "3"):
        assert run_under_hash_seed(seed, _BAD_CALLS) == want
