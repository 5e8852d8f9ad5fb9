import random
import weakref

from daig.batch import batch_analyze
from daig.domains import INTERVAL, SIGN, ConcreteState, collecting_bounded
from daig.lang.loops import analyze_loops
from daig.lang.parser import parse_program
from daig.workload import gen_program_source

from helpers import WHILE_SRC, gen_sound_program, ivl, no_reference_cycles, while_cfg


def analyze(src, domain=INTERVAL, mode="eq"):
    prog = parse_program(src)
    cfg = prog.proc("main").cfg
    loops = analyze_loops(cfg)
    return cfg, loops, batch_analyze(cfg, loops, domain, mode)


def test_straight_line():
    cfg, _loops, res = analyze("fn main() { x = 1; y = x + 1; }")
    assert res.invariants[cfg.exit] == ivl(x=(1, 1), y=(2, 2))


def test_while_example():
    cfg, loops, res = analyze(WHILE_SRC)
    (head,) = loops.natural_loops
    assert INTERVAL.to_text(res.invariants[head]) == "{x:[0,+inf]}"
    assert INTERVAL.to_text(res.invariants[cfg.exit]) == "{x:[10,+inf]}"
    assert res.episodes[(head, ())] == 2  # two widening applications


def test_diamond_join():
    src = "fn main() { if (u < 0) { x = 0; } else { x = 5; } }"
    cfg, _loops, res = analyze(src)
    assert res.invariants[cfg.exit].get("x") == (0, 5)


def test_idempotence_at_fixed_point():
    rng = random.Random(13)
    for _ in range(20):
        src = gen_program_source(rng)
        cfg, loops, res = analyze(src)
        inv = res.invariants
        for e in loops.fwd_edges:
            post = INTERVAL.transfer(e.stmt, inv[e.src])
            indexed = loops.join_indices.get(e.dst)
            if indexed is None:
                if e.src in loops.natural_loops and e.dst not in loops.natural_loops[e.src]:
                    post = INTERVAL.transfer(e.stmt, inv[e.src])
                assert INTERVAL.leq(post, inv[e.dst]), (src, e)
            else:
                assert INTERVAL.leq(post, inv[e.dst])
        for e in loops.back_edges:
            post = INTERVAL.transfer(e.stmt, inv[e.src])
            widened = INTERVAL.widen(inv[e.dst], post)
            assert INTERVAL.equal(widened, inv[e.dst]), (src, e)


def test_determinism():
    rng = random.Random(77)
    src = gen_program_source(rng)
    _c1, _l1, a = analyze(src)
    _c2, _l2, b = analyze(src)
    assert {l: INTERVAL.to_text(v) for l, v in a.invariants.items()} == {
        l: INTERVAL.to_text(v) for l, v in b.invariants.items()
    }
    assert a.episodes == b.episodes
    assert (a.transfer_evals, a.join_evals, a.widen_evals) == (
        b.transfer_evals,
        b.join_evals,
        b.widen_evals,
    )


def test_soundness_at_small_scope():
    rng = random.Random(40)
    for _ in range(10):
        src = gen_sound_program(rng, ("p",))
        prog = parse_program(src)
        cfg = prog.proc("main").cfg
        loops = analyze_loops(cfg)
        res = batch_analyze(cfg, loops, INTERVAL)
        witnessed = collecting_bounded(
            prog, [ConcreteState({"p": v}) for v in range(-2, 3)], 2000
        )
        for loc, states in witnessed.items():
            for sigma in states:
                assert INTERVAL.models(sigma, res.invariants[loc]), (src, loc, sigma)


def test_modes_agree_for_interval_and_sign():
    rng = random.Random(55)
    for _ in range(10):
        src = gen_program_source(rng)
        for dom in (INTERVAL, SIGN):
            _c, _l, eq = analyze(src, dom, "eq")
            _c, _l, leq = analyze(src, dom, "leq")
            assert {l: dom.to_text(v) for l, v in eq.invariants.items()} == {
                l: dom.to_text(v) for l, v in leq.invariants.items()
            }


def test_result_is_freed_by_reference_counting():
    """No reference cycle keeps a result, or the states it holds, alive
    until the cyclic garbage collector runs."""
    with no_reference_cycles():
        cfg = while_cfg()
        res = batch_analyze(cfg, analyze_loops(cfg), INTERVAL)
        alive = weakref.ref(res)
        del res
        assert alive() is None
