"""Smoke test of the benchmark itself: every workload at a tiny size, with
the oracle check, untraced and traced.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402
from perfbench.harness import Round, install_deadline_handler  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

TINY = {
    "edit-session": dict(sessions=2, warm_cycles=10, episode_cycles=3),
    "cold-start": dict(streams=2, sizes=(5, 10)),
    "interproc-session": dict(sessions=1, warm_cycles=3, round_cycles=2),
}


@pytest.fixture(scope="module")
def spec():
    return run._load_spec()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_and_agrees_with_oracle(name, trace, spec):
    listed = name in {w["name"] for w in spec["workloads"]}
    result = run.run_workload(name, 0, 0, trace, listed, spec, TINY[name])
    assert result["correct"]
    assert result["attempted"] > 0
    if name != "interproc-session":
        assert result["failed"] == 0
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in wanted} <= set(result["metrics"])


def test_traced_edit_session_counts_loop_analyses_per_edit(spec):
    from perfbench.workloads import EditSession

    workload = EditSession(1, **TINY["edit-session"])
    rounds, per_op = run.measure(workload, 0, trace=True)
    layer = run.per_layer(rounds)
    edits = len(per_op.times["edit"])
    # One on the old CFG inside apply_edit, one on the new CFG in the engine:
    # both lookup sites must be wrapped for the count to come out exact.
    assert layer["lang.analyze_loops_calls"][0] == 2 * edits
    assert layer["engine.transfer_evals"][0] == rounds[0].layer["engine.transfer_evals"]
    from daig.engine import Engine

    assert not hasattr(Engine.query_loc, "__wrapped__")


def test_self_time_excludes_children():
    tracer = Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        child()
        time.sleep(0.01)

    child = tracer.wrap("child", child)
    parent = tracer.wrap("parent", parent)
    tracer.active = True
    parent()
    tracer.active = False
    spans = tracer.fold()
    assert spans["child"][1] == spans["parent"][1] == 1
    assert 0.015 < spans["child"][0] / 1e9 < 0.2
    assert 0.005 < spans["parent"][0] / 1e9 < spans["child"][0] / 1e9


def test_deadline_fails_a_runaway_operation():
    install_deadline_handler()
    rnd = Round(deadline_s=0.05)

    def runaway():
        while True:
            pass

    value, secs = rnd.call("query", "k", runaway)
    assert value is None and secs is None
    assert rnd.failed == 1 and rnd.attempted == 1
    assert rnd.first_failure.startswith("query k: OpTimeout")


def test_relative_time_is_bracketed_by_kernel_times():
    rnd = Round(deadline_s=1.0)
    rnd.calibrate()
    rnd.record("cycle", "k", 0.01)
    assert rnd.rel["cycle"] == {}
    rnd.calibrate()
    before, after = rnd.kernels
    assert rnd.rel["cycle"]["k"] == 0.01 / ((before + after) / 2)
