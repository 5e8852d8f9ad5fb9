import random

import pytest

from daig.lang.edits import InsertIf, InsertStmtAfter, InsertWhile, apply_edit
from daig.lang.loops import analyze_loops
from daig.lang.parser import parse_program
from daig.workload import (
    CONFIGS,
    EMPTY_MAIN,
    ConfigSummary,
    LatencyRecord,
    WorkloadSpec,
    gen_edit,
    nearest_rank,
    render_summary,
    run_config,
    summarize,
)


def test_edit_streams_are_deterministic():
    def stream(seed):
        rng = random.Random(seed)
        cfg = parse_program(EMPTY_MAIN).proc("main").cfg
        out = []
        for _ in range(40):
            edit = gen_edit(rng, cfg)
            cfg, _ = apply_edit(cfg, edit)
            out.append(edit)
        return out

    assert stream(5) == stream(5)
    assert stream(5) != stream(6)


def test_edit_kind_frequencies():
    rng = random.Random(1)
    cfg = parse_program(EMPTY_MAIN).proc("main").cfg
    counts = {InsertStmtAfter: 0, InsertIf: 0, InsertWhile: 0}
    n = 10_000
    for _ in range(n):
        counts[type(gen_edit(rng, cfg))] += 1
    assert abs(counts[InsertStmtAfter] / n - 0.85) < 0.02
    assert abs(counts[InsertIf] / n - 0.10) < 0.02
    assert abs(counts[InsertWhile] / n - 0.05) < 0.02


def test_generated_edits_always_apply():
    # 10,000 sampled edits; the program restarts periodically so the check
    # covers many shapes without quadratic growth.
    rng = random.Random(9)
    cfg = parse_program(EMPTY_MAIN).proc("main").cfg
    for i in range(10_000):
        if i % 250 == 0:
            cfg = parse_program(EMPTY_MAIN).proc("main").cfg
        edit = gen_edit(rng, cfg)
        old_edges = cfg.edges
        cfg, delta = apply_edit(cfg, edit, validate=False)
        assert delta.apply_to(old_edges) == cfg.edges
    analyze_loops(cfg)  # the final graph is still reducible and spanned


def test_answer_equivalence_across_configurations():
    reference = None
    for config in CONFIGS:
        spec = WorkloadSpec(seed=33, edit_count=25, queries_per_edit=3, config=config)
        _records, answers = run_config(spec)
        if reference is None:
            reference = answers
        else:
            assert answers == reference, config


def test_reuse_dominance():
    totals = {}
    for config in CONFIGS:
        spec = WorkloadSpec(seed=8, edit_count=30, queries_per_edit=5, config=config)
        records, _ = run_config(spec)
        totals[config] = records[-1].transfer_evals
    idd = totals["IncrementalDemandDriven"]
    assert idd <= totals["Incremental"]
    assert idd <= totals["DemandDriven"] <= totals["Batch"]


def test_records_are_monotone_and_carry_sizes():
    spec = WorkloadSpec(seed=2, edit_count=10, queries_per_edit=2,
                        config="IncrementalDemandDriven")
    records, _ = run_config(spec)
    sizes = [r.program_locs for r in records]
    assert sizes == sorted(sizes)  # insert-only edits never shrink the program
    evals = [r.transfer_evals for r in records]
    assert evals == sorted(evals)
    assert all(r.latency_ns >= 0 for r in records)


def test_interproc_mode_answers_agree_across_configurations():
    reference = None
    for config in CONFIGS:
        spec = WorkloadSpec(
            seed=14, edit_count=15, queries_per_edit=3, config=config, interproc=True
        )
        _records, answers = run_config(spec)
        if reference is None:
            reference = answers
        else:
            assert answers == reference, config
    # the stream actually exercised calls
    rng = random.Random(14)
    from daig.lang.parser import parse_program as pp
    from daig.lang.syntax import Call
    from daig.workload import INTERPROC_BASE

    cfg = pp(INTERPROC_BASE).proc("main").cfg
    spec = WorkloadSpec(seed=14, edit_count=15, queries_per_edit=3, interproc=True)
    saw_call = False
    for _ in range(15):
        edit = gen_edit(rng, cfg, spec)
        cfg, _ = apply_edit(cfg, edit, validate=False)
        if isinstance(edit, InsertStmtAfter) and isinstance(edit.stmt, Call):
            saw_call = True
    assert saw_call


def test_nearest_rank_definition():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 99) == 99
    assert nearest_rank(values, 100) == 100
    assert nearest_rank([7], 95) == 7
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_summarize_single_record():
    rec = LatencyRecord(
        trial=0, seed=0, config="Batch", edit_index=0, op="edit", latency_ns=123,
        program_locs=2, transfer_evals=1, join_evals=0, widen_evals=0,
        memo_hits=0, cells_dirtied=0,
    )
    (summary,) = summarize([rec])
    assert summary.count == 1
    assert summary.p50_ns == summary.p95_ns == summary.p99_ns == 123
    assert summary.mean_ns == 123


def test_summary_reports_cycle_latency_of_edit_plus_queries():
    def rec(config, trial, edit_index, op, latency_ns):
        return LatencyRecord(
            trial=trial, seed=5, config=config, edit_index=edit_index, op=op,
            latency_ns=latency_ns, program_locs=2, transfer_evals=0, join_evals=0,
            widen_evals=0, memo_hits=0, cells_dirtied=0,
        )

    idd = "IncrementalDemandDriven"
    records = [
        rec(idd, 0, 0, "edit", 100), rec(idd, 0, 0, "query", 1), rec(idd, 0, 0, "query", 2),
        rec(idd, 0, 1, "edit", 50), rec(idd, 0, 1, "query", 5),
        # the same edit index in another trial is another cycle
        rec(idd, 1, 0, "edit", 1000), rec(idd, 1, 0, "query", 1),
        rec("Batch", 0, 0, "edit", 7), rec("Batch", 0, 0, "query", 3),
    ]
    summaries = {s.config: s for s in summarize(records)}
    s = summaries[idd]
    # the query percentiles hide the 1000 ns edit; the cycle percentiles do not
    assert (s.op, s.count, s.p95_ns) == ("query", 4, 5)
    assert (s.cycle_p50_ns, s.cycle_p95_ns) == (103, 1001)
    b = summaries["Batch"]
    assert (b.op, b.p95_ns, b.cycle_p50_ns, b.cycle_p95_ns) == ("edit", 7, 10, 10)
    assert ConfigSummary.CSV_FIELDS[-2:] == ("cycle_p50_ns", "cycle_p95_ns")
    assert s.csv_row().endswith(",103,1001")
    assert "cycle p95" in render_summary([b, s]).splitlines()[0]


def test_summary_uses_the_characteristic_operation():
    records = []
    for config in CONFIGS:
        spec = WorkloadSpec(seed=4, edit_count=6, queries_per_edit=2, config=config)
        recs, _ = run_config(spec)
        records.extend(recs)
    summaries = {s.config: s for s in summarize(records)}
    assert summaries["Batch"].op == "edit"
    assert summaries["Incremental"].op == "edit"
    assert summaries["DemandDriven"].op == "query"
    assert summaries["IncrementalDemandDriven"].op == "query"
