"""The daig benchmark: edit-then-query cycles, cold starts and
interprocedural sessions, measured end to end and per module.

    python3 perfbench/run.py --workload edit-session --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Run from anywhere; the library is imported from ``src/`` next to this
directory.  It prints every metric by name and unit, the workload's
properties and its first failure, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace
1`` runs one untraced round, then traced rounds, and reports the per-layer
metrics and the tracing overhead.  Every answer is checked against the
batch oracle; ``correct`` is false if one disagrees, or if replayed rounds
did not repeat the engine's exact counters.  Operations that raise or pass
their deadline count in ``failed``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fewer rounds than this would leave the per-operation minimum, and in a
# traced run the untraced baseline, without a second sample.
MIN_ROUNDS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "cycle_p50_rel": "x",
    "edit_p95_rel": "x",
    "oracle_cycle_p50_rel": "x",
    "kernel_ms": "ms",
    "cycle_p50_ms": "ms",
    "cycle_p95_ms": "ms",
    "edit_p95_ms": "ms",
    "query_p95_ms": "ms",
    "cycle_p95_rel": "x",
    "query_p95_rel": "x",
    "cycles_per_s": "1/s",
    "oracle_cycle_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}

_DOMAIN_OPS = ("transfer", "join", "widen", "compare", "digest")
PER_LAYER_UNITS = {
    "lang.apply_edit_s": "s",
    "lang.analyze_loops_s": "s",
    "lang.analyze_loops_calls": "count",
    "lang.join_indices_s": "s",
    "lang.inline_program_s": "s",
    "graph.init_daig_s": "s",
    "graph.dest_structures_s": "s",
    "graph.unroll_region_s": "s",
    "graph.cells": "count",
    "engine.query_loc_self_s": "s",
    "engine.apply_program_edit_self_s": "s",
    "engine.transfer_evals": "count",
    "engine.join_evals": "count",
    "engine.widen_evals": "count",
    "engine.memo_hits": "count",
    "engine.memo_misses": "count",
    "engine.memo_hit_ratio": "ratio",
    "engine.unrollings": "count",
    "engine.cells_dirtied": "count",
    "engine.memo_entries": "count",
    **{f"domains.{op}_s": "s" for op in _DOMAIN_OPS},
    **{f"domains.{op}_calls": "count" for op in _DOMAIN_OPS},
    "interproc.apply_program_edit_self_s": "s",
    "interproc.query_loc_self_s": "s",
    "interproc.live_engines": "count",
    "batch.analyze_loops_s": "s",
    "batch.batch_analyze_s": "s",
    "batch.transfer_evals": "count",
    "batch.join_evals": "count",
    "batch.widen_evals": "count",
    "trace.overhead_s": "s",
}


def _import_library():
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import daig
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import daig from {src}: {exc}")
    if Path(daig.__file__).resolve().parent != src / "daig":
        raise SystemExit(f"perfbench: daig was imported from {daig.__file__}, not {src}")


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"perfbench: cannot read {path}: {exc}")
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        for m in spec[key]:
            if units.get(m["name"]) != m["unit"]:
                raise SystemExit(f"perfbench: {key} metric {m['name']} ({m['unit']}) is not measured")
    return spec


def measure(workload, seconds: float, trace: bool):
    """Run rounds until ``seconds`` have passed (at least ``MIN_ROUNDS``).
    A traced run keeps its first round untraced, as the overhead baseline.
    Returns the rounds, emptied of their samples, and the per-operation
    samples."""
    from perfbench.harness import PerOp, Round, install_deadline_handler
    from perfbench.tracing import install_daig_tracer

    install_deadline_handler()
    # Set-up objects stay alive all run; keep them out of the collections
    # that land inside timed calls.
    gc.collect()
    gc.freeze()
    rounds, per_op, tracer = [], PerOp(), None
    t0 = time.perf_counter()
    try:
        while True:
            rnd = Round(workload.deadline_s, tracer)
            workload.run_round(rnd)
            # Closes the bracket of the round's last operations.
            rnd.calibrate()
            if tracer is not None:
                rnd.spans = tracer.fold()
            per_op.merge(rnd)
            rounds.append(rnd)
            if trace and tracer is None:
                tracer = install_daig_tracer()
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() - t0 >= seconds:
                return rounds, per_op
    finally:
        gc.unfreeze()
        if tracer is not None:
            tracer.uninstall()


def end_to_end(workload, rounds, per_op) -> dict[str, tuple[float, int]]:
    """Each metric as (value, sample count).  Latencies are percentiles
    over operations, in ms of each operation's best time across rounds and
    relative (``_rel``) of its median time over the calibration kernel's
    times around it; they cover completed operations only."""
    from perfbench.harness import nearest_rank

    cycles = per_op.values("cycle")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    out = {
        "setup_s": (statistics.median(workload.setup_times), len(workload.setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "failed_frac": (failed / attempted, attempted),
    }
    for name, kind, q in (
        ("cycle_p50", "cycle", 50),
        ("cycle_p95", "cycle", 95),
        ("edit_p95", "edit", 95),
        ("query_p95", "query", 95),
        ("oracle_cycle_p50", "oracle", 50),
    ):
        values, rels = per_op.values(kind), per_op.rel_values(kind)
        if values:
            out[f"{name}_ms"] = (nearest_rank(values, q) * 1e3, len(values))
        if rels:
            out[f"{name}_rel"] = (nearest_rank(rels, q), len(rels))
    out["kernel_ms"] = (statistics.median(per_op.kernels) * 1e3, len(per_op.kernels))
    if cycles:
        out["cycles_per_s"] = (len(cycles) / sum(cycles), len(cycles))
    return out


def _layer_values(rnd) -> dict[str, float]:
    from daig.engine import Metrics

    spans, layer = rnd.spans, rnd.layer

    def self_s(*names):
        return sum(spans.get(n, (0, 0))[0] for n in names) / 1e9

    def calls(*names):
        return sum(spans.get(n, (0, 0))[1] for n in names)

    sessions = layer["sessions"]
    hits, misses = layer["engine.memo_hits"], layer["engine.memo_misses"]
    out = {
        "lang.apply_edit_s": self_s("lang.apply_edit"),
        "lang.analyze_loops_s": self_s("lang.analyze_loops"),
        "lang.analyze_loops_calls": calls("lang.analyze_loops"),
        "lang.join_indices_s": self_s("lang.join_indices"),
        "graph.init_daig_s": self_s("graph.init_daig"),
        "graph.dest_structures_s": self_s("graph.dest_structures"),
        "graph.unroll_region_s": self_s("graph.forward_set", "graph.backward_set"),
        "graph.cells": layer["graph.cells"] / sessions,
        "engine.query_loc_self_s": self_s("engine.query_loc"),
        "engine.apply_program_edit_self_s": self_s("engine.apply_program_edit"),
        "engine.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "engine.memo_entries": layer["engine.memo_entries"] / sessions,
        "interproc.apply_program_edit_self_s": self_s("interproc.apply_program_edit"),
        "interproc.query_loc_self_s": self_s("interproc.query_loc"),
        "interproc.live_engines": layer.get("interproc.live_engines", 0) / sessions,
    }
    for f in Metrics.COUNTER_FIELDS:
        out[f"engine.{f}"] = layer[f"engine.{f}"]
    for op, names in (
        ("transfer", ("domains.transfer",)),
        ("join", ("domains.join",)),
        ("widen", ("domains.widen",)),
        ("compare", ("domains.equal", "domains.leq")),
        ("digest", ("domains.digest",)),
    ):
        out[f"domains.{op}_s"] = self_s(*names)
        out[f"domains.{op}_calls"] = calls(*names)
    return out


def per_layer(rounds) -> dict[str, tuple[float, int]]:
    """Medians over the traced rounds of per-round layer metrics.  The
    oracle's ``batch.*`` and ``lang.inline_program_s`` are timed by the
    benchmark itself and taken from the untraced round."""
    untraced, traced = rounds[0], rounds[1:]
    per_round = [_layer_values(r) for r in traced]
    out = {
        name: (statistics.median(v[name] for v in per_round), len(traced))
        for name in per_round[0]
    }
    for name in ("lang.inline_program_s", "batch.analyze_loops_s", "batch.batch_analyze_s",
                 "batch.transfer_evals", "batch.join_evals", "batch.widen_evals"):
        out[name] = (untraced.layer.get(name, 0), 1)
    # Traced minus untraced time of the same operations, per traced round.
    per_op = statistics.median(r.op_time / r.attempted for r in traced)
    ops = statistics.median(r.attempted for r in traced)
    overhead = (per_op - untraced.op_time / untraced.attempted) * ops
    out["trace.overhead_s"] = (overhead, len(traced))
    return out


def properties(workload, rounds, per_op) -> dict:
    """Input properties a later gain can be tied to, with their measured
    shares."""
    last = rounds[-1].layer
    total = {k: sum(r.layer.get(k, 0) for r in rounds)
             for k in ("answers", "bot_answers", "engine.memo_hits", "engine.memo_misses")}
    lookups = total["engine.memo_hits"] + total["engine.memo_misses"]
    kinds = Counter(type(e).__name__ for e in workload.edits())
    out = {
        "rounds": len(rounds),
        "cycles": len(per_op.times["cycle"]),
        "locs_start": workload.locs_start,
        "locs_end": last["locs_end"] / last["sessions"],
        "live_contexts": last["live_contexts"] / last["sessions"],
        "bot_share": total["bot_answers"] / total["answers"] if total["answers"] else 0.0,
        "memo_hit_ratio": total["engine.memo_hits"] / lookups if lookups else 0.0,
        "edits_by_kind": dict(sorted(kinds.items())),
    }
    if "loops_end" in last:
        out["loops_end"] = last["loops_end"] / last["sessions"]
    if hasattr(workload, "setup_failures"):
        out["setup_failures"] = workload.setup_failures
    return out


def deterministic(workload, rounds) -> str | None:
    """In replayed rounds without failures the engine's exact counters must
    repeat; returns what differed, if anything."""
    if not workload.replays:
        return None
    counters = [k for k in rounds[0].layer if k.startswith("engine.")]
    clean = [r for r in rounds if r.failed == 0]
    for r in clean[1:]:
        for k in counters:
            if r.layer[k] != clean[0].layer[k]:
                return f"{k} was {clean[0].layer[k]} in one round and {r.layer[k]} in another"
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, listed: bool,
                 spec: dict, params: dict | None = None) -> dict:
    """Set up, measure and report one workload; returns its result object."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, **(params or {}))
    rounds, per_op = measure(workload, seconds, trace)
    if trace:
        values, units, wanted = per_layer(rounds), PER_LAYER_UNITS, spec["per_layer"]
    else:
        values, units, wanted = end_to_end(workload, rounds, per_op), END_TO_END_UNITS, spec["end_to_end"]
    # The JSON line holds exactly BENCHMARK.json's metrics for a listed
    # workload; everything measured is printed.
    names = [m["name"] for m in wanted]
    printed = names + [n for n in values if n not in names]
    if not listed:
        names = printed
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    nondeterminism = deterministic(workload, rounds)
    correct = all(r.mismatches == 0 for r in rounds) and nondeterminism is None
    first = next((r.first_failure for r in rounds if r.first_failure), None)

    print(f"workload {name}  seed {seed}  rounds {len(rounds)}  "
          f"{'traced' if trace else 'untraced'}")
    for n in printed:
        if n in values:
            v, samples = values[n]
            print(f"  {n:<36} {v:>14.6f} {units[n]:<6} n={samples}")
        else:
            print(f"  {n:<36} {'no samples':>14}")
    print("properties " + json.dumps(properties(workload, rounds, per_op)))
    print(f"attempted {attempted}  failed {failed}  failed_frac {failed / attempted:.6f}")
    print(f"first failure: {first or 'none'}")
    if nondeterminism:
        print(f"counters did not repeat: {nondeterminism}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n][0], "unit": units[n]} for n in names if n in values},
    }


def main(argv=None) -> int:
    _import_library()
    from perfbench.workloads import WORKLOADS

    spec = _load_spec()
    listed = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.workload in listed, spec)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in list(listed) + [w for w in sorted(WORKLOADS) if w not in listed]:
            one = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               name in listed, spec)
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for n, m in one["metrics"].items():
                result["metrics"][f"{name}.{n}"] = m
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
