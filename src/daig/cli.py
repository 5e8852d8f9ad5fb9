"""Command-line front end: batch analysis, interactive sessions, benchmarks.

Session scripts drive the same edit/query semantics as the library, one
command per line::

    query <proc> <locId> [@[c1,c2]]
    edit relabel <proc> <src> <dst> :: <stmt>
    edit insert-after <proc> <locId> :: <stmt>
    edit insert-if <proc> <locId> :: <cond>
    edit insert-while <proc> <locId> :: <cond>
    dump dot <path>
    metrics

Exit codes: 1 on parse or validation failure, 2 on an internal invariant
violation (a preservation check or cross-configuration mismatch).
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .batch import batch_analyze
from .domains import domain_by_name
from .graph import to_dot
from .interproc import Context, DaigForest, ENTRY_CONTEXT
from .lang.cfg import CfgError, Program
from .lang.edits import InsertIf, InsertStmtAfter, InsertWhile, RelabelEdge
from .lang.inline import inline_program
from .lang.loops import analyze_loops
from .lang.parser import ParseError, parse_expr_text, parse_program, parse_stmt_text
from .engine import PreservationError
from .workload import (
    CONFIGS,
    ConfigSummary,
    LatencyRecord,
    WorkloadSpec,
    render_summary,
    run_config,
    summarize,
)


class SessionError(ValueError):
    pass


class Session:
    """Interactive edit/query session over one program."""

    def __init__(self, program: Program, domain, mode: str = "eq", policy_k: int = 0,
                 debug: bool = False):
        self.forest = DaigForest(program, domain, policy_k=policy_k, mode=mode, debug=debug)
        self.domain = domain

    def handle(self, line: str) -> str:
        words = line.strip().split()
        if not words or words[0].startswith("#"):
            return ""
        cmd = words[0]
        if cmd == "query":
            return self._query(line, words)
        if cmd == "edit":
            return self._edit(line, words)
        if cmd == "dump":
            if len(words) != 3 or words[1] != "dot":
                raise SessionError("usage: dump dot <path>")
            eng = self.forest.engine(self.forest.program.main, ENTRY_CONTEXT)
            Path(words[2]).write_text(to_dot(eng.daig, self.domain) + "\n", encoding="utf-8")
            return f"wrote {words[2]}"
        if cmd == "metrics":
            m = self.forest.metrics()
            return " ".join(f"{k}={v}" for k, v in sorted(m.snapshot().items()))
        raise SessionError(f"unknown command {cmd!r}")

    def _parse_ctx(self, proc: str, token: str) -> Context:
        if not (token.startswith("@[") and token.endswith("]")):
            raise SessionError(f"bad context {token!r}")
        inner = token[2:-1].strip()
        if not inner:
            return ENTRY_CONTEXT
        try:
            ids = [int(x) for x in inner.split(",")]
        except ValueError:
            raise SessionError(f"bad context {token!r}") from None
        for (p, ctx) in self.forest.live_keys():
            if p == proc and [l for (_cp, l) in ctx.sites] == ids:
                return ctx
        raise SessionError(f"no live context {token} for {proc!r}")

    def _query(self, line: str, words: list[str]) -> str:
        if len(words) not in (3, 4):
            raise SessionError("usage: query <proc> <locId> [@[c1,c2]]")
        proc = words[1]
        loc = self._parse_loc(proc, words[2])
        ctx = self._parse_ctx(proc, words[3]) if len(words) == 4 else ENTRY_CONTEXT
        value = self.forest.query_loc(proc, loc, ctx)
        return self.domain.to_text(value)

    def _parse_loc(self, proc: str, token: str) -> int:
        cfg = self.forest.program.proc(proc).cfg
        if token == "entry":
            return cfg.entry
        if token == "exit":
            return cfg.exit
        try:
            loc = int(token)
        except ValueError:
            raise SessionError(f"bad location {token!r}") from None
        if loc not in cfg.locs:
            raise SessionError(f"no location l{loc} in {proc!r}")
        return loc

    def _edit(self, line: str, words: list[str]) -> str:
        if "::" not in line:
            raise SessionError("edit commands take ':: <stmt-or-cond>'")
        head, payload = line.split("::", 1)
        words = head.strip().split()
        if len(words) < 3:
            raise SessionError("usage: edit <kind> <proc> <locs...> :: ...")
        kind, proc = words[1], words[2]
        payload = payload.strip()
        if kind == "relabel":
            if len(words) != 5:
                raise SessionError("usage: edit relabel <proc> <src> <dst> :: <stmt>")
            edit = RelabelEdge(
                self._parse_loc(proc, words[3]),
                self._parse_loc(proc, words[4]),
                parse_stmt_text(payload),
            )
        elif kind == "insert-after":
            if len(words) != 4:
                raise SessionError("usage: edit insert-after <proc> <locId> :: <stmt>")
            edit = InsertStmtAfter(self._parse_loc(proc, words[3]), parse_stmt_text(payload))
        elif kind == "insert-if":
            if len(words) != 4:
                raise SessionError("usage: edit insert-if <proc> <locId> :: <cond>")
            edit = InsertIf(self._parse_loc(proc, words[3]), parse_expr_text(payload))
        elif kind == "insert-while":
            if len(words) != 4:
                raise SessionError("usage: edit insert-while <proc> <locId> :: <cond>")
            edit = InsertWhile(self._parse_loc(proc, words[3]), parse_expr_text(payload))
        else:
            raise SessionError(f"unknown edit kind {kind!r}")
        self.forest.apply_program_edit(proc, edit)
        return "ok"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domain", default="interval", choices=("interval", "sign", "const"))
    p.add_argument("--mode", default="eq", choices=("eq", "leq"),
                   help="loop convergence check")
    p.add_argument("--ctx", type=int, default=0, choices=(0, 1, 2),
                   help="call-string context sensitivity")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="daig", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="batch-analyze a program and print one invariant")
    a.add_argument("file")
    a.add_argument("--loc", required=True, help="location id, or 'entry'/'exit'")
    a.add_argument("--proc", default="main")
    _add_common(a)

    r = sub.add_parser("repl", help="interactive session reading commands from stdin")
    r.add_argument("file")
    _add_common(r)

    c = sub.add_parser("check", help="run structural checkers and a scripted session "
                                     "with preservation assertions on")
    c.add_argument("file")
    c.add_argument("--script", help="session script (defaults to stdin if piped)")
    _add_common(c)

    b = sub.add_parser("bench", help="run the four-configuration edit/query workload")
    b.add_argument("--edits", type=int, default=1000)
    b.add_argument("--queries", type=int, default=5)
    b.add_argument("--trials", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--domain", default="interval", choices=("interval", "sign", "const"))
    b.add_argument("--mode", default="eq", choices=("eq", "leq"))
    b.add_argument("--out", default="bench-out")
    b.add_argument("--jobs", type=int, default=0, help="parallel trial processes "
                                                       "(0 = one per trial)")
    b.add_argument("--configs", nargs="*", default=list(CONFIGS), choices=CONFIGS)
    b.add_argument("--interproc", action="store_true",
                   help="grow main inside a small multi-procedure program, "
                        "with inserted statements calling its helpers")
    return ap


def cmd_analyze(args) -> int:
    program = parse_program(Path(args.file).read_text(encoding="utf-8"))
    domain = domain_by_name(args.domain)
    flat = inline_program(program) if args.proc == program.main else None
    if flat is None:
        # Analyzing a non-entry procedure standalone: inline its callees.
        sub = Program(procedures=dict(program.procedures), main=args.proc)
        flat = inline_program(sub)
    cfg = flat.proc(flat.main).cfg
    if args.loc == "entry":
        loc = cfg.entry
    elif args.loc == "exit":
        loc = cfg.exit
    else:
        loc = int(args.loc)
    if loc not in program.proc(args.proc).cfg.locs:
        print(f"error: no location l{loc} in {args.proc!r}", file=sys.stderr)
        return 1
    loops = analyze_loops(cfg)
    res = batch_analyze(cfg, loops, domain, args.mode)
    state = res.invariants[loc]
    if not domain.is_bot(state):
        from .lang.inline import is_inline_var

        for var in [v for v in state.bindings if is_inline_var(v)]:
            state = domain.drop_var(state, var)
    print(domain.to_text(state))
    return 0


def _run_session(session: Session, lines, out) -> int:
    for raw in lines:
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        try:
            response = session.handle(line)
        except (SessionError, CfgError, ParseError) as exc:
            print(f"error: {exc}", file=out)
            continue
        if response:
            print(response, file=out)
    return 0


def cmd_repl(args) -> int:
    program = parse_program(Path(args.file).read_text(encoding="utf-8"))
    session = Session(program, domain_by_name(args.domain), args.mode, args.ctx)
    return _run_session(session, sys.stdin, sys.stdout)


def cmd_check(args) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    program = parse_program(text)
    domain = domain_by_name(args.domain)
    from .graph import check_ai_consistency, check_cfg_consistency, check_wf, init_daig

    for name in sorted(program.procedures):
        cfg = program.proc(name).cfg
        loops = analyze_loops(cfg)
        d = init_daig(cfg, loops, domain)
        wf = check_wf(d)
        if wf:
            print(f"error: {name}: {wf[0]}", file=sys.stderr)
            return 2
        if not check_cfg_consistency(d, cfg, loops):
            print(f"error: {name}: graph/CFG consistency failed", file=sys.stderr)
            return 2
        if not check_ai_consistency(d, domain):
            print(f"error: {name}: graph/analysis consistency failed", file=sys.stderr)
            return 2
        print(f"{name}: well-formed, consistent ({len(d.refs)} cells)")

    lines: list[str] = []
    if args.script:
        lines = Path(args.script).read_text(encoding="utf-8").splitlines()
    elif not sys.stdin.isatty():
        lines = sys.stdin.read().splitlines()
    if lines:
        session = Session(program, domain, args.mode, args.ctx, debug=True)
        try:
            _run_session(session, lines, sys.stdout)
        except PreservationError as exc:
            print(f"preservation violation: {exc}", file=sys.stderr)
            return 2
        print(f"session ok ({len(lines)} commands, preservation checks passed)")
    return 0


def _bench_trial(argtuple) -> tuple[list[LatencyRecord], dict[str, list[str]]]:
    trial, seed, edits, queries, domain, mode, configs, interproc = argtuple
    records: list[LatencyRecord] = []
    answers: dict[str, list[str]] = {}
    for config in configs:
        spec = WorkloadSpec(
            seed=seed,
            edit_count=edits,
            queries_per_edit=queries,
            domain=domain,
            config=config,
            mode=mode,
            trial=trial,
            interproc=interproc,
        )
        recs, ans = run_config(spec)
        records.extend(recs)
        answers[config] = ans
    return records, answers


def cmd_bench(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = args.jobs if args.jobs > 0 else min(args.trials, 4)
    tasks = [
        (trial, args.seed + trial, args.edits, args.queries, args.domain, args.mode,
         tuple(args.configs), args.interproc)
        for trial in range(args.trials)
    ]
    all_records: list[LatencyRecord] = []
    mismatches = 0
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_bench_trial, tasks))
    else:
        results = [_bench_trial(t) for t in tasks]
    for (trial, *_rest), (records, answers) in zip(tasks, results):
        all_records.extend(records)
        reference = None
        for config in args.configs:
            if reference is None:
                reference = answers[config]
            elif answers[config] != reference:
                mismatches += 1
                print(
                    f"error: trial {trial}: {config} answers diverge from "
                    f"{args.configs[0]}",
                    file=sys.stderr,
                )
    by_config: dict[str, list[LatencyRecord]] = {c: [] for c in args.configs}
    for r in all_records:
        by_config[r.config].append(r)
    for config, recs in by_config.items():
        path = outdir / f"{config}.csv"
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(LatencyRecord.CSV_FIELDS) + "\n")
            for r in recs:
                fh.write(r.csv_row() + "\n")
    summaries = summarize(all_records)
    with (outdir / "summary.csv").open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(ConfigSummary.CSV_FIELDS) + "\n")
        for s in summaries:
            fh.write(s.csv_row() + "\n")
    print(render_summary(summaries))
    batch = next((s for s in summaries if s.config == "Batch"), None)
    idd = next((s for s in summaries if s.config == "IncrementalDemandDriven"), None)
    if batch and idd and idd.p95_ns > 0:
        print(f"batch/incremental-demand p95 ratio: {batch.p95_ns / idd.p95_ns:.1f}x")
    return 2 if mismatches else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "repl":
            return cmd_repl(args)
        if args.command == "check":
            return cmd_check(args)
        if args.command == "bench":
            return cmd_bench(args)
    except (ParseError, CfgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreservationError as exc:
        print(f"preservation violation: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
