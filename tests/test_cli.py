import random
import subprocess
import sys
from pathlib import Path

import pytest

from daig.cli import Session, SessionError, main
from daig.domains import INTERVAL
from daig.lang.cfg import CfgError
from daig.lang.parser import ParseError, parse_program
from daig.workload import INTERPROC_BASE

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def run_cli(argv, stdin_text=""):
    proc = subprocess.run(
        [sys.executable, "-m", "daig.cli", *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_analyze_while_exit():
    code, out, err = run_cli(["analyze", str(SAMPLES / "while.imp"), "--loc", "exit"])
    assert code == 0, err
    assert out.strip() == "{x:[10,+inf]}"


def test_analyze_inlines_calls():
    code, out, err = run_cli(["analyze", str(SAMPLES / "calls.imp"), "--loc", "exit"])
    assert code == 0, err
    assert out.strip() == "{a:[1,1], b:[6,6]}"


def test_analyze_unknown_location_fails():
    code, _out, err = run_cli(["analyze", str(SAMPLES / "while.imp"), "--loc", "99"])
    assert code == 1
    assert "no location" in err


def test_analyze_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.imp"
    bad.write_text("fn main() { x = ; }", encoding="utf-8")
    code, _out, err = run_cli(["analyze", str(bad), "--loc", "exit"])
    assert code == 1
    assert "error" in err


def test_repl_second_query_reuses_everything():
    script = "query main exit\nmetrics\nquery main exit\nmetrics\n"
    code, out, err = run_cli(["repl", str(SAMPLES / "while.imp")], script)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "{x:[10,+inf]}"
    assert lines[2] == "{x:[10,+inf]}"
    assert lines[1] == lines[3]  # no new evaluations on the reused query


def test_repl_sessions_replay_byte_identically():
    script = (
        "query main exit\n"
        "edit relabel main 0 1 :: x = 5;\n"
        "query main exit\n"
        "query main 1\n"
        "metrics\n"
    )
    runs = [run_cli(["repl", str(SAMPLES / "while.imp")], script) for _ in range(2)]
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "{x:[10,+inf]}"
    assert lines[1] == "ok"
    assert lines[2] == "{x:[10,+inf]}"
    assert lines[3] == "{x:[5,+inf]}"


def test_repl_interprocedural_query_with_context():
    script = (
        "query main exit\n"
        "query inc exit @[0]\n"
        "query inc exit @[1]\n"
    )
    code, out, err = run_cli(["repl", str(SAMPLES / "calls.imp"), "--ctx", "1"], script)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "{a:[1,1], b:[6,6]}"
    assert sorted(lines[1:]) == ["{p:[0,0], ret:[1,1]}", "{p:[5,5], ret:[6,6]}"]


TWO_CALLERS_SRC = """
fn main() {
  a = 1;
  b = 2;
  c = g(a);
  d = f(b);
}
fn f(q) {
  x = 1;
  y = 2;
  ret = g(q);
}
fn g(p) {
  ret = p + 1;
}
"""


def test_repl_context_by_printed_sites_and_ambiguous_bare_ids(tmp_path):
    # main and f each call g at their own l2, so a bare id names both contexts.
    src = tmp_path / "two_callers.imp"
    src.write_text(TWO_CALLERS_SRC, encoding="utf-8")
    script = (
        "query main exit\n"
        "query g exit @[2]\n"
        "query g exit @[main:l2]\n"
        "query g exit @[f:l2]\n"
        "query g exit @[f:l3]\n"
        "query g exit @[main:2]\n"
    )
    code, out, err = run_cli(["repl", str(src), "--ctx", "1"], script)
    assert code == 0, err
    assert out.splitlines() == [
        "{a:[1,1], b:[2,2], c:[2,2], d:[3,3]}",
        "error: context @[2] is ambiguous for 'g': @[f:l2], @[main:l2]",
        "{p:[1,1], ret:[2,2]}",
        "{p:[2,2], ret:[3,3]}",
        "error: no live context @[f:l3] for 'g'",
        "error: bad context '@[main:2]'",
    ]


def test_repl_reports_session_errors_and_continues():
    script = "query main 99\nquery main exit\n"
    code, out, err = run_cli(["repl", str(SAMPLES / "while.imp")], script)
    assert code == 0
    assert "error" in out or "error" in err
    assert "{x:[10,+inf]}" in out


def test_repl_reports_bad_context_and_continues():
    script = "query main 1 @[a]\nquery main exit\n"
    code, out, err = run_cli(["repl", str(SAMPLES / "while.imp")], script)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0].startswith("error: bad context")
    assert lines[1] == "{x:[10,+inf]}"


def test_dump_dot(tmp_path):
    target = tmp_path / "graph.dot"
    script = f"query main exit\ndump dot {target}\n"
    code, out, err = run_cli(["repl", str(SAMPLES / "while.imp")], script)
    assert code == 0, err
    text = target.read_text(encoding="utf-8")
    assert text.startswith("digraph")
    assert "fix" in text


def test_repl_reports_unwritable_dot_path_and_continues(tmp_path):
    target = tmp_path / "missing" / "x.dot"
    script = f"dump dot {target}\nquery main 1\n"
    code, out, err = run_cli(["repl", str(SAMPLES / "while.imp")], script)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0].startswith(f"error: cannot write {target}")
    assert lines[1] == "{x:[0,+inf]}"
    assert not target.exists()


def test_check_command_runs_checkers_and_session():
    script = "query main exit\nedit insert-after main 0 :: print(x);\nquery main exit\n"
    code, out, err = run_cli(["check", str(SAMPLES / "while.imp")], script)
    assert code == 0, err
    assert "well-formed" in out
    assert "preservation checks passed" in out


def test_bench_smoke_produces_identical_answer_columns(tmp_path):
    out_dir = tmp_path / "bench"
    code, out, err = run_cli(
        [
            "bench",
            "--edits", "8",
            "--queries", "2",
            "--trials", "1",
            "--seed", "3",
            "--out", str(out_dir),
            "--jobs", "1",
        ]
    )
    assert code == 0, err
    csvs = sorted(p.name for p in out_dir.glob("*.csv"))
    assert csvs == [
        "Batch.csv",
        "DemandDriven.csv",
        "Incremental.csv",
        "IncrementalDemandDriven.csv",
        "summary.csv",
    ]
    answers = {}
    for name in csvs[:-1]:
        rows = (out_dir / name).read_text(encoding="utf-8").strip().splitlines()
        header = rows[0].split(",")
        ai = header.index("answer")
        oi = header.index("op")
        answers[name] = [r.split(",")[ai] for r in rows[1:] if r.split(",")[oi] == "query"]
    expected = answers["Batch.csv"]
    assert expected and all(vals == expected for vals in answers.values())
    assert "p95" in out or "config" in out


def test_main_entry_point_in_process(tmp_path, capsys):
    rc = main(["analyze", str(SAMPLES / "while.imp"), "--loc", "exit"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "{x:[10,+inf]}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--loc", "abc"], "error: bad location 'abc'"),
        (["--loc", "exit", "--proc", "nope"], "error: unknown procedure 'nope'"),
    ],
    ids=["bad-location", "unknown-procedure"],
)
def test_analyze_bad_location_or_procedure_fails(argv, message):
    code, out, err = run_cli(["analyze", str(SAMPLES / "calls.imp"), *argv])
    assert code == 1
    assert out == ""
    assert err.strip() == message


def test_repl_rejects_edit_closing_a_call_cycle_and_continues():
    script = "edit insert-after inc entry :: x = inc(x);\nquery main exit\n"
    code, out, err = run_cli(["repl", str(SAMPLES / "calls.imp")], script)
    assert code == 0, err
    assert out.strip().splitlines() == [
        "error: recursive call cycle: inc -> inc",
        "{a:[1,6], b:[1,6]}",
    ]


def test_repl_reports_too_deep_nesting_and_continues():
    deep = "(" * 124 + "1" + ")" * 124
    script = f"edit insert-after main entry :: x = {deep};\nquery main exit\n"
    code, out, err = run_cli(["repl", str(SAMPLES / "while.imp")], script)
    assert code == 0, err
    assert out.strip().splitlines() == [
        "error: 1:69: expression nested deeper than 64 levels",
        "{x:[10,+inf]}",
    ]


def test_analyze_too_deep_nesting_fails_with_a_message(tmp_path):
    deep = tmp_path / "deep.imp"
    deep.write_text("fn main() {\n" + "if (x > 0) {\n" * 330 + "}\n" * 331, encoding="utf-8")
    code, out, err = run_cli(["analyze", str(deep), "--loc", "exit"])
    assert code == 1
    assert out == ""
    assert err.strip() == "error: 65:12: blocks nested deeper than 64 levels"


@pytest.mark.parametrize(
    "domain,want", [("interval", "{x:[18446744073709551616,+inf]}"), ("const", "{}")]
)
def test_analyze_prints_a_state_after_repeated_squaring(tmp_path, domain, want):
    src = tmp_path / "squares.imp"
    src.write_text("fn main() {\n  x = 2;\n" + "  x = x * x;\n" * 14 + "}\n", encoding="utf-8")
    code, out, err = run_cli(["analyze", str(src), "--loc", "exit", "--domain", domain])
    assert code == 0, err
    assert out.strip() == want


def _gauges(line: str) -> dict[str, int]:
    fields = dict(kv.split("=") for kv in line.split())
    return {k: int(fields[k]) for k in ("cells", "empty_cells", "memo_entries")}


def test_repl_metrics_report_graph_and_memo_gauges():
    program = parse_program((SAMPLES / "while.imp").read_text(encoding="utf-8"))
    session = Session(program, INTERVAL)
    # Only the loop head (l1) is queried, and the insertion after the exit
    # reads nothing filled, so its new cells stay empty until queried.
    session.handle("query main 1")
    warm = _gauges(session.handle("metrics"))
    assert warm["cells"] > warm["empty_cells"] and warm["memo_entries"] > 0
    assert session.handle("edit insert-after main exit :: y = 1;") == "ok"
    edited = _gauges(session.handle("metrics"))
    assert edited["cells"] > warm["cells"]
    assert edited["empty_cells"] > warm["empty_cells"]
    session.handle("query main exit")
    requeried = _gauges(session.handle("metrics"))
    assert requeried["memo_entries"] > warm["memo_entries"]
    assert requeried["empty_cells"] < edited["empty_cells"]


@pytest.mark.parametrize("line", ["metrics now", "metrics main exit", "  metrics  -v "])
def test_repl_metrics_takes_no_arguments(line):
    session = Session(parse_program(INTERPROC_BASE), INTERVAL)
    with pytest.raises(SessionError, match="^usage: metrics$"):
        session.handle(line)
    assert "transfer_evals=0" in session.handle(" metrics ").split()


def _malformed_line(rng: random.Random) -> str:
    """One session line over INTERPROC_BASE that every handler must reject."""
    procs = ("main", "inc", "clamp")
    bad_procs = ("nope", "Main", "inc2", "ret")
    bad_locs = ("999", "-1", "abc", "1.5", "ent", "0x1", "l0")
    bad_ctxs = ("@[", "[0]", "@[a]", "@[1,,2]", "@[9]", "@[0,0,0]", "@", "@[0]x")
    bad_stmts = ("x = ;", "x = 1", "while (x) {", "", "x = inc(;", "1 = x;", "x = y = 1;")
    bad_conds = ("x <", ")", "", "x = 1", "(x < 1", "x < 1 1")
    bad_calls = ("x = nope(1);", "x = inc();", "x = main(1);", "x = Inc(2);")
    proc = rng.choice(procs)
    kind = rng.randrange(12)
    if kind == 0:
        return rng.choice(("frob", "QUERY", "edits", "help", "metric", "dump-dot")) + " main exit"
    if kind == 1:
        return rng.choice(("query", f"query {proc}", f"query {proc} exit @[] extra"))
    if kind == 2:
        return f"query {rng.choice(bad_procs)} {rng.choice(('entry', 'exit', '0'))}"
    if kind == 3:
        return f"query {proc} {rng.choice(bad_locs)}"
    if kind == 4:
        return f"query {proc} {rng.choice(('entry', 'exit'))} {rng.choice(bad_ctxs)}"
    if kind == 5:
        return rng.choice(("dump", "dump dot", "dump png g.dot", "dump dot a b"))
    if kind == 6:
        return rng.choice((
            f"edit insert-after {proc} entry x = 1;",
            f"edit relabel {proc} 0 :: x = 1;",
            f"edit insert-after {proc} :: x = 1;",
            f"edit insert-if {proc} 0 1 :: x < 1",
            "edit :: x = 1;",
            f"edit insert-while {proc} :: x < 1",
        ))
    if kind == 7:
        return f"edit {rng.choice(('delete', 'insert', 'relabel-edge'))} {proc} entry :: x = 1;"
    if kind == 8:
        return f"edit insert-after {rng.choice(bad_procs)} entry :: x = 1;"
    if kind == 9:
        where = rng.choice(("insert-after main", "relabel main exit"))
        return f"edit {where} {rng.choice(bad_locs)} :: x = 1;"
    if kind == 10:
        if rng.random() < 0.5:
            return f"edit insert-after {proc} entry :: {rng.choice(bad_stmts)}"
        verb = rng.choice(("insert-if", "insert-while"))
        return f"edit {verb} {proc} entry :: {rng.choice(bad_conds)}"
    return f"edit insert-after main {rng.choice(('entry', 'exit'))} :: {rng.choice(bad_calls)}"


@pytest.mark.parametrize("policy_k", [0, 1, 2])
def test_session_rejects_malformed_lines_and_keeps_answering(policy_k):
    rng = random.Random(policy_k)
    session = Session(parse_program(INTERPROC_BASE), INTERVAL, policy_k=policy_k)
    want = session.handle("query main exit")
    cfgs = {name: proc.cfg for name, proc in session.forest.program.procedures.items()}
    for _ in range(300):
        line = _malformed_line(rng)
        with pytest.raises((SessionError, CfgError, ParseError)):
            session.handle(line)
    assert session.handle("query main exit") == want
    assert {n: p.cfg for n, p in session.forest.program.procedures.items()} == cfgs
