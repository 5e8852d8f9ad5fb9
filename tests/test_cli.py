import subprocess
import sys
from pathlib import Path


from daig.cli import main

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
