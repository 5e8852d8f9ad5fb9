"""The measurement probes in ``tools/`` run to completion.

The ROADMAP's figures come from these probes, and each reads graph and
engine internals, so each is run once here, in-process, on its smallest
setting.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.mark.parametrize(
    "tool, argv",
    [
        ("cold_ratio", ["--passes", "1"]),
        ("edit_phases", ["--passes", "1"]),
        ("dirty_ratio", ["--totals-only"]),
    ],
)
def test_probe_runs_and_exits_zero(tool, argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # each probe extends it
    spec = importlib.util.spec_from_file_location(f"probe_{tool}", TOOLS / f"{tool}.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    assert probe.main(argv) == 0
    assert "corpus: " in capsys.readouterr().out
