"""Source-level guarantees: no ``assert`` in the library, the same
command output with and without ``python -O``, and a suite that reports
every test when a property test fails."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alignsim.shared import demo_network_config, pair_demo_patterns
from conftest import fastfading_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a runtime check must raise
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted((SRC / "alignsim").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _blind_config():
    nest = [[[3, 5] for _ in range(3)] for _ in range(3)]
    nest[0][0], nest[1][1], nest[2][2] = [2, 4], [], [2, 3, 5]
    return {"K": 3, "n": 6, "patterns": nest, "direct_kind": "identity",
            "rho": 1}


SIM_CONFIGS = {
    "shared-sim": lambda: {**demo_network_config(
        *pair_demo_patterns()).to_dict(), "r": 2},
    "blind-sim": _blind_config,
    "ff3-sim": lambda: {**fastfading_config(3, 7, 1, 0).to_dict(),
                        "epsilon": 2},
    "ffk-sim": lambda: {**fastfading_config(4, 37, 2, 0).to_dict(),
                        "n_star": 1},
}


@pytest.mark.parametrize("command", SIM_CONFIGS)
def test_sim_output_is_the_same_under_optimize(tmp_path, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SIM_CONFIGS[command]()))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    runs = [subprocess.run(
        [sys.executable, *flags, "-m", "alignsim.cli", "--seed", "3",
         "--trials", "5", command, str(path)],
        capture_output=True, text=True, env=env, timeout=120)
        for flags in ([], ["-O"])]
    plain, optimized = [(r.returncode, r.stdout, r.stderr) for r in runs]
    assert plain[0] == 0 and plain[1], plain[2]
    assert optimized == plain


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st

@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5

def test_passes():
    pass
"""


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # hypothesis's failure report touches a deprecated name, which the
    # project's warnings-as-errors setting must not turn into an
    # INTERNALERROR that skips the rest of the run
    (tmp_path / "test_example.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_example.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
