"""Source-level guarantees: no ``assert`` and no unused import in the
library, one rank entry for the regimes, one network-sampling site and no
rank-tolerance parameter, the same command output with and without
``python -O``, and a suite that reports every test when a property test
fails."""

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


# perfbench's tracer test reads fastfading.is_subspace, which the module
# itself no longer calls
KEPT_IMPORTS = {("fastfading.py", "is_subspace")}


def test_library_has_no_unused_imports():
    # a package __init__ imports names to re-export them, so it is skipped;
    # elsewhere a name listed in __all__ counts as used
    found = []
    for path in sorted((SRC / "alignsim").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        used |= {entry.value for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__"
                         for t in node.targets)
                 for entry in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if (name not in used
                            and (path.name, name) not in KEPT_IMPORTS):
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


# every rank decision of a regime goes through numeric_rank_by_shape, or
# balanced_rank for the K-user families
RANK_ENTRY = {"numeric_rank_by_shape", "balanced_rank"}


def test_regimes_rank_through_one_entry():
    found = []
    for name in ("blind.py", "shared.py", "fastfading.py", "harness.py"):
        tree = ast.parse((SRC / "alignsim" / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{name}:{node.lineno} {alias.name}"
                          for alias in node.names if "linalg" in alias.name]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                found += [
                    f"{name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if (module.endswith("linalg") and alias.name not in
                        RANK_ENTRY and (name, alias.name) not in KEPT_IMPORTS)
                    or (not module.endswith("linalg")
                        and alias.name == "linalg")]
    assert found == []


def test_one_site_samples_the_network():
    # run_trials samples each trial's network and hands it to the regime
    found = []
    for path in sorted((SRC / "alignsim").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # the walk is breadth first, so an inner function's name wins
        scope = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(func)}
        found += [f"{path.name}:{scope.get(id(node), '<module>')}"
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and "sample_network" in (getattr(node.func, "id", None),
                                           getattr(node.func, "attr", None))]
    assert found == ["harness.py:run_trials"]


def test_no_function_takes_a_rank_tolerance():
    # the rank threshold is the fixed linalg.RELATIVE_THRESHOLD; no
    # signature may thread a per-call tolerance back in
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted((SRC / "alignsim").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda))
             for arg in ast.walk(node.args)
             if isinstance(arg, ast.arg) and arg.arg == "tol"]
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
    "ff3-sim": lambda: {**fastfading_config(3, 7, 1).to_dict(),
                        "epsilon": 2},
    "ffk-sim": lambda: {**fastfading_config(4, 37, 2).to_dict(),
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
