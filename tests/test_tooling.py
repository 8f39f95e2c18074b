"""Source-level guarantees: no ``assert`` and no unused import in the
library, one rank entry for every module, called with named matrices, one
exact-solve entry, one network-sampling site, one acceptance loop for
separated draws, a fixed list of generator-seeding sites, trial streams
keyed by seed and purpose, one verifier contract ``verify_*(plan,
instance)`` for every regime, no least-squares solve and no retired
parameter (a rank tolerance, a gain range or a separation mode), the same
command output with and without ``python -O``, and a suite that reports
every test when a property test fails."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alignsim import blind, fastfading, harness, shared
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


# every rank decision of the library goes through numeric_rank_by_shape
RANK_ENTRY = {"numeric_rank_by_shape"}


def test_regimes_rank_through_one_entry():
    found = []
    for path in sorted((SRC / "alignsim").rglob("*.py")):
        name = path.name
        if name in ("linalg.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
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


def test_library_solves_exactly_through_one_entry():
    # the one exact-arithmetic entry of the library is rational.exact_solve,
    # called by decomposition; exact_rank is the test suite's oracle
    found = []
    for path in sorted((SRC / "alignsim").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{alias.name}" for alias in node.names
                          if "rational" in alias.name]
            elif isinstance(node, ast.ImportFrom):
                from_rational = (node.module or "").endswith("rational")
                found += [f"{path.name}:{alias.name}" for alias in node.names
                          if from_rational or alias.name == "rational"]
    assert found == ["decomposition.py:exact_solve"]


def test_every_rank_call_names_its_matrices():
    # numeric_rank_by_shape returns each rank under its matrix's name, so a
    # caller that builds the names where it calls reads no rank by position
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "alignsim").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and "numeric_rank_by_shape" in (getattr(node.func, "id", None),
                                             getattr(node.func, "attr", None))
             and not (node.args
                      and isinstance(node.args[0], (ast.Dict, ast.DictComp)))]
    assert found == []
    assert call_sites("numeric_rank_by_shape") == [
        "blind.py:verify_blind", "fastfading.py:verify_3user",
        "fastfading.py:verify_kuser", "linalg.py:is_subspace",
        "shared.py:plan_shared", "shared.py:_ranks"]


def call_sites(name):
    """file:function of every call to a function or method named name in
    the library, files in path order and calls in ast.walk order."""
    found = []
    for path in sorted((SRC / "alignsim").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # the walk is breadth first, so an inner function's name wins
        scope = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(func)}
        found += [f"{path.name}:{scope.get(id(node), '<module>')}"
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None),
                               getattr(node.func, "attr", None))]
    return found


def test_overflow_contexts_are_entered_at_fixed_sites():
    # the curve command's decorator and the rank kernel's entry: one
    # np.errstate per numeric_rank_by_shape call, whatever its shapes; a
    # per-shape context inside the kernel would show up here as a new site
    assert call_sites("errstate") == ["cli.py:_cmd_curve",
                                      "linalg.py:numeric_rank_by_shape"]


def test_one_site_samples_the_network():
    # run_trials samples each trial's network and hands it to the regime
    assert call_sites("sample_network") == ["harness.py:run_trials"]


def test_one_site_bisects_separated_draws():
    # every separated draw, a power generator's blocks or a hidden slot's
    # surrogate values, goes through the one acceptance loop
    assert call_sites("bisect") == ["channel.py:separated_uniform"]


def test_generators_are_seeded_at_fixed_sites():
    # one generator per purpose: a network's links all come from the one
    # sample_network seeds; a generator seeded anywhere else shows up here
    # as a new site (test_trial_generator_counts counts them per trial)
    assert sorted(call_sites("default_rng")) == [
        "blind.py:plan_blind",
        "channel.py:direct_transform_matrix",
        "channel.py:direct_transform_matrix",
        "channel.py:sample_channel",
        "channel.py:sample_network",
        "decomposition.py:build_indexed_basis",
        "decomposition.py:build_power_basis",
        "shared.py:plan_shared"]


# the functions that seed a trial's generators, with the call each
# passes its key to
TRIAL_KEY_SITES = {("channel.py", "sample_network"): "default_rng",
                   ("channel.py", "__missing__"): "direct_transform_matrix"}


def test_trial_streams_are_keyed_by_seed_and_purpose():
    # every generator a trial seeds is keyed [seed, k] or [seed, k, p],
    # one purpose k per site, so no two purposes of one trial, nor of two
    # adjacent trials, share a stream; purposes 2, 4 and 5 are retired, and
    # the pattern-only schemes draw from seed-free plan keys
    found = {}
    for (file, func), callee in TRIAL_KEY_SITES.items():
        tree = ast.parse((SRC / "alignsim" / file).read_text(
            encoding="utf-8"))
        body = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == func)
        keys = [call.args[-1] for call in ast.walk(body)
                if isinstance(call, ast.Call)
                and callee in (getattr(call.func, "id", None),
                               getattr(call.func, "attr", None))]
        assert len(keys) == 1, (file, func)
        key = keys[0]
        assert isinstance(key, ast.List) and 2 <= len(key.elts) <= 3, func
        seed, purpose = key.elts[:2]
        assert "seed" in (getattr(seed, "id", None),
                          getattr(seed, "attr", None)), func
        assert isinstance(purpose, ast.Constant), func
        found[func] = purpose.value
    assert sorted(found.values()) == [1, 3], found


def test_library_solves_no_least_squares():
    # every decomposition is an exact square solve: an indexed family adds
    # the sum row instead of a float least-squares fit
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted((SRC / "alignsim").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if "lstsq" in (getattr(node, "attr", None),
                            getattr(node, "id", None),
                            getattr(node, "name", None))]
    assert found == []


REGIME_MODULES = {"blind": blind, "shared": shared, "fastfading3": fastfading,
                  "fastfadingK": fastfading}


def test_every_regime_verifies_its_plan_on_the_instance():
    # one trial pipeline: run_trials hands each regime's own library
    # verifier the Scenario's plan and the sampled instance, nothing else,
    # and every public verifier takes exactly those two
    verifiers = {getattr(module, name) for module in REGIME_MODULES.values()
                 for name in module.__all__ if name.startswith("verify_")}
    assert {verify for _, verify in harness._REGIMES.values()} == verifiers
    for regime, (_, verify) in harness._REGIMES.items():
        module = REGIME_MODULES[regime]
        assert getattr(module, verify.__name__) is verify, regime
    for verify in verifiers:
        assert list(inspect.signature(verify).parameters) == [
            "plan", "instance"], verify.__name__
    # the trial seed reaches a verifier only inside the instance
    tree = ast.parse((SRC / "alignsim" / "harness.py").read_text(
        encoding="utf-8"))
    found = [f"harness.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda))
             for arg in ast.walk(node.args)
             if isinstance(arg, ast.arg) and arg.arg == "seed"]
    assert found == []


def test_harness_reads_no_verdict_by_key():
    # each verifier returns its trial's total DoF, so the harness reads no
    # check, measured number or expected value back to derive it
    tree = ast.parse((SRC / "alignsim" / "harness.py").read_text(
        encoding="utf-8"))
    found = [f"harness.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Subscript)
             and (getattr(node.value, "id", None) in ("checks", "measured")
                  or getattr(node.value, "attr", None) == "expected")]
    assert found == []


@pytest.mark.parametrize("name", ["tol", "h_min", "h_max",
                                  "distinct_blocks", "avoid"])
def test_no_function_takes_a_retired_parameter(name):
    # the rank threshold is the fixed linalg.RELATIVE_THRESHOLD, gains are
    # drawn on the fixed [H_MIN_DEFAULT, H_MAX_DEFAULT), and a globally
    # separated draw is separated_uniform, with no values to avoid: no
    # signature may thread a per-call tolerance, gain range, separation
    # mode or avoided value back in
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted((SRC / "alignsim").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda))
             for arg in ast.walk(node.args)
             if isinstance(arg, ast.arg) and arg.arg == name]
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
