"""Command-line interface: subcommands, flags, exit codes, CSV shape."""

import contextlib
import csv
import io
import json
import os
import re
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsim.cli import main
from alignsim.shared import demo_network_config, pair_demo_patterns
from conftest import fastfading_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def shared_config_path(tmp_path, trials=4, **extra):
    pats, n = pair_demo_patterns()
    d = demo_network_config(pats, n).to_dict()
    d.update({"r": 2, "trials": trials, **extra})
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(d))
    return str(path)


def test_bound_table(capsys):
    code, out, _ = run_cli(capsys, "bound", "1", "5")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["K", "r_star", "dof_fraction", "dof_decimal"]
    assert rows[4] == ["4", "2", "4/3", "1.33333333333"]
    assert len(rows) == 6


def test_bound_out_flag(tmp_path, capsys):
    path = tmp_path / "bound.csv"
    code, out, _ = run_cli(capsys, "--out", str(path), "bound", "1", "3")
    assert code == 0 and out == ""
    rows = parse_csv(path.read_text(encoding="utf-8"))
    assert rows[0][0] == "K" and len(rows) == 4


def test_curve(capsys):
    code, out, _ = run_cli(capsys, "curve", "4", "1", "3", "5")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["x", "f"]
    assert len(rows) == 6
    assert float(rows[1][0]) == 1.0 and float(rows[-1][0]) == 3.0


def test_upsilon_cap(capsys):
    code, out, _ = run_cli(capsys, "upsilon-cap", "3", "0.5")
    assert code == 0
    rows = parse_csv(out)
    assert rows[1][2] == "3/2"
    assert rows[1][4] == "1/2"


def test_decompose(tmp_path, capsys):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps({"n": 6, "pattern": [3, 5], "seed": 1}))
    code, out, _ = run_cli(capsys, "decompose", str(path))
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["power", "beta"]
    assert rows[-1][0] == "residual"
    assert abs(float(rows[-1][1])) < 1e-9


def test_shared_sim_success(tmp_path, capsys):
    cfg = shared_config_path(tmp_path)
    out_path = tmp_path / "sim.csv"
    code, _, err = run_cli(capsys, "--out", str(out_path),
                           "shared-sim", cfg)
    assert code == 0
    assert "total_dof=9/8" in err
    rows = parse_csv(out_path.read_text(encoding="utf-8"))
    assert rows[0][0] == "trial"
    assert any(r and r[0] == "pass_fraction" for r in rows)


def test_sim_trials_and_seed_overrides(tmp_path, capsys):
    cfg = shared_config_path(tmp_path, trials=50)
    code, out, err = run_cli(capsys, "--trials", "2", "--seed", "7",
                             "shared-sim", cfg)
    assert code == 0
    rows = [r for r in parse_csv(out) if r and r[0].isdigit()]
    assert len(rows) == 2
    assert rows[0][1] == "7"            # seed column honors --seed


def test_config_seed_is_the_base_seed_unless_base_seed_is_given(tmp_path,
                                                                capsys):
    def seed_column(**extra):
        code, out, _ = run_cli(capsys, "shared-sim", shared_config_path(
            tmp_path, trials=3, **extra))
        assert code == 0
        return [r[1] for r in parse_csv(out) if r and r[0].isdigit()]
    assert seed_column() == ["0", "1", "2"]
    assert seed_column(seed=7) == ["7", "8", "9"]
    assert seed_column(seed=7, base_seed=9) == ["9", "10", "11"]


def test_missing_config_is_input_error(capsys):
    code, _, err = run_cli(capsys, "shared-sim", "/nonexistent/cfg.json")
    assert code == 1
    assert "error:" in err


_PAIR = demo_network_config(*pair_demo_patterns()).to_dict()
_FF3 = fastfading_config(3, 7, 1).to_dict()
_FFK = {**fastfading_config(4, 37, 2, memory_distance=4).to_dict(),
        "n_star": 1, "trials": 1}
# a valid blind scenario: cross links change at slots 3 and 5
_BLIND = {"K": 3, "n": 6, "rho": 1, "trials": 1,
          "patterns": [[[2, 4], [3, 5], [3, 5]], [[3, 5], [], [3, 5]],
                       [[3, 5], [3, 5], [2, 3, 5]]]}


def _with_true(nest, p, q):
    """A copy of a K x K nest whose cell (p, q) also holds JSON true."""
    out = [[list(cell) for cell in row] for row in nest]
    out[p][q].append(True)
    return out


# (command, config, a word the error message must name: the field at
# fault, or "object" for a top level that is not one)
MALFORMED = [
    ("shared-sim", {"K": 2, "n": 4, "patterns": 5}, "patterns"),
    ("shared-sim", {"K": 2, "n": 4, "patterns": [[[2], 3], [[2], [2]]]},
     "patterns"),
    ("shared-sim", {"K": 2, "n": 4, "patterns": [[[2], [3]], [[2], [2]]],
                    "unknown": 7}, "unknown"),
    ("shared-sim", {"K": 2, "n": 4, "patterns": [[[2], [None]], [[2], [2]]]},
     "patterns"),
    ("shared-sim", {"K": None, "n": 4, "patterns": [[[2], [3]], [[2], [2]]]},
     "K"),
    ("shared-sim", {"K": 2, "n": 4, "patterns": [[[2], [3]], [[2], [2]]],
                    "trials": None}, "trials"),
    ("shared-sim", [2, 4], "object"),
    ("decompose", {"n": None, "pattern": [2]}, "n"),
    ("decompose", {"n": 4, "pattern": None}, "pattern"),
    ("decompose", {"n": 3, "pattern": [[2]]}, "pattern"),
    ("decompose", {"n": 4, "values": None}, "values"),
    ("decompose", {"n": 4.9, "pattern": [2]}, "n"),
    ("decompose", {"n": True}, "n"),
    ("decompose", {"n": "4", "pattern": [2]}, "n"),
    ("shared-sim", {**_PAIR, "r": 2, "trials": 1.5}, "trials"),
    ("decompose", {"n": 4, "values": [1, 2]}, "values"),
    ("shared-sim", {**_PAIR, "r": 2,
                    "unknown": _with_true(_PAIR["unknown"], 0, 1)}, "unknown"),
    ("ff3-sim", {**_FF3, "epsilon": 2, "trials": 2,
                 "unknown": [[[True] if cell else [] for cell in row]
                             for row in _FF3["unknown"]]}, "unknown"),
    ("shared-sim", {**_PAIR, "r": 2,
                    "patterns": _with_true(_PAIR["patterns"], 0, 1)},
     "patterns"),
    # one user has no cross link, so there is no cross pattern to merge
    ("blind-sim", {"K": 1, "n": 4, "patterns": [[[3]]], "trials": 1},
     "pattern"),
    # gains from outside the program must be finite, and the range they
    # are drawn from must have a finite, positive width
    ("decompose", {"n": 4, "pattern": [3],
                   "values": [1.0, 1.0, float("inf"), 2.0]}, "values"),
    ("blind-sim", {**_BLIND, "h_min": float("inf")}, "h_min"),
    ("blind-sim", {**_BLIND, "h_min": -1e308, "h_max": 1e308}, "h_min"),
    ("blind-sim", {**_BLIND, "h_max": True}, "h_max"),
    # exact coefficients of huge finite gains lie beyond the float range
    ("decompose", {"n": 4, "pattern": [3],
                   "values": [1e308, 1e308, -1e308, -1e308]}, "values"),
    # a subnormal gain range keeps too few bits for a rank test
    ("blind-sim", {**_BLIND, "h_min": 1e-320, "h_max": 2e-320}, "h_min"),
    # the CLI reads a config's seed as the base seed
    ("shared-sim", {**_PAIR, "r": 2, "seed": 1.5}, "seed"),
    # the K-user scheme draws no direct transform, so the config is
    # where a bad one is caught
    ("ffk-sim", {**_FFK, "direct_kind": "wavelet"}, "direct_kind"),
    ("ffk-sim", {**_FFK, "memory_distance": _FFK["n"]}, "memory_distance"),
    ("shared-sim", {**_PAIR, "r": 2, "base_seed": -5}, "base_seed"),
]


@pytest.mark.parametrize("command, raw, named", MALFORMED,
                         ids=[f"raw{i}" for i in range(len(MALFORMED))])
def test_malformed_config_is_input_error(tmp_path, capsys, command, raw,
                                         named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert "error:" in err and re.search(rf"\b{named}\b", err)
    assert "Traceback" not in err


@pytest.mark.parametrize("field, cell", [("patterns", [9]), ("unknown", [0])])
def test_out_of_range_slot_fails_when_the_config_loads(tmp_path, capsys,
                                                       field, cell):
    raw = {**_PAIR, "r": 2, "trials": 3}
    raw[field] = [[list(c) for c in row] for row in raw[field]]
    raw[field][1][2] = cell
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "shared-sim", str(path))
    assert code == 1 and out == ""
    # rejected while building the config's tables, before any trial runs
    assert err.startswith("error:") and "must lie in" in err
    assert "trial seed" not in err


def _pair_with_cell(p, q, cell):
    nest = [[list(c) for c in row] for row in _PAIR["patterns"]]
    nest[p][q] = cell
    return {**_PAIR, "r": 2, "trials": 3, "patterns": nest}


# (command, config, the field the error message must name): each is a
# config the regime cannot use, caught while its plan is built
REGIME_ERRORS = [
    ("blind-sim", {**_BLIND, "rho": 0}, "rho"),
    # two cross change points at rho = 2 need n = 12, not 6
    ("blind-sim", {**_BLIND, "rho": 2}, "n"),
    # the identity transform built at load is O(n) memory, not n x n
    ("blind-sim", {**_BLIND, "n": 200_000}, "n"),
    ("shared-sim", {**_PAIR, "r": 4, "trials": 3}, "r"),
    ("shared-sim", {**_PAIR, "r": 0, "trials": 3}, "r"),
    # one link into receiver 2 changes where the others do not
    ("shared-sim", _pair_with_cell(1, 2, [2]), "patterns"),
    # one hidden slot at epsilon = 1 needs n = 5, not 7
    ("ff3-sim", {**_FF3, "epsilon": 1, "trials": 3}, "n"),
    ("ffk-sim", {**_FFK, "n_star": 0, "trials": 3}, "n_star"),
]


@pytest.mark.parametrize("command, raw, named", REGIME_ERRORS,
                         ids=[f"{c}-{n}" for c, _, n in REGIME_ERRORS])
def test_regime_errors_fail_when_the_scenario_is_built(tmp_path, capsys,
                                                       command, raw, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and re.search(rf"\b{named}\b", err), err
    # rejected by the scenario's plan, before any trial runs
    assert "trial seed" not in err


def test_bad_arguments_are_input_error(capsys):
    code, _, _ = run_cli(capsys, "bound")
    assert code == 1
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 1


def test_failed_verification_exit_code_2(tmp_path, capsys):
    # identity direct transforms defeat the desired/interference separation
    # in the fast-fading scheme, so verification fails on every draw
    d = fastfading_config(3, 7, 1, direct_kind="identity").to_dict()
    d.update({"epsilon": 2, "trials": 3})
    # the union block before slot 2 is shorter than rho = 2, so the blind
    # basis loses rank on every draw; such a config is valid input
    short = [[[2] for _ in range(3)] for _ in range(3)]
    blind = {"K": 3, "n": 8, "rho": 2, "trials": 3, "patterns": short}
    for command, raw, failing in (("ff3-sim", d, "rx1_separation"),
                                  ("blind-sim", blind, "basis_full_rank")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert "first failing seed:" in err
        assert [f"pass_fraction,{failing},0.0"] == [
            line for line in out.splitlines()
            if line.startswith(f"pass_fraction,{failing},")]


def test_ff3_sim_success(tmp_path, capsys):
    d = fastfading_config(3, 7, 1).to_dict()
    # a cross link with one change point, and hidden slots that are not a
    # prefix of the frame: the construction needs neither, and every
    # check confirms it
    one_change = fastfading_config(3, 9, 2).to_dict()
    one_change["patterns"][0][1] = [4]
    hidden_later = fastfading_config(3, 9, 2).to_dict()
    hidden_later["unknown"] = [[[] if p == q else [5, 6] for q in range(3)]
                               for p in range(3)]
    for raw, dof in ((d, "10/7"), (one_change, "13/9"),
                     (hidden_later, "13/9")):
        raw.update({"epsilon": 2, "trials": 3})
        path = tmp_path / "ff3.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "ff3-sim", str(path))
        assert code == 0, err
        assert f"total_dof={dof}" in err


@pytest.mark.parametrize("h_min, h_max", [(1e160, 2e160), (1e-300, 2e-300)])
def test_blind_sim_passes_at_huge_and_tiny_gains(tmp_path, capsys, h_min,
                                                 h_max):
    # squared entries overflow or underflow; the rank kernel rescales them
    path = tmp_path / "blind.json"
    path.write_text(json.dumps({**_BLIND, "trials": 3, "h_min": h_min,
                                "h_max": h_max}))
    code, _, err = run_cli(capsys, "blind-sim", str(path))
    assert code == 0, err
    assert "pass=3" in err


@pytest.mark.parametrize("h_min, h_max", [(1e160, 2e160), (1e-300, 2e-300)])
@pytest.mark.parametrize("command, raw", [
    ("ff3-sim", {**_FF3, "epsilon": 2}), ("ffk-sim", _FFK)],
    ids=["ff3", "ffk"])
def test_fastfading_sims_pass_at_huge_and_tiny_gains(tmp_path, capsys,
                                                     command, raw, h_min,
                                                     h_max):
    # products of three gains overflow or underflow unless the surrogate
    # gains are first scaled by a power of two
    path = tmp_path / "ff.json"
    path.write_text(json.dumps({**raw, "trials": 2, "h_min": h_min,
                                "h_max": h_max}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run_cli(capsys, command, str(path))
    assert code == 0, err
    assert "pass=2" in err


def test_ff3_sim_at_48_hidden_slots_ends_without_traceback(tmp_path, capsys):
    # the n = 101 banded memory transforms are nonsingular, but seed 2
    # draws one too ill-conditioned for a float rank test
    d = fastfading_config(3, 101, 48, memory_distance=50).to_dict()
    d.update({"epsilon": 2, "trials": 1, "seed": 2})
    path = tmp_path / "ff3.json"
    path.write_text(json.dumps(d))
    code, _, err = run_cli(capsys, "ff3-sim", str(path))
    assert code in (0, 2)
    assert "Traceback" not in err


SIM_COMMANDS = ("blind-sim", "shared-sim", "ff3-sim", "ffk-sim")


@st.composite
def sim_configs(draw):
    """Small configs, well- or ill-formed: any K and n, nests of small
    integers (slots out of range included) that are sometimes the wrong
    size, and random scheme parameters and transform kinds."""
    K, n = draw(st.integers(0, 4)), draw(st.integers(0, 12))
    cell = st.lists(st.integers(-1, 14), max_size=5)

    def nest():
        side = draw(st.sampled_from((K, K, K, K + 1)))
        return draw(st.lists(st.lists(cell, min_size=side, max_size=side),
                             min_size=side, max_size=side))
    raw = {"K": K, "n": n, "patterns": nest(), "trials": 1}
    if draw(st.booleans()):
        raw["unknown"] = nest()
    for key in ("rho", "r", "epsilon", "n_star", "memory_distance"):
        if draw(st.booleans()):
            raw[key] = draw(st.integers(-1, 13))
    if draw(st.booleans()):
        raw["direct_kind"] = draw(st.sampled_from(
            ("identity", "memory", "permutation", "wavelet")))
    for key in ("h_min", "h_max"):
        if draw(st.booleans()):
            raw[key] = draw(st.sampled_from(
                (float("inf"), -float("inf"), float("nan"), 1e308, -1e308,
                 1e-320, 2e-320, 1e160, 2e160, 1e-300, 2e-300, 0.25, 0.5,
                 1.0, 2.0, 3.0)))
    return draw(st.sampled_from(SIM_COMMANDS)), raw


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=sim_configs())
def test_sim_commands_never_raise(case):
    command, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([command, path])
    assert code in (0, 1, 2), err.getvalue()


@st.composite
def closed_form_argv(draw):
    """Arguments of bound, curve and upsilon-cap: user counts and bounds in
    [-2, 30], step counts in [0, 20], and floats that are small integers
    (where the curve's denominator can vanish) or anything, inf and nan
    included."""
    k, x = st.integers(-2, 30), st.integers(-2, 30).map(float) | st.floats()
    command = draw(st.sampled_from(("bound", "curve", "upsilon-cap")))
    args = {"bound": lambda: [draw(k), draw(k)],
            "curve": lambda: [draw(k), draw(x), draw(x),
                              draw(st.integers(0, 20))],
            "upsilon-cap": lambda: [draw(k), draw(x)]}[command]()
    # after "--", negative numbers such as -1e-05 parse as positionals
    return [command, "--", *map(str, args)]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(argv=closed_form_argv())
def test_closed_form_commands_never_raise(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), err.getvalue()
    if code == 0:
        assert not re.search("nan|inf", out.getvalue()), out.getvalue()


@pytest.mark.parametrize("argv, named", [
    (["curve", "0", "1", "2", "3"], "K"),
    (["curve", "-2", "1", "2", "3"], "K"),
    (["curve", "4", "1", "inf", "3"], "finite"),
    (["curve", "4", "nan", "2", "3"], "finite"),
    (["upsilon-cap", "3", "inf"], "upsilon"),
    (["upsilon-cap", "3", "nan"], "upsilon"),
])
def test_closed_form_input_errors(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and named in err, err


CURVE_POINTS = "need K >= 1 and positive, finite curve points"


@pytest.mark.parametrize("number", ["-1e-05", "-2E3", "-.5e1"])
@pytest.mark.parametrize("argv, message", [
    (["curve", "4", "{}", "2", "3"], CURVE_POINTS),
    (["curve", "4", "1", "{}", "3"], CURVE_POINTS),
    (["upsilon-cap", "3", "{}"], "upsilon must lie in [0, 1]"),
])
def test_negative_exponent_forms_reach_the_command(capsys, argv, message,
                                                   number):
    # read as an option, the number would end in argparse's usage line
    code, out, err = run_cli(capsys, *(a.format(number) for a in argv))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_tolerance_flag_is_a_usage_error(tmp_path, capsys):
    # the rank threshold is fixed, so the flag no longer exists
    cfg = shared_config_path(tmp_path, trials=2)
    code, out, err = run_cli(capsys, "--tolerance", "1e-8", "shared-sim", cfg)
    assert (code, out) == (1, "")
    assert err.startswith("usage: alignsim") and "Traceback" not in err


def test_rational_output_has_both_forms(capsys):
    _, out, _ = run_cli(capsys, "bound", "3", "3")
    rows = parse_csv(out)
    assert rows[1][2] == "6/5"
    assert rows[1][3] == "1.2"
