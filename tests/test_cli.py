"""Command-line interface: subcommands, flags, exit codes, CSV shape."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignsim import harness
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


def test_config_seed_is_rejected_and_base_seed_is_the_base_seed(tmp_path,
                                                                capsys):
    def seed_column(**extra):
        code, out, _ = run_cli(capsys, "shared-sim", shared_config_path(
            tmp_path, trials=3, **extra))
        assert code == 0
        return [r[1] for r in parse_csv(out) if r and r[0].isdigit()]
    assert seed_column() == ["0", "1", "2"]
    assert seed_column(base_seed=9) == ["9", "10", "11"]
    # base_seed is the one seed key: an old config's seed would otherwise
    # be dropped without a word
    for extra in ({"seed": 7}, {"seed": 7, "base_seed": 9}):
        code, out, err = run_cli(capsys, "shared-sim", shared_config_path(
            tmp_path, trials=3, **extra))
        assert (code, out) == (1, "")
        assert err == "error: seed is a retired config key: use base_seed\n"


def test_sim_seeds_stop_below_2_32(tmp_path, capsys):
    cfg = shared_config_path(tmp_path, trials=2)
    code, out, _ = run_cli(capsys, "--seed", str(2**32 - 2), "shared-sim",
                           cfg)
    assert code == 0
    assert [r[1] for r in parse_csv(out) if r and r[0].isdigit()] == [
        str(2**32 - 2), str(2**32 - 1)]
    code, out, err = run_cli(capsys, "--seed", str(2**32 - 1), "shared-sim",
                             cfg)
    assert (code, out) == (1, "")
    assert err == ("error: base_seed must lie in [0, 2**32 - trials]: every "
                   "trial seed is below 2**32\n")


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
    # gains from outside the program must be finite
    ("decompose", {"n": 4, "pattern": [3],
                   "values": [1.0, 1.0, float("inf"), 2.0]}, "values"),
    # the gain range is fixed: a config that sets it names the key
    ("blind-sim", {**_BLIND, "h_min": float("inf")}, "h_min"),
    ("blind-sim", {**_BLIND, "h_min": -1e308, "h_max": 1e308}, "h_min"),
    ("blind-sim", {**_BLIND, "h_max": True}, "h_max"),
    # exact coefficients of huge finite gains lie beyond the float range
    ("decompose", {"n": 4, "pattern": [3],
                   "values": [1e308, 1e308, -1e308, -1e308]}, "values"),
    # the first retired key is named, whatever its value
    ("blind-sim", {**_BLIND, "h_min": 1e-320, "h_max": 2e-320}, "h_min"),
    # base_seed is the one seed key of a simulation config
    ("shared-sim", {**_PAIR, "r": 2, "seed": 1.5}, "seed"),
    # the K-user scheme draws no direct transform, so the config is
    # where a bad one is caught
    ("ffk-sim", {**_FFK, "direct_kind": "wavelet"}, "direct_kind"),
    ("ffk-sim", {**_FFK, "memory_distance": _FFK["n"]}, "memory_distance"),
    ("shared-sim", {**_PAIR, "r": 2, "base_seed": -5}, "base_seed"),
    # caught before the family is built, not inside numpy's generator
    ("decompose", {"n": 4, "pattern": [2], "seed": -5}, "seed"),
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


@pytest.mark.parametrize("key, value", [("h_min", 0.5), ("h_max", 2.0)])
@pytest.mark.parametrize("command, raw", [
    ("blind-sim", _BLIND), ("shared-sim", {**_PAIR, "r": 2}),
    ("ff3-sim", {**_FF3, "epsilon": 2}), ("ffk-sim", _FFK)],
    ids=["blind", "shared", "ff3", "ffk"])
def test_retired_gain_range_keys_are_rejected(tmp_path, capsys, command, raw,
                                              key, value):
    # gains are always drawn on [0.5, 2), so a config that sets the range,
    # even to those values, would otherwise change meaning without a word
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**raw, key: value}))
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {key} is a retired config key: the gain range " \
                  "is fixed\n"


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


def _with_cell(nest, p, q, cell):
    """A copy of a K x K nest whose cell (p, q) is cell."""
    out = [[list(c) for c in row] for row in nest]
    out[p][q] = cell
    return out


def _pair_with_cell(p, q, cell):
    return {**_PAIR, "r": 2, "trials": 3,
            "patterns": _with_cell(_PAIR["patterns"], p, q, cell)}


# (command, config, the field the error message must name): each is a
# config the regime cannot use, caught while its plan is built
REGIME_ERRORS = [
    ("blind-sim", {**_BLIND, "rho": 0}, "rho"),
    # two cross change points at rho = 2 need n = 12, not 6
    ("blind-sim", {**_BLIND, "rho": 2}, "n"),
    # the identity transform built at load is O(n) memory, not n x n
    ("blind-sim", {**_BLIND, "n": 200_000}, "n"),
    # the pattern-only scheme is stated for diagonal direct links
    ("blind-sim", {**_BLIND, "direct_kind": "memory", "memory_distance": 2},
     "direct_kind"),
    ("blind-sim", {**_BLIND, "direct_kind": "permutation",
                   "memory_distance": 2}, "direct_kind"),
    ("shared-sim", {**_PAIR, "r": 4, "trials": 3}, "r"),
    ("shared-sim", {**_PAIR, "r": 0, "trials": 3}, "r"),
    # one link into receiver 2 changes where the others do not
    ("shared-sim", _pair_with_cell(1, 2, [2]), "patterns"),
    # one hidden slot at epsilon = 1 needs n = 5, not 7
    ("ff3-sim", {**_FF3, "epsilon": 1, "trials": 3}, "n"),
    ("ffk-sim", {**_FFK, "n_star": 0, "trials": 3}, "n_star"),
    # union blocks of one slot at rho = 2: the basis would have rank
    # sum_b min(|b|, rho) = 4, not n/2 = 6, on every draw
    ("blind-sim", {"K": 3, "n": 12, "rho": 2, "trials": 1,
                   "direct_kind": "identity", "patterns": [
                       [[] if p == q else [2, 3] for q in range(3)]
                       for p in range(3)]}, "block"),
    # the same for the block before slot 2 at n = 8
    ("blind-sim", {"K": 3, "n": 8, "rho": 2, "trials": 1,
                   "patterns": [[[2]] * 3] * 3}, "block"),
    # receivers 1 and 2 change once, 3 and 4 never: at r = 1, 2 and 3 the
    # plan's interference fills all (K-1)*n receiver dimensions
    *(("shared-sim", {"K": 4, "n": 4, "r": r, "trials": 1,
                      "direct_kind": "identity",
                      "patterns": [[pts] * 4 for pts in ([4], [3], [], [])]},
       "alignment") for r in (2, 1, 3)),
    # fast fading: one cross link, or one direct link, keeps a gain across
    # slots
    ("ff3-sim", {**_FF3, "epsilon": 2, "patterns": _with_cell(
        _FF3["patterns"], 0, 1, [4])}, "fading"),
    ("ffk-sim", {**_FFK, "patterns": _with_cell(_FFK["patterns"], 2, 2,
                                                [2, 3])}, "fading"),
    # identity links match no hidden slot to a slot off omega, and a band
    # of distance 3 has no slot after the hidden last one, so receiver 1
    # cannot separate its signal on any draw
    ("ff3-sim", {**fastfading_config(3, 7, 1, direct_kind="identity")
                 .to_dict(), "epsilon": 2}, "rx1"),
    ("ff3-sim", {**fastfading_config(3, 9, 1, memory_distance=3).to_dict(),
                 "unknown": [[[] if p == q else [9] for q in range(3)]
                             for p in range(3)], "epsilon": 3}, "separate"),
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
    # a drawn permutation transform that maps the hidden slot onto itself
    # defeats the desired/interference separation of that trial (seeds 1
    # and 3 of these four), a failure inside the ff3 regime
    d = fastfading_config(3, 7, 1, direct_kind="permutation",
                          memory_distance=2).to_dict()
    d.update({"epsilon": 2, "trials": 4})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    code, out, err = run_cli(capsys, "ff3-sim", str(path))
    assert code == 2
    assert "first failing seed: 1" in err
    assert ["pass_fraction,rx1_separation,0.5"] == [
        line for line in out.splitlines()
        if line.startswith("pass_fraction,rx1_separation,")]


def test_error_inside_a_trial_is_input_error(tmp_path, capsys, monkeypatch):
    plan, _ = harness._REGIMES["blind"]

    def trial(plan, instance, seed):
        raise ZeroDivisionError("no free slot")

    monkeypatch.setitem(harness._REGIMES, "blind", (plan, trial))
    path = tmp_path / "blind.json"
    path.write_text(json.dumps({**_BLIND, "base_seed": 7}))
    code, out, err = run_cli(capsys, "blind-sim", str(path))
    assert (code, out) == (1, "")
    assert err == "error: trial seed 7: ZeroDivisionError: no free slot\n"


def test_ff3_sim_success(tmp_path, capsys):
    d = fastfading_config(3, 7, 1).to_dict()
    # hidden slots that are not a prefix of the frame: the construction
    # does not need one, and every check confirms it
    hidden_later = fastfading_config(3, 9, 2).to_dict()
    hidden_later["unknown"] = [[[] if p == q else [5, 6] for q in range(3)]
                               for p in range(3)]
    for raw, dof in ((d, "10/7"), (hidden_later, "13/9")):
        raw.update({"epsilon": 2, "trials": 3})
        path = tmp_path / "ff3.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "ff3-sim", str(path))
        assert code == 0, err
        assert f"total_dof={dof}" in err


def test_ff3_sim_at_48_hidden_slots_ends_without_traceback(tmp_path, capsys):
    # the n = 101 banded memory transforms are nonsingular, but seed 2
    # draws one too ill-conditioned for a float rank test
    d = fastfading_config(3, 101, 48, memory_distance=50).to_dict()
    d.update({"epsilon": 2, "trials": 1, "base_seed": 2})
    path = tmp_path / "ff3.json"
    path.write_text(json.dumps(d))
    code, _, err = run_cli(capsys, "ff3-sim", str(path))
    assert code in (0, 2)
    assert "Traceback" not in err


SIM_COMMANDS = ("blind-sim", "shared-sim", "ff3-sim", "ffk-sim")


@st.composite
def malformed_configs(draw):
    """Any K and n, nests of small integers (slots out of range included)
    that are sometimes the wrong size, and random scheme parameters and
    transform kinds."""
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
    return raw


@st.composite
def sim_configs(draw):
    """A sim command and its config.  One config in four is malformed;
    the rest are K x K nests of sorted change points in [2, n] and hidden
    cross-link slots in [1, n], with scheme parameters near their ranges.
    Half of those take the n and the parameters of the command's slot
    count (blind n = 2 rho (s + 1) with one cross pattern of s points, ff3
    n = 2L + 2 eps + 1 and ffk n = 2L + 1 + 2^N with L hidden slots, and
    shared K in [3, 4] and n in [K, 3K + 3] with one pattern per receiver,
    as the shared regime asks), the other half any K and n, with one
    pattern per receiver on half the draws."""
    command = draw(st.sampled_from(SIM_COMMANDS))
    if draw(st.integers(0, 3)) == 0:
        return command, draw(malformed_configs())

    def points(lo, n, size=None):
        """size (else any number of) distinct sorted slots in [lo, n]."""
        if lo > n:
            return []
        span = n - lo + 1 if size is None else size
        return sorted(draw(st.lists(st.integers(lo, n), unique=True,
                                    min_size=size or 0, max_size=span)))

    K, params, cross, hidden = draw(st.integers(1, 4)), {}, None, []
    n, per_receiver = draw(st.integers(1, 12)), False
    if draw(st.booleans()):
        L = draw(st.integers(0, 3))
        if command == "blind-sim":
            s, rho = draw(st.integers(0, 3)), draw(st.integers(1, 2))
            n, params = 2 * rho * (s + 1), {"rho": rho}
            cross = points(2, n, size=s)
        elif command == "ff3-sim":
            eps = draw(st.integers(1, 3))
            K, n, params = 3, 2 * L + 2 * eps + 1, {"epsilon": eps}
        elif command == "ffk-sim":
            K = draw(st.integers(3, 4))
            n, params = 2 * L + 1 + 2 ** ((K - 1) * (K - 2) - 1), {"n_star": 1}
        else:
            K = draw(st.integers(3, 4))
            n, per_receiver = draw(st.integers(K, 3 * K + 3)), True
        hidden = points(1, n, size=min(L, n))
    if cross is not None:
        patterns = [[cross if p != q else points(2, n) for q in range(K)]
                    for p in range(K)]
    elif per_receiver or draw(st.booleans()):
        patterns = [[points(2, n)] * K for _ in range(K)]
    else:
        patterns = [[points(2, n) for _ in range(K)] for _ in range(K)]
    unknown = [[[] if p == q else hidden or points(1, n)[:2]
                for q in range(K)] for p in range(K)]
    raw = {"K": K, "n": n, "patterns": patterns, "unknown": unknown,
           "trials": 1, **params}
    for key, (lo, hi) in (("rho", (1, 3)), ("r", (1, 3)), ("epsilon", (1, 3)),
                          ("n_star", (1, 2)),
                          ("memory_distance", (1, max(1, n - 1)))):
        if key not in raw and draw(st.booleans()):
            raw[key] = draw(st.integers(lo, hi))
    raw["direct_kind"] = draw(st.sampled_from(
        ("identity", "memory", "permutation")))
    return command, raw


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
    # a shared plan's counts are what an identity-link trial measures
    if command == "shared-sim" and raw.get("direct_kind",
                                           "identity") == "identity":
        assert code != 2, err.getvalue()


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
    # past MAX_ROWS rows: 10**12 curve points do not fit in memory, and
    # the bound table would take seconds per million rows
    (["curve", "4", "1", "2", "1000000000000"], "steps"),
    (["bound", "1", "1000001"], "k_max"),
])
def test_closed_form_input_errors(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and named in err, err


def test_config_beyond_memory_is_input_error(tmp_path):
    # n = 10**10 asks for a 149 GiB identity line when the config loads,
    # which numpy refuses with MemoryError under a 4 GiB address space
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**_BLIND, "n": 10**10}))
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
            "from alignsim.cli import main\n"
            f"sys.exit(main(['blind-sim', {str(path)!r}]))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("error: Unable to allocate"), run.stderr
    assert "Traceback" not in run.stderr


CURVE_POINTS = "need K >= 1 and positive, finite curve points"


# exponent forms, and the non-finite forms float() reads in any case
@pytest.mark.parametrize("number", ["-1e-05", "-2E3", "-.5e1", "-inf",
                                    "-Infinity", "-nan", "-NaN"])
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


def test_decompose_rejects_a_negative_seed_flag(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 4, "pattern": [2]}))
    code, out, err = run_cli(capsys, "--seed", "-5", "decompose", str(path))
    assert (code, out, err) == (1, "", "error: seed must be >= 0\n")


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
