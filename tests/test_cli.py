"""Command-line interface: subcommands, flags, exit codes, CSV shape."""

import contextlib
import csv
import io
import json
import os
import re
import tempfile

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


def shared_config_path(tmp_path, trials=4, seed=0):
    pats, n = pair_demo_patterns()
    cfg = demo_network_config(pats, n, seed=seed)
    d = cfg.to_dict()
    d.update({"r": 2, "trials": trials})
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


def test_missing_config_is_input_error(capsys):
    code, _, err = run_cli(capsys, "shared-sim", "/nonexistent/cfg.json")
    assert code == 1
    assert "error:" in err


_PAIR = demo_network_config(*pair_demo_patterns()).to_dict()
_FF3 = fastfading_config(3, 7, 1, 0).to_dict()
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


def test_bad_arguments_are_input_error(capsys):
    code, _, _ = run_cli(capsys, "bound")
    assert code == 1
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 1


def test_failed_verification_exit_code_2(tmp_path, capsys):
    # identity direct transforms defeat the desired/interference separation
    # in the fast-fading scheme, so verification fails on every draw
    cfg = fastfading_config(3, 7, 1, 0, direct_kind="identity")
    d = cfg.to_dict()
    d.update({"epsilon": 2, "trials": 3})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    code, _, err = run_cli(capsys, "ff3-sim", str(path))
    assert code == 2
    assert "first failing seed:" in err


def test_ff3_sim_success(tmp_path, capsys):
    cfg = fastfading_config(3, 7, 1, 0)
    d = cfg.to_dict()
    d.update({"epsilon": 2, "trials": 3})
    path = tmp_path / "ff3.json"
    path.write_text(json.dumps(d))
    code, _, err = run_cli(capsys, "ff3-sim", str(path))
    assert code == 0
    assert "total_dof=10/7" in err


def test_ff3_sim_at_48_hidden_slots_ends_without_traceback(tmp_path, capsys):
    # the n = 101 banded memory transforms are nonsingular, but seed 2
    # draws one too ill-conditioned for a float rank test
    d = fastfading_config(3, 101, 48, 2, memory_distance=50).to_dict()
    d.update({"epsilon": 2, "trials": 1})
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
                 0.25, 0.5, 1.0, 2.0, 3.0)))
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


def test_tolerance_flag_parses(tmp_path, capsys):
    cfg = shared_config_path(tmp_path, trials=2)
    code, _, _ = run_cli(capsys, "--tolerance", "1e-8", "shared-sim", cfg)
    assert code == 0


def test_rational_output_has_both_forms(capsys):
    _, out, _ = run_cli(capsys, "bound", "3", "3")
    rows = parse_csv(out)
    assert rows[1][2] == "6/5"
    assert rows[1][3] == "1.2"
