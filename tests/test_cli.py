"""Command-line interface: subcommands, flags, exit codes, CSV shape."""

import csv
import io
import json

import pytest

from alignsim.cli import main
from alignsim.shared import demo_network_config, pair_demo_patterns


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


@pytest.mark.parametrize("raw", [
    {"K": 2, "n": 4, "patterns": 5},
    {"K": 2, "n": 4, "patterns": [[[2], 3], [[2], [2]]]},
    {"K": 2, "n": 4, "patterns": [[[2], [3]], [[2], [2]]], "unknown": 7},
    {"K": 2, "n": 4, "patterns": [[[2], [None]], [[2], [2]]]},
])
def test_malformed_config_is_input_error(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, "shared-sim", str(path))
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err


def test_bad_arguments_are_input_error(capsys):
    code, _, _ = run_cli(capsys, "bound")
    assert code == 1
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 1


def test_failed_verification_exit_code_2(tmp_path, capsys):
    # identity direct transforms defeat the desired/interference separation
    # in the fast-fading scheme, so verification fails on every draw
    from conftest import fastfading_config
    cfg = fastfading_config(3, 7, 1, 0, direct_kind="identity")
    d = cfg.to_dict()
    d.update({"epsilon": 2, "trials": 3})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    code, _, err = run_cli(capsys, "ff3-sim", str(path))
    assert code == 2
    assert "first failing seed:" in err


def test_ff3_sim_success(tmp_path, capsys):
    from conftest import fastfading_config
    cfg = fastfading_config(3, 7, 1, 0)
    d = cfg.to_dict()
    d.update({"epsilon": 2, "trials": 3})
    path = tmp_path / "ff3.json"
    path.write_text(json.dumps(d))
    code, _, err = run_cli(capsys, "ff3-sim", str(path))
    assert code == 0
    assert "total_dof=10/7" in err


def test_tolerance_flag_parses(tmp_path, capsys):
    cfg = shared_config_path(tmp_path, trials=2)
    code, _, _ = run_cli(capsys, "--tolerance", "1e-8", "shared-sim", cfg)
    assert code == 0


def test_rational_output_has_both_forms(capsys):
    _, out, _ = run_cli(capsys, "bound", "3", "3")
    rows = parse_csv(out)
    assert rows[1][2] == "6/5"
    assert rows[1][3] == "1.2"
