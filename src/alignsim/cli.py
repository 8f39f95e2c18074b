"""Command-line front end.

Subcommands: bound, curve, blind-sim, shared-sim, ff3-sim, ffk-sim,
upsilon-cap, decompose.  Exit codes: 0 success, 1 input error, 2 when a
verification check failed (the failing seed is printed).  A simulation
config's ``base_seed`` is the base seed, and ``--seed`` overrides it; a
retired key (``h_min``, ``h_max``, ``seed``) is an input error.  All
output is UTF-8 CSV with dot decimal separators; rationals are printed
both as exact fractions and as 12-significant-digit decimals.
"""

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction

import numpy as np

from .channel import (ChangingPattern, NetworkConfig, config_field,
                      json_float, json_int, sample_channel)
from .decomposition import _decompose, build_power_basis
from .fastfading import dof_cap_given_upsilon, min_upsilon_for_max_dof
from .harness import Scenario, run_trials, summary_csv
from .shared import curve_f, dof_table

__all__ = ["main"]

# the most rows a bound or curve table prints: 1e9 would take an hour
MAX_ROWS = 10**6
# keys a sim config no longer takes, rejected so none changes meaning
_RETIRED_KEYS = {"h_min": "the gain range is fixed",
                 "h_max": "the gain range is fixed", "seed": "use base_seed"}


def _dec(x):
    return f"{float(x):.12g}"


def _frac(x):
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_rows(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _cmd_bound(args):
    if args.k_max - args.k_min >= MAX_ROWS:
        raise ValueError(f"k_max - k_min must be below {MAX_ROWS}")
    rows = [(K, r, _frac(d), _dec(d)) for K, r, d in dof_table(args.k_min, args.k_max)]
    _emit(_csv_rows(["K", "r_star", "dof_fraction", "dof_decimal"], rows), args.out)
    return 0


@np.errstate(invalid="ignore", over="ignore")  # curve_f rejects inf and nan
def _cmd_curve(args):
    if args.steps > MAX_ROWS:
        raise ValueError(f"steps must be at most {MAX_ROWS}")
    xs = np.linspace(args.x_min, args.x_max, args.steps)
    rows = [(_dec(x), _dec(v)) for x, v in curve_f(args.K, xs)]
    _emit(_csv_rows(["x", "f"], rows), args.out)
    return 0


def _cmd_upsilon_cap(args):
    if not 0 <= args.upsilon <= 1:
        raise ValueError("upsilon must lie in [0, 1]")
    cap = dof_cap_given_upsilon(args.K, Fraction(args.upsilon).limit_denominator(10**9))
    need = min_upsilon_for_max_dof(args.K)
    text = _csv_rows(["K", "upsilon", "cap_fraction", "cap_decimal",
                      "min_upsilon_for_max_dof"],
                     [(args.K, _dec(args.upsilon), _frac(cap), _dec(cap), _frac(need))])
    _emit(text, args.out)
    return 0


def _load_sim_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    config = NetworkConfig.from_dict(raw)
    for key, why in _RETIRED_KEYS.items():
        if key in raw:
            raise ValueError(f"{key} is a retired config key: {why}")
    params = {k: config_field(raw, k, json_int)
              for k in ("rho", "r", "epsilon", "n_star") if k in raw}
    trials = config_field(raw, "trials", json_int, 100)
    base_seed = config_field(raw, "base_seed", json_int, 0)
    return config, params, trials, base_seed


def _run_sim(args, regime):
    config, params, trials, base_seed = _load_sim_config(args.config)
    if args.trials is not None:
        trials = args.trials
    if args.seed is not None:
        base_seed = args.seed
    scenario = Scenario(regime=regime, config=config, params=params,
                        trials=trials, base_seed=base_seed)
    summary = run_trials(scenario)
    _emit(summary_csv(summary), args.out)
    dofs = [r.total_dof for r in summary.results]
    uniform = dofs.count(dofs[0]) == len(dofs)
    passed = sum(1 for r in summary.results if all(r.checks.values()))
    line = "total_dof={} trials={} pass={}\n".format(
        _frac(dofs[0]) if uniform else "mixed", trials, passed)
    sys.stderr.write(line)
    if passed < trials:
        failing = next(r.seed for r in summary.results if not all(r.checks.values()))
        sys.stderr.write(f"first failing seed: {failing}\n")
        return 2
    return 0


def _cmd_decompose(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    n = config_field(raw, "n", json_int)
    pattern = ChangingPattern(n, config_field(
        raw, "pattern", lambda pts: tuple(json_int(c) for c in pts), ()))
    seed = (args.seed if args.seed is not None
            else config_field(raw, "seed", json_int, 0))
    if seed < 0:
        raise ValueError("seed must be >= 0")
    fam = build_power_basis(pattern, seed)
    if "values" in raw:
        h = np.asarray(config_field(
            raw, "values", lambda vals: [json_float(v) for v in vals]))
        if h.size != n:
            raise ValueError(f"values must have n = {n} entries, "
                             f"got {h.size}")
    else:
        h = sample_channel(pattern, seed + 1)
    betas, recon = _decompose(h, fam)
    resid = float(np.max(np.abs(recon - h)))
    try:
        rows = [(j + 1, _dec(b)) for j, b in enumerate(betas)]
    except OverflowError:
        raise ValueError("values give coefficients beyond the float "
                         "range") from None
    rows.append(("residual", _dec(resid)))
    _emit(_csv_rows(["power", "beta"], rows), args.out)
    return 0


_NEGATIVE_NUMBER = re.compile(
    r"(?i)^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$")

_REGIME_BY_CMD = {"blind-sim": "blind", "shared-sim": "shared",
                  "ff3-sim": "fastfading3", "ffk-sim": "fastfadingK"}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="alignsim",
        description="Interference-alignment scheme construction, DoF bound "
                    "tables, and seeded rank-based verification.")
    parser.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    parser.add_argument("--seed", type=int, help="override the base seed")
    parser.add_argument("--trials", type=int, help="override the trial count")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="DoF bound table over a range of user counts")
    p.add_argument("k_min", type=int)
    p.add_argument("k_max", type=int)

    p = sub.add_parser("curve", help="real-valued sharing-DoF curve for one K")
    p.add_argument("K", type=int)
    p.add_argument("x_min", type=float)
    p.add_argument("x_max", type=float)
    p.add_argument("steps", type=int)

    for name in _REGIME_BY_CMD:
        p = sub.add_parser(name, help=f"run {name.split('-')[0]} verification trials")
        p.add_argument("config", help="JSON scenario/network config")

    p = sub.add_parser("upsilon-cap", help="sum-DoF cap for a CSIT time fraction")
    p.add_argument("K", type=int)
    p.add_argument("upsilon", type=float)

    p = sub.add_parser("decompose", help="power-basis decomposition of a channel")
    p.add_argument("config", help="JSON with n, pattern, optional values")
    # argparse reads only -1 and -1.5 forms as negative numbers, and
    # anything else starting with "-", such as -1e-05 or -inf, as an option
    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "bound":
            return _cmd_bound(args)
        if args.command == "curve":
            return _cmd_curve(args)
        if args.command == "upsilon-cap":
            return _cmd_upsilon_cap(args)
        if args.command == "decompose":
            return _cmd_decompose(args)
        return _run_sim(args, _REGIME_BY_CMD[args.command])
    # json.JSONDecodeError is a ValueError
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
