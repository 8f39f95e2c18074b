"""Seeded Monte Carlo driver.

One Scenario describes a regime (blind / shared / fastfading3 /
fastfadingK), a network configuration, scheme parameters, and a trial
count.  Trial i uses seed base_seed + i; trials are independent, results
are aggregated in trial order, and two runs of the same scenario produce
byte-identical reports.
"""

import csv
import io
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .blind import (blind_total_dof, build_blind_scheme, generic_free_dims,
                    measure_links)
from .channel import NetworkConfig, sample_network, union_pattern
from .fastfading import build_3user, build_kuser, verify_3user
from .linalg import DEFAULT_TOL, balanced_rank, numeric_rank_each
from .shared import construct_shared

__all__ = [
    "Scenario",
    "AlignmentReport",
    "TrialResult",
    "RunSummary",
    "alignment_report",
    "run_trials",
    "summary_csv",
    "write_csv",
]

REGIMES = ("blind", "shared", "fastfading3", "fastfadingK")


@dataclass(frozen=True)
class Scenario:
    regime: str
    config: NetworkConfig
    params: dict = field(default_factory=dict)
    trials: int = 100
    base_seed: int = 0
    tol: object = DEFAULT_TOL

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass
class AlignmentReport:
    per_receiver: list        # (desired_dim, interference_dim, used_dim)
    dof_vector: list          # Fractions desired/n
    total_dof: Fraction
    checks: dict


def alignment_report(instance, precoders, tol=DEFAULT_TOL):
    """Desired/interference dimension accounting at every receiver.

    Each received matrix is built once; the joints (everything arriving,
    interference only) of every receiver are ranked with one
    ``numeric_rank_each`` stack per joint shape.
    """
    K, n = instance.K, instance.n
    live = [q for q in range(K) if precoders[q].shape[1] > 0]
    joints = []             # per receiver: arriving, then interference
    for p in range(K):
        seen = [instance.received_matrix(p, q, precoders[q]) for q in live]
        interf = [m for q, m in zip(live, seen) if q != p]
        joints += [np.hstack(seen) if seen else None,
                   np.hstack(interf) if interf else None]
    ranks = [0] * len(joints)
    by_shape = {}
    for i, m in enumerate(joints):
        if m is not None:
            by_shape.setdefault(m.shape, []).append(i)
    for idx in by_shape.values():
        for i, r in zip(idx, numeric_rank_each([joints[i] for i in idx], tol)):
            ranks[i] = int(r)
    per_rx = [(used - idim, idim, used)
              for used, idim in zip(ranks[::2], ranks[1::2])]
    checks = {}
    checks["imperfect_alignment"] = sum(r[1] for r in per_rx) < (K - 1) * n
    checks["no_pollution"] = all(
        0 <= d <= precoders[p].shape[1] for p, (d, _, _) in enumerate(per_rx))
    dof_vec = [Fraction(d, n) for d, _, _ in per_rx]
    total = max(sum(dof_vec), Fraction(1))
    return AlignmentReport(per_receiver=per_rx, dof_vector=dof_vec,
                           total_dof=total, checks=checks)


@dataclass
class TrialResult:
    index: int
    seed: int
    checks: dict
    measured: dict
    total_dof: Fraction


@dataclass
class RunSummary:
    regime: str
    trials: int
    results: list
    pass_fraction: dict
    rank_stats: dict          # name -> (min, max, mode)

    @property
    def all_passed(self):
        return all(f == 1.0 for f in self.pass_fraction.values())


def _receiver_patterns(config):
    pats = [config.pattern(p, 0) for p in range(config.K)]
    for p in range(config.K):
        for q in range(1, config.K):
            if config.pattern(p, q) != pats[p]:
                raise ValueError("shared regime needs one pattern per receiver")
    return pats


def _blind_trial(scenario, seed):
    cfg = scenario.config
    cross = [cfg.pattern(p, q) for p in range(cfg.K) for q in range(cfg.K)
             if p != q]
    union = union_pattern(cross)
    rho = int(scenario.params.get("rho", 1))
    scheme = build_blind_scheme(union, rho, cfg.K, seed)
    inst = sample_network(cfg, seed)
    checks, measured = {}, {}
    base, contained, free = measure_links(scheme, inst, scenario.tol)
    measured["basis_rank"] = base
    checks["basis_full_rank"] = base == scheme.interference_basis.shape[1]
    checks["cross_containment"] = contained
    agree = True
    for k, meas in enumerate(free):
        measured[f"free_dims_rx{k + 1}"] = meas
        agree &= generic_free_dims(scheme, cfg.pattern(k, k)) == meas
    checks["predicted_equals_measured"] = bool(agree)
    return checks, measured, blind_total_dof(free, scheme.n)


def _shared_trial(scenario, seed):
    cfg = scenario.config
    pats = _receiver_patterns(cfg)
    r = int(scenario.params.get("r", 2))
    scheme = construct_shared(cfg.K, r, pats, cfg.n, seed)
    inst = sample_network(cfg, seed)
    report = alignment_report(inst, scheme.precoders, scenario.tol)
    checks, measured = dict(report.checks), {}
    ok = True
    for p, (d, _, used) in enumerate(report.per_receiver):
        measured[f"desired_rx{p + 1}"] = d
        measured[f"used_rx{p + 1}"] = used
        ok &= d == scheme.expected_desired[p] and used == scheme.expected_used[p]
    checks["dims_match_construction"] = bool(ok)
    return checks, measured, report.total_dof


def _ff3_trial(scenario, seed):
    cfg = scenario.config
    eps = int(scenario.params.get("epsilon", 1))
    inst = sample_network(cfg, seed)
    scheme = build_3user(inst, eps, seed)
    out = verify_3user(scheme, inst, scenario.tol)
    total = sum(scheme.expected["dof"]) if out["checks"].get("rx1_separation") \
        else Fraction(1)
    return dict(out["checks"]), dict(out["measured"]), total


def _ffk_trial(scenario, seed):
    cfg = scenario.config
    n_star = int(scenario.params.get("n_star", 1))
    inst = sample_network(cfg, seed)
    scheme = build_kuser(inst, n_star, seed)
    checks, measured = {}, {}
    # columns are products of many transfer-map ratios, so row magnitudes
    # vary by orders of magnitude; balanced_rank keeps the threshold fair
    measured["dim_seed"] = balanced_rank(scheme.seed_columns, scenario.tol)
    measured["dim_tx1"] = balanced_rank(scheme.tx1_columns, scenario.tol)
    checks["dims_match_formula"] = (
        measured["dim_seed"] == scheme.expected["dim_seed"]
        and measured["dim_tx1"] == scheme.expected["dim_tx1"])
    return checks, measured, Fraction(scheme.expected["dim_tx1"], scheme.n)


_TRIAL_FNS = {"blind": _blind_trial, "shared": _shared_trial,
              "fastfading3": _ff3_trial, "fastfadingK": _ffk_trial}


def run_trials(scenario: Scenario) -> RunSummary:
    """Run every trial of a scenario and aggregate pass/fail and rank stats."""
    fn = _TRIAL_FNS[scenario.regime]
    results = []
    for i in range(scenario.trials):
        seed = scenario.base_seed + i
        try:
            checks, measured, total = fn(scenario, seed)
        except ValueError as exc:
            raise ValueError(f"trial seed {seed}: {exc}") from exc
        results.append(TrialResult(index=i, seed=seed, checks=checks,
                                   measured=measured, total_dof=total))

    names = sorted({k for r in results for k in r.checks})
    pass_fraction = {
        name: sum(1 for r in results if r.checks.get(name)) / len(results)
        for name in names}
    rank_stats = {}
    for name in sorted({k for r in results for k in r.measured}):
        vals = [r.measured[name] for r in results if name in r.measured]
        nums = [v for v in vals if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if nums:
            mode = Counter(nums).most_common(1)[0][0]
            rank_stats[name] = (min(nums), max(nums), mode)
    return RunSummary(regime=scenario.regime, trials=scenario.trials,
                      results=results, pass_fraction=pass_fraction,
                      rank_stats=rank_stats)


def _fmt(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def summary_csv(summary: RunSummary) -> str:
    """Per-trial CSV rows plus a trailing summary block, as one string."""
    check_names = sorted({k for r in summary.results for k in r.checks})
    meas_names = sorted({k for r in summary.results for k in r.measured})
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["trial", "seed"]
               + [f"check_{c}" for c in check_names]
               + [f"measured_{m}" for m in meas_names] + ["total_dof"])
    for r in summary.results:
        w.writerow([r.index, r.seed]
                   + [_fmt(bool(r.checks.get(c))) for c in check_names]
                   + [_fmt(r.measured.get(m, "")) for m in meas_names]
                   + [_fmt(r.total_dof)])
    w.writerow([])
    w.writerow(["summary", "regime", summary.regime, "trials", summary.trials])
    for name in check_names:
        w.writerow(["pass_fraction", name, repr(summary.pass_fraction[name])])
    for name, (lo, hi, mode) in summary.rank_stats.items():
        w.writerow(["rank_stats", name, _fmt(lo), _fmt(hi), _fmt(mode)])
    return buf.getvalue()


def write_csv(summary: RunSummary, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(summary_csv(summary))
