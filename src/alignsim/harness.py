"""Seeded Monte Carlo driver.

One Scenario describes a regime (blind / shared / fastfading3 /
fastfadingK), a network configuration, scheme parameters, and a trial
count.  Trial i uses seed base_seed + i; trials are independent, results
are aggregated in trial order, and two runs of the same scenario produce
byte-identical reports.

The pipeline is plan at load -> sample -> draw -> verify.  A Scenario
builds its regime's seed-free plan once, when it is constructed, so a
config or parameter the regime cannot use fails there: the blind union
pattern, layout checks and expected free dimensions, the shared window
and carrier construction, or the fast-fading hidden union and slot-count
checks.  ``run_trials`` samples each trial's network once and hands the
instance to the regime's trial, which draws the seeded part of the scheme
from the plan, takes the checks and measured numbers from its verifier
and derives the total DoF.
"""

import csv
import io
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .blind import (blind_total_dof, draw_blind, generic_free_dims,
                    plan_blind, verify_blind)
from .channel import NetworkConfig, sample_network, union_pattern
from .fastfading import (draw_3user, draw_kuser, plan_3user, plan_kuser,
                         verify_3user, verify_kuser)
from .shared import draw_shared, plan_shared, verify_shared

__all__ = [
    "Scenario",
    "TrialResult",
    "RunSummary",
    "run_trials",
    "summary_csv",
]


@dataclass(frozen=True)
class Scenario:
    regime: str
    config: NetworkConfig
    params: dict = field(default_factory=dict)
    trials: int = 100
    base_seed: int = 0
    # the regime's seed-free plan, shared by every trial
    plan: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.regime not in _REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        object.__setattr__(self, "plan", _REGIMES[self.regime][0](
            self.config, self.params))


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
                raise ValueError("the shared regime needs the same patterns "
                                 "on every link into a receiver")
    return pats


def _blind_plan(cfg, params):
    cross = [cfg.pattern(p, q) for p in range(cfg.K) for q in range(cfg.K)
             if p != q]
    union = union_pattern(cross)
    plan = plan_blind(union, int(params.get("rho", 1)))
    return plan, [generic_free_dims(plan, cfg.pattern(k, k))
                  for k in range(cfg.K)]


def _blind_trial(plan, instance, seed):
    blind, expected_free = plan
    scheme = draw_blind(blind, instance.K, seed)
    checks, measured = verify_blind(scheme, instance, expected_free)
    free = [measured[f"free_dims_rx{k + 1}"] for k in range(instance.K)]
    return checks, measured, blind_total_dof(free, scheme.n)


def _shared_plan(cfg, params):
    pats = _receiver_patterns(cfg)
    return plan_shared(cfg.K, int(params.get("r", 2)), pats, cfg.n)


def _shared_trial(plan, instance, seed):
    checks, measured = verify_shared(draw_shared(plan, seed), instance)
    desired = sum(measured[f"desired_rx{p + 1}"] for p in range(instance.K))
    return checks, measured, max(Fraction(desired, instance.n), Fraction(1))


def _ff3_plan(cfg, params):
    eps = int(params.get("epsilon", 1))
    return eps, plan_3user(cfg, eps)


def _ff3_trial(plan, instance, seed):
    eps, omega = plan
    scheme = draw_3user(instance, eps, omega, seed)
    checks, measured = verify_3user(scheme, instance)
    total = sum(scheme.expected["dof"]) if checks["rx1_separation"] \
        else Fraction(1)
    return checks, measured, total


def _ffk_plan(cfg, params):
    n_star = int(params.get("n_star", 1))
    return n_star, plan_kuser(cfg, n_star)


def _ffk_trial(plan, instance, seed):
    n_star, omega = plan
    scheme = draw_kuser(instance, n_star, omega, seed)
    checks, measured = verify_kuser(scheme)
    return checks, measured, Fraction(scheme.expected["dim_tx1"], scheme.n)


# regime -> (plan from config and params, trial from plan, sampled
# instance and seed)
_REGIMES = {"blind": (_blind_plan, _blind_trial),
            "shared": (_shared_plan, _shared_trial),
            "fastfading3": (_ff3_plan, _ff3_trial),
            "fastfadingK": (_ffk_plan, _ffk_trial)}


def run_trials(scenario: Scenario) -> RunSummary:
    """Run every trial of a scenario and aggregate pass/fail and rank stats."""
    fn = _REGIMES[scenario.regime][1]
    results = []
    for i in range(scenario.trials):
        seed = scenario.base_seed + i
        try:
            checks, measured, total = fn(
                scenario.plan, sample_network(scenario.config, seed), seed)
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
