"""Seeded Monte Carlo driver.

One Scenario describes a regime (blind / shared / fastfading3 /
fastfadingK), a network configuration, scheme parameters, and a trial
count.  Trial i uses seed base_seed + i; trials are independent, results
are aggregated in trial order, and two runs of the same scenario produce
byte-identical reports.

The pipeline is plan at load -> sample -> draw -> verify.  A Scenario
builds its regime's seed-free plan once, when it is constructed, so a
config or parameter the regime cannot use fails there: the blind
identity-direct-link check, union pattern, layout checks, union blocks no
shorter than rho and expected free dimensions, the shared window and
carrier construction with a plan that leaves room for alignment, or the
fast-fading checks (every link changes at every slot, the slot count and
ff3's rx1 matching, unless drawn) and hidden-slot plan (omega, [u,
E_omega], the expected DoF or ranks).  ``run_trials`` samples each
trial's network once and hands the instance to the regime's trial, which
builds the rest of the scheme from the plan and the instance and returns
its verifier's ``(checks, measured, total_dof)`` as they are.
"""

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction

from .blind import draw_blind, generic_free_dims, plan_blind, verify_blind
from .channel import (NetworkConfig, constant_intervals, sample_network,
                      union_pattern)
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
        if not 0 <= self.base_seed <= 2**32 - self.trials:
            raise ValueError("base_seed must lie in [0, 2**32 - trials]: "
                             "every trial seed is below 2**32")
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
    if cfg.direct_kind != "identity":
        raise ValueError("the blind regime needs identity direct links, "
                         f"not direct_kind {cfg.direct_kind!r}")
    cross = [cfg.pattern(p, q) for p in range(cfg.K) for q in range(cfg.K)
             if p != q]
    plan = plan_blind(union_pattern(cross), int(params.get("rho", 1)))
    for block in constant_intervals(plan.union):
        if len(block) < plan.rho:
            raise ValueError(f"union block of slots {block[0]}..{block[-1]} "
                             f"is shorter than rho = {plan.rho}")
    return plan, [generic_free_dims(plan, cfg.pattern(k, k))
                  for k in range(cfg.K)]


def _blind_trial(plan, instance, seed):
    return verify_blind(draw_blind(plan[0], instance.K, seed), instance,
                        plan[1])


def _shared_plan(cfg, params):
    K, n = cfg.K, cfg.n
    plan = plan_shared(K, int(params.get("r", 2)), _receiver_patterns(cfg), n)
    if sum(plan.expected_used) - sum(plan.expected_desired) >= (K - 1) * n:
        raise ValueError("the plan predicts no alignment: its interference "
                         "fills all (K-1)*n receiver dimensions")
    return plan


def _shared_trial(plan, instance, seed):
    return verify_shared(draw_shared(plan, seed), instance)


def _fast_fading(cfg, plan):
    if any(len(cfg.pattern(p, q).change_points) < cfg.n - 1
           for p in range(cfg.K) for q in range(cfg.K)):
        raise ValueError("fast fading: every link must change at every slot")
    return plan


def _ff3_plan(cfg, params):
    plan = _fast_fading(cfg, plan_3user(cfg, int(params.get("epsilon", 1))))
    if plan.separated is False:
        raise ValueError(f"rx1 cannot separate: the {cfg.direct_kind} direct "
                         "transform leaves a hidden slot unmatched off omega")
    return plan


def _ff3_trial(plan, instance, seed):
    return verify_3user(draw_3user(instance, plan), instance)


def _ffk_plan(cfg, params):
    return _fast_fading(cfg, plan_kuser(cfg, int(params.get("n_star", 1))))


def _ffk_trial(plan, instance, seed):
    return verify_kuser(draw_kuser(instance, plan))


# regime -> (plan from config and params, trial from plan, sampled
# instance and seed)
_REGIMES = {"blind": (_blind_plan, _blind_trial),
            "shared": (_shared_plan, _shared_trial),
            "fastfading3": (_ff3_plan, _ff3_trial),
            "fastfadingK": (_ffk_plan, _ffk_trial)}


def run_trials(scenario: Scenario) -> RunSummary:
    """Run every trial of a scenario and aggregate pass/fail and rank stats
    in one pass; a trial's error reaches the caller as a ValueError naming
    its seed.  A missing check fails, and a mode is ``Counter.most_common``'s.
    """
    fn = _REGIMES[scenario.regime][1]
    results, passes, stats = [], {}, {}
    for i in range(scenario.trials):
        seed = scenario.base_seed + i
        try:
            checks, measured, total = fn(
                scenario.plan, sample_network(scenario.config, seed), seed)
        except Exception as exc:
            kind = "" if isinstance(exc, ValueError) else \
                f"{type(exc).__name__}: "
            raise ValueError(f"trial seed {seed}: {kind}{exc}") from exc
        results.append(TrialResult(index=i, seed=seed, checks=checks,
                                   measured=measured, total_dof=total))
        for name, ok in checks.items():
            passes[name] = passes.get(name, 0) + bool(ok)
        for name, v in measured.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                lo, hi, counts = stats.get(name) or (v, v, {})
                counts[v] = counts.get(v, 0) + 1
                stats[name] = (min(lo, v), max(hi, v), counts)
    pass_fraction = {name: passes[name] / len(results)
                     for name in sorted(passes)}
    rank_stats = {name: (lo, hi, max(counts, key=counts.get))
                  for name, (lo, hi, counts) in sorted(stats.items())}
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
