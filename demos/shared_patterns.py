"""Same-destination-pattern sharing: beating one DoF with four users.

When every channel arriving at a receiver shares that receiver's changing
pattern, a basis vector sent by r transmitters at once collapses to a
single dimension at each non-member receiver -- as long as its support
sits inside a slot window where all those receivers are constant.  The
members, whose own channels do change inside the window, each recover a
clean desired dimension.

This demo builds the two shipped 4-user pattern families, shows the
chosen windows, and verifies the resulting alignment by rank on sampled
channels via the Monte Carlo harness.

Run:  python demos/shared_patterns.py
"""

from fractions import Fraction

from alignsim import (Scenario, run_trials, sample_network, scheme_counts,
                      verify_shared)
from alignsim.shared import (demo_network_config, dense_demo_patterns,
                             pair_demo_patterns, plan_shared)


def show_family(name, patterns, n, expect_dof):
    print(f"=== {name}: {len(patterns)} users, {n} slots ===")
    for p, pat in enumerate(patterns):
        print(f"  rx{p+1} pattern changes at {pat.change_points}")

    plan = plan_shared(len(patterns), 2, patterns, n)
    print("  shared vectors (pair -> support window):")
    for v in plan.vectors:
        subset = tuple(t + 1 for t in v.subset)
        kept = tuple(t + 1 for t in v.kept)
        note = "" if kept == subset else f" (kept tx{kept} after repair)"
        print(f"    pair tx{subset}: slots {v.support[0]}..{v.support[-1]}"
              f"{note}")
    for i in range(len(plan.fill)):
        print(f"    fill tx{(i % plan.K + 1,)}: slots 1..{n}")
    print(f"  desired dims per receiver: {plan.expected_desired}, "
          f"total DoF {plan.total_dof}")
    assert plan.total_dof == expect_dof

    cfg = demo_network_config(patterns, n)
    inst = sample_network(cfg, seed=3)
    checks, measured, _ = verify_shared(plan, inst)
    per_receiver = []
    for p in range(1, len(patterns) + 1):
        desired, used = measured[f"desired_rx{p}"], measured[f"used_rx{p}"]
        per_receiver.append((desired, used - desired, used))
    alignment = {name: checks[name]
                 for name in ("imperfect_alignment", "no_pollution")}
    print(f"  rank-verified on one sampled network: "
          f"per-receiver (desired, interference, occupied) = "
          f"{per_receiver}; checks {alignment}")

    scenario = Scenario(regime="shared", config=cfg, params={"r": 2},
                        trials=50, base_seed=0)
    summary = run_trials(scenario)
    passed = sum(1 for r in summary.results if all(r.checks.values()))
    print(f"  harness: {passed}/50 seeded trials verified, "
          f"total DoF {summary.results[0].total_dof} on every trial")
    print()


def main():
    pair_pats, n_pair = pair_demo_patterns()
    show_family("pair family", pair_pats, n_pair, expect_dof=Fraction(9, 8))

    dense_pats, n_dense = dense_demo_patterns()
    show_family("dense family", dense_pats, n_dense,
                expect_dof=Fraction(12, 10))

    n, desired, total = scheme_counts(4, 2)
    print(f"closed form for K=4, r=2: {n} slots, {desired} desired dims "
          f"per receiver, total {total} -- the dense family realizes it "
          f"with concrete patterns.")


if __name__ == "__main__":
    main()
