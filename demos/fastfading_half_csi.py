"""Fast fading with hidden slots: alignment that never reads hidden gains.

Every cross channel changes in every slot, and a few slots' gains are
hidden from everyone.  The precoders read each cross link's gains on the
known slots only.  Ratios of those gains around the 3-user loop give a
transfer map T, and precoders are built from powers of T times the
indicator of the known slots, beside one unit column per hidden slot.
The construction is immune to the hidden gains: any value a hidden slot
takes moves columns only inside their span, so alignment survives no
matter what the hidden values turn out to be.

Run:  python demos/fastfading_half_csi.py
"""

from alignsim import (NetworkConfig, plan_3user, plan_kuser, sample_network,
                      upsilon_fraction, verify_3user, verify_kuser)


def per_slot_config(K, n, hidden_count):
    """Every link changes per slot; first hidden_count slots hidden on
    every cross link."""
    allpts = list(range(2, n + 1))
    patterns = [[list(allpts) for _ in range(K)] for _ in range(K)]
    unknown = [[([] if p == q else list(range(1, hidden_count + 1)))
                for q in range(K)] for p in range(K)]
    return NetworkConfig(K=K, n=n, patterns=patterns, unknown=unknown,
                         direct_kind="memory", memory_distance=hidden_count + 2)


def main():
    print("=== 3 users, 2 hidden slots, depth epsilon = 2 ===")
    L, eps = 2, 2
    n = 2 * L + 2 * eps + 1
    cfg = per_slot_config(3, n, L)
    inst = sample_network(cfg, seed=0)
    cross_unknowns = [inst.unknown_set(p, q)
                      for p in range(3) for q in range(3) if p != q]
    print(f"  {n} slots, hidden slots 1..{L} on every cross link; "
          f"perfect-CSIT fraction upsilon = "
          f"{upsilon_fraction(cross_unknowns, n)}")

    plan = plan_3user(cfg, eps)
    checks, m, total = verify_3user(plan, inst)
    print("  checks on the true channels (hidden values included):")
    for name, ok in checks.items():
        print(f"    {name}: {ok}")
    print(f"  measured ranks: tx1 {m['rank_tx1']} (= L+eps+1), "
          f"seeds {m['rank_seed_b']}/{m['rank_seed_c']} (= L+eps), "
          f"desired+interference at rx1 {m['joint_rank']} (= 2(L+eps)+1 = n)")
    dof = plan.expected["dof"]
    print(f"  per-user DoF {dof[0]}, {dof[1]}, {dof[2]} -> total {total}")

    print()
    print("=== 4 users: pairwise transfer-map grid ===")
    # N = (K-1)(K-2)-1 = 5 transfer maps; exponent grids {1}^5 and {0,1}^5
    L, n_star = 2, 1
    N = 5
    n = 2 * L + n_star ** N + (n_star + 1) ** N
    cfg = per_slot_config(4, n, L)
    inst = sample_network(cfg, seed=0)
    plan = plan_kuser(cfg, n_star)
    # grid columns multiply up to 5 gain ratios, so row magnitudes spread
    # widely; the verifier measures rank after row equalization
    m = verify_kuser(plan, inst)[1]
    dim_seed, dim_tx1 = m["dim_seed"], m["dim_tx1"]
    print(f"  {n} slots; seed set spans {dim_seed} dims "
          f"(expected {plan.expected['dim_seed']}), first transmitter "
          f"spans {dim_tx1} dims (expected {plan.expected['dim_tx1']})")
    print(f"  -> {dim_tx1}/{n} DoF for the favored user while all "
          f"interference shares the seed span")


if __name__ == "__main__":
    main()
