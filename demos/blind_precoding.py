"""Pattern-only precoding: aligning interference without channel values.

All cross links into every receiver share one changing pattern.  The
transmitters build their precoders from that pattern alone (no gains):
columns are the indicators of the pattern's blocks, which span the powers
of a staircase diagonal anchored at those blocks, mixed with powers of a
random diagonal.  Any diagonal channel with the shared pattern then maps
the precoder into the same fixed interference subspace, so half the
slots stay free for desired signal.

The receiver's own (direct) channel is drawn with a different pattern;
every slot where it changes privately -- off the cross-link union --
frees extra desired dimensions, and the library predicts exactly how
many before sampling any gains.

Run:  python demos/blind_precoding.py
"""

import warnings

from alignsim import (ChangingPattern, NetworkConfig, generic_free_dims,
                      is_subspace, plan_blind, predicted_free_dims,
                      sample_network, verify_blind)


def main():
    # one cross-union change point at slot 4 and 7; rho = 2 repetitions
    n, rho, K = 12, 2, 3
    union = ChangingPattern(n, (4, 7))
    # per-receiver direct patterns: same as the union (nothing private),
    # one private point, two private points
    direct = [(4, 7), (9,), (2, 9)]
    plan = plan_blind(union, rho, [ChangingPattern(n, d) for d in direct])
    print(f"{K} users, {n} slots, union change points {union.change_points}")
    print(f"interference basis: {plan.basis.shape[1]} columns "
          f"(= n/2) spanning the common crosstalk subspace")

    nest = [[list(union.change_points) for _ in range(K)] for _ in range(K)]
    for k in range(K):
        nest[k][k] = list(direct[k])
    cfg = NetworkConfig(K=K, n=n, patterns=nest, direct_kind="identity")
    inst = sample_network(cfg, seed=1)

    print()
    print("cross interference lands inside the fixed basis at every receiver:")
    for p in range(K):
        for q in range(K):
            if p == q:
                continue
            seen = inst.received_matrix(p, q, plan.basis)
            inside = is_subspace(seen, plan.basis)
            print(f"  rx{p+1} <- tx{q+1}: contained = {inside}")
            assert inside

    print()
    print("free desired dimensions, predicted before any gains are drawn")
    print("(the coarse block formula warns when a direct block outlasts the")
    print(" column budget and can over-count short value-runs; the refined")
    print(" count always matches the measured rank):")
    _, measured, total = verify_blind(plan, inst)
    dims = [measured[f"free_dims_rx{k + 1}"] for k in range(K)]
    for k in range(K):
        pat = ChangingPattern(n, direct[k])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            coarse = predicted_free_dims(plan, pat)
        fine = generic_free_dims(plan, pat)
        measured = dims[k]
        print(f"  rx{k+1}: direct changes {direct[k]} -> "
              f"block formula {coarse}, refined {fine}, measured {measured}")
        assert fine == measured

    print()
    print(f"total DoF = max(1, sum of free dims / n) = {total} "
          f"= {float(total):.4f}")
    print("(the floor is the time-sharing baseline; with more private direct")
    print(" change points the free-dimension sum exceeds n and beats it)")


if __name__ == "__main__":
    main()
