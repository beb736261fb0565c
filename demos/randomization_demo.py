#!/usr/bin/env python3
"""Anatomy of a randomization plan and the debiasing identity.

Prints the level and batch-size distributions of a truncated plan, then
replaces the particle-filter increments with a fixed deterministic table so
the randomized estimator's expectation can be checked against the telescoped
sum exactly.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from unbiasedpf import (
    expected_draw_cost,
    make_truncated_plan,
    randomized_table_mean,
)


def main():
    """Show plan structure, then verify the debiasing identity on a table."""
    lmax = 3
    base_size = 10
    n = 10
    draws = 200000
    seed = 7

    plan = make_truncated_plan(lmax, base_size)

    print("=" * 72)
    print(f"Truncated randomization plan: L_max={lmax}, N_0={base_size}")
    print("=" * 72)

    print("\nLevel distribution and importance weights:")
    print(f"{'l':>3} {'P_L(l)':>10} {'weight 1/P_L':>14}")
    for l in range(lmax + 1):
        print(f"{l:>3} {plan.level_pmf.mass(l):>10.5f} "
              f"{plan.level_weight(l):>14.5f}")

    print("\nBatch-size distribution per level (doubling schedule):")
    for l in range(lmax + 1):
        pmf = plan.pmf_p(l)
        masses = ", ".join(
            f"p={p}: {pmf.mass(p):.4f}" for p in range(plan.p_max(l) + 1))
        print(f"  l={l}: {masses}")

    print(f"\nExpected Euler steps per draw at n={n}: "
          f"{expected_draw_cost(plan, n):.2f}")

    # Replace the stochastic increments with a fixed table v[l, p]; the
    # estimator's expectation is then the row-telescoped sum exactly.
    rng = np.random.default_rng(3)
    table = rng.normal(size=(lmax + 1, lmax + 1))
    exact = sum(table[l, plan.p_max(l)] for l in range(lmax + 1))
    mean, stderr = randomized_table_mean(plan, table, draws, seed)

    print("\n" + "=" * 72)
    print("Debiasing identity on a fixed table")
    print("=" * 72)
    print(f"\nMonte Carlo mean over {draws} draws: {mean:+.5f}")
    print(f"Analytic telescoped sum:             {exact:+.5f}")
    print(f"Gap: {abs(mean - exact):.5f}  ({abs(mean - exact) / stderr:.2f} "
          f"standard errors)")


if __name__ == "__main__":
    main()
