#!/usr/bin/env python3
"""Variance decay of coupled particle-filter increments across levels.

Repeats coupled fine/coarse filter runs at increasing discretization levels
and fits the slope of log2 variance against the level. A negative slope is
what makes level randomization affordable: deeper, costlier levels are drawn
rarely but contribute little variance.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from unbiasedpf import (
    BatchSchedule,
    Level,
    RngStream,
    batch_cpf_run,
    generate_data,
    make_benchmark,
)


def increment_variance(bm, data, level, pairs, repeats, scheme, seed):
    """Sample variance of the terminal coupled increment at one level."""
    values = np.empty(repeats)
    for r in range(repeats):
        out = batch_cpf_run(bm, data, BatchSchedule(pairs), 0, Level(level),
                            RngStream(seed, (level, r)), scheme=scheme)
        values[r] = out[-1, 0]
    return values.var(ddof=1)


def main():
    """Tabulate increment variances and slopes for both coupling schemes."""
    n = 5
    pairs = 200
    repeats = 50
    levels = (2, 3, 4, 5)
    seed = 11

    ou = make_benchmark("OU")
    data = generate_data(ou, n, "exact", seed=seed)

    print("=" * 72)
    print("Coupled-increment variance vs level, OU benchmark")
    print("=" * 72)
    print(f"\n{pairs} particle pairs, {repeats} replicates, n={n}\n")

    for scheme in ("wasserstein", "maximal"):
        t0 = time.perf_counter()
        variances = [
            increment_variance(ou, data, l, pairs, repeats, scheme, seed)
            for l in levels
        ]
        slope = np.polyfit(levels, np.log2(variances), 1)[0]
        elapsed = time.perf_counter() - t0

        print(f"{scheme} coupling ({elapsed:.1f}s):")
        print(f"{'level':>7} {'variance':>13}")
        for l, v in zip(levels, variances):
            print(f"{l:>7} {v:>13.3e}")
        print(f"fitted log2-variance slope: {slope:.2f}\n")


if __name__ == "__main__":
    main()
