#!/usr/bin/env python3
"""Compare the gradient solver against the whitening shortcuts (per-view
whitening, diagonal whitening, PCA-then-CCA) on planted data with skewed
per-coordinate scales.

Usage: python3 scripts/baseline_comparison.py [--cond 31.6] [--seeds 5]
"""

import argparse

import numpy as np

from ccakit.harness import SolverConfig, run_experiment
from ccakit.metrics import Views
from ccakit.planted import PlantedParams, generate_planted


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--p", type=int, default=25)
    parser.add_argument("--cond", type=float, default=31.6)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()

    params = PlantedParams(
        n=args.n, p1=args.p, p2=args.p,
        correlations=(0.9, 0.8, 0.7, 0.6, 0.5),
        cond_x=args.cond, cond_y=args.cond, latent_rotate=True,
    )
    scores = {name: [] for name in ("appgrad", "nw", "dw", "pca-cca")}
    for seed in range(args.seeds):
        inst = generate_planted(params, seed=seed)
        views = Views(inst.x, inst.y)  # its moments serve every solver and the oracle
        for name in scores:
            result = run_experiment(SolverConfig(solver=name, k=5, seed=seed), x=views)
            scores[name].append(result.pcc_train)

    print(f"{'solver':<10} {'median PCC':>12} {'min':>8} {'max':>8}")
    for name, vals in scores.items():
        vals = np.asarray(vals)
        print(f"{name:<10} {np.median(vals):>12.4f} "
              f"{vals.min():>8.4f} {vals.max():>8.4f}")


if __name__ == "__main__":
    main()
