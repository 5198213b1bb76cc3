#!/usr/bin/env python3
"""Measure the FLOP cost for minibatch vs full-batch runs to reach a target
fraction of the oracle correlation on a large planted instance.

Usage: python3 scripts/stochastic_efficiency.py [--target 0.95] [--seeds 3]
"""

import argparse

import numpy as np

from ccakit.appgrad import default_step, run_appgrad
from ccakit.metrics import Views
from ccakit.planted import PlantedParams, generate_planted
from ccakit.stochastic import MinibatchPlan, StepSchedule, run_stochastic


def first_crossing(records, target):
    for r in records:
        if r.pcc_train >= target:
            return r.t, r.flops
    return None, None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20000)
    parser.add_argument("--p", type=int, default=100)
    parser.add_argument("--m", type=int, default=500)
    parser.add_argument("--cond", type=float, default=3.0)
    parser.add_argument("--target", type=float, default=0.95)
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()

    params = PlantedParams(
        n=args.n, p1=args.p, p2=args.p,
        correlations=(0.9, 0.8, 0.7, 0.6, 0.5),
        cond_x=args.cond, cond_y=args.cond, latent_rotate=True,
    )
    ratios = []
    for seed in range(args.seeds):
        inst = generate_planted(params, seed=seed)
        views, o = Views(inst.x, inst.y), inst.empirical  # its moments serve all three calls

        _, brep = run_appgrad(views, None, 5, seed=seed, max_iters=200,
                              record_every=5, oracle=o)
        bt, bf = first_crossing(brep.records, args.target)

        eta0 = default_step(views, None, seed=seed).eta1
        plan = MinibatchPlan(m=args.m, seed=seed)
        _, srep = run_stochastic(
            views, None, 5, plan, StepSchedule("constant", eta0=eta0),
            max_iters=600, seed=seed, oracle=o, record_every=10,
        )
        st, sf = first_crossing(srep.records, args.target)

        if bf is None or sf is None:
            print(f"seed {seed}: target {args.target} not reached "
                  f"(batch t={bt}, stochastic t={st})")
            continue
        ratios.append(sf / bf)
        print(f"seed {seed}: batch hits at t={bt} ({bf:.3e} flops), "
              f"stochastic at t={st} ({sf:.3e} flops), ratio={sf / bf:.3f}")

    if ratios:
        print(f"median FLOP ratio over {len(ratios)} seeds: "
              f"{float(np.median(ratios)):.3f}")


if __name__ == "__main__":
    main()
