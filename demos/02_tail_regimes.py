#!/usr/bin/env python3
"""How the upper tail of the cycle maximum behaves in each traffic regime.

Walks one chain through subcritical, critical, and supercritical load,
printing the tail law, the scale it settles on, and the limiting constant.
Ends with the dual pairing that exchanges the two ergodic regimes and the
escape probability of a transient chain.
"""

import numpy as np

from cyclemax import (
    CycleMaxDistribution,
    SimConfig,
    classify,
    duality_check,
    dual_process,
    mm1,
    simulate_cycles,
    tail_asymptotics,
)


def section(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    section("Tail scale by regime (single server)")
    for lam in (0.4, 1.0, 2.0):
        spec = mm1(lam, 1.0, label=f"rho={lam}")
        rep = tail_asymptotics(spec)
        print(f"rho={lam:3.1f}  {rep.regime.value:14s} scale: {rep.scale}")
        print(f"          limit constant {rep.limit_constant:+.6f}"
              f"   empirical at n=400 {rep.empirical_value:+.6f}")

    section("Critical load: survival decays like 1/n")
    crit = CycleMaxDistribution(mm1(1.0, 1.0))
    for n in (10, 100, 1000):
        print(f"n={n:5d}  n * P(Y > n) = {n * crit.survival(n):.6f}")

    section("Supercritical load: the cycle may never end")
    trans = mm1(2.0, 1.0)
    dist = CycleMaxDistribution(trans)
    print(f"P(cycle maximum finite) = {dist.p_finite:.6f}")
    print("conditional law given a finite maximum:")
    for n in (1, 3, 10):
        print(f"  P(Y <= {n:2d} | Y < inf) = {dist.conditional_cdf(n):.6f}")
    sample = simulate_cycles(trans, SimConfig(seed=7, cycles=10_000,
                                              escape_horizon=400))
    frac = sample.escaped / sample.cycles
    print(f"simulated escape fraction over 10000 cycles: {frac:.4f}")

    section("Duality pairs rho=0.4 with rho=2.5")
    spec = mm1(0.4, 1.0)
    dual = dual_process(spec)
    print(f"dual rates lam={dual.lam} mu={dual.mu}")
    gap = duality_check(0.4, 1.0, n_max=30)
    print(f"largest identity residual over n <= 30: {gap:.3e}")
    print("blocking probability of the stable chain vs hazard of the dual:")
    d1 = CycleMaxDistribution(spec)
    d2 = CycleMaxDistribution(dual)
    for n in (2, 5, 10):
        print(f"  n={n:2d}  {d1.blocking_prob(n):.6f}  vs  {d2.failure_rate(n):.6f}")

    section("Classification summary")
    for lam in (0.4, 1.0, 2.0):
        cls = classify(mm1(lam, 1.0))
        b = cls.b_star_inv
        b_txt = "divergent" if np.isinf(b) else f"{b:.4f}"
        print(f"rho={lam:3.1f}  {cls.verdict.value:18s} escape series sum: {b_txt}")


if __name__ == "__main__":
    main()
