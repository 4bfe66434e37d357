"""Diagnostics: Monte Carlo convergence rate and walk-length behavior.

Part one estimates the disk problem on a ladder of path counts and fits
the error decay, which should come out near the canonical N^(-1/2).
Part two tabulates the mean number of jumps per path: it grows toward
the boundary and with the exponent alpha, and stays ludicrously far
below the analytic worst-case bound.

Run:  python demos/convergence_and_steps.py
"""

import numpy as np

from fracwos.engine import WalkConfig, error_metric, estimate_field, step_bound
from fracwos.kernels import make_constants
from fracwos.oracle import make_case


def convergence():
    alpha = 1.0
    case = make_case("disk_constant_source", alpha)
    prob = case.problem()
    k = make_constants(2, alpha)
    pts = np.array([[0.5, 0.0], [0.0, -0.7], [-0.3, 0.4]])
    exact = case.u_exact(pts)
    ladder = (100, 1_000, 10_000)
    print(f"error vs number of paths, disk, alpha = {alpha}")
    print(f"{'N':>8} {'scaled error':>14} {'rmse':>12}")
    errs = []
    for N in ladder:
        cfg = WalkConfig(epsilon=1e-6, num_paths=N, seed=0)
        means = [est.mean for est in estimate_field(prob, cfg, k, pts)]
        scaled, rmse = error_metric(means, exact)
        errs.append(scaled)
        print(f"{N:8d} {scaled:14.6f} {rmse:12.6f}")
    slope = np.polyfit(np.log10(ladder), np.log10(errs), 1)[0]
    print(f"fitted slope: {slope:+.3f}  (independent samples decay like -0.5)")


def steps():
    print("\nmean jumps per path on the unit disk (N = 50000 each)")
    header = "   |x0|  " + "  ".join(f"a={a:<4}" for a in (0.4, 0.8, 1.2, 1.6))
    print(header)
    radii = (0.0, 0.3, 0.6, 0.85)
    pts = np.array([[r0, 0.0] for r0 in radii])
    cfg = WalkConfig(epsilon=1e-6, num_paths=50_000, seed=2)
    columns = []
    for alpha in (0.4, 0.8, 1.2, 1.6):
        case = make_case("disk_constant_source", alpha)
        k = make_constants(2, alpha)
        columns.append(estimate_field(case.problem(), cfg, k, pts))
    for r0, ests in zip(radii, zip(*columns)):
        print("  ".join([f"{r0:7.2f}"] + [f"{est.mean_steps:6.3f}" for est in ests]))
    bound = step_bound(2, 1.0, 1.0, 1e-6)[2]
    print(f"\nanalytic worst-case bound at alpha = 1, eps = 1e-6: {bound:.3e}")
    print("the observed means sit many orders of magnitude below it")


def main():
    convergence()
    steps()


if __name__ == "__main__":
    main()
