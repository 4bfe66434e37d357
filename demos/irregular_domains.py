"""Domains beyond the ball: L-shape, hexagon, annulus.

The walk only needs a boundary distance and a boundary projection from
each domain, so irregular shapes come for free.  The L-shape has a
manufactured exact solution exp(-|x|^2) to check against; the hexagon
and annulus runs are qualitative and just print a coarse field profile
along a line through the domain.

Run:  python demos/irregular_domains.py
"""

import numpy as np

from fracwos.engine import WalkConfig, estimate_field
from fracwos.kernels import make_constants
from fracwos.oracle import make_case

N_PATHS = 10_000


def lshape_check():
    case = make_case("lshape_gaussian", 1.0)
    prob = case.problem()
    k = make_constants(2, 1.0)
    cfg = WalkConfig(epsilon=1e-5, num_paths=N_PATHS, seed=3)
    pts = case.domain.random_interior(5, seed=11, margin=0.05)
    print(f"L-shape, alpha = 1.0, exact solution exp(-|x|^2), N = {N_PATHS}")
    print(f"{'point':>16} {'estimate':>11} {'exact':>11} {'dev/sigma':>10}")
    for x, est in zip(pts, estimate_field(prob, cfg, k, pts)):
        exact = float(case.u_exact(np.atleast_2d(x))[0])
        dev = (est.mean - exact) / est.stderr
        print(f"({x[0]:+.3f},{x[1]:+.3f})  {est.mean:11.5f} {exact:11.5f} {dev:+10.2f}")


def qualitative_profile(name, line_points):
    case = make_case(name, 1.0)
    prob = case.problem()
    k = make_constants(2, 1.0)
    cfg = WalkConfig(epsilon=1e-5, num_paths=N_PATHS, seed=5)
    inside = case.domain.contains(line_points)
    ests = iter(estimate_field(prob, cfg, k, line_points[inside]))
    print(f"\n{name}: solution along a line, N = {N_PATHS}")
    for x, ok in zip(line_points, inside):
        if not ok:
            print(f"({x[0]:+.2f},{x[1]:+.2f})  outside, u = g = 0")
            continue
        est = next(ests)
        bar = "#" * max(0, int(round(40 * abs(est.mean))))
        print(f"({x[0]:+.2f},{x[1]:+.2f})  {est.mean:+8.4f}  {bar}")


def main():
    lshape_check()
    xs = np.linspace(-0.9, 0.9, 9)
    hex_line = np.stack([xs, np.zeros_like(xs)], axis=1)
    qualitative_profile("hexagon_oscillatory", hex_line)
    ann_line = np.stack([xs, np.full_like(xs, 0.1)], axis=1)
    qualitative_profile("annulus_oscillatory", ann_line)


if __name__ == "__main__":
    main()
