"""Walks in ten dimensions cost barely more than in two.

The walk never discretizes space, so the dimension enters only through
the direction sampling and the distance computations.  This demo traces
the radial solution profile on the unit ball in R^10 and prints the mean
walk length.  From the centre the first inscribed ball is the domain
itself, so every path leaves in its first jump; off the centre a path
takes about 9 to 13 jumps, more the nearer it starts to the boundary.

Run:  python demos/high_dimensional_ball.py
"""

import numpy as np

from fracwos.engine import WalkConfig, estimate_field
from fracwos.kernels import make_constants
from fracwos.oracle import make_case

ALPHA = 1.3
N_PATHS = 20_000


def main():
    case = make_case("ball10_constant_source", ALPHA)
    prob = case.problem()
    k = make_constants(10, ALPHA)
    cfg = WalkConfig(epsilon=1e-6, num_paths=N_PATHS, seed=7)

    print(f"unit ball in R^10, alpha = {ALPHA}, N = {N_PATHS}")
    print(f"{'|x|':>6} {'estimate':>12} {'stderr':>10} {'exact':>12} {'steps':>7}")
    radii = (0.0, 0.2, 0.4, 0.6, 0.8)
    pts = np.zeros((len(radii), 10))
    pts[:, 0] = radii
    for radius, est in zip(radii, estimate_field(prob, cfg, k, pts)):
        exact = (1.0 - radius**2) ** (ALPHA / 2.0)
        print(f"{radius:6.2f} {est.mean:12.6f} {est.stderr:10.2e} "
              f"{exact:12.6f} {est.mean_steps:7.3f}")


if __name__ == "__main__":
    main()
