"""Two disk problems with closed-form solutions, solved by random walks.

First the homogeneous case: constant source, zero exterior data, solution
(1 - |x|^2)^(alpha/2).  Then the non-homogeneous one: the solution
(1 + |x|^2)^(-3/2) lives on the whole plane, so the walker picks up real
exterior data wherever its heavy-tailed jump lands.

Run:  python demos/ball_exact_solutions.py
"""

import numpy as np

from fracwos.engine import WalkConfig, estimate_field
from fracwos.kernels import make_constants
from fracwos.oracle import make_case

POINTS = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, -0.7], [-0.3, 0.4]])
N_PATHS = 20_000


def run_case(name, alpha):
    case = make_case(name, alpha)
    prob = case.problem()
    k = make_constants(case.n, alpha)
    cfg = WalkConfig(epsilon=1e-6, num_paths=N_PATHS, seed=42)
    print(f"\n{name}, alpha = {alpha}, N = {N_PATHS}")
    print(f"{'point':>14} {'estimate':>12} {'stderr':>10} {'exact':>12} {'dev/sigma':>10}")
    for x, est in zip(POINTS, estimate_field(prob, cfg, k, POINTS)):
        exact = float(case.u_exact(np.atleast_2d(x))[0])
        dev = (est.mean - exact) / est.stderr if est.stderr > 0 else 0.0
        print(f"({x[0]:+.2f},{x[1]:+.2f})  {est.mean:12.6f} {est.stderr:10.2e} "
              f"{exact:12.6f} {dev:+10.2f}")


def main():
    for alpha in (0.6, 1.0, 1.5):
        run_case("disk_constant_source", alpha)
    for alpha in (0.6, 1.5):
        run_case("disk_inverse_cubic", alpha)


if __name__ == "__main__":
    main()
