"""Walk-on-spheres Monte Carlo solver for the fractional Poisson equation.

Solves (-Delta)^(alpha/2) u = f in a bounded domain Omega with exterior
Dirichlet data u = g on the complement, 0 < alpha < 2, any dimension.
Paths jump between inscribed balls using the exact exit law of the ball
(no stable-process time stepping); each ball contributes an interior
source sample weighted by the ball's Green mass.

Modules:
    kernels   - ball Green function / exit kernel, radial laws, constants
    sampling  - Philox streams per path, Box-Muller, exit-radius and
                interior-radius transforms
    geometry  - domain primitives (ball, box, L-shape, annulus, hexagon)
    engine    - the walk itself: paths, estimates, diagnostics
    oracle    - deterministic quadrature reference and worked exact cases
    cli       - config-driven experiment runner (`fracwos` entry point)
"""

from . import kernels, sampling, geometry, engine, oracle  # noqa: F401

__version__ = "0.1.0"
