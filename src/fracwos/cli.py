"""Config-driven experiment runner.

Subcommands
-----------
solve        estimates at configured points -> <prefix>_estimates.csv
convergence  error vs path count ladder     -> <prefix>_error_vs_N.csv
steps        mean walk length vs |x - c|      -> <prefix>_steps.csv
field        solution profile on a grid     -> <prefix>_field.csv
constants    print c_tilde, c_hat, zeta_unit, step_bound for (n, alpha, eps)

Every file-writing command also emits <prefix>_summary.json with a config
echo, wall time, and command-specific results (error metrics, fitted
slopes, monotonicity checks).  CSV output is UTF-8 with LF line endings,
'.' decimal separator and 17 significant digits, so a rerun of the same
config is byte-identical.

Config file (JSON)::

    {
      "case": "disk_constant_source"
              | {"name": ..., "alpha": ...}
              | {"domain": {...}, "n": ..., "alpha": ..., "f": ..., "g": ...},
      "points": {"type": "list", "values": [[...], ...]}
               | {"type": "grid", "resolution": k, "margin": m}
               | {"type": "random", "count": c, "seed": s},
      "walk": {"epsilon": 1e-6, "num_paths": N, "seed": 0, "max_steps": M},
      "output": "path/prefix",
      "alphas": [...],        # convergence / steps only
      "path_ladder": [...]    # convergence only
    }

Inline-case f and g refer to builtin fields by name ("zero", "one",
"constant_source", "gaussian", "inverse_cubic"; f may be "none").
Unknown keys anywhere in the config are rejected.

Exit codes: 0 success, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .engine import ProblemSpec, WalkConfig, error_metric, estimate_point, step_bound
from .geometry import (
    AnnulusDomain,
    BallDomain,
    BoxDomain,
    HexagonDomain,
    LShapeDomain,
)
from .kernels import ALPHA_MAX, ALPHA_MIN, make_constants
from .oracle import ExactCase, _constant_source, make_case, _CASE_NAMES


class ConfigError(Exception):
    """Invalid run configuration (exit code 2)."""


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _require_keys(d, where, required, optional=()):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    allowed = set(required) | set(optional)
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ConfigError(f"missing keys in {where}: {', '.join(missing)}")


# ---------------------------------------------------------------------------
# case construction


def _build_domain(spec):
    _require_keys(spec, "case.domain", ["type"], ["center", "radius", "lo", "hi",
                                                  "inner", "outer", "circumradius"])
    kind = spec["type"]
    if kind == "ball":
        if "radius" not in spec or "center" not in spec:
            raise ConfigError("ball domain needs center and radius")
        return BallDomain(np.asarray(spec["center"], dtype=float), float(spec["radius"]))
    if kind == "box":
        if "lo" not in spec or "hi" not in spec:
            raise ConfigError("box domain needs lo and hi")
        return BoxDomain(spec["lo"], spec["hi"])
    if kind == "lshape":
        return LShapeDomain()
    if kind == "annulus":
        if "inner" not in spec or "outer" not in spec:
            raise ConfigError("annulus domain needs inner and outer radii")
        center = spec.get("center", (0.0, 0.0))
        return AnnulusDomain(float(spec["inner"]), float(spec["outer"]), center)
    if kind == "hexagon":
        return HexagonDomain(float(spec.get("circumradius", 1.0)),
                             spec.get("center", (0.0, 0.0)))
    raise ConfigError(f"unknown domain type: {kind!r}")


def _builtin_field(name, n: int, alpha: float):
    """Named source/boundary fields available to inline cases."""
    if name is None or name == "none":
        return None
    if name == "zero":
        return lambda x: np.zeros(np.atleast_2d(x).shape[0])
    if name == "one":
        return lambda x: np.ones(np.atleast_2d(x).shape[0])
    if name == "constant_source":
        c = _constant_source(n, alpha)
        return lambda x, c=c: np.full(np.atleast_2d(x).shape[0], c)
    if name == "gaussian":
        return lambda x: np.exp(-np.sum(np.atleast_2d(x) ** 2, axis=1))
    if name == "inverse_cubic":
        return lambda x: (1.0 + np.sum(np.atleast_2d(x) ** 2, axis=1)) ** -1.5
    raise ConfigError(f"unknown builtin field: {name!r}")


def _parse_case(spec):
    """Normalize the case entry; actual objects are built per alpha."""
    if isinstance(spec, str):
        if spec not in _CASE_NAMES:
            raise ConfigError(f"unknown case name: {spec!r}")
        return {"kind": "named", "name": spec, "alpha": 1.0}
    if isinstance(spec, dict) and "name" in spec:
        _require_keys(spec, "case", ["name"], ["alpha"])
        if spec["name"] not in _CASE_NAMES:
            raise ConfigError(f"unknown case name: {spec['name']!r}")
        return {"kind": "named", "name": spec["name"],
                "alpha": float(spec.get("alpha", 1.0))}
    if isinstance(spec, dict):
        _require_keys(spec, "case", ["domain", "n", "alpha", "g"], ["f"])
        n = int(spec["n"])
        dom = _build_domain(spec["domain"])
        if dom.n != n:
            raise ConfigError(f"case.n = {n} but the domain is {dom.n}-dimensional")
        return {"kind": "inline", "domain": dom, "n": n,
                "alpha": float(spec["alpha"]),
                "f": spec.get("f", "none"), "g": spec["g"]}
    raise ConfigError("case must be a name or an object")


def _check_alpha(alpha) -> float:
    a = float(alpha)
    if not ALPHA_MIN <= a <= ALPHA_MAX:
        raise ConfigError(f"alpha must lie in [{ALPHA_MIN}, {ALPHA_MAX}], got {a}")
    return a


def _case_at(parsed, alpha=None) -> ExactCase:
    a = _check_alpha(parsed["alpha"] if alpha is None else alpha)
    if parsed["kind"] == "named":
        return make_case(parsed["name"], a)
    n = parsed["n"]
    f = _builtin_field(parsed["f"], n, a)
    g = _builtin_field(parsed["g"], n, a)
    if g is None:
        raise ConfigError("the exterior condition g must not be 'none'")
    return ExactCase("inline", n, a, parsed["domain"], f, g, None)


# ---------------------------------------------------------------------------
# points and walk parameters


def _parse_points(spec):
    _require_keys(spec, "points", ["type"],
                  ["values", "resolution", "margin", "count", "seed"])
    kind = spec["type"]
    if kind == "list":
        vals = spec.get("values")
        if not vals:
            raise ConfigError("points.values must be a nonempty list")
        return {"kind": "list", "values": vals}
    if kind == "grid":
        res = int(spec.get("resolution", 0))
        if res < 2:
            raise ConfigError("grid resolution must be at least 2")
        return {"kind": "grid", "resolution": res,
                "margin": float(spec.get("margin", 0.0))}
    if kind == "random":
        count = int(spec.get("count", 0))
        if count < 1:
            raise ConfigError("random points need count >= 1")
        return {"kind": "random", "count": count, "seed": int(spec.get("seed", 0))}
    raise ConfigError(f"unknown points type: {kind!r}")


def _materialize_points(parsed, domain, epsilon: float) -> np.ndarray:
    if parsed["kind"] == "list":
        pts = np.asarray(parsed["values"], dtype=float)
        if pts.ndim != 2 or pts.shape[1] != domain.n:
            raise ConfigError(
                f"points must be rows of length {domain.n}, got shape {pts.shape}")
        return pts
    if parsed["kind"] == "random":
        # keep a shell margin so every point is a valid walk start
        return domain.random_interior(parsed["count"], parsed["seed"], margin=epsilon)
    res = parsed["resolution"]
    if res**domain.n > 250_000:
        raise ConfigError("grid resolution too fine for the dimension")
    lo, hi = domain.bounding_box()
    m = parsed["margin"]
    axes = [np.linspace(lo[d] + m, hi[d] - m, res) for d in range(domain.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def _check_starts(pts, domain, epsilon: float):
    """Reject the first point that is not a valid walk start, before any walk."""
    inside = domain.contains(pts)
    shell = np.zeros(pts.shape[0], dtype=bool)
    shell[inside] = domain.dist_boundary(pts[inside]) < epsilon
    bad = ~inside | shell
    if np.any(bad):
        i = int(np.argmax(bad))
        where = "inside the epsilon-shell" if inside[i] else "outside the domain"
        raise ConfigError(f"point {i} {pts[i].tolist()} lies {where}")


def _parse_walk(spec, seed_override=None, need_paths=True):
    spec = spec if spec is not None else {}
    _require_keys(spec, "walk", [], ["epsilon", "num_paths", "seed", "max_steps"])
    if need_paths and "num_paths" not in spec:
        raise ConfigError("walk.num_paths is required for this command")
    try:
        return WalkConfig(
            epsilon=float(spec.get("epsilon", 1e-6)),
            num_paths=int(spec.get("num_paths", 1)),
            seed=int(seed_override if seed_override is not None else spec.get("seed", 0)),
            max_steps=int(spec.get("max_steps", 1_000_000)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(path, command):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    optional = {"walk"}
    required = ["case", "points", "output"]
    if command == "convergence":
        required.append("path_ladder")
        optional.add("alphas")
    elif command == "steps":
        optional.add("alphas")
    _require_keys(raw, "config", required, optional)
    return raw


def _output_prefix(raw):
    prefix = raw["output"]
    if not isinstance(prefix, str) or not prefix:
        raise ConfigError("output must be a nonempty path prefix")
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return prefix


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_summary(prefix, command, raw, extras, t0):
    payload = {
        "command": command,
        "version": __version__,
        "config": raw,
        "wall_time_s": time.perf_counter() - t0,
    }
    payload.update(extras)
    _write_text(prefix + "_summary.json",
                json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_solve(raw, threads=None, seed_override=None):
    t0 = time.perf_counter()
    case = _case_at(_parse_case(raw["case"]))
    walk = _parse_walk(raw.get("walk"), seed_override)
    pts = _materialize_points(_parse_points(raw["points"]), case.domain, walk.epsilon)
    _check_starts(pts, case.domain, walk.epsilon)
    prefix = _output_prefix(raw)

    problem = case.problem()
    constants = make_constants(case.n, case.alpha)
    ests = [estimate_point(problem, walk, constants, p, threads=threads) for p in pts]

    header = ",".join([f"x{d+1}" for d in range(case.n)]
                      + ["mean", "stderr", "steps_mean", "n_paths"])
    lines = [header]
    for p, e in zip(pts, ests):
        cols = [_fmt(c) for c in p] + [_fmt(e.mean), _fmt(e.stderr),
                                       _fmt(e.mean_steps), str(e.n_paths)]
        lines.append(",".join(cols))
    _write_text(prefix + "_estimates.csv", "\n".join(lines) + "\n")

    extras = {"outputs": [prefix + "_estimates.csv"], "n_points": len(pts)}
    if case.u_exact is not None:
        exact = case.u_exact(pts)
        perr, rmse = error_metric([e.mean for e in ests], exact)
        extras["paper_error"] = perr
        extras["rmse"] = rmse
    _write_summary(prefix, "solve", raw, extras, t0)
    return 0


def cmd_convergence(raw, threads=None, seed_override=None):
    t0 = time.perf_counter()
    parsed_case = _parse_case(raw["case"])
    alphas = [float(a) for a in raw.get("alphas", [parsed_case["alpha"]])]
    if not alphas:
        raise ConfigError("alphas must be nonempty")
    ladder = [int(N) for N in raw["path_ladder"]]
    if not ladder or any(N < 1 for N in ladder):
        raise ConfigError("path_ladder must be a nonempty list of positive counts")
    walk0 = _parse_walk(raw.get("walk"), seed_override, need_paths=False)

    cases = [_case_at(parsed_case, a) for a in alphas]
    case0 = cases[0]
    if case0.u_exact is None:
        raise ConfigError("convergence needs a case with an exact solution")
    pts = _materialize_points(_parse_points(raw["points"]), case0.domain, walk0.epsilon)
    _check_starts(pts, case0.domain, walk0.epsilon)
    prefix = _output_prefix(raw)

    table = {}  # (alpha, N) -> (paper_error, rmse)
    for a, case in zip(alphas, cases):
        problem = case.problem()
        constants = make_constants(case.n, a)
        exact = case.u_exact(pts)
        for N in ladder:
            walk = WalkConfig(epsilon=walk0.epsilon, num_paths=N,
                              seed=walk0.seed, max_steps=walk0.max_steps)
            ests = [estimate_point(problem, walk, constants, p, threads=threads)
                    for p in pts]
            table[(a, N)] = error_metric([e.mean for e in ests], exact)

    cols = []
    for a in alphas:
        cols += [f"paper_error_a{a:g}", f"rmse_a{a:g}"]
    lines = [",".join(["N"] + cols)]
    for N in ladder:
        row = [str(N)]
        for a in alphas:
            perr, rmse = table[(a, N)]
            row += [_fmt(perr), _fmt(rmse)]
        lines.append(",".join(row))
    _write_text(prefix + "_error_vs_N.csv", "\n".join(lines) + "\n")

    slopes = {}
    logN = np.log10(np.asarray(ladder, dtype=float))
    for a in alphas:
        errs = np.array([table[(a, N)][0] for N in ladder])
        good = errs > 0
        if good.sum() < 2:
            warnings.warn(f"alpha={a:g}: fewer than two usable ladder points, "
                          "slope is nan", RuntimeWarning)
            slopes[f"a{a:g}"] = float("nan")
        else:
            slopes[f"a{a:g}"] = float(
                np.polyfit(logN[good], np.log10(errs[good]), 1)[0])
    _write_summary(prefix, "convergence", raw,
                   {"outputs": [prefix + "_error_vs_N.csv"], "slopes": slopes}, t0)
    return 0


def cmd_steps(raw, threads=None, seed_override=None):
    t0 = time.perf_counter()
    parsed_case = _parse_case(raw["case"])
    alphas = [float(a) for a in raw.get("alphas", [parsed_case["alpha"]])]
    if not alphas:
        raise ConfigError("alphas must be nonempty")
    walk = _parse_walk(raw.get("walk"), seed_override)

    cases = [_case_at(parsed_case, a) for a in alphas]
    case0 = cases[0]
    pts = _materialize_points(_parse_points(raw["points"]), case0.domain, walk.epsilon)
    _check_starts(pts, case0.domain, walk.epsilon)
    prefix = _output_prefix(raw)
    # abs_x is the distance from a ball's centre, for other domains from the origin
    dom = case0.domain
    rel = pts - dom.center if isinstance(dom, BallDomain) else pts
    radii = np.linalg.norm(rel, axis=1)
    order = np.argsort(radii, kind="stable")

    lines = ["alpha,abs_x,steps_mean"]
    means = {}
    for a, case in zip(alphas, cases):
        problem = case.problem()
        constants = make_constants(case.n, a)
        ests = [estimate_point(problem, walk, constants, p, threads=threads)
                for p in pts]
        means[a] = np.array([e.mean_steps for e in ests])
        for i in order:
            lines.append(",".join([f"{a:g}", _fmt(radii[i]), _fmt(means[a][i])]))
    _write_text(prefix + "_steps.csv", "\n".join(lines) + "\n")

    monotone = True
    if isinstance(case0.domain, BallDomain):
        # walks started nearer the boundary should take more steps; allow a
        # small relative slack for Monte Carlo noise
        for a in alphas:
            seq = means[a][order]
            if np.any(seq[1:] < seq[:-1] * (1.0 - 1e-2) - 1e-9):
                monotone = False
        if not monotone:
            raise RuntimeError(
                "steps_mean is not nondecreasing in |x - centre| on the ball")
    if any(means[a].min() < 1.0 for a in alphas):
        raise RuntimeError("steps_mean below 1; the first ball is always built")
    _write_summary(prefix, "steps", raw,
                   {"outputs": [prefix + "_steps.csv"],
                    "monotone_in_abs_x": monotone}, t0)
    return 0


def cmd_field(raw, threads=None, seed_override=None):
    t0 = time.perf_counter()
    case = _case_at(_parse_case(raw["case"]))
    parsed_pts = _parse_points(raw["points"])
    if parsed_pts["kind"] != "grid":
        raise ConfigError("field requires a grid points spec")
    walk = _parse_walk(raw.get("walk"), seed_override)
    prefix = _output_prefix(raw)

    dom = case.domain
    pts = _materialize_points(parsed_pts, dom, walk.epsilon)
    problem = case.problem()
    constants = make_constants(case.n, case.alpha)

    inside = dom.contains(pts)
    values = np.empty(pts.shape[0])
    n_interior = 0
    # exterior grid points take the boundary data directly; interior points
    # inside the stopping shell take it at their boundary projection
    values[~inside] = case.g(pts[~inside]) if np.any(~inside) else 0.0
    if np.any(inside):
        own = pts[inside]
        d = dom.dist_boundary(own)
        shell = d < walk.epsilon
        vals_in = np.empty(own.shape[0])
        if np.any(shell):
            vals_in[shell] = case.g(dom.project_boundary(own[shell]))
        deep = ~shell
        n_interior = int(deep.sum())
        if n_interior:
            ests = [estimate_point(problem, walk, constants, p, threads=threads)
                    for p in own[deep]]
            vals_in[deep] = [e.mean for e in ests]
        values[inside] = vals_in

    header = ",".join([f"x{d+1}" for d in range(case.n)] + ["value"])
    lines = [header]
    for p, v in zip(pts, values):
        lines.append(",".join([_fmt(c) for c in p] + [_fmt(v)]))
    _write_text(prefix + "_field.csv", "\n".join(lines) + "\n")
    _write_summary(prefix, "field", raw,
                   {"outputs": [prefix + "_field.csv"],
                    "n_points": int(pts.shape[0]), "n_interior": n_interior}, t0)
    return 0


def cmd_constants(args):
    n, alpha, eps, r = args.n, _check_alpha(args.alpha), args.epsilon, args.radius
    if n < 2:
        raise ConfigError("n must be at least 2")
    kc = make_constants(n, alpha)
    _, _, bound = step_bound(n, alpha, r, eps)
    print(f"n = {n}")
    print(f"alpha = {_fmt(alpha)}")
    print(f"c_tilde = {_fmt(kc.c_tilde)}")
    print(f"c_hat = {_fmt(kc.c_hat)}")
    print(f"zeta_unit = {_fmt(kc.zeta_unit)}")
    print(f"step_bound(r={r:g}, epsilon={eps:g}) = {_fmt(bound)}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fracwos",
        description="walk-on-spheres solver for the fractional Poisson problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("solve", "estimate the solution at configured points"),
        ("convergence", "error against the number of paths"),
        ("steps", "mean walk length against |x|"),
        ("field", "solution profile on a grid"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="override walk.seed from the config")
    p = sub.add_parser("constants", help="print analytic constants")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--radius", type=float, default=1.0)
    return parser


_DISPATCH = {
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "steps": cmd_steps,
    "field": cmd_field,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "constants":
            return cmd_constants(args)
        if args.seed is not None and not 0 <= args.seed < 2**64:
            raise ConfigError("--seed must fit in an unsigned 64-bit integer")
        raw = _load_config(args.config, args.command)
        return _DISPATCH[args.command](raw, threads=args.threads,
                                       seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - anything else is a runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
