"""Config-driven experiment runner.

Subcommands
-----------
solve        estimates at configured points -> <prefix>_estimates.csv
convergence  error vs path count ladder     -> <prefix>_error_vs_N.csv
steps        mean walk length vs |x - c|      -> <prefix>_steps.csv
field        solution profile on a grid     -> <prefix>_field.csv
constants    print c_tilde, c_hat, zeta_unit, step_bound for (n, alpha, eps)

Every file-writing command also emits <prefix>_summary.json with a config
echo, wall time, the dropped and non-finite path counts summed over every
estimate of the run, and command-specific results (error metrics, fitted
slopes, monotonicity checks).  Each command walks all of its points at one
alpha and path count in one call of engine.estimate_field.  CSV output is
UTF-8 with LF line endings, '.' decimal separator and 17 significant
digits, so a rerun of the same config is byte-identical.

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
"constant_source", "gaussian", "inverse_cubic"; f may be "none").  An
inline domain takes the keys of its type in _DOMAINS, the constructor's
own parameter names.  Unknown keys anywhere in the config are rejected.

Each command runs in two phases.  The build phase is one function for
every walking command, _build: it reads the case, the walk and the points,
and constructs the case (a ProblemSpec) and the kernel constants at every
alpha.  The library's own checks reject invalid values there.  The command
then adds its own checks (the start points, the ladder, a grid for field)
and makes the output directory last, so a config error leaves nothing
behind.  The run phase walks, and one writer, _write, writes the CSV and
its summary.

Exit codes: 0 success; 2 config error, anything that fails in the build
phase, before the first walk; 3 runtime error, a failure during the walks
or while writing the outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .engine import (
    ConstantField,
    WalkConfig,
    check_starts,
    error_metric,
    estimate_field,
    step_bound,
)
from .geometry import (
    AnnulusDomain,
    BallDomain,
    BoxDomain,
    HexagonDomain,
    LShapeDomain,
)
from .kernels import make_constants
from .oracle import ExactCase, _gaussian, _inverse_cubic, constant_source, make_case


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _as_int(value, key):
    """value as an int: a JSON integer or an integral number such as 1e3.
    Anything else (a bool, a string, 2.5) is a ValueError naming the key."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _as_float(value, key):
    """value as a float: a finite JSON number.  Anything else (a bool, a
    string, or the NaN and infinities that Python's json parses) is a
    ValueError naming the key."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _as_floats(value, key):
    """value as a list of floats: a JSON list of numbers, each as _as_float
    takes it.  Anything else is a ValueError naming the key."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    return [_as_float(v, key) for v in value]


def _require_keys(d, where, required, optional=()):
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be an object")
    allowed = set(required) | set(optional)
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ValueError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ValueError(f"missing keys in {where}: {', '.join(missing)}")


# ---------------------------------------------------------------------------
# case construction

# each inline domain type: (class, required keys, optional keys), the keys
# being the class's own parameter names
_DOMAINS = {
    "ball": (BallDomain, ["center", "radius"], []),
    "box": (BoxDomain, ["lo", "hi"], []),
    "lshape": (LShapeDomain, [], []),
    "annulus": (AnnulusDomain, ["inner", "outer"], ["center"]),
    "hexagon": (HexagonDomain, [], ["circumradius", "center"]),
}


def _build_domain(spec):
    kind = spec.get("type") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _DOMAINS:
        raise ValueError(f"unknown domain type: {kind!r}")
    cls, required, optional = _DOMAINS[kind]
    _require_keys(spec, "case.domain", ["type", *required], optional)
    # every number of the domain, named by its key: center, lo and hi are lists
    num = {k: (_as_floats if k in ("center", "lo", "hi") else _as_float)(v, "case.domain." + k)
           for k, v in spec.items() if k != "type"}
    return cls(**num)


def _builtin_field(name, n: int, alpha: float):
    """Named source/boundary fields available to inline cases."""
    if name is None or name == "none":
        return None
    if name == "zero":
        return ConstantField(0.0)
    if name == "one":
        return ConstantField(1.0)
    if name == "constant_source":
        return ConstantField(constant_source(n, alpha))
    if name == "gaussian":
        return _gaussian
    if name == "inverse_cubic":
        return _inverse_cubic
    raise ValueError(f"unknown builtin field: {name!r}")


def _parse_case(spec):
    """(alpha, make): the case's own alpha, and make(a), the ExactCase at a."""
    if isinstance(spec, str):
        spec = {"name": spec}
    if isinstance(spec, dict) and "name" in spec:
        _require_keys(spec, "case", ["name"], ["alpha"])

        def make(a):
            try:
                return make_case(spec["name"], a)
            except KeyError as exc:  # an unknown name; str() of a KeyError is quoted
                raise ValueError(exc.args[0]) from None

        return _as_float(spec.get("alpha", 1.0), "case.alpha"), make
    if isinstance(spec, dict):
        _require_keys(spec, "case", ["domain", "n", "alpha", "g"], ["f"])
        domain = _build_domain(spec["domain"])
        n = _as_int(spec["n"], "case.n")
        f, g = spec.get("f", "none"), spec["g"]
        return _as_float(spec["alpha"], "case.alpha"), lambda a: ExactCase(
            n, a, _builtin_field(f, n, a), _builtin_field(g, n, a), domain, "inline", None)
    raise ValueError("case must be a name or an object")


# ---------------------------------------------------------------------------
# points and walk parameters


def _points(spec, domain, epsilon: float) -> np.ndarray:
    _require_keys(spec, "points", ["type"],
                  ["values", "resolution", "margin", "count", "seed"])
    kind = spec["type"]
    if kind == "list":
        values = spec.get("values")
        if not isinstance(values, list) or not values:
            raise ValueError("points.values must be a nonempty list")
        rows = [_as_floats(row, "points.values") for row in values]
        if len({len(row) for row in rows}) > 1:
            raise ValueError("points.values must be rows of one length")
        return np.array(rows)
    if kind == "random":
        count = _as_int(spec.get("count", 0), "points.count")
        if count < 1:
            raise ValueError("random points need count >= 1")
        seed = _as_int(spec.get("seed", 0), "points.seed")
        # keep a shell margin so every point is a valid walk start
        try:
            return domain.random_interior(count, seed, margin=epsilon)
        except ValueError as exc:  # numpy's check of the seed
            raise ValueError(f"points.seed: {exc}") from None
    if kind != "grid":
        raise ValueError(f"unknown points type: {kind!r}")
    res = _as_int(spec.get("resolution", 0), "points.resolution")
    if res < 2:
        raise ValueError("grid resolution must be at least 2")
    if res**domain.n > 250_000:
        raise ValueError("grid resolution too fine for the dimension")
    lo, hi = domain.bounding_box()
    m = _as_float(spec.get("margin", 0.0), "points.margin")
    axes = [np.linspace(lo[d] + m, hi[d] - m, res) for d in range(domain.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def _parse_walk(spec, need_paths=True):
    spec = spec if spec is not None else {}
    _require_keys(spec, "walk", [], ["epsilon", "num_paths", "seed", "max_steps"])
    if need_paths and "num_paths" not in spec:
        raise ValueError("walk.num_paths is required for this command")
    return WalkConfig(
        epsilon=_as_float(spec.get("epsilon", 1e-6), "walk.epsilon"),
        num_paths=_as_int(spec.get("num_paths", 1), "walk.num_paths"),
        seed=_as_int(spec.get("seed", 0), "walk.seed"),
        max_steps=_as_int(spec.get("max_steps", 1_000_000), "walk.max_steps"),
    )


def _load_config(path, command):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
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
        raise ValueError("output must be a nonempty path prefix")
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return prefix


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _build(raw, need_paths=True):
    """The build phase every walking command shares: (t0, built, walk, pts),
    with built the (case, constants) at each alpha of the run."""
    t0 = time.perf_counter()
    alpha, make = _parse_case(raw["case"])
    alphas = raw.get("alphas", [alpha])
    if not isinstance(alphas, list) or not alphas:
        raise ValueError("alphas must be a nonempty list")
    alphas = [_as_float(a, "alphas") for a in alphas]
    walk = _parse_walk(raw.get("walk"), need_paths)
    # ProblemSpec and make_constants check the dimension, the alpha range and g
    built = [(case, make_constants(case.n, case.alpha)) for case in map(make, alphas)]
    return t0, built, walk, _points(raw["points"], built[0][0].domain, walk.epsilon)


def _write(prefix, suffix, header, rows, command, raw, t0, ests, **extras):
    """Write <prefix><suffix>, the header and rows of cells (a str as it is,
    a number by _fmt), then <prefix>_summary.json; ests are every Estimate
    of the run."""
    lines = [header] + [[c if isinstance(c, str) else _fmt(c) for c in row] for row in rows]
    _write_text(prefix + suffix, "".join(",".join(line) + "\n" for line in lines))
    payload = {
        "command": command,
        "version": __version__,
        "config": raw,
        "wall_time_s": time.perf_counter() - t0,
        "n_dropped": sum(e.n_dropped for e in ests),
        "n_nonfinite": sum(e.n_nonfinite for e in ests),
        "outputs": [prefix + suffix],
        **extras,
    }
    _write_text(prefix + "_summary.json",
                json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# commands: each builds the whole run and returns the closure that walks


def _coords(n):
    return [f"x{d+1}" for d in range(n)]


def cmd_solve(raw):
    t0, [(case, constants)], walk, pts = _build(raw)
    check_starts(case, walk, pts)
    prefix = _output_prefix(raw)

    def run():
        ests = estimate_field(case, walk, constants, pts)
        extras = {"n_points": len(pts)}
        if case.u_exact is not None:
            extras["paper_error"], extras["rmse"] = error_metric(
                [e.mean for e in ests], case.u_exact(pts))
        rows = [[*p, e.mean, e.stderr, e.mean_steps, str(e.n_paths)]
                for p, e in zip(pts, ests)]
        return _write(prefix, "_estimates.csv",
                      _coords(case.n) + ["mean", "stderr", "steps_mean", "n_paths"],
                      rows, "solve", raw, t0, ests, **extras)

    return run


def cmd_convergence(raw):
    t0, built, walk0, pts = _build(raw, need_paths=False)
    ladder = raw["path_ladder"]
    if not isinstance(ladder, list) or not ladder:
        raise ValueError("path_ladder must be a nonempty list of path counts")
    ladder = [_as_int(N, "path_ladder") for N in ladder]
    walks = [dataclasses.replace(walk0, num_paths=N) for N in ladder]
    if built[0][0].u_exact is None:
        raise ValueError("convergence needs a case with an exact solution")
    check_starts(built[0][0], walk0, pts)
    prefix = _output_prefix(raw)

    def run():
        errors = []  # per alpha, the (paper_error, rmse) of each rung
        every = []
        for case, constants in built:
            exact = case.u_exact(pts)
            errors.append([])
            for walk in walks:
                ests = estimate_field(case, walk, constants, pts)
                errors[-1].append(error_metric([e.mean for e in ests], exact))
                every += ests

        alphas = [f"{case.alpha:g}" for case, _ in built]
        header = ["N"] + [f"{m}_a{a}" for a in alphas for m in ("paper_error", "rmse")]
        rows = [[str(N), *(v for errs in errors for v in errs[i])]
                for i, N in enumerate(ladder)]
        slopes = {}
        logN = np.log10(np.asarray(ladder, dtype=float))
        for a, errs in zip(alphas, errors):
            perr = np.array([e[0] for e in errs])
            good = perr > 0
            if good.sum() < 2:
                warnings.warn(f"alpha={a}: fewer than two usable ladder points, "
                              "slope is nan", RuntimeWarning)
                slopes[f"a{a}"] = float("nan")
            else:
                slopes[f"a{a}"] = float(np.polyfit(logN[good], np.log10(perr[good]), 1)[0])
        return _write(prefix, "_error_vs_N.csv", header, rows, "convergence", raw, t0,
                      every, slopes=slopes)

    return run


def cmd_steps(raw):
    t0, built, walk, pts = _build(raw)
    check_starts(built[0][0], walk, pts)
    prefix = _output_prefix(raw)

    def run():
        # abs_x is the distance from a ball's centre, for other domains from the origin
        dom = built[0][0].domain
        rel = pts - dom.center if isinstance(dom, BallDomain) else pts
        radii = np.linalg.norm(rel, axis=1)
        order = np.argsort(radii, kind="stable")

        rows, every = [], []
        # reported, not enforced: walks started nearer the boundary should
        # take more steps, up to a small relative slack for Monte Carlo noise
        monotone = True
        for case, constants in built:
            ests = estimate_field(case, walk, constants, pts)
            every += ests
            seq = np.array([e.mean_steps for e in ests])[order]
            if seq.min() < 1.0:
                raise RuntimeError("steps_mean below 1; the first ball is always built")
            if isinstance(dom, BallDomain):
                monotone &= not np.any(seq[1:] < seq[:-1] * (1.0 - 1e-2) - 1e-9)
            rows += [[f"{case.alpha:g}", radii[i], s] for i, s in zip(order, seq)]
        return _write(prefix, "_steps.csv", ["alpha", "abs_x", "steps_mean"], rows,
                      "steps", raw, t0, every, monotone_in_abs_x=monotone)

    return run


def cmd_field(raw):
    t0, [(case, constants)], walk, pts = _build(raw)
    if raw["points"]["type"] != "grid":
        raise ValueError("field requires a grid points spec")
    prefix = _output_prefix(raw)

    def run():
        # exterior grid points take the boundary data directly, interior
        # points inside the stopping shell take it at their boundary
        # projection, and the others are walked
        dom = case.domain
        inside, dist = dom._locate(pts)
        shell = inside & (dist < walk.epsilon)
        walked = inside & ~shell
        values = np.empty(len(pts))
        if not inside.all():
            values[~inside] = case.g(pts[~inside])
        if shell.any():
            values[shell] = case.g(dom.project_boundary(pts[shell]))
        ests = []
        if walked.any():
            ests = estimate_field(case, walk, constants, pts[walked])
            values[walked] = [e.mean for e in ests]
        return _write(prefix, "_field.csv", _coords(case.n) + ["value"],
                      [[*p, v] for p, v in zip(pts, values)], "field", raw, t0, ests,
                      n_points=len(pts), n_interior=len(ests))

    return run


def cmd_constants(args):
    n, eps, r = args.n, args.epsilon, args.radius
    kc = make_constants(n, args.alpha)
    _, _, bound = step_bound(n, kc.alpha, r, eps)

    def run():
        print(f"n = {n}")
        print(f"alpha = {_fmt(kc.alpha)}")
        print(f"c_tilde = {_fmt(kc.c_tilde)}")
        print(f"c_hat = {_fmt(kc.c_hat)}")
        print(f"zeta_unit = {_fmt(kc.zeta_unit)}")
        print(f"step_bound(r={r:g}, epsilon={eps:g}) = {_fmt(bound)}")
        return 0

    return run


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
        p.add_argument("--seed", type=int, default=None,
                       help="override walk.seed from the config")
    p = sub.add_parser("constants", help="print analytic constants")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--radius", type=float, default=1.0)
    return parser


_BUILD = {
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "steps": cmd_steps,
    "field": cmd_field,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "constants":
            run = cmd_constants(args)
        else:
            raw = _load_config(args.config, args.command)
            # --seed goes into the config itself, which the summary echoes
            if args.seed is not None and isinstance(raw.get("walk"), (dict, type(None))):
                raw["walk"] = {**(raw.get("walk") or {}), "seed": args.seed}
            run = _BUILD[args.command](raw)
    except Exception as exc:  # noqa: BLE001 - anything before the first walk
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - anything during the walks
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
