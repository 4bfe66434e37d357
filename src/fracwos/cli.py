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
"constant_source", "gaussian", "inverse_cubic"; f may be "none").
Unknown keys anywhere in the config are rejected.

Each command runs in two phases.  The build phase reads the config and
constructs everything the walks need: the case and its ProblemSpec for
every alpha, the kernel constants, the WalkConfig, the points with their
start-point check, and the output directory.  The library's own checks
reject invalid values there.  The run phase walks and writes.

Exit codes: 0 success; 2 config error, anything that fails in the build
phase, before the first walk; 3 runtime error, a failure during the walks
or while writing the outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
from .oracle import ExactCase, constant_source, make_case


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
    """value as a float: a JSON number.  Anything else (a bool, a string)
    is a ValueError naming the key."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{key} must be a number, got {value!r}")


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


def _build_domain(spec):
    _require_keys(spec, "case.domain", ["type"], ["center", "radius", "lo", "hi",
                                                  "inner", "outer", "circumradius"])
    kind = spec["type"]
    # every number of the domain, named by its key: center, lo and hi are lists
    num = {k: (_as_floats if k in ("center", "lo", "hi") else _as_float)(v, "case.domain." + k)
           for k, v in spec.items() if k != "type"}
    if kind == "ball":
        if "radius" not in spec or "center" not in spec:
            raise ValueError("ball domain needs center and radius")
        return BallDomain(num["center"], num["radius"])
    if kind == "box":
        if "lo" not in spec or "hi" not in spec:
            raise ValueError("box domain needs lo and hi")
        return BoxDomain(num["lo"], num["hi"])
    if kind == "lshape":
        return LShapeDomain()
    if kind == "annulus":
        if "inner" not in spec or "outer" not in spec:
            raise ValueError("annulus domain needs inner and outer radii")
        return AnnulusDomain(num["inner"], num["outer"], num.get("center", (0.0, 0.0)))
    if kind == "hexagon":
        return HexagonDomain(num.get("circumradius", 1.0), num.get("center", (0.0, 0.0)))
    raise ValueError(f"unknown domain type: {kind!r}")


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
        return lambda x: np.exp(-np.sum(np.atleast_2d(x) ** 2, axis=1))
    if name == "inverse_cubic":
        return lambda x: (1.0 + np.sum(np.atleast_2d(x) ** 2, axis=1)) ** -1.5
    raise ValueError(f"unknown builtin field: {name!r}")


def _parse_case(spec):
    """Normalize the case entry; actual objects are built per alpha."""
    if isinstance(spec, str):
        return {"kind": "named", "name": spec, "alpha": 1.0}
    if isinstance(spec, dict) and "name" in spec:
        _require_keys(spec, "case", ["name"], ["alpha"])
        return {"kind": "named", "name": spec["name"],
                "alpha": _as_float(spec.get("alpha", 1.0), "case.alpha")}
    if isinstance(spec, dict):
        _require_keys(spec, "case", ["domain", "n", "alpha", "g"], ["f"])
        return {"kind": "inline", "domain": _build_domain(spec["domain"]),
                "n": _as_int(spec["n"], "case.n"),
                "alpha": _as_float(spec["alpha"], "case.alpha"),
                "f": spec.get("f", "none"), "g": spec["g"]}
    raise ValueError("case must be a name or an object")


def _case_at(parsed, alpha=None):
    """(case, problem, constants) at alpha; ProblemSpec and make_constants
    check the dimension, the alpha range and g."""
    a = float(parsed["alpha"] if alpha is None else alpha)
    if parsed["kind"] == "named":
        try:
            case = make_case(parsed["name"], a)
        except KeyError as exc:  # an unknown name; str() of a KeyError is quoted
            raise ValueError(exc.args[0]) from None
    else:
        n = parsed["n"]
        f, g = _builtin_field(parsed["f"], n, a), _builtin_field(parsed["g"], n, a)
        case = ExactCase("inline", n, a, parsed["domain"], f, g, None)
    return case, case.problem(), make_constants(case.n, case.alpha)


# ---------------------------------------------------------------------------
# points and walk parameters


def _points(spec, domain, epsilon: float) -> np.ndarray:
    _require_keys(spec, "points", ["type"],
                  ["values", "resolution", "margin", "count", "seed"])
    kind = spec["type"]
    if kind == "list":
        if not spec.get("values"):
            raise ValueError("points.values must be a nonempty list")
        return np.asarray(spec["values"], dtype=float)
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


def _parse_walk(spec, seed_override=None, need_paths=True):
    spec = spec if spec is not None else {}
    _require_keys(spec, "walk", [], ["epsilon", "num_paths", "seed", "max_steps"])
    if need_paths and "num_paths" not in spec:
        raise ValueError("walk.num_paths is required for this command")
    return WalkConfig(
        epsilon=_as_float(spec.get("epsilon", 1e-6), "walk.epsilon"),
        num_paths=_as_int(spec.get("num_paths", 1), "walk.num_paths"),
        seed=(seed_override if seed_override is not None
              else _as_int(spec.get("seed", 0), "walk.seed")),
        max_steps=_as_int(spec.get("max_steps", 1_000_000), "walk.max_steps"),
    )


def _alphas(raw, parsed_case):
    alphas = raw.get("alphas", [parsed_case["alpha"]])
    if not isinstance(alphas, list) or not alphas:
        raise ValueError("alphas must be a nonempty list")
    return [_as_float(a, "alphas") for a in alphas]


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


def _write_summary(prefix, command, raw, extras, t0, ests):
    """Write <prefix>_summary.json; ests are every Estimate of the run."""
    payload = {
        "command": command,
        "version": __version__,
        "config": raw,
        "wall_time_s": time.perf_counter() - t0,
        "n_dropped": sum(e.n_dropped for e in ests),
        "n_nonfinite": sum(e.n_nonfinite for e in ests),
    }
    payload.update(extras)
    _write_text(prefix + "_summary.json",
                json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands: each builds the whole run and returns the closure that walks


def cmd_solve(raw, seed_override=None):
    t0 = time.perf_counter()
    case, problem, constants = _case_at(_parse_case(raw["case"]))
    walk = _parse_walk(raw.get("walk"), seed_override)
    pts = _points(raw["points"], case.domain, walk.epsilon)
    check_starts(problem, walk, pts)
    prefix = _output_prefix(raw)

    def run():
        ests = estimate_field(problem, walk, constants, pts)
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
        _write_summary(prefix, "solve", raw, extras, t0, ests)
        return 0

    return run


def cmd_convergence(raw, seed_override=None):
    t0 = time.perf_counter()
    parsed_case = _parse_case(raw["case"])
    alphas = _alphas(raw, parsed_case)
    ladder = raw["path_ladder"]
    if not isinstance(ladder, list) or not ladder:
        raise ValueError("path_ladder must be a nonempty list of path counts")
    ladder = [_as_int(N, "path_ladder") for N in ladder]
    walk0 = _parse_walk(raw.get("walk"), seed_override, need_paths=False)
    walks = [dataclasses.replace(walk0, num_paths=N) for N in ladder]

    built = [_case_at(parsed_case, a) for a in alphas]
    case0, problem0, _ = built[0]
    if case0.u_exact is None:
        raise ValueError("convergence needs a case with an exact solution")
    pts = _points(raw["points"], case0.domain, walk0.epsilon)
    check_starts(problem0, walk0, pts)
    prefix = _output_prefix(raw)

    def run():
        table = {}  # (alpha, N) -> (paper_error, rmse)
        every = []
        for a, (case, problem, constants) in zip(alphas, built):
            exact = case.u_exact(pts)
            for N, walk in zip(ladder, walks):
                ests = estimate_field(problem, walk, constants, pts)
                table[(a, N)] = error_metric([e.mean for e in ests], exact)
                every += ests

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
                       {"outputs": [prefix + "_error_vs_N.csv"], "slopes": slopes}, t0,
                       every)
        return 0

    return run


def cmd_steps(raw, seed_override=None):
    t0 = time.perf_counter()
    parsed_case = _parse_case(raw["case"])
    alphas = _alphas(raw, parsed_case)
    walk = _parse_walk(raw.get("walk"), seed_override)

    built = [_case_at(parsed_case, a) for a in alphas]
    case0, problem0, _ = built[0]
    pts = _points(raw["points"], case0.domain, walk.epsilon)
    check_starts(problem0, walk, pts)
    prefix = _output_prefix(raw)

    def run():
        # abs_x is the distance from a ball's centre, for other domains from the origin
        dom = case0.domain
        rel = pts - dom.center if isinstance(dom, BallDomain) else pts
        radii = np.linalg.norm(rel, axis=1)
        order = np.argsort(radii, kind="stable")

        lines = ["alpha,abs_x,steps_mean"]
        means = {}
        every = []
        for a, (_, problem, constants) in zip(alphas, built):
            ests = estimate_field(problem, walk, constants, pts)
            means[a] = np.array([e.mean_steps for e in ests])
            every += ests
            for i in order:
                lines.append(",".join([f"{a:g}", _fmt(radii[i]), _fmt(means[a][i])]))
        _write_text(prefix + "_steps.csv", "\n".join(lines) + "\n")

        # reported, not enforced: walks started nearer the boundary should
        # take more steps, up to a small relative slack for Monte Carlo noise
        monotone = True
        if isinstance(dom, BallDomain):
            for a in alphas:
                seq = means[a][order]
                if np.any(seq[1:] < seq[:-1] * (1.0 - 1e-2) - 1e-9):
                    monotone = False
        if any(means[a].min() < 1.0 for a in alphas):
            raise RuntimeError("steps_mean below 1; the first ball is always built")
        _write_summary(prefix, "steps", raw,
                       {"outputs": [prefix + "_steps.csv"],
                        "monotone_in_abs_x": monotone}, t0, every)
        return 0

    return run


def cmd_field(raw, seed_override=None):
    t0 = time.perf_counter()
    case, problem, constants = _case_at(_parse_case(raw["case"]))
    walk = _parse_walk(raw.get("walk"), seed_override)
    dom = case.domain
    pts = _points(raw["points"], dom, walk.epsilon)
    if raw["points"]["type"] != "grid":
        raise ValueError("field requires a grid points spec")
    prefix = _output_prefix(raw)

    def run():
        inside = dom.contains(pts)
        values = np.empty(pts.shape[0])
        ests = []
        # exterior grid points take the boundary data directly; interior points
        # inside the stopping shell take it at their boundary projection
        values[~inside] = case.g(pts[~inside]) if np.any(~inside) else 0.0
        if np.any(inside):
            own = pts[inside]
            shell = dom.dist_boundary(own) < walk.epsilon
            vals_in = np.empty(own.shape[0])
            if np.any(shell):
                vals_in[shell] = case.g(dom.project_boundary(own[shell]))
            if not np.all(shell):
                ests = estimate_field(problem, walk, constants, own[~shell])
                vals_in[~shell] = [e.mean for e in ests]
            values[inside] = vals_in

        header = ",".join([f"x{d+1}" for d in range(case.n)] + ["value"])
        lines = [header]
        for p, v in zip(pts, values):
            lines.append(",".join([_fmt(c) for c in p] + [_fmt(v)]))
        _write_text(prefix + "_field.csv", "\n".join(lines) + "\n")
        _write_summary(prefix, "field", raw,
                       {"outputs": [prefix + "_field.csv"],
                        "n_points": int(pts.shape[0]), "n_interior": len(ests)}, t0,
                       ests)
        return 0

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
            run = _BUILD[args.command](raw, seed_override=args.seed)
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
