"""End-to-end runs of the command line interface, in process.

Each test drives fracwos.cli.main with a JSON config in a temp directory
and inspects the produced CSV/JSON files.  Determinism matters as much as
the numbers: a rerun of the same config must be byte-identical, and seed
overrides must equal the corresponding config edit.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from fracwos import cli
from fracwos.engine import Estimate, WalkConfig, estimate_point
from fracwos.kernels import make_constants
from fracwos.oracle import make_case


def _cfg(tmp_path, name="run.json", **body):
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def _solve_cfg(tmp_path, out="out/run", **over):
    body = {
        "case": {"name": "disk_constant_source", "alpha": 1.0},
        "points": {"type": "list", "values": [[0.0, 0.0], [0.5, 0.0]]},
        "walk": {"epsilon": 1e-6, "num_paths": 2000, "seed": 0},
        "output": str(tmp_path / out),
    }
    body.update(over)
    return _cfg(tmp_path, **body)


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# constants


def test_constants_prints_analytic_values(capsys):
    rc = cli.main(["constants", "--n", "2", "--alpha", "1.0"])
    assert rc == 0
    out = capsys.readouterr().out
    vals = dict(
        line.split(" = ") for line in out.strip().split("\n") if " = " in line
    )
    k = make_constants(2, 1.0)
    assert float(vals["c_tilde"]) == k.c_tilde == pytest.approx(1.0 / math.pi**2)
    assert float(vals["c_hat"]) == k.c_hat
    assert float(vals["zeta_unit"]) == k.zeta_unit == pytest.approx(2.0 / math.pi)
    # within 1.3e-14 of the mpmath value 2465179658618.3188
    assert "step_bound(r=1, epsilon=1e-06) = 2465179658618.2866" in out


def test_constants_rejects_bad_parameters(capsys):
    for extra in (["--alpha", "2.5"], ["--n", "1"], ["--epsilon", "2"], ["--radius", "-1"]):
        assert cli.main(["constants", "--n", "2", "--alpha", "1.0"] + extra) == 2
        assert "config error" in capsys.readouterr().err


def test_constants_step_bound_underflow(capsys):
    # (eps/r)^2 underflows to 0: the bound is inf, not a division error
    assert cli.main(["constants", "--n", "2", "--alpha", "1.0", "--epsilon", "1e-200"]) == 0
    assert "step_bound(r=1, epsilon=1e-200) = inf" in capsys.readouterr().out
    assert cli.main(["constants", "--n", "2", "--alpha", "1.0", "--radius", "inf"]) == 2
    assert "config error: need 0 < epsilon < r" in capsys.readouterr().err


def test_constants_takes_the_kernel_alpha_range(capsys):
    for alpha in ("0.01", "1.96"):
        assert cli.main(["constants", "--n", "2", "--alpha", alpha]) == 2
    assert "[0.05, 1.95]" in capsys.readouterr().err
    # a small alpha inside the range, at which zeta_unit used to come from a
    # quadrature ladder that did not converge
    assert cli.main(["constants", "--n", "2", "--alpha", "0.25"]) == 0
    vals = dict(
        line.split(" = ") for line in capsys.readouterr().out.strip().split("\n")
    )
    assert float(vals["zeta_unit"]) == make_constants(2, 0.25).zeta_unit


# ---------------------------------------------------------------------------
# solve


def test_solve_outputs_and_summary(tmp_path):
    cfg = _solve_cfg(tmp_path)
    assert cli.main(["solve", "--config", cfg]) == 0
    header, rows = _read_rows(tmp_path / "out" / "run_estimates.csv")
    assert header == ["x1", "x2", "mean", "stderr", "steps_mean", "n_paths"]
    assert len(rows) == 2
    # constant-source disk: the walk from the center scores exactly 1
    center = rows[0]
    assert float(center[2]) == pytest.approx(1.0, abs=1e-11)
    assert float(center[4]) == 1.0
    assert center[5] == "2000"
    off = rows[1]
    exact = math.sqrt(0.75)
    assert abs(float(off[2]) - exact) <= max(5.0 * float(off[3]), 1e-2)

    summary = json.loads(
        (tmp_path / "out" / "run_summary.json").read_text(encoding="utf-8")
    )
    assert summary["command"] == "solve"
    assert summary["config"] == json.loads(open(cfg, encoding="utf-8").read())
    assert summary["n_points"] == 2
    assert summary["wall_time_s"] > 0
    assert summary["paper_error"] >= 0 and summary["rmse"] >= 0
    assert summary["outputs"] == [str(tmp_path / "out" / "run_estimates.csv")]
    assert (summary["n_dropped"], summary["n_nonfinite"]) == (0, 0)


def test_solve_csv_roundtrips_the_estimate_bits(tmp_path):
    cfg = _solve_cfg(tmp_path)
    assert cli.main(["solve", "--config", cfg]) == 0
    _, rows = _read_rows(tmp_path / "out" / "run_estimates.csv")
    case = make_case("disk_constant_source", 1.0)
    est = estimate_point(
        case.problem(),
        WalkConfig(epsilon=1e-6, num_paths=2000, seed=0),
        make_constants(2, 1.0),
        np.array([0.5, 0.0]),
    )
    # 17 significant digits reproduce the double exactly
    assert float(rows[1][2]) == est.mean
    assert float(rows[1][3]) == est.stderr


def test_solve_and_field_reruns_are_byte_identical(tmp_path):
    cfg_a = _solve_cfg(tmp_path, name="a.json", out="a/run")
    cfg_b = _solve_cfg(tmp_path, name="b.json", out="b/run")
    assert cli.main(["solve", "--config", cfg_a]) == 0
    assert cli.main(["solve", "--config", cfg_b]) == 0
    bytes_a = (tmp_path / "a" / "run_estimates.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "run_estimates.csv").read_bytes()
    assert bytes_a == bytes_b
    # field walks all its grid nodes in one wavefront
    fld = _cfg(
        tmp_path,
        name="fld.json",
        case={"name": "disk_inverse_cubic", "alpha": 1.5},
        points={"type": "grid", "resolution": 5, "margin": 0.1},
        walk={"num_paths": 300, "seed": 4},
        output=str(tmp_path / "fld"),
    )
    assert cli.main(["field", "--config", fld]) == 0
    one = (tmp_path / "fld_field.csv").read_bytes()
    assert cli.main(["field", "--config", fld]) == 0
    assert (tmp_path / "fld_field.csv").read_bytes() == one


def test_threads_option_is_a_usage_error(tmp_path):
    cfg = _solve_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--config", cfg, "--threads", "2"])
    assert exc.value.code == 2


def test_solve_seed_override_matches_config_edit(tmp_path):
    base = _solve_cfg(tmp_path, name="a.json", out="a/run")
    edited = _solve_cfg(
        tmp_path,
        name="b.json",
        out="b/run",
        walk={"epsilon": 1e-6, "num_paths": 2000, "seed": 1},
    )
    assert cli.main(["solve", "--config", base, "--seed", "1"]) == 0
    assert cli.main(["solve", "--config", edited]) == 0
    bytes_a = (tmp_path / "a" / "run_estimates.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "run_estimates.csv").read_bytes()
    assert bytes_a == bytes_b
    # and it actually changed something relative to seed 0
    plain = _solve_cfg(tmp_path, name="c.json", out="c/run")
    assert cli.main(["solve", "--config", plain]) == 0
    assert (tmp_path / "c" / "run_estimates.csv").read_bytes() != bytes_a


@pytest.mark.parametrize("command, walk", [
    ("solve", {"epsilon": 1e-6, "num_paths": 500, "seed": 0}),
    ("solve", {"num_paths": 500}),
    ("convergence", None),
    ("convergence", "absent"),
], ids=["solve_seed", "solve_no_seed", "convergence_null", "convergence_absent"])
def test_summary_echoes_the_seed_override(tmp_path, command, walk):
    # --seed 5 walks, writes and echoes what the config edited to seed 5 does
    body = {"case": "disk_constant_source", "points": {"type": "list", "values": [[0.3, 0.0]]}}
    if command == "convergence":
        body["path_ladder"] = [100, 300]
    edited = {} if walk in (None, "absent") else walk
    if walk != "absent":
        body["walk"] = walk
    by_flag = _cfg(tmp_path, "a.json", **body, output=str(tmp_path / "a" / "run"))
    by_edit = _cfg(tmp_path, "b.json", **{**body, "walk": {**edited, "seed": 5}},
                   output=str(tmp_path / "b" / "run"))
    assert cli.main([command, "--config", by_flag, "--seed", "5"]) == 0
    assert cli.main([command, "--config", by_edit]) == 0
    runs = []
    for side in ("a", "b"):
        summary = json.loads((tmp_path / side / "run_summary.json").read_text())
        assert summary["config"].pop("output") == str(tmp_path / side / "run")
        assert summary["config"]["walk"]["seed"] == 5
        runs.append((summary["config"], pathlib.Path(summary["outputs"][0]).read_bytes()))
    assert runs[0] == runs[1]


def test_seed_override_keeps_the_walk_object_check(tmp_path, capsys):
    cfg = _solve_cfg(tmp_path, walk=[1])
    assert cli.main(["solve", "--config", cfg, "--seed", "5"]) == 2
    assert capsys.readouterr().err == "config error: walk must be an object\n"


def test_solve_inline_case_center_identity(tmp_path):
    cfg = _cfg(
        tmp_path,
        case={
            "domain": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "n": 2,
            "alpha": 0.8,
            "f": "constant_source",
            "g": "zero",
        },
        points={"type": "list", "values": [[0.0, 0.0]]},
        walk={"num_paths": 400},
        output=str(tmp_path / "inline"),
    )
    assert cli.main(["solve", "--config", cfg]) == 0
    _, rows = _read_rows(tmp_path / "inline_estimates.csv")
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-11)


# ---------------------------------------------------------------------------
# convergence


def test_convergence_table_and_slope(tmp_path):
    cfg = _cfg(
        tmp_path,
        case="disk_constant_source",
        alphas=[0.8],
        path_ladder=[50, 200, 800, 3200],
        points={"type": "list", "values": [[0.3, 0.0], [0.0, -0.5], [0.2, 0.4]]},
        walk={"epsilon": 1e-6, "seed": 0},
        output=str(tmp_path / "conv"),
    )
    assert cli.main(["convergence", "--config", cfg]) == 0
    header, rows = _read_rows(tmp_path / "conv_error_vs_N.csv")
    assert header == ["N", "paper_error_a0.8", "rmse_a0.8"]
    assert [r[0] for r in rows] == ["50", "200", "800", "3200"]
    errs = [float(r[1]) for r in rows]
    assert all(e > 0 for e in errs)
    # the error over a 64-fold ladder must drop noticeably
    assert errs[-1] < errs[0]
    summary = json.loads((tmp_path / "conv_summary.json").read_text())
    slope = summary["slopes"]["a0.8"]
    assert -1.2 < slope < -0.1


def test_convergence_single_point_slope_is_nan(tmp_path):
    cfg = _cfg(
        tmp_path,
        case="disk_constant_source",
        path_ladder=[100],
        points={"type": "list", "values": [[0.3, 0.0]]},
        walk={"epsilon": 1e-6, "seed": 0},
        output=str(tmp_path / "conv1"),
    )
    with pytest.warns(RuntimeWarning, match="fewer than two"):
        assert cli.main(["convergence", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "conv1_summary.json").read_text())
    assert math.isnan(summary["slopes"]["a1"])


def test_convergence_requires_exact_solution(tmp_path):
    cfg = _cfg(
        tmp_path,
        case="annulus_oscillatory",
        path_ladder=[10, 20],
        points={"type": "random", "count": 2, "seed": 0},
        output=str(tmp_path / "bad"),
    )
    assert cli.main(["convergence", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# steps


def test_steps_table_sorted_and_monotone(tmp_path):
    # 8000 paths per point resolve the order of these radii: the table was
    # monotone at 19 of walk seeds 0-19 (400 paths: at about 1 in 3)
    cfg = _cfg(
        tmp_path,
        case="disk_constant_source",
        alphas=[0.6, 1.4],
        points={"type": "random", "count": 6, "seed": 3},
        walk={"num_paths": 8000, "seed": 0},
        output=str(tmp_path / "steps"),
    )
    assert cli.main(["steps", "--config", cfg]) == 0
    header, rows = _read_rows(tmp_path / "steps_steps.csv")
    assert header == ["alpha", "abs_x", "steps_mean"]
    assert len(rows) == 12
    for a, block in (("0.6", rows[:6]), ("1.4", rows[6:])):
        assert all(r[0] == a for r in block)
        radii = [float(r[1]) for r in block]
        assert radii == sorted(radii)
        means = [float(r[2]) for r in block]
        assert min(means) >= 1.0
    summary = json.loads((tmp_path / "steps_summary.json").read_text())
    assert summary["monotone_in_abs_x"] is True


def test_steps_reports_a_non_monotone_table(tmp_path, monkeypatch):
    # the config above with 400 paths and walk seed 1, walked by a stand-in
    # whose mean steps fall with |x|: the summary reports the broken order
    # instead of failing the run, whatever the random stream
    def falling_steps(problem, walk, constants, pts):
        radii = np.linalg.norm(pts - problem.domain.center, axis=1)
        return [Estimate(mean=0.0, variance=0.0, stderr=0.0, n_paths=walk.num_paths,
                         mean_steps=2.0 - r) for r in radii]

    monkeypatch.setattr(cli, "estimate_field", falling_steps)
    cfg = _cfg(
        tmp_path,
        case="disk_constant_source",
        alphas=[0.6, 1.4],
        points={"type": "random", "count": 6, "seed": 3},
        walk={"num_paths": 400, "seed": 1},
        output=str(tmp_path / "steps"),
    )
    assert cli.main(["steps", "--config", cfg]) == 0
    assert len(_read_rows(tmp_path / "steps_steps.csv")[1]) == 12
    summary = json.loads((tmp_path / "steps_summary.json").read_text())
    assert summary["monotone_in_abs_x"] is False


def test_steps_measures_abs_x_from_the_ball_centre(tmp_path):
    cfg = _cfg(
        tmp_path,
        case=_inline_ball(1.0, center=(3.0, 0.0)),
        points={"type": "list", "values": [[3.0, 0.0], [3.5, 0.0], [3.9, 0.0], [2.2, 0.0]]},
        walk={"num_paths": 400, "seed": 0},
        output=str(tmp_path / "steps"),
    )
    assert cli.main(["steps", "--config", cfg]) == 0
    _, rows = _read_rows(tmp_path / "steps_steps.csv")
    radii = [float(r[1]) for r in rows]
    assert radii == pytest.approx([0.0, 0.5, 0.8, 0.9], abs=1e-12)
    assert float(rows[0][2]) == 1.0  # from the centre every path exits at once


@pytest.mark.parametrize("command", ["solve", "field", "convergence", "steps"])
def test_summary_counts_dropped_paths(tmp_path, command):
    # at max_steps = 1 every path that needs a second jump is dropped
    walk = {"epsilon": 1e-6, "num_paths": 200, "seed": 0, "max_steps": 1}
    points = {"type": "list", "values": [[0.0, 0.0], [0.5, 0.0], [0.0, -0.7]]}
    extra = {}
    if command == "field":
        points = {"type": "grid", "resolution": 4, "margin": 0.3}
    elif command == "convergence":
        extra = {"path_ladder": [100, 200]}
        walk.pop("num_paths")
    cfg = _cfg(tmp_path, case="disk_constant_source", points=points, walk=walk,
               output=str(tmp_path / "cap"), **extra)
    with pytest.warns(RuntimeWarning, match="max_steps=1"):
        assert cli.main([command, "--config", cfg]) == 0
    summary = json.loads((tmp_path / "cap_summary.json").read_text())
    assert summary["n_dropped"] > 0
    assert summary["n_nonfinite"] == 0
    if command == "solve":
        case = make_case("disk_constant_source", 1.0)
        with pytest.warns(RuntimeWarning):
            dropped = sum(
                estimate_point(case.problem(), WalkConfig(**walk), make_constants(2, 1.0),
                               np.array(x)).n_dropped
                for x in points["values"]
            )
        assert summary["n_dropped"] == dropped


# ---------------------------------------------------------------------------
# field


def test_field_constant_boundary_data_is_exactly_one(tmp_path):
    # g = 1, f = 0: every walk scores exactly 1, exterior grid nodes take g
    # directly, so the whole field is the constant 1.0 to the last bit
    cfg = _cfg(
        tmp_path,
        case={
            "domain": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "n": 2,
            "alpha": 1.2,
            "g": "one",
        },
        points={"type": "grid", "resolution": 5},
        walk={"num_paths": 50},
        output=str(tmp_path / "fld"),
    )
    assert cli.main(["field", "--config", cfg]) == 0
    header, rows = _read_rows(tmp_path / "fld_field.csv")
    assert header == ["x1", "x2", "value"]
    assert len(rows) == 25
    assert all(float(r[2]) == 1.0 for r in rows)
    summary = json.loads((tmp_path / "fld_summary.json").read_text())
    assert summary["n_points"] == 25
    assert 0 < summary["n_interior"] < 25


def test_field_exterior_nodes_take_boundary_data(tmp_path):
    cfg = _cfg(
        tmp_path,
        case={"name": "disk_inverse_cubic", "alpha": 1.0},
        points={"type": "grid", "resolution": 3},
        walk={"num_paths": 200},
        output=str(tmp_path / "fld2"),
    )
    assert cli.main(["field", "--config", cfg]) == 0
    _, rows = _read_rows(tmp_path / "fld2_field.csv")
    byxy = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    # the box corners lie outside the disk: value is g exactly
    assert byxy[(-1.0, -1.0)] == 3.0 ** (-1.5)
    assert byxy[(1.0, 1.0)] == 3.0 ** (-1.5)
    # the center is interior: close to u(0) = 1
    assert abs(byxy[(0.0, 0.0)] - 1.0) < 0.2


def test_field_requires_grid_points(tmp_path):
    cfg = _cfg(
        tmp_path,
        case="disk_constant_source",
        points={"type": "list", "values": [[0.0, 0.0]]},
        walk={"num_paths": 10},
        output=str(tmp_path / "x"),
    )
    assert cli.main(["field", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# config validation and exit codes


def test_missing_config_file(tmp_path, capsys):
    assert cli.main(["solve", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["solve", "--config", str(path)]) == 2


def test_unknown_top_level_key(tmp_path, capsys):
    cfg = _solve_cfg(tmp_path, extra_knob=1)
    assert cli.main(["solve", "--config", cfg]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_path_ladder_rejected_outside_convergence(tmp_path):
    cfg = _solve_cfg(tmp_path, path_ladder=[10, 20])
    assert cli.main(["solve", "--config", cfg]) == 2


def test_unknown_case_name_is_config_error(tmp_path):
    cfg = _solve_cfg(tmp_path, case="no_such_case")
    assert cli.main(["solve", "--config", cfg]) == 2


def test_alpha_out_of_range_is_config_error(tmp_path):
    cfg = _solve_cfg(tmp_path, case={"name": "disk_constant_source", "alpha": 2.5})
    assert cli.main(["solve", "--config", cfg]) == 2


def test_alpha_at_a_pole_of_a_case_constant_is_named(tmp_path, capsys):
    # alpha = -2 is a pole of the Gamma in the bump cases' constant source
    cfg = _solve_cfg(tmp_path, case={"name": "disk_constant_source", "alpha": -2})
    assert cli.main(["solve", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: alpha=-2.0 outside the supported range [0.05, 1.95]\n")


def _inline_ball(alpha, center=(0.0, 0.0)):
    return {
        "domain": {"type": "ball", "center": list(center), "radius": 1.0},
        "n": 2,
        "alpha": alpha,
        "f": "none",
        "g": "zero",
    }


def test_alpha_outside_the_kernel_range_is_config_error(tmp_path):
    # the kernels support [ALPHA_MIN, ALPHA_MAX] = [0.05, 1.95]; alpha = 0.01
    # lies in (0, 2) but must still be rejected as a config error
    cfg = _solve_cfg(tmp_path, case=_inline_ball(0.01))
    assert cli.main(["solve", "--config", cfg]) == 2
    cfg = _solve_cfg(tmp_path, case={"name": "disk_constant_source", "alpha": 1.96})
    assert cli.main(["solve", "--config", cfg]) == 2
    for alphas in ([0.01], [1.0, 0.01]):
        steps = _cfg(
            tmp_path,
            case=_inline_ball(1.0),
            alphas=alphas,
            points={"type": "list", "values": [[0.0, 0.0]]},
            walk={"num_paths": 10, "seed": 0},
            output=str(tmp_path / "steps"),
        )
        assert cli.main(["steps", "--config", steps]) == 2
        conv = _cfg(
            tmp_path,
            case={"name": "disk_constant_source", "alpha": 1.0},
            alphas=alphas,
            path_ladder=[10, 20],
            points={"type": "list", "values": [[0.0, 0.0]]},
            walk={"seed": 0},
            output=str(tmp_path / "conv"),
        )
        assert cli.main(["convergence", "--config", conv]) == 2
    assert not (tmp_path / "steps_steps.csv").exists()
    assert not (tmp_path / "conv_error_vs_N.csv").exists()


def test_empty_points_list_is_config_error(tmp_path):
    cfg = _solve_cfg(tmp_path, points={"type": "list", "values": []})
    assert cli.main(["solve", "--config", cfg]) == 2


def test_wrong_point_dimension_is_config_error(tmp_path):
    cfg = _solve_cfg(tmp_path, points={"type": "list", "values": [[0.0, 0.0, 0.0]]})
    assert cli.main(["solve", "--config", cfg]) == 2


def test_inline_case_must_not_drop_g(tmp_path):
    cfg = _cfg(
        tmp_path,
        case={
            "domain": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "n": 2,
            "alpha": 1.0,
            "g": "none",
        },
        points={"type": "list", "values": [[0.0, 0.0]]},
        walk={"num_paths": 10},
        output=str(tmp_path / "x"),
    )
    assert cli.main(["solve", "--config", cfg]) == 2


def test_exterior_start_point_is_config_error(tmp_path, capsys):
    cfg = _solve_cfg(tmp_path, points={"type": "list", "values": [[2.0, 0.0]]})
    assert cli.main(["solve", "--config", cfg]) == 2
    assert "point 0 [2.0, 0.0] lies outside the domain" in capsys.readouterr().err
    assert not (tmp_path / "out" / "run_estimates.csv").exists()


def test_start_points_are_checked_before_any_walk(tmp_path, capsys):
    # the README's L-shape grid: its nodes include the re-entrant corner and
    # the removed quadrant, so solve refuses it before walking any point
    cfg = _cfg(
        tmp_path,
        case={
            "domain": {"type": "lshape"},
            "n": 2,
            "alpha": 1.0,
            "f": "constant_source",
            "g": "zero",
        },
        points={"type": "grid", "resolution": 41, "margin": 0.02},
        walk={"epsilon": 1e-6, "num_paths": 20000, "seed": 0},
        output=str(tmp_path / "lshape"),
    )
    assert cli.main(["solve", "--config", cfg]) == 2
    assert "point 840 [0.0, 0.0] lies outside the domain" in capsys.readouterr().err
    assert not (tmp_path / "lshape_estimates.csv").exists()
    assert not (tmp_path / "lshape_summary.json").exists()
    # a point in the epsilon-shell is refused by steps and convergence too
    shell = {"type": "list", "values": [[0.0, 0.0], [0.9999999, 0.0]]}
    steps = _cfg(tmp_path, "steps.json", case="disk_constant_source", points=shell,
                 walk={"num_paths": 10}, output=str(tmp_path / "steps"))
    conv = _cfg(tmp_path, "conv.json", case="disk_constant_source", points=shell,
                path_ladder=[10, 20], output=str(tmp_path / "conv"))
    for command, cfg_path in (("steps", steps), ("convergence", conv)):
        assert cli.main([command, "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "point 1 [0.9999999, 0.0] lies inside the epsilon-shell" in err
    assert not (tmp_path / "steps_steps.csv").exists()
    assert not (tmp_path / "conv_error_vs_N.csv").exists()


def _with_domain(domain):
    return {**_inline_ball(1.0), "domain": domain}


@pytest.mark.parametrize("over", [
    {"case": _with_domain({"type": "ball", "center": [0.0, 0.0], "radius": -1.0})},
    {"case": _with_domain({"type": "ball", "center": [[0.0, 0.0]], "radius": 1.0})},
    {"case": _with_domain({"type": "annulus", "inner": 1.0, "outer": 0.5})},
    {"case": _with_domain({"type": "box", "lo": [1.0, 0.0], "hi": [0.0, 1.0]})},
    {"case": _with_domain({"type": "hexagon", "circumradius": 0.0})},
    {"case": {**_inline_ball(1.0), "n": "two"}},
    {"points": {"type": "random", "count": 2, "seed": -1}},
], ids=["ball_radius", "ball_center", "annulus", "box", "hexagon", "n_string",
        "points_seed"])
def test_library_rejections_are_config_errors(tmp_path, capsys, over):
    # each value is refused by the library's own check while the run is built
    cfg = _solve_cfg(tmp_path, **over)
    assert cli.main(["solve", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "run_estimates.csv").exists()


@pytest.mark.parametrize("over, message", [
    ({"case": "nope"}, "config error: unknown case name: nope\n"),
    ({"case": {**_inline_ball(1.0), "n": "two"}},
     "config error: case.n must be an integer, got 'two'\n"),
    ({"points": {"type": "random", "count": "many"}},
     "config error: points.count must be an integer, got 'many'\n"),
    ({"points": {"type": "random", "count": 2, "seed": [1]}},
     "config error: points.seed must be an integer, got [1]\n"),
    ({"points": {"type": "grid", "resolution": "fine"}},
     "config error: points.resolution must be an integer, got 'fine'\n"),
    ({"case": {**_inline_ball(1.0), "g": "none"}},
     "config error: exterior data g is required (a field of zeros for g = 0)\n"),
    ({"case": _with_domain({"type": "ball", "center": [0.0, 0.0], "radius": 1.0,
                            "inner": 0.5})},
     "config error: unknown keys in case.domain: inner\n"),
    ({"case": _with_domain({"type": "lshape", "radius": 3.0})},
     "config error: unknown keys in case.domain: radius\n"),
    ({"case": _with_domain({"type": "ball", "center": [0.0, 0.0]})},
     "config error: missing keys in case.domain: radius\n"),
    ({"case": _with_domain({"type": "circle", "radius": 1.0})},
     "config error: unknown domain type: 'circle'\n"),
    ({"case": _with_domain({"type": "hexagon", "center": [0.0, 0.0, 0.0]})},
     "config error: center must be a flat coordinate vector of length 2\n"),
], ids=["case_name", "n", "count", "seed", "resolution", "g_none", "ball_inner",
        "lshape_radius", "ball_no_radius", "domain_type", "hexagon_center"])
def test_config_error_messages(tmp_path, capsys, over, message):
    cfg = _solve_cfg(tmp_path, **over)
    assert cli.main(["solve", "--config", cfg]) == 2
    assert capsys.readouterr().err == message


def test_negative_points_seed_names_the_key(tmp_path, capsys):
    cfg = _solve_cfg(tmp_path, points={"type": "random", "count": 2, "seed": -1})
    assert cli.main(["solve", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: points.seed: ")


_WALK = {"epsilon": 1e-6, "num_paths": 200, "seed": 0}


def _domain(**domain):
    return {"case": {"domain": domain, "n": 2, "alpha": 1.0, "g": "zero"}}


def _grid(margin):
    return {"points": {"type": "grid", "resolution": 3, "margin": margin}}


@pytest.mark.parametrize("command, over, key", [
    ("solve", {"walk": {**_WALK, "num_paths": 2.5}}, "walk.num_paths"),
    ("solve", {"walk": {**_WALK, "num_paths": True}}, "walk.num_paths"),
    ("solve", {"walk": {**_WALK, "num_paths": "abc"}}, "walk.num_paths"),
    ("solve", {"walk": {**_WALK, "seed": 1.5}}, "walk.seed"),
    ("solve", {"walk": {**_WALK, "seed": "0"}}, "walk.seed"),
    ("solve", {"walk": {**_WALK, "max_steps": False}}, "walk.max_steps"),
    ("solve", {"walk": {**_WALK, "epsilon": "x"}}, "walk.epsilon"),
    ("solve", {"walk": {**_WALK, "epsilon": True}}, "walk.epsilon"),
    ("solve", {"points": {"type": "random", "count": 2.5}}, "points.count"),
    ("solve", {"points": {"type": "random", "count": True}}, "points.count"),
    ("solve", {"case": {"name": "disk_constant_source", "alpha": "1"}}, "case.alpha"),
    ("convergence", {"path_ladder": [100, 2.5]}, "path_ladder"),
    ("convergence", {"path_ladder": [100, True]}, "path_ladder"),
    ("steps", {"alphas": [1.0, "x"]}, "alphas"),
    ("solve", _domain(type="ball", center=[0.0, 0.0], radius=True), "case.domain.radius"),
    ("solve", _domain(type="ball", center=[0.0, 0.0], radius="1.0"), "case.domain.radius"),
    ("solve", _domain(type="ball", center=[0.0, 0.0], radius="abc"), "case.domain.radius"),
    ("solve", _domain(type="ball", center=[0.0, "0"], radius=1.0), "case.domain.center"),
    ("solve", _domain(type="ball", center="0, 0", radius=1.0), "case.domain.center"),
    ("solve", _domain(type="box", lo=[-1.0, "-1"], hi=[1.0, 1.0]), "case.domain.lo"),
    ("solve", _domain(type="box", lo=[-1.0, -1.0], hi=[True, 1.0]), "case.domain.hi"),
    ("solve", _domain(type="annulus", inner="0.3", outer=1.0), "case.domain.inner"),
    ("solve", _domain(type="annulus", inner=0.3, outer=[1.0]), "case.domain.outer"),
    ("solve", _domain(type="hexagon", circumradius=True), "case.domain.circumradius"),
    ("field", _grid(True), "points.margin"),
    ("field", _grid("0.2"), "points.margin"),
    ("field", _grid("abc"), "points.margin"),
    ("solve", {"points": {"type": "list", "values": [[0.0, False]]}}, "points.values"),
    ("solve", {"points": {"type": "list", "values": [["0.25", 0.0]]}}, "points.values"),
    ("solve", {"points": {"type": "list", "values": [[0.0, 0.0], [0.5]]}}, "points.values"),
    ("field", _grid(math.nan), "points.margin"),
    ("field", _grid(math.inf), "points.margin"),
    ("solve", _domain(type="ball", center=[0.0, 0.0], radius=math.inf),
     "case.domain.radius"),
    ("solve", _domain(type="box", lo=[-math.inf, -1.0], hi=[1.0, 1.0]), "case.domain.lo"),
    ("field", _grid(10**400), "points.margin"),
], ids=["num_paths_float", "num_paths_bool", "num_paths_string", "seed_float",
        "seed_string", "max_steps_bool", "epsilon_string", "epsilon_bool",
        "count_float", "count_bool", "alpha_string", "ladder_float", "ladder_bool",
        "alphas_string", "radius_bool", "radius_numeric_string", "radius_string",
        "center_entry_string", "center_string", "lo_entry_string", "hi_entry_bool",
        "inner_string", "outer_list", "circumradius_bool", "margin_bool",
        "margin_numeric_string", "margin_string", "values_bool", "values_string",
        "values_ragged", "margin_nan", "margin_inf", "radius_inf", "lo_minus_inf",
        "margin_int_beyond_float"])
def test_bad_numbers_name_their_key(tmp_path, capsys, command, over, key):
    # a value that is not the number its key needs is refused, never
    # truncated or read as 0 or 1, and the message names the key
    cfg = _solve_cfg(tmp_path, **over)
    assert cli.main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be ")
    assert not (tmp_path / "out").exists()


def test_integral_floats_are_integers(tmp_path):
    # JSON 2e2 is the number 200.0: it is a path count like 200
    csvs = []
    for name, paths in (("int", 200), ("float", 2e2)):
        cfg = _solve_cfg(tmp_path, out=f"{name}/run",
                         walk={**_WALK, "num_paths": paths, "seed": 1.0})
        assert cli.main(["solve", "--config", cfg]) == 0
        csvs.append((tmp_path / name / "run_estimates.csv").read_bytes())
    assert csvs[0] == csvs[1]
