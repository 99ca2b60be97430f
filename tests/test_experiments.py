"""Experiment harness: config validation, runners, CLI, artifact formats."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmhp import __version__
from rsmhp.experiments import (
    ConfigError,
    ExperimentKind,
    ExperimentSpec,
    describe_kinds,
    load_spec,
    run_experiment,
)
from rsmhp.experiments import runners
from rsmhp.experiments.cli import main
from rsmhp.experiments.io import format_cell, read_csv, write_csv, write_json
from rsmhp.experiments.spec import _SCHEMAS, tracking_setup


def _write_config(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _fast_uav_section(**overrides) -> str:
    base = dict(n_runs=3, n_steps=4, horizon=2, eval_budget=15, nt_values="3, 5")
    base.update(overrides)
    return "[uav_monte_carlo]\n" + "\n".join(f"{k} = {v}" for k, v in base.items())


# -------------------------------------------------------------------- config


def test_load_spec_minimal_config(tmp_path):
    config = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nkind = variance_scaling\noutput = results\n",
    )
    spec = load_spec(config)
    assert spec.kind is ExperimentKind.VARIANCE_SCALING
    assert spec.master_seed == 0
    assert spec.output == "results"
    assert spec.params["n_values"] == [100, 1000, 10000]
    assert spec.params["reps"] == 200


def test_load_spec_reads_all_fields(tmp_path):
    config = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nkind = lqg_convergence\nmaster_seed = 99\noutput = out\n\n"
        "[lqg_convergence]\na = 0.3\nhorizon = 3\ncontrols = 0.1, 0.2, 0.3\n"
        "p_min = 10\np_max = 50\np_step = 10\n",
    )
    spec = load_spec(config)
    assert spec.master_seed == 99
    assert spec.params["a"] == 0.3
    assert spec.params["controls"] == [0.1, 0.2, 0.3]


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_spec(tmp_path / "absent.ini")


def test_unknown_kind_names_field(tmp_path):
    config = _write_config(
        tmp_path / "exp.ini", "[experiment]\nkind = bogus\noutput = out\n"
    )
    with pytest.raises(ConfigError, match="experiment.kind"):
        load_spec(config)


def test_missing_output_names_field(tmp_path):
    config = _write_config(tmp_path / "exp.ini", "[experiment]\nkind = pruning_study\n")
    with pytest.raises(ConfigError, match="experiment.output"):
        load_spec(config)


def test_bad_value_names_section_and_key(tmp_path):
    config = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nkind = variance_scaling\noutput = out\n\n"
        "[variance_scaling]\nreps = many\n",
    )
    with pytest.raises(ConfigError, match="variance_scaling.reps"):
        load_spec(config)


def test_range_violation_names_key(tmp_path):
    config = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nkind = lqg_convergence\noutput = out\n\n"
        "[lqg_convergence]\np_step = -5\n",
    )
    with pytest.raises(ConfigError, match="lqg_convergence.p_step"):
        load_spec(config)


def test_unknown_key_rejected(tmp_path):
    config = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nkind = variance_scaling\noutput = out\n\n"
        "[variance_scaling]\nrepz = 10\n",
    )
    with pytest.raises(ConfigError, match="variance_scaling.repz"):
        load_spec(config)


def test_unknown_section_rejected(tmp_path):
    config = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nkind = variance_scaling\noutput = out\n\n[mystery]\nx = 1\n",
    )
    with pytest.raises(ConfigError, match="mystery"):
        load_spec(config)


def test_controls_length_cross_check(tmp_path):
    config = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nkind = lqg_convergence\noutput = out\n\n"
        "[lqg_convergence]\nhorizon = 3\ncontrols = 0.5, 0.5\n",
    )
    with pytest.raises(ConfigError, match="lqg_convergence.controls"):
        load_spec(config)


def test_grid_order_cross_check(tmp_path):
    config = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nkind = lqg_convergence\noutput = out\n\n"
        "[lqg_convergence]\np_min = 500\np_max = 100\n",
    )
    with pytest.raises(ConfigError, match="p_min"):
        load_spec(config)


def test_master_seed_range_checked(tmp_path):
    config = _write_config(
        tmp_path / "exp.ini",
        f"[experiment]\nkind = pruning_study\nmaster_seed = {2**64}\noutput = out\n",
    )
    with pytest.raises(ConfigError, match="master_seed"):
        load_spec(config)


def test_with_overrides():
    spec = ExperimentSpec(
        kind=ExperimentKind.PRUNING_STUDY, master_seed=1, output="a", params={}
    )
    assert spec.with_overrides().master_seed == 1
    assert spec.with_overrides(master_seed=7).master_seed == 7
    assert spec.with_overrides(output="b").output == "b"
    assert spec.with_overrides(master_seed=7, output="b").params == {}
    with pytest.raises(ConfigError, match="experiment.master_seed: must fit"):
        spec.with_overrides(master_seed=2**64)


@pytest.mark.parametrize(
    "kind, key, unit, code",
    [
        ("chebyshev_coverage", "sigma", "deviation", 2),
        ("chebyshev_coverage", "cost", "deviation", 2),
        ("chebyshev_coverage", "sigma", "absolute", 0),
        ("variance_scaling", "sigma", None, 2),
        ("variance_scaling", "cost", None, 2),
    ],
)
def test_cli_validate_rejects_a_zero_variance_cost_where_the_run_needs_one(
    tmp_path, capsys, kind, key, unit, code
):
    # Thresholds in cost deviations and a log-log variance slope both need
    # a cost with nonzero variance; absolute thresholds do not.
    section = f"[{kind}]\n{key} = 0\n" + (f"epsilon_unit = {unit}\n" if unit else "")
    config = _write_config(
        tmp_path / "exp.ini", f"[experiment]\nkind = {kind}\noutput = out\n\n{section}"
    )
    assert main(["validate", str(config)]) == code
    if code == 2:
        assert f"{kind}.{key}: must be nonzero" in capsys.readouterr().err


def test_every_tracking_key_reaches_its_field(tmp_path):
    values = dict(
        n_runs=3, nt_values="4, 9", horizon=3, eval_budget=11,
        n_steps=5, dt=0.5, process_intensity=3.5, sigma0=4.5, eta=0.004,
        v_min=12.0, v_max=44.0, accel_max=3.0, bank_max=0.4,
        uav_x=-10.0, uav_y=25.0, uav_heading=0.7, uav_speed=20.0,
        target_mean="100.0, 200.0, -1.0, 2.0", target_pos_var=250.0, target_vel_var=9.0,
    )
    fields = _SCHEMAS[ExperimentKind.UAV_MONTE_CARLO]
    assert sorted(values) == sorted(field.name for field in fields)
    config = _write_config(
        tmp_path / "exp.ini",
        f"[experiment]\nkind = uav_monte_carlo\nmaster_seed = 77\noutput = {tmp_path / 'out'}\n\n"
        "[uav_monte_carlo]\n" + "".join(f"{key} = {value}\n" for key, value in values.items()),
    )
    spec = load_spec(config)
    assert all(spec.params[field.name] != field.default for field in fields)

    scenario, arms = tracking_setup(spec.params, spec.master_seed)
    for key in ("n_steps", "dt", "process_intensity", "sigma0", "eta", "v_min", "v_max",
                "accel_max", "bank_max", "uav_heading", "uav_speed"):
        assert getattr(scenario, key) == values[key], key
    assert scenario.uav_position == (-10.0, 25.0)
    assert scenario.target_mean.tolist() == [100.0, 200.0, -1.0, 2.0]
    assert np.array_equal(scenario.target_cov, np.diag([250.0, 250.0, 9.0, 9.0]))
    assert scenario.master_seed == 77
    # The nominal arm always runs, first; nt_values sets the others.
    assert [(name, planner.n_trajectories) for name, planner in arms] == [("nbo", 1), ("nt4", 4), ("nt9", 9)]
    for _, planner in arms:
        assert (planner.horizon, planner.eval_budget, planner.master_seed) == (3, 11, 77)
    # n_runs is the episode count of each arm.
    metadata = run_experiment(spec)
    for name in metadata["files"]:
        _, rows = read_csv(tmp_path / "out" / name)
        assert len(rows) == 3


@pytest.mark.parametrize(
    "head, args, key",
    [
        ("output = out\n", [], "kind"),
        ("kind = variance_scaling\n", [], "output"),
        ("kind = bogus\noutput = out\n", [], "kind"),
        (f"kind = variance_scaling\nmaster_seed = {2**64}\noutput = out\n", [], "master_seed"),
        ("kind = variance_scaling\noutput = out\n", ["--seed", "-3"], "master_seed"),
    ],
)
def test_cli_head_errors_name_the_key_and_exit_2(tmp_path, capsys, monkeypatch, head, args, key):
    monkeypatch.chdir(tmp_path)
    config = _write_config(tmp_path / "exp.ini", "[experiment]\n" + head)
    verb = "run" if args else "validate"
    assert main([verb, str(config), *args]) == 2
    assert capsys.readouterr().err.startswith(f"config error: experiment.{key}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, key, value, bound",
    [
        ("chebyshev_coverage", "reps", 1, 2),
        ("variance_scaling", "reps", 1, 2),
        ("covariance_decay", "reps", 9, 10),
        ("covariance_decay", "branch_factor", 1, 2),
        ("pruning_study", "branch_factor", 1, 2),
    ],
)
def test_cli_validate_states_the_lower_bound_it_rejects(tmp_path, capsys, kind, key, value, bound):
    config = _write_config(
        tmp_path / "exp.ini", f"[experiment]\nkind = {kind}\noutput = out\n\n[{kind}]\n{key} = {value}\n"
    )
    assert main(["validate", str(config)]) == 2
    assert f"{kind}.{key}: must be at least {bound}, got {value}" in capsys.readouterr().err


def test_describe_kinds_covers_every_kind():
    names = [name for name, _ in describe_kinds()]
    assert names == [kind.value for kind in ExperimentKind]
    assert all(description for _, description in describe_kinds())


# ------------------------------------------------------------------------ io


def test_format_cell_frozen_formats():
    assert format_cell(True) == "true"
    assert format_cell(3) == "3"
    assert format_cell(0.1) == "0.10000000000000001"
    assert format_cell(12.5) == "12.5"


def test_csv_round_trip_is_exact(tmp_path):
    values = [math.pi, 1e-300, 12.5, 6.3764625, 3.0]
    path = tmp_path / "t.csv"
    write_csv(path, ["v"], [(v,) for v in values])
    _, rows = read_csv(path)
    assert [float(row[0]) for row in rows] == values


def test_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1, 2.0), (3, 4.5)])
    raw = path.read_bytes()
    assert raw == b"a,b\n1,2\n3,4.5\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="row width"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [(1,)])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_rejects_non_finite_floats(tmp_path, value):
    # JSON has no NaN or Infinity; writing one would leave an unreadable file.
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(tmp_path / "m.json", {"summary": {"slope": value}})
    assert not list(tmp_path.iterdir())


# --------------------------------------------------------------------runners


def _spec(kind, tmp_path, seed=5, **params):
    return ExperimentSpec(
        kind=kind,
        master_seed=seed,
        output=str(tmp_path / "out"),
        params=params,
    )


def _lqg_params(**overrides):
    base = dict(
        a=0.5, r=10.0, target=1.0, sigma=1.0, x0=0.0, horizon=2,
        controls=[0.55, 0.17], p_min=100, p_max=500, p_step=100,
    )
    base.update(overrides)
    return base


def _bench_params(**overrides):
    base = dict(a=0.5, cost=1.0, sigma=1.0, x0=0.0, horizon=2)
    base.update(overrides)
    return base


def test_lqg_convergence_nbo_error_constant(tmp_path):
    spec = _spec(ExperimentKind.LQG_CONVERGENCE, tmp_path, **_lqg_params())
    metadata = run_experiment(spec)
    header, rows = read_csv(Path(spec.output) / "results.csv")
    assert header == ["p", "j_mhp", "j_nbo", "j_exact", "abs_err_mhp", "abs_err_nbo"]
    assert len(rows) == 5
    for row in rows:
        assert float(row[5]) == pytest.approx(12.5, rel=1e-9)
        assert float(row[3]) == pytest.approx(18.8764625, rel=1e-12)
    assert metadata["summary"]["abs_err_nbo_max"] == pytest.approx(12.5, rel=1e-9)


def test_lqg_convergence_deterministic_rows_all_equal_when_noise_free(tmp_path):
    spec = _spec(
        ExperimentKind.LQG_CONVERGENCE, tmp_path,
        **_lqg_params(sigma=0.0, p_max=300),
    )
    run_experiment(spec)
    _, rows = read_csv(Path(spec.output) / "results.csv")
    for row in rows:
        # Averaging n identical costs rounds in the last couple of bits.
        assert float(row[1]) == pytest.approx(float(row[3]), rel=1e-14)
        assert float(row[2]) == pytest.approx(float(row[3]), rel=1e-14)
        assert float(row[4]) < 1e-12


def test_chebyshev_coverage_stays_below_bound(tmp_path):
    spec = _spec(
        ExperimentKind.CHEBYSHEV_COVERAGE, tmp_path,
        **_bench_params(),
        n_values=[50, 200], epsilons=[0.5, 1.0], epsilon_unit="deviation", reps=200,
    )
    metadata = run_experiment(spec)
    _, rows = read_csv(Path(spec.output) / "results.csv")
    assert len(rows) == 4
    assert metadata["summary"]["var_p"] == pytest.approx(3.25, rel=1e-12)
    for row in rows:
        exceed, bound = float(row[2]), float(row[3])
        assert 0.0 <= exceed <= 1.0
        assert exceed <= bound + 3.0 * math.sqrt(bound * (1 - bound) / 200 + 1e-12)


def test_chebyshev_absolute_epsilons_echoed(tmp_path):
    spec = _spec(
        ExperimentKind.CHEBYSHEV_COVERAGE, tmp_path,
        **_bench_params(),
        n_values=[50], epsilons=[0.75, 2.0], epsilon_unit="absolute", reps=20,
    )
    run_experiment(spec)
    _, rows = read_csv(Path(spec.output) / "results.csv")
    assert [float(row[1]) for row in rows] == [0.75, 2.0]


def test_variance_scaling_slope_near_inverse(tmp_path):
    spec = _spec(
        ExperimentKind.VARIANCE_SCALING, tmp_path,
        **_bench_params(),
        n_values=[100, 1000, 10000], reps=60,
    )
    metadata = run_experiment(spec)
    slope = metadata["summary"]["log_log_slope"]
    assert -1.3 <= slope <= -0.7


def test_variance_summary_recomputable_from_csv(tmp_path):
    spec = _spec(
        ExperimentKind.VARIANCE_SCALING, tmp_path,
        **_bench_params(),
        n_values=[100, 1000], reps=30,
    )
    metadata = run_experiment(spec)
    _, rows = read_csv(Path(spec.output) / "results.csv")
    counts = np.array([float(row[0]) for row in rows])
    variances = np.array([float(row[2]) for row in rows])
    slope = float(np.polyfit(np.log(counts), np.log(variances), 1)[0])
    assert slope == metadata["summary"]["log_log_slope"]


def test_pruning_study_leaf_counts(tmp_path):
    spec = _spec(
        ExperimentKind.PRUNING_STUDY, tmp_path,
        **_bench_params(horizon=3),
        branch_factor=3, m_values=[1, 4, 9, 20], reps=10,
    )
    run_experiment(spec)
    _, rows = read_csv(Path(spec.output) / "results.csv")
    assert [int(row[0]) for row in rows] == [1, 4, 9, 20]
    assert [int(row[1]) for row in rows] == [1, 4, 9, 9]
    for row in rows:
        assert float(row[2]) >= 0.0 and float(row[3]) >= 0.0


def test_uav_monte_carlo_writes_one_cdf_per_arm(tmp_path):
    spec = _spec(
        ExperimentKind.UAV_MONTE_CARLO, tmp_path, **_uav_params(),
    )
    metadata = run_experiment(spec)
    out = Path(spec.output)
    assert metadata["files"] == ["cdf_nbo.csv", "cdf_nt3.csv", "cdf_nt5.csv"]
    for name in metadata["files"]:
        header, rows = read_csv(out / name)
        assert header == ["run_index", "mean_error", "cdf"]
        errors = [float(row[1]) for row in rows]
        levels = [float(row[2]) for row in rows]
        assert errors == sorted(errors)
        assert levels[-1] == 1.0
        assert len(rows) == 3
        arm = name[len("cdf_"):-len(".csv")]
        stats = metadata["summary"]["arms"][arm]
        assert stats["mean"] == pytest.approx(float(np.mean(errors)), abs=0.0)
        assert stats["median"] == pytest.approx(float(np.median(errors)), abs=0.0)


def _uav_params():
    params = {
        field.name: field.default
        for field in _SCHEMAS[ExperimentKind.UAV_MONTE_CARLO]
    }
    params.update(n_runs=3, n_steps=4, horizon=2, eval_budget=15, nt_values=[3, 5])
    return params


def test_covariance_decay_far_pairs_pass_z_test(tmp_path):
    spec = _spec(
        ExperimentKind.COVARIANCE_DECAY, tmp_path,
        **_bench_params(horizon=3),
        branch_factor=3, reps=400,
    )
    metadata = run_experiment(spec)
    _, rows = read_csv(Path(spec.output) / "results.csv")
    assert len(rows) == 36
    for row in rows:
        i, j, lag = int(row[0]), int(row[1]), int(row[2])
        assert lag == j - i
    summary = metadata["summary"]
    assert summary["pairs_beyond_branch_factor"] == 15
    assert summary["max_abs_z_beyond_branch_factor"] < 4.0


# ----------------------------------------------------------------- artifacts


def test_metadata_echoes_spec(tmp_path):
    spec = _spec(
        ExperimentKind.VARIANCE_SCALING, tmp_path, seed=123,
        **_bench_params(), n_values=[100, 1000], reps=10,
    )
    metadata = run_experiment(spec)
    on_disk = json.loads((Path(spec.output) / "metadata.json").read_text())
    assert on_disk.keys() == metadata.keys()
    assert on_disk["summary"] == metadata["summary"]
    assert on_disk["kind"] == "variance_scaling"
    assert on_disk["master_seed"] == 123
    assert on_disk["parameters"]["n_values"] == [100, 1000]
    assert on_disk["library_version"] == __version__
    assert on_disk["wall_time_seconds"] >= 0.0
    assert on_disk["files"] == ["results.csv"]


def test_metadata_json_cannot_hold_leaves_no_csv(tmp_path, monkeypatch):
    def nan_summary(spec, workers):
        return {"results.csv": (["n"], [(1,)])}, {"log_log_slope": math.nan}

    monkeypatch.setitem(runners._RUNNERS, ExperimentKind.VARIANCE_SCALING, nan_summary)
    spec = _spec(ExperimentKind.VARIANCE_SCALING, tmp_path, **_bench_params(), n_values=[10, 20], reps=5)
    with pytest.raises(ValueError, match="not JSON compliant"):
        run_experiment(spec)
    assert not (tmp_path / "out").exists()


def test_spec_built_in_code_gets_the_config_checks(tmp_path, monkeypatch):
    def never_run(spec, workers):
        raise AssertionError("the runner must not start")

    monkeypatch.setitem(runners._RUNNERS, ExperimentKind.VARIANCE_SCALING, never_run)
    spec = _spec(ExperimentKind.VARIANCE_SCALING, tmp_path, **_bench_params(sigma=0.0), n_values=[10, 20], reps=5)
    with pytest.raises(ConfigError, match="variance_scaling.sigma: must be nonzero"):
        run_experiment(spec)
    for params, message in (
        (dict(_bench_params(), n_values=[10, 20], reps=1), "variance_scaling.reps: must be at least 2, got 1"),
        (dict(_bench_params(), n_values=[10], reps=5), "variance_scaling.n_values: need at least two"),
        (dict(_bench_params(), n_values=[10, 20]), "variance_scaling.reps: missing required key"),
        (dict(_bench_params(), n_values=[10, 20], reps=5, m=1), "variance_scaling.m: unknown key"),
    ):
        with pytest.raises(ConfigError, match=message):
            run_experiment(_spec(ExperimentKind.VARIANCE_SCALING, tmp_path, **params))
    with pytest.raises(ConfigError, match="experiment.master_seed: must fit"):
        run_experiment(_spec(ExperimentKind.VARIANCE_SCALING, tmp_path, seed=-1, **_bench_params()))
    uav = dict(_uav_params(), bank_max=2.0)
    with pytest.raises(ConfigError, match="uav_monte_carlo.bank_max"):
        run_experiment(_spec(ExperimentKind.UAV_MONTE_CARLO, tmp_path, **uav))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, seed, params, message",
    [
        # Without a type check a float or bool seed ran as seed 1.
        (ExperimentKind.VARIANCE_SCALING, 1.5, {}, "experiment.master_seed: expected int, got 1.5"),
        (ExperimentKind.VARIANCE_SCALING, True, {}, "experiment.master_seed: expected int, got True"),
        # These failed mid-run, or with an error naming no section.
        (ExperimentKind.VARIANCE_SCALING, 0, dict(reps=20.5), "variance_scaling.reps: expected int, got 20.5"),
        (ExperimentKind.LQG_CONVERGENCE, 0, dict(p_step=1000.5), "lqg_convergence.p_step: expected int, got 1000.5"),
        (ExperimentKind.UAV_MONTE_CARLO, 0, dict(horizon=3.0), "uav_monte_carlo.horizon: expected int, got 3.0"),
        (ExperimentKind.UAV_MONTE_CARLO, 0, dict(eta=True), "uav_monte_carlo.eta: expected float, got True"),
        (ExperimentKind.LQG_CONVERGENCE, 0, dict(sigma=math.nan), "lqg_convergence.sigma: expected float, got nan"),
        (ExperimentKind.CHEBYSHEV_COVERAGE, 0, dict(n_values=[100, 2.5]),
         r"chebyshev_coverage.n_values: expected int_list, got \[100, 2.5\]"),
        (ExperimentKind.CHEBYSHEV_COVERAGE, 0, dict(epsilons=[0.5, math.inf]),
         r"chebyshev_coverage.epsilons: expected float_list, got \[0.5, inf\]"),
        (ExperimentKind.UAV_MONTE_CARLO, 0, dict(nt_values=[]), r"uav_monte_carlo.nt_values: expected int_list, got \[\]"),
        (ExperimentKind.CHEBYSHEV_COVERAGE, 0, dict(epsilon_unit=1), "chebyshev_coverage.epsilon_unit: expected str"),
    ],
)
def test_spec_built_in_code_gets_the_type_checks(tmp_path, monkeypatch, kind, seed, params, message):
    def never_run(spec, workers):
        raise AssertionError("the runner must not start")

    monkeypatch.setitem(runners._RUNNERS, kind, never_run)
    defaults = {field.name: field.default for field in _SCHEMAS[kind]}
    with pytest.raises(ConfigError, match=f"^{message}"):
        run_experiment(_spec(kind, tmp_path, seed=seed, **dict(defaults, **params)))
    if seed:
        with pytest.raises(ConfigError, match=f"^{message}"):
            _spec(kind, tmp_path, **defaults).with_overrides(master_seed=seed)
    assert not (tmp_path / "out").exists()


def test_rerun_is_byte_identical(tmp_path):
    results = []
    for label in ("first", "second"):
        spec = ExperimentSpec(
            kind=ExperimentKind.COVARIANCE_DECAY,
            master_seed=11,
            output=str(tmp_path / label),
            params=dict(_bench_params(horizon=3), branch_factor=2, reps=100),
        )
        run_experiment(spec)
        results.append((Path(spec.output) / "results.csv").read_bytes())
    assert results[0] == results[1]


def test_worker_count_does_not_change_bytes(tmp_path):
    blobs = []
    for workers in (1, 3):
        spec = ExperimentSpec(
            kind=ExperimentKind.CHEBYSHEV_COVERAGE,
            master_seed=2,
            output=str(tmp_path / f"w{workers}"),
            params=dict(
                _bench_params(), n_values=[50], epsilons=[0.5],
                epsilon_unit="deviation", reps=40,
            ),
        )
        run_experiment(spec, workers=workers)
        blobs.append((Path(spec.output) / "results.csv").read_bytes())
    assert blobs[0] == blobs[1]


_REPLICATED_STUDIES = [
    (ExperimentKind.CHEBYSHEV_COVERAGE, dict(
        _bench_params(), n_values=[20, 50], epsilons=[0.25, 0.5],
        epsilon_unit="deviation", reps=37,
    )),
    (ExperimentKind.VARIANCE_SCALING, dict(_bench_params(), n_values=[20, 50], reps=23)),
    (ExperimentKind.PRUNING_STUDY, dict(
        _bench_params(horizon=3), branch_factor=3, m_values=[1, 2, 9], reps=19,
    )),
    (ExperimentKind.COVARIANCE_DECAY, dict(_bench_params(horizon=3), branch_factor=2, reps=101)),
]


@pytest.mark.parametrize("kind, params", _REPLICATED_STUDIES)
def test_chunking_never_changes_a_byte(kind, params, tmp_path, monkeypatch):
    sizes = []
    cut = runners._chunks

    def spy(seeds, rows_each):
        chunks = cut(seeds, rows_each)
        sizes.append([len(chunk) for chunk in chunks])
        return chunks

    monkeypatch.setattr(runners, "_chunks", spy)
    blobs = {}
    # One replication per chunk, chunks of unequal sizes, one chunk.
    for budget in (1, 60, 2**30):
        monkeypatch.setattr(runners, "_CHUNK_ROWS", budget)
        for workers in (1, 2):
            sizes.clear()
            out = tmp_path / f"{budget}_{workers}"
            run_experiment(ExperimentSpec(kind, 5, str(out), params), workers=workers)
            blobs[budget, workers] = (out / "results.csv").read_bytes()
            for chunk_sizes in sizes:
                assert sum(chunk_sizes) == params["reps"]
                assert max(chunk_sizes) - min(chunk_sizes) <= 1
            if budget == 1:
                assert all(len(chunk_sizes) == params["reps"] for chunk_sizes in sizes)
            if budget == 60:
                assert any(len(set(chunk_sizes)) == 2 for chunk_sizes in sizes)
            if budget == 2**30:
                assert all(len(chunk_sizes) == 1 for chunk_sizes in sizes)
    assert len(set(blobs.values())) == 1


@given(
    count=st.integers(min_value=1, max_value=300),
    rows_each=st.integers(min_value=1, max_value=500),
    budget=st.integers(min_value=1, max_value=2000),
)
@settings(max_examples=200, deadline=None)
def test_chunks_are_equal_ordered_and_within_budget(count, rows_each, budget):
    seeds = list(range(100, 100 + count))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runners, "_CHUNK_ROWS", budget)
        chunks = runners._chunks(seeds, rows_each)
    assert [seed for chunk in chunks for seed in chunk] == seeds
    lengths = [len(chunk) for chunk in chunks]
    assert min(lengths) >= 1 and max(lengths) - min(lengths) <= 1
    assert max(lengths) == 1 or max(lengths) * rows_each <= budget
    # As few chunks as the budget allows.
    assert len(chunks) == -(-count // max(1, budget // rows_each))


def test_map_fans_out_over_processes_in_item_order():
    offset = 10  # a closure: forked workers must not need to pickle the task
    out = runners._map(lambda i: (i + offset, os.getpid()), range(6), workers=2)
    assert [value for value, _ in out] == list(range(10, 16))
    pids = {pid for _, pid in out}
    assert os.getpid() not in pids
    assert len(pids) <= 2


def test_map_runs_serially_without_fork(monkeypatch):
    monkeypatch.setattr(runners.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    out = runners._map(lambda i: (i, os.getpid()), range(4), workers=2)
    assert out == [(i, os.getpid()) for i in range(4)]


def test_experiment_writes_only_inside_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.iterdir())
    spec = ExperimentSpec(
        kind=ExperimentKind.PRUNING_STUDY,
        master_seed=3,
        output=str(tmp_path / "only_here"),
        params=dict(_bench_params(horizon=3), branch_factor=2, m_values=[2], reps=5),
    )
    run_experiment(spec)
    new_entries = set(tmp_path.iterdir()) - before
    assert new_entries == {tmp_path / "only_here"}
    assert sorted(p.name for p in (tmp_path / "only_here").iterdir()) == [
        "metadata.json",
        "results.csv",
    ]


# ----------------------------------------------------------------------- cli


def test_cli_validate_ok(tmp_path, capsys):
    config = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nkind = variance_scaling\noutput = out\n",
    )
    assert main(["validate", str(config)]) == 0
    assert "variance_scaling" in capsys.readouterr().out


def test_cli_validate_bad_config_exits_2(tmp_path, capsys):
    config = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nkind = variance_scaling\noutput = out\n\n"
        "[variance_scaling]\nreps = 1\n",
    )
    assert main(["validate", str(config)]) == 2
    assert "variance_scaling.reps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("bank_max", 2.0), ("v_min", 60.0), ("uav_speed", 5.0), ("eta", -1.0), ("horizon", 0)],
)
def test_cli_validate_rejects_what_the_tracking_run_would(tmp_path, capsys, key, value):
    config = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nkind = uav_monte_carlo\noutput = out\n\n" + _fast_uav_section(**{key: value}),
    )
    assert main(["validate", str(config)]) == 2
    assert f"uav_monte_carlo.{key}: " in capsys.readouterr().err


def test_cli_validate_rejects_the_removed_include_nbo_key(tmp_path, capsys):
    # The nominal arm always runs, so a config may no longer switch it.
    config = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nkind = uav_monte_carlo\noutput = out\n\n"
        "[uav_monte_carlo]\ninclude_nbo = true\n",
    )
    assert main(["validate", str(config)]) == 2
    assert "uav_monte_carlo.include_nbo: unknown key" in capsys.readouterr().err


def test_cli_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "res"
    config = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nkind = pruning_study\nmaster_seed = 4\n"
        f"output = {out}\n\n"
        "[pruning_study]\nhorizon = 3\nbranch_factor = 2\nm_values = 2\nreps = 5\n",
    )
    assert main(["run", str(config)]) == 0
    assert (out / "results.csv").is_file()
    assert (out / "metadata.json").is_file()
    assert "results.csv" in capsys.readouterr().out


def test_cli_seed_override_changes_results(tmp_path):
    config = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nkind = variance_scaling\nmaster_seed = 1\noutput = unused\n\n"
        "[variance_scaling]\nn_values = 50, 100\nreps = 10\n",
    )
    blobs = {}
    for seed in (1, 2):
        out = tmp_path / f"seed{seed}"
        assert main(["run", str(config), "--seed", str(seed), "--out", str(out)]) == 0
        blobs[seed] = (out / "results.csv").read_bytes()
    assert blobs[1] != blobs[2]

    repeat = tmp_path / "seed1_again"
    assert main(["run", str(config), "--seed", "1", "--out", str(repeat)]) == 0
    assert (repeat / "results.csv").read_bytes() == blobs[1]


def test_cli_rejects_bad_seed_and_workers(tmp_path, capsys):
    config = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nkind = variance_scaling\noutput = out\n",
    )
    assert main(["run", str(config), "--seed", "-3"]) == 2
    assert main(["run", str(config), "--workers", "0"]) == 2


def test_cli_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.ini")]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_unwritable_output_exits_1(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    config = _write_config(
        tmp_path / "exp.ini",
        "[experiment]\nkind = pruning_study\n"
        f"output = {blocker / 'nested'}\n\n"
        "[pruning_study]\nhorizon = 3\nbranch_factor = 2\nm_values = 2\nreps = 2\n",
    )
    assert main(["run", str(config)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for kind in ExperimentKind:
        assert kind.value in out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rsmhp.experiments.cli", "list-experiments"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "uav_monte_carlo" in proc.stdout
