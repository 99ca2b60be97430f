"""Experiment configuration: kinds, schemas, and INI loading.

A config file has an ``[experiment]`` section naming the kind, the master
seed, and the output directory, plus an optional section named after the
kind holding its parameters.  Every parameter has a documented default, so
the kind section may be omitted entirely.  Validation happens before any
computation and every error message names the offending section and key.

The tracking study's world and planner parameters are checked where they
are used: ``tracking_setup`` is the one mapping from its section to a
``ScenarioConfig`` and the planner arms, and ``load_spec`` runs it, so
``validate`` rejects exactly what ``run`` would.
"""
from __future__ import annotations

import configparser
import enum
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from ..uav.planning import PlannerConfig, PlannerObjective
from ..uav.scenario import ScenarioConfig

__all__ = [
    "ConfigError",
    "ExperimentKind",
    "ExperimentSpec",
    "load_spec",
    "describe_kinds",
    "tracking_setup",
]


class ConfigError(Exception):
    """Invalid experiment configuration; raised before any computation."""


class ExperimentKind(enum.Enum):
    LQG_CONVERGENCE = "lqg_convergence"
    CHEBYSHEV_COVERAGE = "chebyshev_coverage"
    VARIANCE_SCALING = "variance_scaling"
    PRUNING_STUDY = "pruning_study"
    UAV_MONTE_CARLO = "uav_monte_carlo"
    COVARIANCE_DECAY = "covariance_decay"


@dataclass(frozen=True)
class ExperimentSpec:
    kind: ExperimentKind
    master_seed: int
    output: str
    params: dict = field(default_factory=dict)

    def with_overrides(self, master_seed=None, output=None) -> "ExperimentSpec":
        spec = self
        if master_seed is not None:
            spec = replace(spec, master_seed=master_seed)
        if output is not None:
            spec = replace(spec, output=str(output))
        return spec


# ------------------------------------------------------------- field parsing


def _parse_int(raw: str) -> int:
    return int(raw.strip(), 10)


def _parse_float(raw: str) -> float:
    value = float(raw.strip())
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError("must be finite")
    return value


def _parse_bool(raw: str) -> bool:
    token = raw.strip().lower()
    if token in ("true", "yes", "1"):
        return True
    if token in ("false", "no", "0"):
        return False
    raise ValueError("expected true/false")


def _parse_int_list(raw: str) -> list[int]:
    tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("expected a comma-separated list")
    return [int(tok, 10) for tok in tokens]


def _parse_float_list(raw: str) -> list[float]:
    tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("expected a comma-separated list")
    return [_parse_float(tok) for tok in tokens]


def _parse_str(raw: str) -> str:
    return raw.strip()


_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "bool": _parse_bool,
    "int_list": _parse_int_list,
    "float_list": _parse_float_list,
    "str": _parse_str,
}


@dataclass(frozen=True)
class FieldSpec:
    name: str
    type_name: str
    default: object
    check: Callable | None = None
    help: str = ""


def _positive(value):
    return None if value > 0 else "must be positive"


def _nonnegative(value):
    return None if value >= 0 else "must be nonnegative"


def _open_unit(value):
    return None if 0.0 < value < 1.0 else "must lie strictly between 0 and 1"


def _all_positive(values):
    return None if all(v > 0 for v in values) else "every entry must be positive"


def _choice(*allowed):
    def check(value):
        if value in allowed:
            return None
        return f"must be one of {', '.join(allowed)}"

    return check


_SCALAR_BENCHMARK = [
    FieldSpec("a", "float", 0.5, None, "state transition coefficient"),
    FieldSpec("cost", "float", 1.0, None, "per-step state cost coefficient"),
    FieldSpec("sigma", "float", 1.0, _nonnegative, "process noise variance"),
    FieldSpec("x0", "float", 0.0, None, "initial state"),
    FieldSpec("horizon", "int", 2, _positive, "number of stages"),
]

_SCENARIO_DEFAULTS = ScenarioConfig()
_PLANNER_DEFAULTS = PlannerConfig()

_SCHEMAS: dict[ExperimentKind, list[FieldSpec]] = {
    ExperimentKind.LQG_CONVERGENCE: [
        FieldSpec("a", "float", 0.5, _open_unit, "pole of the closed-loop map"),
        FieldSpec("r", "float", 10.0, _positive, "control cost weight"),
        FieldSpec("target", "float", 1.0, None, "tracking setpoint"),
        FieldSpec("sigma", "float", 1.0, _nonnegative, "process noise std dev"),
        FieldSpec("x0", "float", 0.0, None, "initial state"),
        FieldSpec("horizon", "int", 2, _positive, "number of stages"),
        FieldSpec(
            "controls", "float_list", [0.55, 0.17], None,
            "fixed control sequence, one value per stage",
        ),
        FieldSpec("p_min", "int", 100, _positive, "smallest trajectory count"),
        FieldSpec("p_max", "int", 10000, _positive, "largest trajectory count"),
        FieldSpec("p_step", "int", 100, _positive, "trajectory count increment"),
    ],
    ExperimentKind.CHEBYSHEV_COVERAGE: _SCALAR_BENCHMARK + [
        FieldSpec(
            "n_values", "int_list", [100, 1000], _all_positive,
            "trajectory counts to test",
        ),
        FieldSpec(
            "epsilons", "float_list", [0.25, 0.5, 1.0], _all_positive,
            "error thresholds",
        ),
        FieldSpec(
            "epsilon_unit", "str", "deviation", _choice("deviation", "absolute"),
            "thresholds as multiples of the cost std dev, or absolute",
        ),
        FieldSpec("reps", "int", 1000, lambda v: _positive(v - 1), "replications"),
    ],
    ExperimentKind.VARIANCE_SCALING: _SCALAR_BENCHMARK + [
        FieldSpec(
            "n_values", "int_list", [100, 1000, 10000], _all_positive,
            "trajectory counts to test",
        ),
        FieldSpec("reps", "int", 200, lambda v: _positive(v - 1), "replications"),
    ],
    ExperimentKind.PRUNING_STUDY: _SCALAR_BENCHMARK + [
        FieldSpec("branch_factor", "int", 3, lambda v: _positive(v - 1), "children per node"),
        FieldSpec(
            "m_values", "int_list", [1, 2, 4, 8, 16, 27], _all_positive,
            "retained widths to test",
        ),
        FieldSpec("reps", "int", 200, _positive, "replications"),
    ],
    ExperimentKind.UAV_MONTE_CARLO: [
        FieldSpec("n_runs", "int", 30, _positive, "episodes per planner"),
        FieldSpec(
            "nt_values", "int_list", [50, 100, 250], _all_positive,
            "sampled-future counts to compare",
        ),
        FieldSpec("include_nbo", "bool", True, None, "also run the nominal planner"),
        FieldSpec("horizon", "int", _PLANNER_DEFAULTS.horizon, None, "planning horizon"),
        FieldSpec(
            "eval_budget", "int", _PLANNER_DEFAULTS.eval_budget, None,
            "objective evaluations per planning step",
        ),
        FieldSpec("n_steps", "int", _SCENARIO_DEFAULTS.n_steps, None, "episode length"),
        FieldSpec("dt", "float", _SCENARIO_DEFAULTS.dt, None, "time step, seconds"),
        FieldSpec(
            "process_intensity", "float", _SCENARIO_DEFAULTS.process_intensity,
            None, "target acceleration noise intensity",
        ),
        FieldSpec(
            "sigma0", "float", _SCENARIO_DEFAULTS.sigma0, None,
            "range-independent measurement noise std dev",
        ),
        FieldSpec(
            "eta", "float", _SCENARIO_DEFAULTS.eta, None,
            "range-squared measurement noise coefficient",
        ),
        FieldSpec("v_min", "float", _SCENARIO_DEFAULTS.v_min, None, "stall speed"),
        FieldSpec("v_max", "float", _SCENARIO_DEFAULTS.v_max, None, "top speed"),
        FieldSpec(
            "accel_max", "float", _SCENARIO_DEFAULTS.accel_max, None,
            "acceleration magnitude bound",
        ),
        FieldSpec(
            "bank_max", "float", _SCENARIO_DEFAULTS.bank_max, None,
            "bank angle magnitude bound, radians",
        ),
        FieldSpec("uav_x", "float", float(_SCENARIO_DEFAULTS.uav_position[0]), None, "vehicle start x"),
        FieldSpec("uav_y", "float", float(_SCENARIO_DEFAULTS.uav_position[1]), None, "vehicle start y"),
        FieldSpec("uav_heading", "float", _SCENARIO_DEFAULTS.uav_heading, None, "vehicle start heading"),
        FieldSpec("uav_speed", "float", _SCENARIO_DEFAULTS.uav_speed, None, "vehicle start speed"),
        FieldSpec(
            "target_mean", "float_list", [float(v) for v in _SCENARIO_DEFAULTS.target_mean],
            None, "prior mean: x, y, vx, vy",
        ),
        FieldSpec(
            "target_pos_var", "float", float(_SCENARIO_DEFAULTS.target_cov[0, 0]),
            _nonnegative, "prior position variance per axis",
        ),
        FieldSpec(
            "target_vel_var", "float", float(_SCENARIO_DEFAULTS.target_cov[2, 2]),
            _nonnegative, "prior velocity variance per axis",
        ),
    ],
    ExperimentKind.COVARIANCE_DECAY: _SCALAR_BENCHMARK + [
        FieldSpec("branch_factor", "int", 3, lambda v: _positive(v - 1), "children per node"),
        FieldSpec("reps", "int", 10000, lambda v: _positive(v - 9), "replications"),
    ],
}

_KIND_HELP = {
    ExperimentKind.LQG_CONVERGENCE: "estimator error versus trajectory count on the scalar benchmark",
    ExperimentKind.CHEBYSHEV_COVERAGE: "empirical tail probabilities of the mean estimator against the concentration bound",
    ExperimentKind.VARIANCE_SCALING: "inter-replication variance of the mean estimator versus sample count",
    ExperimentKind.PRUNING_STUDY: "approximation error of pruned-tree estimators versus retained width",
    ExperimentKind.UAV_MONTE_CARLO: "closed-loop tracking error distributions for nominal and sampled planners",
    ExperimentKind.COVARIANCE_DECAY: "cross-branch cost covariance z-tests on the sampled tree",
}


def _cross_check(kind: ExperimentKind, params: dict, section: str) -> None:
    def fail(key: str, message: str):
        raise ConfigError(f"{section}.{key}: {message}")

    if kind is ExperimentKind.LQG_CONVERGENCE:
        if len(params["controls"]) != params["horizon"]:
            fail(
                "controls",
                f"expected {params['horizon']} entries (one per stage), "
                f"got {len(params['controls'])}",
            )
        if params["p_min"] > params["p_max"]:
            fail("p_min", f"must not exceed p_max ({params['p_max']})")
    elif kind is ExperimentKind.VARIANCE_SCALING:
        if len(params["n_values"]) < 2:
            fail("n_values", "need at least two counts to fit a slope")
    elif kind is ExperimentKind.PRUNING_STUDY:
        if params["horizon"] < 2:
            fail("horizon", "must be at least 2 so the tree has depth to prune")
    elif kind is ExperimentKind.COVARIANCE_DECAY:
        if params["horizon"] < 2:
            fail("horizon", "must be at least 2 so branches exist")


def tracking_setup(params: dict, master_seed: int):
    """The tracking study's scenario and its planner arms from ``uav_monte_carlo`` params.

    Returns ``(scenario, [(arm_name, planner_config), ...])``: the nominal
    arm ``nbo`` first when ``include_nbo`` is set, then one ``nt<count>``
    arm per entry of ``nt_values``.  Every arm and the scenario share
    ``master_seed``.  ``ScenarioConfig`` and ``PlannerConfig`` validate the
    values and raise ``ValueError`` or ``TypeError`` naming the field.
    """
    p = params
    scenario = ScenarioConfig(
        dt=p["dt"],
        n_steps=p["n_steps"],
        v_min=p["v_min"],
        v_max=p["v_max"],
        accel_max=p["accel_max"],
        bank_max=p["bank_max"],
        process_intensity=p["process_intensity"],
        sigma0=p["sigma0"],
        eta=p["eta"],
        uav_position=(p["uav_x"], p["uav_y"]),
        uav_heading=p["uav_heading"],
        uav_speed=p["uav_speed"],
        target_mean=np.array(p["target_mean"]),
        target_cov=np.diag(
            [p["target_pos_var"], p["target_pos_var"],
             p["target_vel_var"], p["target_vel_var"]]
        ),
        master_seed=master_seed,
    )
    arms = [("nbo", 1, PlannerObjective.NBO)] if p["include_nbo"] else []
    arms += [(f"nt{count}", count, PlannerObjective.RSMHP) for count in p["nt_values"]]
    return scenario, [
        (name, PlannerConfig(
            horizon=p["horizon"], n_trajectories=count, objective=objective,
            eval_budget=p["eval_budget"], master_seed=master_seed,
        ))
        for name, count, objective in arms
    ]


def _build_params(kind: ExperimentKind, raw: dict, section: str) -> dict:
    schema = {spec.name: spec for spec in _SCHEMAS[kind]}
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(
            f"{section}.{unknown[0]}: unknown key (valid keys: {', '.join(sorted(schema))})"
        )
    params = {}
    for name, spec in schema.items():
        if name in raw:
            parser = _PARSERS[spec.type_name]
            try:
                value = parser(raw[name])
            except ValueError as exc:
                raise ConfigError(
                    f"{section}.{name}: expected {spec.type_name}, got {raw[name]!r} ({exc})"
                ) from None
        else:
            value = spec.default
        if spec.check is not None:
            message = spec.check(value)
            if message is not None:
                raise ConfigError(f"{section}.{name}: {message}, got {value!r}")
        params[name] = value
    _cross_check(kind, params, section)
    return params


def load_spec(path) -> ExperimentSpec:
    """Parse and validate an experiment config file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with path.open(encoding="utf-8") as handle:
            parser.read_file(handle)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from None

    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    head = dict(parser["experiment"])
    unknown = sorted(set(head) - {"kind", "master_seed", "output"})
    if unknown:
        raise ConfigError(
            f"experiment.{unknown[0]}: unknown key (valid keys: kind, master_seed, output)"
        )
    if "kind" not in head:
        raise ConfigError("experiment.kind: missing required key")
    try:
        kind = ExperimentKind(head["kind"].strip())
    except ValueError:
        valid = ", ".join(k.value for k in ExperimentKind)
        raise ConfigError(
            f"experiment.kind: unknown experiment kind {head['kind']!r} (valid kinds: {valid})"
        ) from None

    master_seed = 0
    if "master_seed" in head:
        try:
            master_seed = _parse_int(head["master_seed"])
        except ValueError:
            raise ConfigError(
                f"experiment.master_seed: expected int, got {head['master_seed']!r}"
            ) from None
        if not 0 <= master_seed < 2**64:
            raise ConfigError(
                f"experiment.master_seed: must fit in an unsigned 64-bit integer, got {master_seed}"
            )

    if "output" not in head or not head["output"].strip():
        raise ConfigError("experiment.output: missing required key (output directory)")
    output = head["output"].strip()

    extra_sections = sorted(set(parser.sections()) - {"experiment", kind.value})
    if extra_sections:
        raise ConfigError(
            f"unknown section [{extra_sections[0]}] (expected only [experiment] and [{kind.value}])"
        )
    raw = dict(parser[kind.value]) if parser.has_section(kind.value) else {}
    params = _build_params(kind, raw, kind.value)
    if kind is ExperimentKind.UAV_MONTE_CARLO:
        try:
            tracking_setup(params, master_seed)
        except (ValueError, TypeError) as exc:
            # The scenario and planner errors name their field, which is the
            # config key for every field a config can set.
            key = next((word for word in re.findall(r"\w+", str(exc)) if word in params), None)
            raise ConfigError(f"{kind.value}.{key}: {exc}" if key else f"{kind.value}: {exc}") from None
    return ExperimentSpec(kind=kind, master_seed=master_seed, output=output, params=params)


def describe_kinds() -> list[tuple[str, str]]:
    """(name, one-line description) for every experiment kind."""
    return [(kind.value, _KIND_HELP[kind]) for kind in ExperimentKind]
