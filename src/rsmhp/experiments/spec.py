"""Experiment configuration: kinds, schemas, and INI loading.

A config file has an ``[experiment]`` section naming the kind, the master
seed, and the output directory, plus an optional section named after the
kind holding its parameters.  Every parameter has a documented default, so
the kind section may be omitted entirely.  Validation happens before any
computation and every error message names the offending section and key.

A tracking key named like a ``ScenarioConfig`` or ``PlannerConfig`` field
is that field, with its type and default, and the dataclass checks it:
``tracking_setup`` is the one mapping from the section to the scenario and
the planner arms.  ``check_spec`` runs it after every other check, for
``load_spec`` and ``run_experiment`` alike, so ``validate`` rejects exactly
what ``run`` would, and a spec built in code fails as its file would.
"""
from __future__ import annotations

import configparser
import enum
import math
import numbers
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
    "check_spec",
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
        """A copy with a new seed or output; the seed passes the config's own type check and check."""
        spec = self
        if master_seed is not None:
            spec = replace(spec, master_seed=_checked(_MASTER_SEED, master_seed, "experiment"))
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


def _parse_list(parse_item: Callable) -> Callable:
    def parse(raw: str) -> list:
        tokens = [tok for tok in raw.split(",") if tok.strip()]
        if not tokens:
            raise ValueError("expected a comma-separated list")
        return [parse_item(tok) for tok in tokens]

    return parse


_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "int_list": _parse_list(_parse_int),
    "float_list": _parse_list(_parse_float),
    "str": str.strip,
}


@dataclass(frozen=True)
class FieldSpec:
    """One config key: its parser, its default (``None`` for a required key) and its check."""

    name: str
    type_name: str
    default: object
    check: Callable | None = None
    help: str = ""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_float(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _is_list_of(is_item: Callable) -> Callable:
    return lambda value: isinstance(value, (list, tuple)) and len(value) > 0 and all(map(is_item, value))


# What each parser returns, for values that did not come through one: a
# spec built in code passes these before its keys' checks.
_IS_TYPE = {
    "int": _is_int,
    "float": _is_float,
    "int_list": _is_list_of(_is_int),
    "float_list": _is_list_of(_is_float),
    "str": lambda value: isinstance(value, str),
}


def _checked(spec: FieldSpec, value, section: str):
    if not _IS_TYPE[spec.type_name](value):
        raise ConfigError(f"{section}.{spec.name}: expected {spec.type_name}, got {value!r}")
    if spec.check is not None:
        message = spec.check(value)
        if message is not None:
            raise ConfigError(f"{section}.{spec.name}: {message}, got {value!r}")
    return value


def _positive(value):
    return None if value > 0 else "must be positive"


def _at_least(bound: int) -> Callable:
    return lambda value: None if value >= bound else f"must be at least {bound}"


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


_MASTER_SEED = FieldSpec(
    "master_seed", "int", 0,
    lambda v: None if 0 <= v < 2**64 else "must fit in an unsigned 64-bit integer",
    "root of every random stream",
)
_HEAD = [
    FieldSpec("kind", "str", None, _choice(*(kind.value for kind in ExperimentKind)), "experiment kind"),
    _MASTER_SEED,
    FieldSpec("output", "str", None, lambda v: None if v else "must not be empty", "output directory"),
]

_SCALAR_BENCHMARK = [
    FieldSpec("a", "float", 0.5, None, "state transition coefficient"),
    FieldSpec("cost", "float", 1.0, None, "per-step state cost coefficient"),
    FieldSpec("sigma", "float", 1.0, _nonnegative, "process noise variance"),
    FieldSpec("x0", "float", 0.0, None, "initial state"),
    FieldSpec("horizon", "int", 2, _positive, "number of stages"),
]

_SCENARIO_DEFAULTS = ScenarioConfig()

# Tracking keys that are the same-named fields of PlannerConfig and of
# ScenarioConfig, which document and check them; tracking_setup passes them on.
_PLANNER_KEYS = ("horizon", "eval_budget")
_SCENARIO_KEYS = (
    "n_steps", "dt", "process_intensity", "sigma0", "eta", "v_min", "v_max",
    "accel_max", "bank_max", "uav_heading", "uav_speed",
)


def _same_field(defaults, name: str) -> FieldSpec:
    """The key ``name`` typed and defaulted as the same-named field of ``defaults``."""
    default = getattr(defaults, name)
    return FieldSpec(name, type(default).__name__, default)


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
        FieldSpec("reps", "int", 1000, _at_least(2), "replications"),
    ],
    ExperimentKind.VARIANCE_SCALING: _SCALAR_BENCHMARK + [
        FieldSpec(
            "n_values", "int_list", [100, 1000, 10000], _all_positive,
            "trajectory counts to test",
        ),
        FieldSpec("reps", "int", 200, _at_least(2), "replications"),
    ],
    ExperimentKind.PRUNING_STUDY: _SCALAR_BENCHMARK + [
        FieldSpec("branch_factor", "int", 3, _at_least(2), "children per node"),
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
        *(_same_field(PlannerConfig(), name) for name in _PLANNER_KEYS),
        *(_same_field(_SCENARIO_DEFAULTS, name) for name in _SCENARIO_KEYS),
        FieldSpec("uav_x", "float", float(_SCENARIO_DEFAULTS.uav_position[0]), None, "vehicle start x"),
        FieldSpec("uav_y", "float", float(_SCENARIO_DEFAULTS.uav_position[1]), None, "vehicle start y"),
        FieldSpec("target_mean", "float_list", list(_SCENARIO_DEFAULTS.target_mean), None,
                  "prior mean: x, y, vx, vy"),
        FieldSpec("target_pos_var", "float", _SCENARIO_DEFAULTS.target_cov[0][0], _nonnegative,
                  "prior position variance per axis"),
        FieldSpec("target_vel_var", "float", _SCENARIO_DEFAULTS.target_cov[2][2], _nonnegative,
                  "prior velocity variance per axis"),
    ],
    ExperimentKind.COVARIANCE_DECAY: _SCALAR_BENCHMARK + [
        FieldSpec("branch_factor", "int", 3, _at_least(2), "children per node"),
        FieldSpec("reps", "int", 10000, _at_least(10), "replications"),
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
        if len(set(params["n_values"])) < 2:
            fail("n_values", "need at least two distinct counts to fit a slope")
    elif kind in (ExperimentKind.PRUNING_STUDY, ExperimentKind.COVARIANCE_DECAY):
        if params["horizon"] < 2:
            fail("horizon", "must be at least 2 so the tree branches below its root")
    # A zero sigma or cost gives every path the same cost, so there is no
    # spread to scale the thresholds by and no variance to fit a slope to.
    if kind is ExperimentKind.VARIANCE_SCALING or (
        kind is ExperimentKind.CHEBYSHEV_COVERAGE and params["epsilon_unit"] == "deviation"
    ):
        for key in ("sigma", "cost"):
            if params[key] == 0:
                fail(key, "must be nonzero, or the path cost has zero variance")


def tracking_setup(params: dict, master_seed: int):
    """The tracking study's scenario and its planner arms from ``uav_monte_carlo`` params.

    Returns ``(scenario, [(arm_name, planner_config), ...])``: the nominal
    arm ``nbo`` first, then one ``nt<count>`` arm per entry of
    ``nt_values``, which must not repeat an entry.  Every arm and the
    scenario share ``master_seed``.  ``ScenarioConfig`` and
    ``PlannerConfig`` validate the values and raise ``ValueError`` or
    ``TypeError`` naming the field.
    """
    p = params
    if len(set(p["nt_values"])) != len(p["nt_values"]):
        raise ValueError(f"nt_values must not repeat an entry, got {list(p['nt_values'])}")
    scenario = ScenarioConfig(
        **{key: p[key] for key in _SCENARIO_KEYS},
        uav_position=(p["uav_x"], p["uav_y"]),
        target_mean=np.array(p["target_mean"]),
        target_cov=np.diag([p["target_pos_var"]] * 2 + [p["target_vel_var"]] * 2),
        master_seed=master_seed,
    )
    arms = [("nbo", 1, PlannerObjective.NBO)] + [
        (f"nt{count}", count, PlannerObjective.RSMHP) for count in p["nt_values"]
    ]
    return scenario, [
        (name, PlannerConfig(
            **{key: p[key] for key in _PLANNER_KEYS},
            n_trajectories=count, objective=objective, master_seed=master_seed,
        ))
        for name, count, objective in arms
    ]


def _parse_section(fields: list[FieldSpec], raw: dict, section: str) -> dict:
    """A section's raw strings parsed by type, defaults filled in; ``_check_section`` judges the rest."""
    values = dict(raw)
    for spec in fields:
        if spec.name in raw:
            try:
                values[spec.name] = _PARSERS[spec.type_name](raw[spec.name])
            except ValueError as exc:
                raise ConfigError(
                    f"{section}.{spec.name}: expected {spec.type_name}, got {raw[spec.name]!r} ({exc})"
                ) from None
        elif spec.default is not None:
            values[spec.name] = spec.default
    return values


def _check_section(fields: list[FieldSpec], values: dict, section: str) -> None:
    """Every key of ``fields`` is in ``values``, no other key is, and each passes its check."""
    names = sorted(spec.name for spec in fields)
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise ConfigError(f"{section}.{unknown[0]}: unknown key (valid keys: {', '.join(names)})")
    for spec in fields:
        if spec.name not in values:
            raise ConfigError(f"{section}.{spec.name}: missing required key ({spec.help})")
        _checked(spec, values[spec.name], section)


def check_spec(spec: ExperimentSpec) -> ExperimentSpec:
    """Every check ``load_spec`` makes, on a spec from a file or built in code; returns ``spec``.

    The head and the kind's parameters pass their fields' type checks and
    checks, then the kind's cross-key checks and, for the tracking study,
    ``tracking_setup``.  An ``int`` is an integer other than a bool, a
    ``float`` a finite real other than a bool, and a list type a non-empty
    list or tuple of such entries.
    The first failure raises ``ConfigError`` naming its section and key.
    """
    head = {"kind": spec.kind.value, "master_seed": spec.master_seed, "output": spec.output}
    _check_section(_HEAD, head, "experiment")
    kind, params, section = spec.kind, spec.params, spec.kind.value
    _check_section(_SCHEMAS[kind], params, section)
    _cross_check(kind, params, section)
    if kind is ExperimentKind.UAV_MONTE_CARLO:
        try:
            tracking_setup(params, spec.master_seed)
        except (ValueError, TypeError) as exc:
            # The scenario and planner errors name their field, which is the
            # config key for every field a config can set.
            key = next((word for word in re.findall(r"\w+", str(exc)) if word in params), None)
            raise ConfigError(f"{section}.{key}: {exc}" if key else f"{section}: {exc}") from None
    return spec


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
    head = _parse_section(_HEAD, dict(parser["experiment"]), "experiment")
    _check_section(_HEAD, head, "experiment")
    kind = ExperimentKind(head["kind"])
    extra_sections = sorted(set(parser.sections()) - {"experiment", kind.value})
    if extra_sections:
        raise ConfigError(
            f"unknown section [{extra_sections[0]}] (expected only [experiment] and [{kind.value}])"
        )
    raw = dict(parser[kind.value]) if parser.has_section(kind.value) else {}
    params = _parse_section(_SCHEMAS[kind], raw, kind.value)
    return check_spec(ExperimentSpec(kind, head["master_seed"], head["output"], params))


def describe_kinds() -> list[tuple[str, str]]:
    """(name, one-line description) for every experiment kind."""
    return [(kind.value, _KIND_HELP[kind]) for kind in ExperimentKind]
