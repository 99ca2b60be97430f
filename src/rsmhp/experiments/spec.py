"""Experiment configuration: kinds, their parameter types, and INI loading.

A config file has an ``[experiment]`` section naming the kind, the master
seed, and the output directory, plus an optional section named after the
kind holding its parameters.  Each kind's parameters are one frozen value
type (``LqgConvergenceParams``, ...) whose fields are the section's keys
with their defaults, so the section may be omitted; the INI parser reads
each key's name and type from the fields.  A params object, and the spec
holding it, checks itself when it is built, from a file or in code, and
every error message names the offending section and key.

A tracking key named like a ``ScenarioConfig`` or ``PlannerConfig`` field
is that field, with its type and default, and the dataclass checks it:
``tracking_setup`` is the one mapping from the parameters to the scenario
and the planner arms, and ``UavMonteCarloParams`` runs it when it is
built, so ``validate`` rejects exactly what ``run`` would.
"""
from __future__ import annotations

import configparser
import enum
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, ClassVar

import numpy as np

from .._checks import check_int, check_real, check_seed
from ..uav.planning import PlannerConfig, PlannerObjective
from ..uav.scenario import ScenarioConfig

__all__ = [
    "ConfigError", "ExperimentKind", "ExperimentSpec",
    "LqgConvergenceParams", "ChebyshevCoverageParams", "VarianceScalingParams",
    "PruningStudyParams", "UavMonteCarloParams", "CovarianceDecayParams",
    "load_spec", "describe_kinds", "tracking_setup",
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


# The annotations of list-valued keys.  A field's annotation is the name of
# its type in ``_TYPES`` and in the error messages.
int_list = tuple[int, ...]
float_list = tuple[float, ...]


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


def _tuple_of(check_item: Callable) -> Callable:
    def check(name: str, value) -> tuple:
        if not isinstance(value, (list, tuple)) or not value:
            raise TypeError(f"{name} must be a non-empty list or tuple, got {value!r}")
        return tuple(check_item(name, item) for item in value)

    return check


def _check_str(name: str, value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {value!r}")
    return value


# Each field type's INI parser, and its check of a value from a file or from
# code, which returns the value as stored: an ``int`` is an integer other
# than a bool, a ``float`` a finite real other than a bool, and a list type
# a non-empty list or tuple of such entries, stored as a tuple.
_TYPES = {
    "int": (_parse_int, check_int),
    "float": (_parse_float, check_real),
    "int_list": (_parse_list(_parse_int), _tuple_of(check_int)),
    "float_list": (_parse_list(_parse_float), _tuple_of(check_real)),
    "str": (str.strip, _check_str),
}


class _Params:
    """A kind's parameters: a frozen value whose fields are its section's keys.

    Building one checks and stores each field by its type (``_TYPES``), then
    runs ``_check``; the first failure raises ``ConfigError("<section>.<key>:
    ...")``.  ``params[key]`` reads the field ``key``, and raises ``KeyError``
    for any other name.
    """

    kind: ClassVar[ExperimentKind]

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                object.__setattr__(self, f.name, _TYPES[f.type][1](f.name, value))
            except (TypeError, ValueError):
                raise ConfigError(f"{self.kind.value}.{f.name}: expected {f.type}, got {value!r}") from None
        self._check()

    def _check(self) -> None:
        """Each key's own check, in field order, then the checks across keys."""

    def __getitem__(self, key: str):
        if key not in self.__dataclass_fields__:
            raise KeyError(key)
        return getattr(self, key)

    def _require(self, key: str, ok: bool, message: str) -> None:
        if not ok:
            raise ConfigError(f"{self.kind.value}.{key}: {message}")

    def _check_key(self, key: str, ok: bool, message: str) -> None:
        """``_require`` with the key's value appended, a tuple shown as the list a file gives."""
        if not ok:
            value = self[key]
            self._require(key, ok, f"{message}, got {list(value) if isinstance(value, tuple) else value!r}")


@dataclass(frozen=True)
class LqgConvergenceParams(_Params):
    """Estimator error versus trajectory count on the scalar benchmark."""

    kind = ExperimentKind.LQG_CONVERGENCE
    a: float = 0.5  # pole of the closed-loop map
    r: float = 10.0  # control cost weight
    target: float = 1.0  # tracking setpoint
    sigma: float = 1.0  # process noise std dev
    x0: float = 0.0
    horizon: int = 2
    controls: float_list = (0.55, 0.17)  # one fixed control per stage
    p_min: int = 100  # trajectory counts p_min, p_min + p_step, ..., up to p_max
    p_max: int = 10000
    p_step: int = 100

    def _check(self) -> None:
        self._check_key("a", 0.0 < self.a < 1.0, "must lie strictly between 0 and 1")
        self._check_key("r", self.r > 0, "must be positive")
        self._check_key("sigma", self.sigma >= 0, "must be nonnegative")
        for key in ("horizon", "p_min", "p_max", "p_step"):
            self._check_key(key, self[key] > 0, "must be positive")
        self._require(
            "controls", len(self.controls) == self.horizon,
            f"expected {self.horizon} entries (one per stage), got {len(self.controls)}",
        )
        self._require("p_min", self.p_min <= self.p_max, f"must not exceed p_max ({self.p_max})")


@dataclass(frozen=True)
class _ScalarBenchmarkParams(_Params):
    """The keys of the scalar linear benchmark, which four kinds share."""

    a: float = 0.5  # state transition coefficient
    cost: float = 1.0  # per-step state cost coefficient
    sigma: float = 1.0  # process noise variance
    x0: float = 0.0
    horizon: int = 2

    def _check(self) -> None:
        self._check_key("sigma", self.sigma >= 0, "must be nonnegative")
        self._check_key("horizon", self.horizon > 0, "must be positive")

    def _require_spread(self) -> None:
        # A zero sigma or cost gives every path the same cost, so there is no
        # spread to scale the thresholds by and no variance to fit a slope to.
        for key in ("sigma", "cost"):
            self._require(key, self[key] != 0, "must be nonzero, or the path cost has zero variance")


@dataclass(frozen=True)
class ChebyshevCoverageParams(_ScalarBenchmarkParams):
    """Empirical tail probabilities of the mean estimator against the concentration bound."""

    kind = ExperimentKind.CHEBYSHEV_COVERAGE
    n_values: int_list = (100, 1000)
    epsilons: float_list = (0.25, 0.5, 1.0)
    epsilon_unit: str = "deviation"  # epsilons in cost std devs, or absolute
    reps: int = 1000

    def _check(self) -> None:
        super()._check()
        for key in ("n_values", "epsilons"):
            self._check_key(key, all(value > 0 for value in self[key]), "every entry must be positive")
        units = ("deviation", "absolute")
        self._check_key("epsilon_unit", self.epsilon_unit in units, f"must be one of {', '.join(units)}")
        self._check_key("reps", self.reps >= 2, "must be at least 2")
        if self.epsilon_unit == "deviation":
            self._require_spread()


@dataclass(frozen=True)
class VarianceScalingParams(_ScalarBenchmarkParams):
    """Inter-replication variance of the mean estimator versus sample count."""

    kind = ExperimentKind.VARIANCE_SCALING
    n_values: int_list = (100, 1000, 10000)
    reps: int = 200

    def _check(self) -> None:
        super()._check()
        self._check_key("n_values", all(value > 0 for value in self.n_values), "every entry must be positive")
        self._check_key("reps", self.reps >= 2, "must be at least 2")
        self._require("n_values", len(set(self.n_values)) >= 2, "need at least two distinct counts to fit a slope")
        self._require_spread()


@dataclass(frozen=True)
class PruningStudyParams(_ScalarBenchmarkParams):
    """Approximation error of pruned-tree estimators versus retained width."""

    kind = ExperimentKind.PRUNING_STUDY
    branch_factor: int = 3
    m_values: int_list = (1, 2, 4, 8, 16, 27)  # retained widths
    reps: int = 200

    def _check(self) -> None:
        super()._check()
        self._check_key("branch_factor", self.branch_factor >= 2, "must be at least 2")
        self._check_key("m_values", all(value > 0 for value in self.m_values), "every entry must be positive")
        self._check_key("reps", self.reps > 0, "must be positive")
        self._require("horizon", self.horizon >= 2, "must be at least 2 so the tree branches below its root")


_SCENARIO = ScenarioConfig()
_PLANNER = PlannerConfig()


@dataclass(frozen=True)
class UavMonteCarloParams(_Params):
    """Closed-loop tracking error distributions for nominal and sampled planners."""

    kind = ExperimentKind.UAV_MONTE_CARLO
    n_runs: int = 30  # episodes per arm: the nominal arm, and one per sampled-future count
    nt_values: int_list = (50, 100, 250)
    horizon: int = _PLANNER.horizon
    eval_budget: int = _PLANNER.eval_budget
    n_steps: int = _SCENARIO.n_steps
    dt: float = _SCENARIO.dt
    process_intensity: float = _SCENARIO.process_intensity
    sigma0: float = _SCENARIO.sigma0
    eta: float = _SCENARIO.eta
    v_min: float = _SCENARIO.v_min
    v_max: float = _SCENARIO.v_max
    accel_max: float = _SCENARIO.accel_max
    bank_max: float = _SCENARIO.bank_max
    uav_heading: float = _SCENARIO.uav_heading
    uav_speed: float = _SCENARIO.uav_speed
    uav_x: float = _SCENARIO.uav_position[0]
    uav_y: float = _SCENARIO.uav_position[1]
    target_mean: float_list = _SCENARIO.target_mean  # prior mean: x, y, vx, vy
    target_pos_var: float = _SCENARIO.target_cov[0][0]  # prior variances per axis
    target_vel_var: float = _SCENARIO.target_cov[2][2]

    def _check(self) -> None:
        # Episode r of each arm runs with run_index r, one spawn-key word.
        self._check_key("n_runs", 0 < self.n_runs <= 2**32, "must be positive and at most 2**32")
        self._check_key("nt_values", all(value > 0 for value in self.nt_values), "every entry must be positive")
        for key in ("target_pos_var", "target_vel_var"):
            self._check_key(key, self[key] >= 0, "must be nonnegative")
        try:
            tracking_setup(self, 0)
        except (ValueError, TypeError) as exc:
            # The scenario and planner errors name their field, which is the
            # key for every field a config can set.
            key = next((word for word in re.findall(r"\w+", str(exc)) if word in self.__dataclass_fields__), None)
            section = self.kind.value
            raise ConfigError(f"{section}.{key}: {exc}" if key else f"{section}: {exc}") from None


@dataclass(frozen=True)
class CovarianceDecayParams(_ScalarBenchmarkParams):
    """Cross-branch cost covariance z-tests on the sampled tree."""

    kind = ExperimentKind.COVARIANCE_DECAY
    branch_factor: int = 3
    reps: int = 10000

    def _check(self) -> None:
        super()._check()
        self._check_key("branch_factor", self.branch_factor >= 2, "must be at least 2")
        self._check_key("reps", self.reps >= 10, "must be at least 10")
        self._require("horizon", self.horizon >= 2, "must be at least 2 so the tree branches below its root")


_PARAMS = {cls.kind: cls for cls in (
    LqgConvergenceParams, ChebyshevCoverageParams, VarianceScalingParams,
    PruningStudyParams, UavMonteCarloParams, CovarianceDecayParams,
)}


def _same_named(cls, params) -> dict:
    """The fields of ``params`` named like fields of the dataclass ``cls``, by name."""
    return {f.name: getattr(params, f.name) for f in fields(params) if f.name in cls.__dataclass_fields__}


def tracking_setup(params: UavMonteCarloParams, master_seed: int):
    """The tracking study's scenario and its planner arms from ``uav_monte_carlo`` params.

    Returns ``(scenario, [(arm_name, planner_config), ...])``: the nominal
    arm ``nbo`` first, then one ``nt<count>`` arm per entry of
    ``nt_values``, which must not repeat an entry.  Every arm and the
    scenario share ``master_seed``.  ``ScenarioConfig`` and
    ``PlannerConfig`` validate the values and raise ``ValueError`` or
    ``TypeError`` naming the field.
    """
    p = params
    if len(set(p.nt_values)) != len(p.nt_values):
        raise ValueError(f"nt_values must not repeat an entry, got {list(p.nt_values)}")
    scenario = ScenarioConfig(
        **_same_named(ScenarioConfig, p),
        uav_position=(p.uav_x, p.uav_y),
        target_cov=np.diag([p.target_pos_var] * 2 + [p.target_vel_var] * 2),
        master_seed=master_seed,
    )
    arms = [("nbo", 1, PlannerObjective.NBO)] + [
        (f"nt{count}", count, PlannerObjective.RSMHP) for count in p.nt_values
    ]
    return scenario, [
        (name, PlannerConfig(
            **_same_named(PlannerConfig, p),
            n_trajectories=count, objective=objective, master_seed=master_seed,
        ))
        for name, count, objective in arms
    ]


def _check_head(master_seed, output) -> None:
    try:
        check_seed("master_seed", master_seed)
    except (TypeError, ValueError) as exc:
        problem = "expected int" if isinstance(exc, TypeError) else "must fit in an unsigned 64-bit integer"
        raise ConfigError(f"experiment.master_seed: {problem}, got {master_seed!r}") from None
    if not isinstance(output, str) or not output:
        problem = "expected str" if not isinstance(output, str) else "must not be empty"
        raise ConfigError(f"experiment.output: {problem}, got {output!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One study: its kind, master seed, output directory and params object; a hashable value.

    Built from a file or in code, it checks its seed, output and kind, and
    that its params are of the kind's type; a fault raises ``ConfigError``.
    """

    kind: ExperimentKind
    master_seed: int
    output: str
    params: _Params

    def __post_init__(self) -> None:
        _check_head(self.master_seed, self.output)
        if not isinstance(self.kind, ExperimentKind):
            raise ConfigError(f"experiment.kind: expected ExperimentKind, got {self.kind!r}")
        expected = _PARAMS[self.kind]
        if not isinstance(self.params, expected):
            raise ConfigError(f"{self.kind.value}: expected {expected.__name__}, got {type(self.params).__name__}")

    def with_overrides(self, master_seed=None, output=None) -> "ExperimentSpec":
        """A copy with a new seed or output, checked as any spec is."""
        return replace(
            self,
            master_seed=self.master_seed if master_seed is None else master_seed,
            output=self.output if output is None else str(output),
        )


def _parse_section(section: str, types: dict, raw: dict) -> dict:
    """The keys of ``raw`` parsed by their type names in ``types``; a key not in ``types`` raises."""
    values = {}
    for name, type_name in types.items():
        if name in raw:
            try:
                values[name] = _TYPES[type_name][0](raw[name])
            except ValueError as exc:
                raise ConfigError(f"{section}.{name}: expected {type_name}, got {raw[name]!r} ({exc})") from None
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise ConfigError(f"{section}.{unknown[0]}: unknown key (valid keys: {', '.join(sorted(types))})")
    return values


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
    head = _parse_section("experiment", dict(kind="str", master_seed="int", output="str"), dict(parser["experiment"]))
    for key, what in (("kind", "experiment kind"), ("output", "output directory")):
        if key not in head:
            raise ConfigError(f"experiment.{key}: missing required key ({what})")
    kinds = [kind.value for kind in ExperimentKind]
    if head["kind"] not in kinds:
        raise ConfigError(f"experiment.kind: must be one of {', '.join(kinds)}, got {head['kind']!r}")
    kind, master_seed, output = ExperimentKind(head["kind"]), head.get("master_seed", 0), head["output"]
    _check_head(master_seed, output)
    extra_sections = sorted(set(parser.sections()) - {"experiment", kind.value})
    if extra_sections:
        raise ConfigError(f"unknown section [{extra_sections[0]}] (expected only [experiment] and [{kind.value}])")
    raw = dict(parser[kind.value]) if parser.has_section(kind.value) else {}
    cls = _PARAMS[kind]
    params = cls(**_parse_section(kind.value, {f.name: f.type for f in fields(cls)}, raw))
    return ExperimentSpec(kind, master_seed, output, params)


def describe_kinds() -> list[tuple[str, str]]:
    """(name, one-line description) for every experiment kind: the first line of its params type's docstring."""
    return [(kind.value, _PARAMS[kind].__doc__.splitlines()[0]) for kind in ExperimentKind]
