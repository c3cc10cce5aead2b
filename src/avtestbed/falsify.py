"""Robustness-guided falsification over a box of scenario parameters.

One driver, _search, runs every search.  A searcher is a generator that
yields one sample at a time and is sent that sample's robustness.  The
driver evaluates each sample, keeps the history, stops at the n_tests budget
or, in falsification mode, right after the first negative robustness,
records why each failed evaluation failed (its robustness counts as +inf)
and picks the best sample.  falsify anneals: a uniform first sample, then
Gaussian proposals around the current point, clipped to the box and
accepted by the Metropolis rule under a geometrically cooled temperature.
uniform_random_search draws independent uniform samples, and grid_oracle
visits every point of a regular grid.  Every run is a deterministic function
of its seed.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Generator, Optional, Sequence

import numpy as np

from . import robustness as rb, scenario, supervisor
from .robustness import LinearPredicate, MtlFormula, Trace


@dataclass
class SearchDim:
    name: str
    lo: float
    hi: float
    binding: Optional[str] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(
                f"dimension {self.name!r}: bounds [{self.lo}, {self.hi}] must be finite"
            )
        if not self.lo <= self.hi:
            raise ValueError(f"dimension {self.name!r}: lo {self.lo} > hi {self.hi}")


@dataclass
class SearchSpace:
    dims: list[SearchDim]

    def __post_init__(self) -> None:
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names):
            name = next(n for n in names if names.count(n) > 1)
            where = ", ".join(f"space[{i}]" for i, n in enumerate(names) if n == name)
            raise ValueError(f"search dimension name {name!r} repeats at {where}")

    @property
    def n_dims(self) -> int:
        return len(self.dims)


@dataclass
class FalsifyConfig:
    n_tests: int = 100
    runs: int = 1
    seed: int = 0
    falsification_mode: bool = True
    sim_duration_s: float = 15.0
    samp_time_s: float = 0.010
    init_temperature: float = 1.0
    cooling: float = 0.97
    proposal_scale: float = 0.25

    def __post_init__(self) -> None:
        for name in ("sim_duration_s", "samp_time_s", "init_temperature", "proposal_scale"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.n_tests < 1:
            raise ValueError("n_tests must be >= 1")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling must lie in (0, 1)")
        if self.init_temperature <= 0.0:
            raise ValueError("init_temperature must be positive")


@dataclass
class FalsificationResult:
    best_sample: list[float]
    best_robustness: float
    falsified: bool
    n_simulations_used: int
    history: list[tuple[list[float], float]]
    seed: int
    space: Optional[list[SearchDim]] = None
    config: Optional[FalsifyConfig] = None
    formula: Optional[str] = None
    # evaluation index -> why that evaluation failed; its robustness is +inf
    failures: dict[int, str] = field(default_factory=dict)


class AllEvaluationsFailedError(RuntimeError):
    pass


System = Callable[[Sequence[float]], Trace]
# yields one sample at a time and is sent that sample's robustness
Searcher = Generator[Sequence[float], float, None]


def _search(
    system: System,
    formula: MtlFormula,
    predicates: list[LinearPredicate],
    space: SearchSpace,
    config: FalsifyConfig,
    searcher: Searcher,
) -> FalsificationResult:
    """Run searcher against system, as the module docstring describes.

    A ValueError or RuntimeError from setup, simulation or the monitor, or a
    NaN robustness, fails an evaluation; anything else propagates.
    """
    history: list[tuple[list[float], float]] = []
    failures: dict[int, str] = {}
    value = None  # the first send starts the searcher
    for index in range(config.n_tests):
        sample = [float(v) for v in searcher.send(value)]
        try:
            value = rb.robustness(formula, predicates, system(tuple(sample)))
        except (ValueError, RuntimeError) as exc:
            failures[index], value = str(exc), math.inf
        if math.isnan(value):
            failures[index], value = "robustness is NaN", math.inf
        history.append((sample, value))
        if config.falsification_mode and value < 0.0:
            break
    if len(failures) == len(history):
        index, message = next(iter(failures.items()))
        raise AllEvaluationsFailedError(
            f"every simulation failed; evaluation {index} was the first: {message}"
        )
    best_sample, best_rob = min(history, key=lambda entry: entry[1])
    return FalsificationResult(
        best_sample=list(best_sample),
        best_robustness=best_rob,
        falsified=best_rob < 0.0,
        n_simulations_used=len(history),
        history=history,
        seed=config.seed,
        space=list(space.dims),
        config=config,
        formula=rb.format_formula(formula),
        failures=failures,
    )


def _box(space: SearchSpace) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([d.lo for d in space.dims], dtype=np.float64),
            np.array([d.hi for d in space.dims], dtype=np.float64))


def _annealing(space: SearchSpace, config: FalsifyConfig) -> Searcher:
    rng = np.random.default_rng(config.seed)
    lo, hi = _box(space)
    width = hi - lo
    current = lo + rng.uniform(size=space.n_dims) * width
    current_rob = yield current
    temperature = config.init_temperature
    while True:
        proposal = current + rng.normal(size=space.n_dims) * (config.proposal_scale * width)
        proposal = np.clip(proposal, lo, hi)
        proposal_rob = yield proposal
        if proposal_rob <= current_rob or math.isinf(current_rob):
            accept = True
        elif math.isinf(proposal_rob):
            accept = False
        else:
            accept = rng.uniform() < math.exp(-(proposal_rob - current_rob) / temperature)
        if accept:
            current, current_rob = proposal, proposal_rob
        temperature *= config.cooling


def _uniform(space: SearchSpace, config: FalsifyConfig) -> Searcher:
    rng = np.random.default_rng(config.seed)
    lo, hi = _box(space)
    width = hi - lo
    while True:
        yield lo + rng.uniform(size=space.n_dims) * width


def falsify(
    system: System,
    formula: MtlFormula,
    predicates: list[LinearPredicate],
    space: SearchSpace,
    config: FalsifyConfig,
) -> FalsificationResult:
    """Simulated-annealing search for a negative-robustness sample."""
    return _search(system, formula, predicates, space, config, _annealing(space, config))


def uniform_random_search(
    system: System,
    formula: MtlFormula,
    predicates: list[LinearPredicate],
    space: SearchSpace,
    config: FalsifyConfig,
) -> FalsificationResult:
    """Baseline: independent uniform samples with the same result structure."""
    return _search(system, formula, predicates, space, config, _uniform(space, config))


def grid_oracle(
    system: System,
    formula: MtlFormula,
    predicates: list[LinearPredicate],
    space: SearchSpace,
    points_per_dim,
) -> tuple[float, list[float]]:
    """Exhaustive minimum over a regular grid that includes the box corners,
    and the first point that attains it; AllEvaluationsFailedError when
    every point fails."""
    if isinstance(points_per_dim, int):
        points_per_dim = [points_per_dim] * space.n_dims
    if len(points_per_dim) != space.n_dims:
        raise ValueError("points_per_dim must match the dimension count")
    axes = []
    for dim, count in zip(space.dims, points_per_dim):
        if count < 1:
            raise ValueError("points_per_dim entries must be >= 1")
        if count == 1:
            axes.append(np.array([(dim.lo + dim.hi) / 2.0]))
        else:
            axes.append(np.linspace(dim.lo, dim.hi, count))

    shape = [len(axis) for axis in axes]
    points = ([axis[i] for axis, i in zip(axes, index)] for index in np.ndindex(*shape))
    config = FalsifyConfig(n_tests=math.prod(shape), falsification_mode=False)
    result = _search(system, formula, predicates, space, config, points)
    return result.best_robustness, result.best_sample


# --------------------------------------------------------------------------
# Persistence


def save_results(results, path: str) -> None:
    """Write one result or a list of per-run results as self-describing JSON.

    A run's failures are written only when it has any.
    """
    if isinstance(results, FalsificationResult):
        results = [results]
    runs = scenario.value_to_json(results, list[FalsificationResult])
    for run in runs:
        if not run["failures"]:
            del run["failures"]
    payload = {"format": "falsification-results", "results": runs}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_results(path: str):
    """Load results saved by save_results; a single run comes back unwrapped."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt results file {path}: {exc}") from None
    if not isinstance(data, dict) or data.get("format") != "falsification-results":
        raise ValueError(f"corrupt results file {path}: missing format marker")
    results = scenario.value_from_json(
        data.get("results", []), list[FalsificationResult], "results"
    )
    if len(results) == 1:
        return results[0]
    return results


# --------------------------------------------------------------------------
# Study files: scenario + requirement + space + config in one place


@dataclass
class Study:
    env: scenario.SimEnvironment
    sim_config: scenario.SimulationConfig
    requirement: rb.Requirement
    space: SearchSpace
    config: FalsifyConfig


# a study file: scenario and requirement file paths, relative to the study's
# directory unless absolute, then the search box and the search configuration
_STUDY_KINDS = {
    "scenario": str, "requirement": str, "space": list[SearchDim], "config": FalsifyConfig
}


def load_study(path: str) -> Study:
    """Load a study file; its scenario is parsed like any scenario document.

    A study that is not well formed, or whose scenario or requirement file
    cannot be read or parsed, raises ValueError; the error of a named file
    begins with that file's path as the study gives it.
    """
    data = scenario.load_json(path, _STUDY_KINDS, "study")
    base = os.path.dirname(os.path.abspath(path))

    def load(loader, key: str):
        named = data[key]
        try:
            return loader(named if os.path.isabs(named) else os.path.join(base, named))
        except (OSError, ValueError) as exc:
            raise ValueError(f"{named}: {getattr(exc, 'strerror', None) or exc}") from None

    env, sim_config = load(scenario.load_scenario, "scenario")
    return Study(
        env=env,
        sim_config=sim_config,
        requirement=load(rb.load_requirement, "requirement"),
        space=SearchSpace(data["space"]),
        config=data["config"],
    )


def make_study_system(study: Study) -> tuple[System, MtlFormula, list[LinearPredicate]]:
    """Bind the study's scenario into a sample -> trace function.

    The study's duration and log period are set, and each dimension's binding
    is resolved to a setter, once on one copy of the scenario; a sample then
    writes its values through the setters and simulates.  The function reuses
    that copy, so it must not be called from two threads at once.
    """
    names = scenario.column_names(study.env.data_log_description_list)
    if not names or names[0] != "time_ms":
        raise ValueError("study scenario must log time_ms as its first column")
    predicates = study.requirement.resolve(names[1:])
    formula = study.requirement.formula()

    env, config = copy.deepcopy((study.env, study.sim_config))
    config.sim_duration_ms = int(round(1000.0 * study.config.sim_duration_s))
    env.data_log_period_ms = int(round(1000.0 * study.config.samp_time_s))
    problems = scenario.template_violations(env, config, [dim.binding for dim in study.space.dims])
    if problems:
        raise ValueError(f"study cannot run: {problems[0]}")
    setters = []
    for dim in study.space.dims:
        if not isinstance(dim.binding, str):
            raise ValueError(f"dimension {dim.name!r} has no scenario binding")
        try:
            setters.append(scenario.resolve_binding(env, dim.binding)[0])
        except ValueError as exc:
            raise ValueError(f"dimension {dim.name!r}: {exc}") from None

    def system(sample: Sequence[float]) -> Trace:
        for set_value, value in zip(setters, sample):
            set_value(float(value))
        return rb.convert_trajectory(supervisor.run_embedded(env, config).trajectory)

    return system, formula, predicates


def run_study(study: Study) -> list[FalsificationResult]:
    """Execute config.runs independent searches seeded seed, seed+1, ..."""
    system, formula, predicates = make_study_system(study)
    results = []
    for i in range(study.config.runs):
        run_config = FalsifyConfig(**{**asdict(study.config), "seed": study.config.seed + i})
        results.append(falsify(system, formula, predicates, study.space, run_config))
    return results
