"""Anchor-size search: per-axis sweep seeding, then differential evolution.

The sweep varies one size axis over a relative grid (other axes pinned at
the source values) and assembles the per-axis winners into the initial
candidate. DE then searches (w, l, h) jointly: best/1 mutation, binomial
crossover with one forced coordinate, greedy strictly-better selection.
Both the initial sweep winner and the untouched source sizes are injected
into the population, so the best member ever seen can never score below
the source configuration.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    SIZE_AXES,
    SIZE_FLOOR,
    AnchorSizes,
    CalibrationError,
    DimensionMismatchError,
    FrameId,
)
from .extractor import FeatureExtractor, GateConfig, build_reference_db, build_target_db
from .gmm import EmConfig, Gmm, fit_em, fitness

FitnessFn = Callable[[AnchorSizes], float]

Curve = tuple[tuple[float, float], ...]

# DE's mutation amplitude, per-coordinate crossover probability, and the
# half-width of the uniform initialization box as a fraction of the source
# value per axis.
ETA = 0.7
CROSSOVER_RATE = 0.7
INIT_RANGE = 0.3


@dataclass(frozen=True)
class SweepConfig:
    """One axis of the initialization sweep.

    relative_range: half-width of the grid as a fraction of the source
        value, e.g. 0.5 sweeps from 50% to 150%.
    steps: grid size; odd counts place the source value itself on the grid.
    """

    axis: str
    relative_range: float = 0.5
    steps: int = 21

    def __post_init__(self) -> None:
        if self.axis not in SIZE_AXES:
            raise ValueError(f"axis must be one of {SIZE_AXES}, got {self.axis!r}")
        if not (0.0 < self.relative_range < 1.0):
            raise ValueError(f"relative_range must lie in (0, 1), got {self.relative_range!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps!r}")

    def grid(self, source_value: float) -> np.ndarray:
        """Swept absolute values, ascending. Odd step counts hit the source
        value exactly (offsets are built as mirrored halves, not one linspace,
        so the midpoint is 0.0 with no rounding)."""
        if self.steps % 2 == 1:
            pos = np.linspace(0.0, 1.0, self.steps // 2 + 1)
            offsets = np.concatenate([-pos[::-1][:-1], pos])
        else:
            offsets = np.linspace(-1.0, 1.0, self.steps)
        return source_value * (1.0 + self.relative_range * offsets)


def default_sweep_configs(relative_range: float = 0.5, steps: int = 21) -> tuple[SweepConfig, ...]:
    return tuple(SweepConfig(axis, relative_range, steps) for axis in SIZE_AXES)


@dataclass(frozen=True)
class DeConfig:
    """Differential evolution settings.

    population: member count, at least 4 (mutation draws the best member
        plus two others distinct from the trial's parent).
    stall_tolerance: best-fitness improvement below this counts as a stalled
        generation; stall_generations of those in a row terminate the run.
        A tolerance of 0 disables stall termination.
    """

    population: int = 16
    max_iters: int = 200
    stall_tolerance: float = 1e-9
    stall_generations: int = 25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population < 4:
            raise ValueError(f"population must be >= 4, got {self.population!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters!r}")
        if self.stall_tolerance < 0.0:
            raise ValueError(f"stall_tolerance must be >= 0, got {self.stall_tolerance!r}")
        if self.stall_generations < 1:
            raise ValueError(f"stall_generations must be >= 1, got {self.stall_generations!r}")


@dataclass(frozen=True)
class CalibrationResult:
    """Everything a calibration run produced.

    de_trace holds the best fitness after initialization and after each
    generation, so it is non-decreasing by construction; evaluations counts
    every fitness call (population work plus any sweep grid points).
    The fitted model rides along for reporting but is excluded from
    equality, so results round-trip through JSON cleanly.
    """

    calibrated: AnchorSizes
    source_sizes: AnchorSizes
    fitness_calibrated: float
    fitness_source: float
    sweep_curves: Mapping[str, Curve]
    de_trace: tuple[float, ...]
    termination: str
    evaluations: int
    model: Gmm | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.termination not in ("converged", "max_iters"):
            raise ValueError(f"unknown termination {self.termination!r}")
        curves = {
            str(axis): tuple((float(v), float(f)) for v, f in curve)
            for axis, curve in dict(self.sweep_curves).items()
        }
        object.__setattr__(self, "sweep_curves", curves)
        trace = tuple(float(v) for v in self.de_trace)
        if any(b < a for a, b in zip(trace, trace[1:])):
            raise ValueError("de_trace must be non-decreasing")
        object.__setattr__(self, "de_trace", trace)
        if self.evaluations < 0:
            raise ValueError("evaluations must be >= 0")
        object.__setattr__(self, "evaluations", int(self.evaluations))

    @property
    def generations(self) -> int:
        return len(self.de_trace) - 1


class _CountingFitness:
    """Wraps a fitness function and counts calls."""

    def __init__(self, fn: FitnessFn) -> None:
        self._fn = fn
        self.count = 0

    def __call__(self, sizes: AnchorSizes) -> float:
        self.count += 1
        return self._fn(sizes)


def _curve_argmax(curve: Sequence[tuple[float, float]], source_value: float, axis: str) -> float:
    if all(f == -math.inf for _, f in curve):
        raise CalibrationError(
            f"axis {axis}: every swept candidate evaluated to -inf; "
            "the score gate may be too strict or the target domain empty"
        )
    # ties go to the value needing the smallest change from the source
    best = max(
        range(len(curve)),
        key=lambda i: (curve[i][1], -abs(curve[i][0] - source_value)),
    )
    return float(curve[best][0])


def linear_sweep(
    eval_fn: FitnessFn,
    source: AnchorSizes,
    configs: Sequence[SweepConfig],
) -> tuple[AnchorSizes, dict[str, Curve]]:
    """Per-axis grid search around the source sizes.

    Each axis is swept independently with the other two held at their source
    values; the winners are assembled into one candidate. Axes without a
    config keep the source value.
    """
    axes = [cfg.axis for cfg in configs]
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate sweep axis in {axes}")
    winners = {axis: source.axis(axis) for axis in SIZE_AXES}
    curves: dict[str, Curve] = {}
    for cfg in configs:
        values = cfg.grid(source.axis(cfg.axis))
        fits = [float(eval_fn(source.replace_axis(cfg.axis, v))) for v in values]
        curve = tuple((float(v), float(f)) for v, f in zip(values, fits))
        winners[cfg.axis] = _curve_argmax(curve, source.axis(cfg.axis), cfg.axis)
        curves[cfg.axis] = curve
    return AnchorSizes(**winners), curves


def initial_candidate_from_curves(
    curves: Mapping[str, Sequence[tuple[float, float]]], source: AnchorSizes
) -> AnchorSizes:
    """Re-derive the sweep winner from stored curves (same tie-breaking)."""
    winners = {axis: source.axis(axis) for axis in SIZE_AXES}
    for axis, curve in curves.items():
        if axis not in SIZE_AXES:
            raise ValueError(f"unknown sweep axis {axis!r}")
        winners[axis] = _curve_argmax(list(curve), source.axis(axis), axis)
    return AnchorSizes(**winners)


def differential_evolution(
    eval_fn: FitnessFn,
    init_candidate: AnchorSizes,
    source: AnchorSizes,
    config: DeConfig = DeConfig(),
) -> CalibrationResult:
    """Joint search over (w, l, h) by best/1 differential evolution.

    The population starts as uniform samples in +-INIT_RANGE around the
    source, with init_candidate and the source itself replacing the first
    two members. Trials are built synchronously per generation, so the
    result does not depend on evaluation order.
    """
    rng = np.random.default_rng(config.seed)
    n = config.population
    src = source.as_array()
    pop = src * rng.uniform(1.0 - INIT_RANGE, 1.0 + INIT_RANGE, (n, 3))
    pop[0] = init_candidate.as_array()
    pop[1] = src
    pop = np.maximum(pop, SIZE_FLOOR)

    fits = [float(eval_fn(AnchorSizes.from_array(row))) for row in pop]
    if all(f == -math.inf for f in fits):
        raise CalibrationError(
            "every initial candidate evaluated to -inf; "
            "the score gate may be too strict or the target domain empty"
        )
    fitness_source = fits[1]
    best_idx = max(range(n), key=lambda i: fits[i])
    best_vec = pop[best_idx].copy()
    best_fit = fits[best_idx]
    trace = [best_fit]

    stall = 0
    generations = 0
    termination = "max_iters"
    for _ in range(config.max_iters):
        trials = np.empty_like(pop)
        for i in range(n):
            pool = [j for j in range(n) if j != i and j != best_idx]
            pick = rng.choice(len(pool), size=2, replace=False)
            r1, r2 = pool[pick[0]], pool[pick[1]]
            mutant = best_vec + ETA * (pop[r1] - pop[r2])
            cross = rng.uniform(size=3) < CROSSOVER_RATE
            cross[int(rng.integers(3))] = True
            trials[i] = np.maximum(np.where(cross, mutant, pop[i]), SIZE_FLOOR)
        trial_fits = [float(eval_fn(AnchorSizes.from_array(row))) for row in trials]
        generations += 1
        previous_best = best_fit
        for i in range(n):
            if trial_fits[i] > fits[i]:
                pop[i] = trials[i]
                fits[i] = trial_fits[i]
                if trial_fits[i] > best_fit:
                    best_fit = trial_fits[i]
                    best_vec = trials[i].copy()
                    best_idx = i
        trace.append(best_fit)
        if best_fit - previous_best < config.stall_tolerance:
            stall += 1
            if stall >= config.stall_generations:
                termination = "converged"
                break
        else:
            stall = 0

    return CalibrationResult(
        calibrated=AnchorSizes.from_array(best_vec),
        source_sizes=source,
        fitness_calibrated=float(best_fit),
        fitness_source=float(fitness_source),
        sweep_curves={},
        de_trace=tuple(trace),
        termination=termination,
        evaluations=n * (1 + generations),
    )


def make_target_fitness(
    extractor: FeatureExtractor,
    frames: Sequence[FrameId],
    gate: GateConfig,
    model: Gmm,
) -> FitnessFn:
    """Fitness of candidate sizes: average log-likelihood of the gated
    target features under the source model. Candidates whose database comes
    back empty score -inf so the optimizer can route around them."""
    frames = list(frames)

    def eval_fn(sizes: AnchorSizes) -> float:
        db = build_target_db(extractor, frames, sizes, gate)
        if len(db) == 0:
            return -math.inf
        return fitness(db, model)

    return eval_fn


def calibrate(
    extractor_source: FeatureExtractor,
    extractor_target: FeatureExtractor,
    frames_source: Sequence[FrameId],
    frames_target: Sequence[FrameId],
    gate: GateConfig = GateConfig(),
    em_config: EmConfig = EmConfig(),
    sweep_configs: Sequence[SweepConfig] | None = None,
    de_config: DeConfig = DeConfig(),
    sweep_curves: Mapping[str, Sequence[tuple[float, float]]] | None = None,
    model: Gmm | None = None,
) -> CalibrationResult:
    """Full pipeline: reference database, mixture fit, sweep, DE.

    Passing previously computed sweep_curves skips the sweep evaluations
    (the initial candidate is re-derived from the stored curves), and
    passing a fitted model skips the reference build and EM fit.
    """
    if extractor_source.feature_dim != extractor_target.feature_dim:
        raise DimensionMismatchError(
            f"source extractor emits dim {extractor_source.feature_dim}, "
            f"target {extractor_target.feature_dim}"
        )
    if model is None:
        model = fit_em(build_reference_db(extractor_source, frames_source, gate), em_config)
    elif model.dim != extractor_target.feature_dim:
        raise DimensionMismatchError(
            f"model has dim {model.dim}, target features have dim "
            f"{extractor_target.feature_dim}"
        )
    counter = _CountingFitness(make_target_fitness(extractor_target, frames_target, gate, model))
    source = extractor_source.source_sizes

    if sweep_curves is None:
        if sweep_configs is None:
            sweep_configs = default_sweep_configs()
        init, sweep_curves = linear_sweep(counter, source, sweep_configs)
        sweep_evals = sum(cfg.steps for cfg in sweep_configs)
    else:
        init = initial_candidate_from_curves(sweep_curves, source)
        sweep_evals = 0

    de_result = differential_evolution(counter, init, source, de_config)
    expected = sweep_evals + de_result.evaluations
    if counter.count != expected:
        raise AssertionError(
            f"evaluation bookkeeping drifted: counted {counter.count}, expected {expected}"
        )
    result = dataclasses.replace(
        de_result,
        sweep_curves=sweep_curves,
        evaluations=counter.count,
        model=model,
    )
    if not result.fitness_calibrated >= result.fitness_source:
        raise CalibrationError(
            f"calibrated sizes score {result.fitness_calibrated!r}, below the "
            f"source sizes' {result.fitness_source!r}"
        )
    return result
