import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorcal.core import (
    SIZE_FLOOR,
    AnchorSizes,
    CalibrationError,
    DimensionMismatchError,
    EmptyDatabaseError,
)
from anchorcal.extractor import GateConfig
from anchorcal.gmm import EmConfig
from anchorcal import optimizer
from anchorcal.optimizer import (
    CalibrationResult,
    DeConfig,
    SweepConfig,
    calibrate,
    default_sweep_configs,
    differential_evolution,
    initial_candidate_from_curves,
    linear_sweep,
    make_target_fitness,
)
from anchorcal.synthdet import SyntheticDomain, generate_domain

SRC = AnchorSizes(1.9, 4.6, 1.7)


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="axis"):
        SweepConfig("x")
    with pytest.raises(ValueError, match="relative_range"):
        SweepConfig("w", relative_range=1.0)
    with pytest.raises(ValueError, match="steps"):
        SweepConfig("w", steps=1)


def test_de_config_validation():
    with pytest.raises(ValueError, match="population"):
        DeConfig(population=3)


def test_grid_hits_source_exactly_for_odd_steps():
    grid = SweepConfig("l", 0.5, 21).grid(4.6)
    assert grid.shape == (21,)
    assert grid[10] == 4.6
    assert grid[0] == pytest.approx(2.3) and grid[-1] == pytest.approx(6.9)
    np.testing.assert_allclose(np.diff(grid), np.diff(grid)[0])


def test_constant_eval_sweep_returns_source():
    init, curves = linear_sweep(lambda s: 1.0, SRC, default_sweep_configs())
    assert init == SRC
    assert set(curves) == {"w", "l", "h"}
    assert all(len(c) == 21 for c in curves.values())


def test_sweep_picks_grid_argmax():
    # grid {1.5, 1.8, 2.1, 2.4} on w via a 4-step config centered at 1.95
    cfg = SweepConfig("w", relative_range=0.45 / 1.95, steps=4)
    source = AnchorSizes(1.95, 4.6, 1.7)
    init, curves = linear_sweep(lambda s: -((s.w - 2.1) ** 2), source, [cfg])
    assert init.w == pytest.approx(2.1)
    assert (init.l, init.h) == (source.l, source.h)
    values = [v for v, _ in curves["w"]]
    assert values == pytest.approx([1.5, 1.8, 2.1, 2.4])


def test_sweep_matches_exhaustive_oracle():
    # oracle: evaluate the same separable function densely per axis in-test
    weights = np.array([1.0, 0.3, 2.0])
    target = np.array([1.55, 5.1, 1.35])

    def eval_fn(s):
        return -float(weights @ (s.as_array() - target) ** 2)

    init, curves = linear_sweep(eval_fn, SRC, default_sweep_configs())
    for axis, idx in (("w", 0), ("l", 1), ("h", 2)):
        grid = SweepConfig(axis).grid(SRC.axis(axis))
        per_axis = []
        for v in grid:
            vec = SRC.as_array()
            vec[idx] = v
            per_axis.append(-float(weights @ (vec - target) ** 2))
        assert init.axis(axis) == grid[int(np.argmax(per_axis))]


def test_sweep_duplicate_axis_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        linear_sweep(lambda s: 0.0, SRC, [SweepConfig("w"), SweepConfig("w")])


def test_sweep_all_minus_inf_axis_aborts():
    def eval_fn(s):
        return -math.inf if abs(s.l - SRC.l) > 1e-12 else 0.0

    with pytest.raises(CalibrationError, match="axis l"):
        linear_sweep(eval_fn, SRC, [SweepConfig("l", steps=4)])


def test_sweep_tolerates_partial_minus_inf():
    def eval_fn(s):
        return -math.inf if s.w < 1.9 else float(s.w)

    init, _ = linear_sweep(eval_fn, SRC, [SweepConfig("w")])
    assert init.w == pytest.approx(1.9 * 1.5)


def test_initial_candidate_from_curves_round_trip():
    def eval_fn(s):
        return -((s.w - 1.6) ** 2) - (s.l - 4.0) ** 2 - (s.h - 1.5) ** 2

    init, curves = linear_sweep(eval_fn, SRC, default_sweep_configs())
    assert initial_candidate_from_curves(curves, SRC) == init


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_sweep_ties_resolve_toward_source(seed):
    rng = np.random.default_rng(seed)
    # piecewise-constant fitness with few levels forces plenty of ties
    levels = rng.integers(0, 3, size=21)

    def eval_fn(s, _grid=SweepConfig("h").grid(SRC.h), _levels=levels):
        i = int(np.argmin(np.abs(_grid - s.h)))
        return float(_levels[i])

    init, curves = linear_sweep(eval_fn, SRC, [SweepConfig("h")])
    best_fit = max(f for _, f in curves["h"])
    eligible = [v for v, f in curves["h"] if f == best_fit]
    assert init.h in eligible
    assert abs(init.h - SRC.h) == min(abs(v - SRC.h) for v in eligible)


def quadratic(s: AnchorSizes) -> float:
    return -float(np.sum((s.as_array() - np.array([2.0, 4.0, 1.5])) ** 2))


@pytest.mark.parametrize("seed", range(5))
def test_de_solves_quadratic_bowl(seed):
    cfg = DeConfig(population=16, max_iters=200, stall_tolerance=0.0, seed=seed)
    res = differential_evolution(quadratic, SRC, SRC, cfg)
    err = np.linalg.norm(res.calibrated.as_array() - np.array([2.0, 4.0, 1.5]))
    assert err <= 1e-2
    assert res.evaluations == 16 * (1 + res.generations)


def rastrigin(s: AnchorSizes) -> float:
    x = s.as_array() - np.array([1.9, 4.6, 1.7])
    return -float(np.sum(x * x - 10.0 * np.cos(2.0 * math.pi * x) + 10.0))


def test_de_solves_recentered_rastrigin_on_most_seeds():
    source = AnchorSizes(2.1, 4.8, 1.8)
    hits = 0
    for seed in range(5):
        cfg = DeConfig(population=32, max_iters=500, stall_tolerance=0.0, seed=seed)
        res = differential_evolution(rastrigin, source, source, cfg)
        err = np.linalg.norm(res.calibrated.as_array() - np.array([1.9, 4.6, 1.7]))
        hits += err <= 1e-1
    assert hits >= 4


def test_de_constant_eval_converges_by_stall():
    cfg = DeConfig(population=8, max_iters=100, stall_generations=7, seed=3)
    res = differential_evolution(lambda s: 5.0, SRC, SRC, cfg)
    assert res.termination == "converged"
    assert res.generations == 7
    assert res.calibrated == SRC  # init candidate, first best-index win
    assert res.de_trace == (5.0,) * 8
    assert res.evaluations == 8 * (1 + 7)
    assert res.fitness_source == 5.0


def test_de_trace_is_monotone_and_best_ever_returned():
    cfg = DeConfig(population=12, max_iters=60, stall_tolerance=0.0, seed=11)
    res = differential_evolution(quadratic, SRC, SRC, cfg)
    assert all(b >= a for a, b in zip(res.de_trace, res.de_trace[1:]))
    assert res.fitness_calibrated == res.de_trace[-1] == max(res.de_trace)
    assert res.fitness_calibrated == pytest.approx(quadratic(res.calibrated))


def test_de_respects_positivity_floor():
    seen: list[float] = []

    def eval_fn(s):
        seen.append(min(s.w, s.l, s.h))
        return -float(s.w + s.l + s.h)  # rewards shrinking without bound

    tiny = AnchorSizes(0.06, 0.06, 0.06)
    cfg = DeConfig(population=8, max_iters=40, stall_tolerance=0.0, seed=0)
    differential_evolution(eval_fn, tiny, tiny, cfg)
    assert min(seen) >= SIZE_FLOOR


def test_de_source_member_guarantees_floor_fitness():
    # an eval that prefers the source over everything nearby
    def eval_fn(s):
        return 10.0 if s == SRC else -float(np.sum(s.as_array()))

    cfg = DeConfig(population=8, max_iters=20, seed=2)
    res = differential_evolution(eval_fn, AnchorSizes(1.0, 1.0, 1.0), SRC, cfg)
    assert res.fitness_source == 10.0
    assert res.fitness_calibrated >= res.fitness_source
    assert res.calibrated == SRC


def test_de_all_minus_inf_initial_population_aborts():
    with pytest.raises(CalibrationError, match="initial"):
        differential_evolution(lambda s: -math.inf, SRC, SRC, DeConfig(seed=0))


def test_de_deterministic_and_thread_invariant():
    cfg = DeConfig(population=10, max_iters=30, stall_tolerance=0.0, seed=7)
    a = differential_evolution(quadratic, SRC, SRC, cfg)
    b = differential_evolution(quadratic, SRC, SRC, cfg)
    assert a == b


def test_result_rejects_decreasing_trace():
    with pytest.raises(ValueError, match="non-decreasing"):
        CalibrationResult(
            calibrated=SRC, source_sizes=SRC, fitness_calibrated=1.0,
            fitness_source=0.0, sweep_curves={}, de_trace=(1.0, 0.5),
            termination="converged", evaluations=4,
        )
    with pytest.raises(ValueError, match="termination"):
        CalibrationResult(
            calibrated=SRC, source_sizes=SRC, fitness_calibrated=1.0,
            fitness_source=0.0, sweep_curves={}, de_trace=(1.0,),
            termination="done", evaluations=4,
        )


@pytest.fixture(scope="module")
def small_shift():
    source = SyntheticDomain(AnchorSizes(2.1, 4.8, 1.8), (0.04, 0.05, 0.03),
                             clutter_rate=2000.0, seed=31)
    target = SyntheticDomain(AnchorSizes(1.6, 3.9, 1.5), (0.04, 0.05, 0.03),
                             clutter_rate=2000.0, seed=32)
    return generate_domain(source, 12), generate_domain(target, 12)


SMALL_EM = EmConfig(k=4, seed=5)
SMALL_DE = DeConfig(population=8, max_iters=25, stall_generations=8, seed=9)


def test_calibrate_smoke_and_bookkeeping(small_shift):
    ex_s, ex_t = small_shift
    res = calibrate(
        ex_s, ex_t, list(ex_s.frames()), list(ex_t.frames()),
        gate=GateConfig(tau=0.6), em_config=SMALL_EM,
        sweep_configs=default_sweep_configs(steps=9), de_config=SMALL_DE,
    )
    assert res.termination in ("converged", "max_iters")
    assert res.fitness_calibrated >= res.fitness_source
    assert res.evaluations == 3 * 9 + 8 * (1 + res.generations)
    assert set(res.sweep_curves) == {"w", "l", "h"}
    assert res.model is not None
    assert all(b >= a for a, b in zip(res.de_trace, res.de_trace[1:]))
    # moves toward the smaller target sizes on every axis
    assert res.calibrated.w < res.source_sizes.w
    assert res.calibrated.l < res.source_sizes.l


def test_calibrate_reuses_stored_curves(small_shift):
    ex_s, ex_t = small_shift
    frames_s, frames_t = list(ex_s.frames()), list(ex_t.frames())
    first = calibrate(ex_s, ex_t, frames_s, frames_t, em_config=SMALL_EM,
                      sweep_configs=default_sweep_configs(steps=9), de_config=SMALL_DE)
    second = calibrate(ex_s, ex_t, frames_s, frames_t, em_config=SMALL_EM,
                       de_config=SMALL_DE, sweep_curves=first.sweep_curves)
    # identical search outcome, minus the 27 sweep evaluations
    assert dataclasses.replace(second, evaluations=first.evaluations) == first
    assert second.evaluations == first.evaluations - 27


def test_calibrate_is_deterministic(small_shift):
    ex_s, ex_t = small_shift
    frames_s, frames_t = list(ex_s.frames()), list(ex_t.frames())
    kwargs = dict(em_config=SMALL_EM, sweep_configs=default_sweep_configs(steps=9),
                  de_config=SMALL_DE)
    a = calibrate(ex_s, ex_t, frames_s, frames_t, **kwargs)
    b = calibrate(ex_s, ex_t, frames_s, frames_t, **kwargs)
    assert a == b


def test_calibrate_rejects_mismatched_feature_dims(small_shift):
    ex_s, _ = small_shift
    other = generate_domain(
        SyntheticDomain(AnchorSizes(1.6, 3.9, 1.5), (0.04, 0.05, 0.03),
                        grid_resolution=3, seed=1), 2
    )
    with pytest.raises(DimensionMismatchError):
        calibrate(ex_s, other, list(ex_s.frames()), list(other.frames()))


def test_calibrate_full_gate_aborts_with_zero_features(small_shift):
    ex_s, ex_t = small_shift
    with pytest.raises(EmptyDatabaseError):
        calibrate(ex_s, ex_t, list(ex_s.frames()), list(ex_t.frames()),
                  gate=GateConfig(tau=1.0), em_config=SMALL_EM, de_config=SMALL_DE)


def test_target_fitness_empty_db_is_minus_inf(small_shift):
    ex_s, ex_t = small_shift
    ref_gate = GateConfig(tau=0.6)
    from anchorcal.extractor import build_reference_db
    from anchorcal.gmm import fit_em

    model = fit_em(build_reference_db(ex_s, list(ex_s.frames()), ref_gate), SMALL_EM)
    eval_fn = make_target_fitness(ex_t, list(ex_t.frames()), GateConfig(tau=1.0), model)
    assert eval_fn(SRC) == -math.inf


def test_calibrate_raises_when_calibrated_scores_below_source(small_shift, monkeypatch):
    # a search that returns worse sizes than the source must fail loudly,
    # also under python -O
    def worse_than_source(fitness_fn, init, source, config):
        return CalibrationResult(
            calibrated=init, source_sizes=source, fitness_calibrated=-1.0,
            fitness_source=0.0, sweep_curves={}, de_trace=(-1.0,),
            termination="converged", evaluations=0,
        )

    monkeypatch.setattr(optimizer, "differential_evolution", worse_than_source)
    ex_s, ex_t = small_shift
    with pytest.raises(CalibrationError, match="below the source"):
        calibrate(ex_s, ex_t, list(ex_s.frames()), list(ex_t.frames()),
                  em_config=SMALL_EM, sweep_configs=default_sweep_configs(steps=3),
                  de_config=SMALL_DE)
