"""End-to-end acceptance checks for the calibration toolkit.

Each test covers one stated acceptance criterion, prints a single
PASS/FAIL line with its measurements, and asserts the tolerances,
including runtime ceilings where the criterion carries one. Run with
-s to see the lines for passing tests too.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from anchorcal.cli import main
from anchorcal.core import AnchorSizes, FeatureDatabase
from anchorcal.extractor import GateConfig, build_reference_db
from anchorcal.gmm import EmConfig, Gmm, fit_em, fitness
from anchorcal.optimizer import (
    DeConfig,
    SweepConfig,
    calibrate,
    default_sweep_configs,
    differential_evolution,
    linear_sweep,
    make_target_fitness,
)
from anchorcal.synthdet import SyntheticDomain, generate_domain, mean_capture_score

AXES = ("w", "l", "h")
WAYMO_LIKE = dict(size_mean=AnchorSizes(2.1, 4.8, 1.8), size_std=(0.04, 0.05, 0.03))
KITTI_LIKE = dict(size_mean=AnchorSizes(1.6, 3.9, 1.5), size_std=(0.04, 0.05, 0.03))
TARGET_TRUE = {"w": 1.6, "l": 3.9, "h": 1.5}
GATE = GateConfig(tau=0.6)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def shift():
    """The standard cross-domain shift shared by several criteria."""
    source = generate_domain(SyntheticDomain(**WAYMO_LIKE, seed=1), 60)
    target = generate_domain(SyntheticDomain(**KITTI_LIKE, seed=2), 50)
    src_frames = list(source.frames())
    tgt_frames = list(target.frames())
    reference = build_reference_db(source, src_frames, GATE)
    model = fit_em(reference, EmConfig(k=8, seed=101))
    return source, target, src_frames, tgt_frames, reference, model


def test_01_mixture_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    weights_true = np.array([0.35, 0.65])
    means_true = np.array([[0.0, 0.0, 0.0, 0.0], [2.5, -1.5, 1.0, 3.0]])
    vars_true = np.array([[0.4, 0.6, 0.3, 0.5], [0.7, 0.4, 0.5, 0.3]])
    comp = rng.choice(2, size=2000, p=weights_true)
    samples = rng.normal(means_true[comp], np.sqrt(vars_true[comp]))
    db = FeatureDatabase(4, samples.astype(np.float32))

    model, history = fit_em(db, EmConfig(k=2, seed=0), return_history=True)
    mean_err, weight_err = min(
        (
            float(np.max(np.abs(model.means[list(perm)] - means_true))),
            float(np.max(np.abs(model.weights[list(perm)] - weights_true))),
        )
        for perm in ((0, 1), (1, 0))
    )
    monotone = all(b - a >= -1e-9 for a, b in zip(history, history[1:]))
    elapsed = time.perf_counter() - t0

    ok = mean_err <= 0.15 and weight_err <= 0.05 and monotone and elapsed < 5.0
    report(
        1, "mixture recovery", ok,
        f"mean_err={mean_err:.3f}<=0.15 weight_err={weight_err:.3f}<=0.05 "
        f"monotone={monotone} t={elapsed:.2f}s<5s",
    )


def test_02_fitness_count_invariance():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        model = Gmm(
            rng.dirichlet(np.ones(k)),
            rng.normal(0.0, 2.0, (k, d)),
            rng.uniform(0.2, 2.0, (k, d)),
        )
        rows = rng.normal(0.0, 2.0, (int(rng.integers(1, 40)), d)).astype(np.float32)
        db = FeatureDatabase(d, rows)
        tripled = FeatureDatabase.concat([db, db, db])
        worst = max(worst, abs(fitness(db, model) - fitness(tripled, model)))
    ok = worst <= 1e-12
    report(2, "fitness count invariance", ok, f"worst |diff|={worst:.2e}<=1e-12 over 100 dbs")


def test_03_optimizer_benchmarks():
    t0 = time.perf_counter()
    src = AnchorSizes(2.1, 4.8, 1.8)
    bowl_center = np.array([2.0, 4.0, 1.5])
    rast_center = np.array([1.9, 4.6, 1.7])

    def bowl(s: AnchorSizes) -> float:
        d = s.as_array() - bowl_center
        return -float(d @ d)

    def rastrigin(s: AnchorSizes) -> float:
        d = s.as_array() - rast_center
        return -float(30.0 + np.sum(d * d - 10.0 * np.cos(2.0 * math.pi * d)))

    bowl_hits = sum(
        float(np.max(np.abs(
            differential_evolution(bowl, src, src, DeConfig(seed=seed)).calibrated.as_array()
            - bowl_center
        ))) <= 1e-2
        for seed in range(5)
    )
    rast_hits = sum(
        float(np.max(np.abs(
            differential_evolution(
                rastrigin, src, src,
                DeConfig(population=32, max_iters=500, stall_tolerance=0.0, seed=seed),
            ).calibrated.as_array()
            - rast_center
        ))) <= 1e-1
        for seed in range(5)
    )
    elapsed = time.perf_counter() - t0
    ok = bowl_hits == 5 and rast_hits >= 4 and elapsed < 10.0
    report(
        3, "optimizer benchmarks", ok,
        f"bowl {bowl_hits}/5 (1e-2) rastrigin {rast_hits}/5 (1e-1, need >=4) t={elapsed:.1f}s<10s",
    )


def test_04_sweep_tracks_detection_quality(shift):
    source, target, _, tgt_frames, _, model = shift
    t0 = time.perf_counter()
    eval_fn = make_target_fitness(target, tgt_frames, GATE, model)
    src_sizes = source.source_sizes
    _, curves = linear_sweep(eval_fn, src_sizes, default_sweep_configs())

    details = []
    ok = True
    for axis in AXES:
        values = [v for v, _ in curves[axis]]
        fits = [f for _, f in curves[axis]]
        captures = [
            mean_capture_score(target, tgt_frames, src_sizes.replace_axis(axis, v))
            for v in values
        ]
        rho = float(spearmanr(fits, captures).statistic)
        argmax = values[int(np.argmax(fits))]
        step = values[1] - values[0]
        dist = abs(argmax - TARGET_TRUE[axis])
        ok = ok and dist <= step * (1.0 + 1e-9) and rho >= 0.8
        details.append(f"{axis}: |argmax-true|={dist:.3f}<=step {step:.3f}, rho={rho:.3f}>=0.8")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(4, "sweep tracks detection quality", ok, "; ".join(details) + f"; t={elapsed:.1f}s<60s")


def test_05_end_to_end_recovery(shift):
    source, target, src_frames, tgt_frames, _, _ = shift
    t0 = time.perf_counter()
    result = calibrate(
        source, target, src_frames, tgt_frames,
        gate=GATE,
        em_config=EmConfig(k=8, seed=101),
        de_config=DeConfig(population=16, max_iters=60, stall_generations=12, seed=202),
    )
    cal = result.calibrated
    rel = {a: abs(cal.axis(a) / TARGET_TRUE[a] - 1.0) for a in AXES}

    oracle_fn = make_target_fitness(target, tgt_frames, GATE, result.model)
    oracle_best = max(
        oracle_fn(AnchorSizes(w, l, h))
        for w in np.linspace(2.1 * 0.5, 2.1 * 1.5, 15)
        for l in np.linspace(4.8 * 0.5, 4.8 * 1.5, 15)
        for h in np.linspace(1.8 * 0.5, 1.8 * 1.5, 15)
    )
    elapsed = time.perf_counter() - t0

    ok = (
        max(rel.values()) <= 0.08
        and result.fitness_calibrated >= oracle_best - 0.05
        and result.fitness_calibrated >= result.fitness_source
        and elapsed < 300.0
    )
    report(
        5, "end-to-end recovery", ok,
        f"cal=({cal.w:.3f},{cal.l:.3f},{cal.h:.3f}) max rel err={max(rel.values()):.3f}<=0.08 "
        f"fitness {result.fitness_calibrated:.3f} vs oracle {oracle_best:.3f} (slack 0.05) "
        f"vs source {result.fitness_source:.3f}; t={elapsed:.0f}s<300s",
    )


def test_06_intra_domain_stability():
    results = []
    ok = True
    for seed in (11, 12, 13):
        domain = generate_domain(SyntheticDomain(**WAYMO_LIKE, seed=seed), 30)
        frames = list(domain.frames())
        res = calibrate(
            domain, domain, frames, frames,
            gate=GATE,
            em_config=EmConfig(k=8, seed=101 + seed),
            de_config=DeConfig(population=12, max_iters=40, stall_generations=10, seed=202 + seed),
        )
        src = domain.source_sizes
        worst = max(abs(res.calibrated.axis(a) / src.axis(a) - 1.0) for a in AXES)
        ok = ok and worst <= 0.05
        results.append(f"seed {seed}: {worst:.3f}")
    report(6, "intra-domain stability", ok, "max rel shift<=0.05: " + ", ".join(results))


def test_07_component_count_insensitivity(shift):
    # a K=16 diagonal mixture in 64-D needs a well-fed reference database, so
    # this criterion observes the same source domain over 500 frames and runs
    # the optimizer to convergence; insensitivity is then purely about K
    _, target, _, tgt_frames, _, _ = shift
    source = generate_domain(SyntheticDomain(**WAYMO_LIKE, seed=1), 500)
    src_frames = list(source.frames())
    reference = build_reference_db(source, src_frames, GATE)
    calibrated = {}
    for k in (4, 8, 16):
        model = fit_em(reference, EmConfig(k=k, seed=101))
        calibrated[k] = calibrate(
            source, target, src_frames, tgt_frames,
            gate=GATE, model=model,
            de_config=DeConfig(
                population=16, max_iters=100,
                stall_tolerance=1e-7, stall_generations=20, seed=202,
            ),
        ).calibrated
    pairs = [(4, 8), (4, 16), (8, 16)]
    diffs = {
        p: max(abs(calibrated[p[0]].axis(a) / calibrated[p[1]].axis(a) - 1.0) for a in AXES)
        for p in pairs
    }
    ok = all(d <= 0.02 for d in diffs.values())
    report(
        7, "component count insensitivity", ok,
        f"reference={len(reference)} pairwise max rel diff<=0.02: "
        + ", ".join(f"k{a}/k{b}={d:.4f}" for (a, b), d in diffs.items()),
    )


def test_08_reference_size_ablation():
    source = generate_domain(
        SyntheticDomain(**WAYMO_LIKE, seed=7, clutter_rate=2000.0), 1350
    )
    src_frames = list(source.frames())
    target = generate_domain(SyntheticDomain(**KITTI_LIKE, seed=8), 25)
    tgt_frames = list(target.frames())
    sweep_configs = tuple(SweepConfig(a, 0.5, 9) for a in AXES)

    errors = []
    for n in (50, 200, 1000, 5000):
        db = build_reference_db(source, src_frames, GateConfig(tau=0.6, max_features=n))
        assert len(db) == n
        model = fit_em(db, EmConfig(k=8, seed=101))
        res = calibrate(
            source, target, src_frames, tgt_frames,
            gate=GATE, model=model, sweep_configs=sweep_configs,
            de_config=DeConfig(population=8, max_iters=40, stall_generations=10, seed=202),
        )
        err = float(np.mean([abs(res.calibrated.axis(a) / TARGET_TRUE[a] - 1.0) for a in AXES]))
        errors.append((n, err))

    # noise allowance: one sweep grid step, expressed relative to the true sizes
    slack = float(np.mean([2.1 / 8 / 1.6, 4.8 / 8 / 3.9, 1.8 / 8 / 1.5]))
    ok = all(e2 <= e1 + slack for (_, e1), (_, e2) in zip(errors, errors[1:]))
    report(
        8, "reference size ablation", ok,
        "mean rel err by db size: "
        + ", ".join(f"{n}:{e:.4f}" for n, e in errors)
        + f" (slack {slack:.3f})",
    )


def test_09_byte_determinism(tmp_path):
    base = {
        "seed": 3,
        "source": {
            "size_mean": [2.1, 4.8, 1.8],
            "size_std": [0.04, 0.05, 0.03],
            "clutter_rate": 800.0,
            "n_frames": 6,
        },
        "target": {
            "size_mean": [1.6, 3.9, 1.5],
            "size_std": [0.04, 0.05, 0.03],
            "clutter_rate": 800.0,
            "n_frames": 5,
        },
        "em": {"k": 2},
        "sweep": {"steps": 5},
        "de": {"population": 4, "max_iters": 6, "stall_generations": 3},
    }

    def run_chain(name: str) -> dict[str, str]:
        out = tmp_path / name
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({**base, "out_dir": str(out)}))
        for command in ("gen", "calibrate", "report"):
            code = main([command, "--config", str(cfg_path)])
            assert code == 0, f"{command} exited {code}"
        return {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    first = run_chain("a")
    rerun = run_chain("b")
    ok = first == rerun and len(first) >= 8
    report(9, "byte determinism", ok, f"{len(first)} files identical across rerun")
