"""Output checks made apart from the program.

Fitness is recomputed from features gathered through the base-class
`FeatureExtractor.gated_features` (the reference path that gates
`propose()` frame by frame, not the batched kernel the program runs), and
the mixture log-likelihood comes from `scipy.stats.norm.logpdf` and
`scipy.special.logsumexp`, not from `anchorcal.gmm`. The remaining checks
are properties the method must have. Each check returns a list of failure
messages; an empty list means it passed.
"""

from __future__ import annotations

import json
import re

import numpy as np
from scipy.special import logsumexp
from scipy.stats import norm

# The program averages float64 log densities with math.fsum; the reference
# below sums per-dimension logpdf terms in another order, so the last bits may
# differ. 1e-9 leaves room for that without letting a wrong feature through.
FITNESS_REL_TOL = 1e-9
# Acceptance criterion 5's tolerance on each calibrated axis.
AXIS_REL_TOL = 0.08
WEIGHT_SUM_TOL = 1e-9
# report.txt prints 4 decimals.
REPORT_ABS_TOL = 5e-5 + 1e-9

AXES = ("w", "l", "h")


def reference_features(extractor, sizes, tau: float) -> np.ndarray:
    """Gated features through the base-class propose() path."""
    from anchorcal.extractor import FeatureExtractor

    return FeatureExtractor.gated_features(extractor, list(extractor.frames()), sizes, tau)


def reference_fitness(rows: np.ndarray, model: dict) -> float:
    """Mean mixture log-likelihood of rows under a diagonal GMM."""
    if len(rows) == 0:
        return float("-inf")
    x = np.asarray(rows, dtype=np.float64)[:, None, :]
    means = np.asarray(model["means"], dtype=np.float64)[None]
    scale = np.sqrt(np.asarray(model["variances"], dtype=np.float64))[None]
    per_component = norm.logpdf(x, loc=means, scale=scale).sum(axis=2)
    per_component += np.log(np.asarray(model["weights"], dtype=np.float64))[None]
    return float(np.mean(logsumexp(per_component, axis=1)))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FITNESS_REL_TOL * max(abs(a), abs(b))


def check_recomputed_fitness(result: dict, recomputed: dict) -> list[str]:
    failures = []
    for key in ("fitness_source", "fitness_calibrated"):
        if not _close(float(result[key]), recomputed[key]):
            failures.append(f"{key}: recorded {result[key]!r}, recomputed {recomputed[key]!r}")
    return failures


def check_improves(result: dict) -> list[str]:
    if float(result["fitness_calibrated"]) >= float(result["fitness_source"]):
        return []
    return [
        f"fitness_calibrated {result['fitness_calibrated']!r} < "
        f"fitness_source {result['fitness_source']!r}"
    ]


def check_trace_monotone(result: dict) -> list[str]:
    trace = [float(v) for v in result["de_trace"]]
    drops = [g for g in range(1, len(trace)) if trace[g] < trace[g - 1]]
    return [f"de_trace decreases at generation {g}" for g in drops[:3]]


def check_evaluations(result: dict, population: int, curves_reused: bool) -> list[str]:
    generations = len(result["de_trace"]) - 1
    swept = 0 if curves_reused else sum(len(c) for c in result["sweep_curves"].values())
    expected = swept + population * (1 + generations)
    if result["evaluations"] == expected:
        return []
    return [
        f"evaluations {result['evaluations']} != {swept} sweep points + "
        f"{population} x (1 + {generations})"
    ]


def check_weights(model: dict) -> list[str]:
    total = float(np.sum(np.asarray(model["weights"], dtype=np.float64)))
    if abs(total - 1.0) <= WEIGHT_SUM_TOL:
        return []
    return [f"EM weights sum to {total!r}"]


def check_axes(result: dict, target_mean) -> list[str]:
    failures = []
    for axis, truth in zip(AXES, target_mean):
        err = abs(float(result["calibrated"][axis]) / truth - 1.0)
        if err > AXIS_REL_TOL:
            failures.append(f"calibrated {axis} is {err:.1%} from the target mean {truth}")
    return failures


def check_report(report: str, result: dict) -> list[str]:
    """report.txt states the sizes, fitness, termination and counts of result.json."""
    number = r"(-?\d+(?:\.\d+)?)"
    expected = {
        rf"calibrated sizes\s+w={number}\s+l={number}\s+h={number}": [
            result["calibrated"][a] for a in AXES
        ],
        rf"source sizes\s+w={number}\s+l={number}\s+h={number}": [
            result["source_sizes"][a] for a in AXES
        ],
        rf"fitness\s+{number} -> {number}": [
            result["fitness_source"], result["fitness_calibrated"]
        ],
    }
    failures = []
    for pattern, values in expected.items():
        match = re.search(pattern, report)
        if match is None:
            failures.append(f"report.txt has no line matching {pattern!r}")
            continue
        for got, want in zip(match.groups(), values):
            if abs(float(got) - float(want)) > REPORT_ABS_TOL:
                failures.append(f"report.txt shows {got} where result.json has {want!r}")
    match = re.search(r"termination\s+(\w+) after (\d+) generations, (\d+) evaluations", report)
    want = (result["termination"], len(result["de_trace"]) - 1, result["evaluations"])
    if match is None or (match.group(1), int(match.group(2)), int(match.group(3))) != want:
        failures.append(f"report.txt termination line does not state {want}")
    return failures


def check_same_bytes(first: bytes, second: bytes, what: str) -> list[str]:
    return [] if first == second else [f"{what}: the two files differ"]


def check_reference_db(stored_rows: np.ndarray, fresh_rows: np.ndarray) -> list[str]:
    if stored_rows.shape == fresh_rows.shape and np.array_equal(stored_rows, fresh_rows):
        return []
    return [
        f"reference.sfdb ({stored_rows.shape}) differs from a fresh build_reference_db "
        f"({fresh_rows.shape})"
    ]


def check_calibration(
    result_bytes: bytes,
    model: dict,
    recomputed: dict,
    population: int,
    curves_reused: bool,
    target_mean=None,
) -> list[str]:
    """Every check on one calibrate call's result.json; target_mean enables
    the 8 % accuracy check."""
    result = json.loads(result_bytes)
    failures = (
        check_recomputed_fitness(result, recomputed)
        + check_improves(result)
        + check_trace_monotone(result)
        + check_evaluations(result, population, curves_reused)
        + check_weights(model)
    )
    if target_mean is not None:
        failures += check_axes(result, target_mean)
    return failures
