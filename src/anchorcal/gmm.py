"""Diagonal-covariance Gaussian mixtures over detector features.

Density of a K-component mixture with diagonal covariances:

    p(x) = sum_k  w_k * N(x | mu_k, diag(var_k))
    log N(x | mu, var) = -0.5 * (D*log(2*pi) + sum_j log var_j
                                 + sum_j (x_j - mu_j)^2 / var_j)

Everything is evaluated in log space with logsumexp so candidate databases
far from the reference distribution still produce finite fitness values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EmptyDatabaseError,
    DimensionMismatchError,
    FeatureDatabase,
    InsufficientSamplesError,
)

_LOG_2PI = math.log(2.0 * math.pi)

# Subsample cap for seeding; full data is still used for the EM iterations.
_SEED_SUBSAMPLE = 4096

# EM stops after MAX_ITERS iterations, or once the average log likelihood
# gains at most LL_TOLERANCE relative to its magnitude; no variance falls
# below VARIANCE_FLOOR.
MAX_ITERS = 200
LL_TOLERANCE = 1e-6
VARIANCE_FLOOR = 1e-6


@dataclass(frozen=True)
class EmConfig:
    """Settings for the expectation-maximization fit."""

    k: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")


class Gmm:
    """A fitted mixture: weights (K,), means (K, D), variances (K, D)."""

    __slots__ = ("weights", "means", "variances")

    def __init__(self, weights: np.ndarray, means: np.ndarray, variances: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        means = np.asarray(means, dtype=np.float64)
        variances = np.asarray(variances, dtype=np.float64)
        if weights.ndim != 1 or weights.shape[0] < 1:
            raise ValueError("weights must be a non-empty 1-D array")
        k = weights.shape[0]
        if means.ndim != 2 or means.shape[0] != k or means.shape[1] < 1:
            raise ValueError("means must have shape (k, d)")
        if variances.shape != means.shape:
            raise ValueError("variances must match the shape of means")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0) or np.any(weights > 1.0):
            raise ValueError("weights must be finite and lie in (0, 1]")
        if abs(float(weights.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1 within 1e-9")
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        if not np.all(np.isfinite(variances)) or np.any(variances <= 0.0):
            raise ValueError("variances must be finite and positive")
        self.weights = weights
        self.means = means
        self.variances = variances

    @property
    def k(self) -> int:
        return int(self.weights.shape[0])

    @property
    def dim(self) -> int:
        return int(self.means.shape[1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gmm):
            return NotImplemented
        return (
            np.array_equal(self.weights, other.weights)
            and np.array_equal(self.means, other.means)
            and np.array_equal(self.variances, other.variances)
        )

    def __repr__(self) -> str:
        return f"Gmm(k={self.k}, dim={self.dim})"


def _component_log_pdf(model: Gmm, x: np.ndarray) -> np.ndarray:
    """Per-component weighted log densities for rows of x, shape (n, k).

    One component at a time, with (n, d) temporaries: the same elementwise
    operations and last-axis sums as broadcasting over an (n, k, d) tensor,
    so the same bits."""
    maha = np.empty((x.shape[0], model.k))
    d = np.empty_like(x)
    for k in range(model.k):
        np.subtract(x, model.means[k], out=d)
        d *= d
        d /= model.variances[k]
        d.sum(axis=1, out=maha[:, k])
    log_det = np.sum(np.log(model.variances), axis=1)
    log_norm = -0.5 * (model.dim * _LOG_2PI + log_det)
    return np.log(model.weights)[None, :] + log_norm[None, :] - 0.5 * maha


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of an (n, k) array, computed as
    scipy.special.logsumexp 1.17 does, so results match it bit for bit: the
    row max and its ties come out of the sum, which is divided by the tie count."""
    a_max = a.max(axis=1, keepdims=True)
    at_max = a == a_max
    m = at_max.sum(axis=1, keepdims=True, dtype=a.dtype)
    with np.errstate(invalid="ignore"):  # rows whose max is infinite
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max)[:, 0]
    bad = ~np.isfinite(out)
    if bad.any():
        with np.errstate(divide="ignore", over="ignore"):
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


def log_pdf_batch(model: Gmm, x: np.ndarray) -> np.ndarray:
    """Mixture log densities for an (n, d) array of points, shape (n,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected an (n, d) array")
    if x.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"points have dimension {x.shape[1]}, model expects {model.dim}"
        )
    if x.size and not np.all(np.isfinite(x)):
        raise ValueError("points must be finite")
    if x.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    return _logsumexp_rows(_component_log_pdf(model, x))


def fitness(db: FeatureDatabase, model: Gmm) -> float:
    """Average mixture log likelihood per database sample.

    The per-sample average makes the value invariant to duplicating the
    database. Summation uses math.fsum so the result does not depend on
    row order.
    """
    if len(db) == 0:
        raise EmptyDatabaseError("fitness is undefined for an empty database")
    if db.dim != model.dim:
        raise DimensionMismatchError(
            f"database dimension {db.dim} does not match model dimension {model.dim}"
        )
    ll = log_pdf_batch(model, db.rows.astype(np.float64))
    return math.fsum(ll.tolist()) / len(db)


def _canonical_order(x: np.ndarray) -> np.ndarray:
    """Rows sorted lexicographically so the fit ignores input order."""
    order = np.lexsort(x.T[::-1])
    return x[order]


def _seed_means(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ style seeding on a subsample.

    The first center is drawn uniformly, later ones proportionally to the
    squared distance from the nearest chosen center. Degenerate all-zero
    distance mass falls back to the lowest index.
    """
    n = x.shape[0]
    m = min(n, _SEED_SUBSAMPLE)
    if m < n:
        idx = rng.choice(n, size=m, replace=False)
        idx.sort()
        sub = x[idx]
    else:
        sub = x
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    first = int(rng.integers(m))
    centers[0] = sub[first]
    d2 = np.sum((sub - centers[0]) ** 2, axis=1)
    for t in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            pick = 0
        else:
            pick = int(rng.choice(m, p=d2 / total))
        centers[t] = sub[pick]
        d2 = np.minimum(d2, np.sum((sub - centers[t]) ** 2, axis=1))
    return centers


def fit_em(
    db: FeatureDatabase, config: EmConfig, return_history: bool = False
) -> Gmm | tuple[Gmm, list[float]]:
    """Fit a diagonal GMM to the database by EM.

    Deterministic given config.seed. The data is put into a canonical
    (lexicographically sorted) order first, so permuting the database does
    not change the result. The history holds the average log likelihood
    before each iteration and of the final model.
    """
    if len(db) == 0:
        raise EmptyDatabaseError("cannot fit a mixture to an empty database")
    if len(db) < config.k:
        raise InsufficientSamplesError(
            f"{len(db)} samples cannot support k={config.k} components"
        )
    x = _canonical_order(db.rows.astype(np.float64))
    k = config.k

    means = _seed_means(x, k, np.random.default_rng(config.seed))
    var0 = np.maximum(x.var(axis=0), VARIANCE_FLOOR)
    variances = np.tile(var0, (k, 1))
    weights = np.full(k, 1.0 / k)

    history: list[float] = []
    prev_ll = -np.inf
    for _ in range(MAX_ITERS):
        model = Gmm(weights, means, variances)
        log_comp = _component_log_pdf(model, x)
        row_ll = _logsumexp_rows(log_comp)
        avg_ll = float(row_ll.mean())
        history.append(avg_ll)

        if avg_ll - prev_ll <= LL_TOLERANCE * max(1.0, abs(prev_ll)) and math.isfinite(prev_ll):
            break
        prev_ll = avg_ll

        resp = np.exp(log_comp - row_ll[:, None])
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        weights = nk / nk.sum()
        means = (resp.T @ x) / nk[:, None]
        diff = x[:, None, :] - means[None, :, :]
        variances = np.einsum("nk,nkd->kd", resp, diff * diff) / nk[:, None]
        variances = np.maximum(variances, VARIANCE_FLOOR)

    model = Gmm(weights, means, variances)
    if return_history:
        history.append(float(_logsumexp_rows(_component_log_pdf(model, x)).mean()))
        return model, history
    return model
