"""Core value types shared by the calibration pipeline.

Anchors are oriented 3D boxes (x, y, z, w, l, h, theta). Calibration only
ever rewrites the three size fields, so the pipeline's types carry sizes
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

# Smallest admissible box side in meters. DE trials are clamped here so the
# optimizer can never hand the feature extractor a degenerate box.
SIZE_FLOOR = 0.05

FrameId = int

# A feature vector is a 1-D float array of fixed dimension D. Databases store
# them as float32 rows so the in-memory values match the on-disk format
# exactly and round-trips are lossless.
FeatureVector = np.ndarray


class EmptyDatabaseError(ValueError):
    """A stage that needs at least one feature vector received none."""


class InsufficientSamplesError(ValueError):
    """Fewer samples than mixture components."""


class DimensionMismatchError(ValueError):
    """Feature dimensions of two artifacts disagree."""


class UnknownFrameError(KeyError):
    """A frame id outside the extractor's enumeration."""


class CalibrationError(RuntimeError):
    """The optimizer could not make progress (e.g. every candidate scored -inf)."""


def normalize_yaw(theta: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return float((theta + math.pi) % (2.0 * math.pi) - math.pi)


SIZE_AXES = ("w", "l", "h")


@dataclass(frozen=True)
class AnchorSizes:
    """Width, length, height of an anchor box in meters. All positive."""

    w: float
    l: float
    h: float

    def __post_init__(self) -> None:
        for name in SIZE_AXES:
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"anchor size {name} must be finite and positive, got {v!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.l, self.h], dtype=np.float64)

    @classmethod
    def from_array(cls, arr: Iterable[float]) -> "AnchorSizes":
        w, l, h = (float(v) for v in arr)
        return cls(w, l, h)

    def axis(self, name: str) -> float:
        if name not in SIZE_AXES:
            raise ValueError(f"unknown size axis {name!r}")
        return float(getattr(self, name))

    def replace_axis(self, name: str, value: float) -> "AnchorSizes":
        if name not in SIZE_AXES:
            raise ValueError(f"unknown size axis {name!r}")
        return replace(self, **{name: float(value)})


@dataclass(frozen=True)
class ScoredProposal:
    """One detector proposal: confidence and latent feature.

    Size residuals are suppressed when features are built, so the effective
    box always has the queried anchor sizes.
    """

    score: float
    feature: FeatureVector = field(repr=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"proposal score must lie in [0, 1], got {self.score!r}")
        feat = np.asarray(self.feature, dtype=np.float32)
        if feat.ndim != 1:
            raise ValueError("proposal feature must be a 1-D vector")
        if not np.all(np.isfinite(feat)):
            raise ValueError("proposal feature must be finite")
        object.__setattr__(self, "feature", feat)

    @property
    def dim(self) -> int:
        return int(self.feature.shape[0])


class FeatureDatabase:
    """A bag of fixed-dimension feature vectors, stored as float32 rows.

    Order is preserved as built; consumers that need order independence
    (the mixture fit, the fitness) are responsible for it themselves.
    """

    __slots__ = ("_dim", "_rows")

    def __init__(self, dim: int, rows: np.ndarray | None = None) -> None:
        if dim < 1:
            raise ValueError("feature dimension must be >= 1")
        self._dim = int(dim)
        if rows is None:
            rows = np.empty((0, dim), dtype=np.float32)
        rows = np.ascontiguousarray(rows, dtype=np.float32)
        if rows.ndim != 2 or rows.shape[1] != self._dim:
            raise DimensionMismatchError(
                f"database rows have shape {rows.shape}, expected (*, {self._dim})"
            )
        if rows.size and not np.all(np.isfinite(rows)):
            raise ValueError("database entries must be finite")
        self._rows = rows

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    def __len__(self) -> int:
        return int(self._rows.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureDatabase):
            return NotImplemented
        return self._dim == other._dim and np.array_equal(self._rows, other._rows)

    def __repr__(self) -> str:
        return f"FeatureDatabase(dim={self._dim}, count={len(self)})"

    @classmethod
    def concat(cls, parts: Sequence["FeatureDatabase"]) -> "FeatureDatabase":
        if not parts:
            raise ValueError("cannot concatenate zero databases")
        dim = parts[0].dim
        for p in parts:
            if p.dim != dim:
                raise DimensionMismatchError("cannot concatenate databases of different dims")
        return cls(dim, np.concatenate([p.rows for p in parts], axis=0))
