"""Feature extraction boundary and gated database builders.

Any detector backend plugs in by subclassing FeatureExtractor: it exposes
its feature dimension, the anchor sizes it was configured with, a frame
enumeration, and a propose() that returns scored proposals for one frame
under the queried anchor sizes. Databases are the score-gated collection of
proposal features over a set of frames, gathered through gated_features(),
which a backend may override with a batched implementation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import AnchorSizes, EmptyDatabaseError, FeatureDatabase, FrameId, ScoredProposal


@dataclass(frozen=True)
class GateConfig:
    """Confidence gate applied while collecting features.

    tau: proposals enter the database only when score > tau (strict).
    max_features: optional cap, applied after a deterministic frame order.
    """

    tau: float = 0.6
    max_features: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.tau <= 1.0):
            raise ValueError(f"tau must lie in [0, 1], got {self.tau!r}")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError("max_features must be >= 1 when given")


class FeatureExtractor(ABC):
    """A frozen detector bound to one domain's frames."""

    @property
    @abstractmethod
    def feature_dim(self) -> int:
        """Dimension D of every proposal feature."""

    @property
    @abstractmethod
    def source_sizes(self) -> AnchorSizes:
        """The anchor sizes the detector was configured (trained) with."""

    @abstractmethod
    def frames(self) -> Sequence[FrameId]:
        """Deterministic enumeration of the domain's frames."""

    @abstractmethod
    def propose(self, frame: FrameId, sizes: AnchorSizes) -> list[ScoredProposal]:
        """Scored proposals for one frame under the given anchor sizes.

        Must be pure: identical (frame, sizes) inputs yield identical
        proposals. Size residuals are suppressed, so every effective box
        has the queried sizes.
        """

    def gated_features(
        self, frames: Sequence[FrameId], sizes: AnchorSizes, tau: float
    ) -> np.ndarray:
        """Features of the proposals scoring above tau, as (n, D) float32 rows.

        Rows follow the given frame order, then each frame's proposal order.
        This default gates propose(); backends may override it with a
        batched equivalent, which must return the same rows bit for bit.
        """
        rows = [
            p.feature for f in frames for p in self.propose(f, sizes) if p.score > tau
        ]
        if not rows:
            return np.empty((0, self.feature_dim), dtype=np.float32)
        return np.stack(rows).astype(np.float32, copy=False)


def _collect(
    extractor: FeatureExtractor,
    frames: Sequence[FrameId],
    sizes: AnchorSizes,
    gate: GateConfig,
) -> FeatureDatabase:
    rows = extractor.gated_features(frames, sizes, gate.tau)
    if gate.max_features is not None:
        rows = rows[: gate.max_features]
    return FeatureDatabase(extractor.feature_dim, rows)


def build_reference_db(
    extractor: FeatureExtractor,
    frames: Sequence[FrameId],
    gate: GateConfig,
) -> FeatureDatabase:
    """Gated feature database under the extractor's own source anchors.

    Raises EmptyDatabaseError when nothing passes the gate, so the caller
    can lower tau instead of silently fitting a model to nothing.
    """
    db = _collect(extractor, frames, extractor.source_sizes, gate)
    if len(db) == 0:
        raise EmptyDatabaseError(
            f"no proposal passed the gate (tau={gate.tau}) over {len(list(frames))} frames"
        )
    return db


def build_target_db(
    extractor: FeatureExtractor,
    frames: Sequence[FrameId],
    sizes: AnchorSizes,
    gate: GateConfig,
) -> FeatureDatabase:
    """Gated feature database under candidate anchor sizes.

    May be empty; an empty database marks a candidate that captured nothing,
    which the optimizer treats as worst possible fitness.
    """
    return _collect(extractor, frames, sizes, gate)
