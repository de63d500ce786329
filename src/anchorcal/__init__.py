"""Unsupervised anchor-size calibration against a frozen detector.

The pipeline: collect confidence-gated proposal features from the source
domain under the detector's own anchors, fit a Gaussian mixture to them,
then search target-domain anchor sizes whose gated features score the
highest average log-likelihood under that source model. A per-axis linear
sweep seeds a joint differential-evolution search over (w, l, h).
"""

from .core import (
    SIZE_AXES,
    SIZE_FLOOR,
    AnchorSizes,
    CalibrationError,
    DimensionMismatchError,
    EmptyDatabaseError,
    FeatureDatabase,
    InsufficientSamplesError,
    ScoredProposal,
    UnknownFrameError,
    normalize_yaw,
)
from .extractor import (
    FeatureExtractor,
    GateConfig,
    build_reference_db,
    build_target_db,
)
from .gmm import EmConfig, Gmm, fit_em, fitness, log_pdf_batch
from .optimizer import (
    CalibrationResult,
    DeConfig,
    SweepConfig,
    calibrate,
    default_sweep_configs,
    differential_evolution,
    linear_sweep,
    make_target_fitness,
)
from .synthdet import (
    SyntheticDomain,
    SyntheticExtractor,
    generate_domain,
    mean_capture_score,
    occupancy_feature,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorSizes",
    "CalibrationError",
    "CalibrationResult",
    "DeConfig",
    "DimensionMismatchError",
    "EmConfig",
    "EmptyDatabaseError",
    "FeatureDatabase",
    "FeatureExtractor",
    "GateConfig",
    "Gmm",
    "InsufficientSamplesError",
    "SIZE_AXES",
    "SIZE_FLOOR",
    "ScoredProposal",
    "SweepConfig",
    "SyntheticDomain",
    "SyntheticExtractor",
    "UnknownFrameError",
    "build_reference_db",
    "build_target_db",
    "calibrate",
    "default_sweep_configs",
    "differential_evolution",
    "fit_em",
    "fitness",
    "generate_domain",
    "linear_sweep",
    "log_pdf_batch",
    "make_target_fitness",
    "mean_capture_score",
    "normalize_yaw",
    "occupancy_feature",
    "__version__",
]
