"""On-disk formats: feature databases, models, results, curves, domains.

Feature databases use a fixed-width binary layout (magic "SFDB", version,
dimension, count, then float32 little-endian rows) so multi-thousand-vector
collections stay compact and language-portable. Models and calibration
results are JSON with full-precision floats. Sweep curves and DE traces are
header-row CSV, directly plottable. Synthetic domains cache as a manifest
plus one binary frame file; every writer here is byte-deterministic given
identical inputs, which is what makes re-run hashing a meaningful check.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import struct
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import AnchorSizes, FeatureDatabase
from .gmm import Gmm
from .optimizer import CalibrationResult, Curve
from .synthdet import SyntheticDomain, SyntheticExtractor, SyntheticFrame, SyntheticObject

SFDB_MAGIC = b"SFDB"
SFDB_VERSION = 1
_SFDB_HEADER = struct.Struct("<4sIIQ")

DOMAIN_MAGIC = b"ACDF"
DOMAIN_VERSION = 1
_DOMAIN_HEADER = struct.Struct("<4sIQ")
_FRAME_HEADER = struct.Struct("<IQ")
_OBJECT_HEADER = struct.Struct("<14dQ")

MANIFEST_NAME = "manifest.json"
FRAMES_NAME = "frames.bin"


class FormatError(ValueError):
    """A file does not parse as the format its reader expects."""


def save_feature_db(db: FeatureDatabase, path: str | Path) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_SFDB_HEADER.pack(SFDB_MAGIC, SFDB_VERSION, db.dim, len(db)))
        fh.write(np.ascontiguousarray(db.rows, dtype="<f4").tobytes())


def load_feature_db(path: str | Path) -> FeatureDatabase:
    data = Path(path).read_bytes()
    if len(data) < _SFDB_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, dim, count = _SFDB_HEADER.unpack_from(data)
    if magic != SFDB_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != SFDB_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = _SFDB_HEADER.size + count * dim * 4
    if len(data) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(data)}")
    rows = np.frombuffer(data, dtype="<f4", offset=_SFDB_HEADER.size).reshape(count, dim)
    try:
        return FeatureDatabase(dim, rows.astype(np.float32))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _dump_json(payload: object, path: Path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


def _load_json(path: str | Path) -> object:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_gmm(model: Gmm, path: str | Path) -> None:
    _dump_json(
        {
            "weights": model.weights.tolist(),
            "means": model.means.tolist(),
            "variances": model.variances.tolist(),
        },
        Path(path),
    )


def load_gmm(path: str | Path) -> Gmm:
    raw = _load_json(path)
    if not isinstance(raw, dict) or not {"weights", "means", "variances"} <= raw.keys():
        raise FormatError(f"{path}: not a mixture file")
    try:
        return Gmm(np.array(raw["weights"]), np.array(raw["means"]), np.array(raw["variances"]))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _encode_float(value: float) -> float | str:
    return value if math.isfinite(value) else repr(value)


def _sizes_to_json(sizes: AnchorSizes) -> dict[str, float]:
    return {"w": sizes.w, "l": sizes.l, "h": sizes.h}


def _sizes_from_json(raw: Mapping[str, float]) -> AnchorSizes:
    return AnchorSizes(float(raw["w"]), float(raw["l"]), float(raw["h"]))


def save_result(result: CalibrationResult, path: str | Path) -> None:
    payload = {
        "calibrated": _sizes_to_json(result.calibrated),
        "source_sizes": _sizes_to_json(result.source_sizes),
        "fitness_calibrated": _encode_float(result.fitness_calibrated),
        "fitness_source": _encode_float(result.fitness_source),
        "sweep_curves": {
            axis: [[v, _encode_float(f)] for v, f in curve]
            for axis, curve in result.sweep_curves.items()
        },
        "de_trace": [_encode_float(v) for v in result.de_trace],
        "termination": result.termination,
        "evaluations": result.evaluations,
    }
    _dump_json(payload, Path(path))


def load_result(path: str | Path) -> CalibrationResult:
    raw = _load_json(path)
    if not isinstance(raw, dict) or "calibrated" not in raw:
        raise FormatError(f"{path}: not a calibration result file")
    try:  # float() also reads the "inf"/"-inf"/"nan" strings _encode_float writes
        return CalibrationResult(
            calibrated=_sizes_from_json(raw["calibrated"]),
            source_sizes=_sizes_from_json(raw["source_sizes"]),
            fitness_calibrated=float(raw["fitness_calibrated"]),
            fitness_source=float(raw["fitness_source"]),
            sweep_curves={
                axis: tuple((float(v), float(f)) for v, f in curve)
                for axis, curve in raw["sweep_curves"].items()
            },
            de_trace=tuple(float(v) for v in raw["de_trace"]),
            termination=str(raw["termination"]),
            evaluations=int(raw["evaluations"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_curve(curve: Sequence[tuple[float, float]], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["value", "fitness"])
        for value, fit in curve:
            writer.writerow([repr(float(value)), repr(float(fit))])


def load_curve(path: str | Path) -> Curve:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["value", "fitness"]:
            raise FormatError(f"{path}: expected a value,fitness header, got {header!r}")
        try:
            return tuple((float(v), float(f)) for v, f in reader)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc


def save_trace(trace: Sequence[float], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["generation", "best_fitness"])
        for gen, fit in enumerate(trace):
            writer.writerow([gen, repr(float(fit))])


def load_trace(path: str | Path) -> tuple[float, ...]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["generation", "best_fitness"]:
            raise FormatError(f"{path}: expected a generation,best_fitness header")
        try:
            return tuple(float(fit) for _, fit in reader)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc


def _pack_frame(frame: SyntheticFrame) -> bytes:
    chunks = [_FRAME_HEADER.pack(len(frame.objects), frame.clutter.shape[0])]
    for obj in frame.objects:
        chunks.append(
            _OBJECT_HEADER.pack(
                *obj.center, *obj.size, obj.yaw,
                *obj.est_center, *obj.est_size, obj.est_yaw,
                obj.n_points,
            )
        )
        chunks.append(np.ascontiguousarray(obj.points, dtype="<f8").tobytes())
    chunks.append(np.ascontiguousarray(frame.clutter, dtype="<f8").tobytes())
    return b"".join(chunks)


class _FrameReader:
    """Reads a frames file one frame at a time, checking each read against
    the bytes left, so a cut or corrupt file raises FormatError before any
    buffer is sized from a bad count."""

    def __init__(self, fh, directory: Path) -> None:
        self._fh = fh
        self._directory = directory
        self.left = os.fstat(fh.fileno()).st_size

    def read(self, n: int) -> bytes:
        data = self._fh.read(n) if n <= self.left else b""
        if len(data) != n:
            raise FormatError(f"{self._directory}: truncated frames file")
        self.left -= n
        return data

    def unpack(self, layout: struct.Struct) -> tuple:
        return layout.unpack(self.read(layout.size))

    def points(self, n: int) -> np.ndarray:
        return np.frombuffer(self.read(n * 24), dtype="<f8").reshape(n, 3)

    def frame(self) -> SyntheticFrame:
        n_objects, n_clutter = self.unpack(_FRAME_HEADER)
        objects = []
        for _ in range(n_objects):
            fields = self.unpack(_OBJECT_HEADER)
            objects.append(
                SyntheticObject(
                    center=np.array(fields[0:3]),
                    size=np.array(fields[3:6]),
                    yaw=fields[6],
                    est_center=np.array(fields[7:10]),
                    est_size=np.array(fields[10:13]),
                    est_yaw=fields[13],
                    points=self.points(fields[14]),
                )
            )
        # SyntheticFrame copies the read buffers into one points array
        return SyntheticFrame(tuple(objects), self.points(n_clutter))


def save_domain(extractor: SyntheticExtractor, directory: str | Path) -> None:
    """Cache a generated domain: manifest.json plus one frames binary."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    spec = extractor.domain
    frames = [extractor.frame_data(f) for f in extractor.frames()]
    spec_json = {f.name: getattr(spec, f.name) for f in dataclasses.fields(SyntheticDomain)}
    spec_json["size_mean"] = _sizes_to_json(spec.size_mean)
    manifest = {
        "format_version": DOMAIN_VERSION,
        "frames_file": FRAMES_NAME,
        "n_frames": len(frames),
        "spec": spec_json,
    }
    _dump_json(manifest, directory / MANIFEST_NAME)
    with open(directory / FRAMES_NAME, "wb") as fh:
        fh.write(_DOMAIN_HEADER.pack(DOMAIN_MAGIC, DOMAIN_VERSION, len(frames)))
        for frame in frames:
            fh.write(_pack_frame(frame))


def domain_spec_from_json(raw: Mapping[str, object]) -> SyntheticDomain:
    """Build a domain description from a manifest/config mapping."""
    fields = dict(raw)
    size_mean = fields.pop("size_mean")
    if isinstance(size_mean, Mapping):
        mean = _sizes_from_json(size_mean)
    else:
        mean = AnchorSizes(*(float(v) for v in size_mean))
    std = tuple(float(v) for v in fields.pop("size_std"))
    unknown = set(fields) - {f.name for f in dataclasses.fields(SyntheticDomain)}
    if unknown:
        raise ValueError(f"unknown domain fields: {sorted(unknown)}")
    if "frame_extent" in fields:
        fields["frame_extent"] = tuple(float(v) for v in fields["frame_extent"])
    return SyntheticDomain(mean, std, **fields)


def _load_manifest(directory: Path) -> tuple[dict, SyntheticDomain]:
    manifest = _load_json(directory / MANIFEST_NAME)
    if not isinstance(manifest, dict) or "spec" not in manifest:
        raise FormatError(f"{directory}: manifest has no domain spec")
    if manifest.get("format_version") != DOMAIN_VERSION:
        raise FormatError(f"{directory}: unsupported cache version")
    try:
        return manifest, domain_spec_from_json(manifest["spec"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{directory}: bad domain spec: {exc!r}") from exc


def load_domain_spec(directory: str | Path) -> SyntheticDomain:
    """The domain description of a cached domain, from its manifest alone."""
    return _load_manifest(Path(directory))[1]


def load_domain(directory: str | Path) -> SyntheticExtractor:
    directory = Path(directory)
    manifest, spec = _load_manifest(directory)
    with open(directory / manifest.get("frames_file", FRAMES_NAME), "rb") as fh:
        reader = _FrameReader(fh, directory)
        magic, version, n_frames = reader.unpack(_DOMAIN_HEADER)
        if magic != DOMAIN_MAGIC or version != DOMAIN_VERSION:
            raise FormatError(f"{directory}: bad frames file header")
        if n_frames != manifest.get("n_frames"):
            raise FormatError(f"{directory}: manifest and frames file disagree on count")
        frames = [reader.frame() for _ in range(n_frames)]
    if reader.left:
        raise FormatError(f"{directory}: {reader.left} trailing bytes")
    return SyntheticExtractor(frames, spec)
