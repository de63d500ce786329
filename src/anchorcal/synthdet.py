"""Synthetic desk-scale stand-in for a frozen 3D detector.

A domain is a distribution over frames: boxes with Gaussian-perturbed sizes
placed uniformly in a scene, surface-sampled object points, and uniform
background clutter. Object points sit on a shell inset from the true box
faces (annotation boxes run a little larger than the physical surface), so
a box at the true size captures essentially every object point while an
undersized one slices the shell away and an oversized one admits clutter.

The surrogate "detector" places one candidate box per object at a frozen
noisy center estimate, scores it by point capture

    score = own_in / (own_in + foreign_in + own_missed)

and describes it by a G x G x G occupancy histogram of captured points in
box-normalized coordinates, scaled by the inverse capture count. Anchor
sizes change the effective box, so both the score and the feature react to
calibration exactly the way the pipeline assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import AnchorSizes, FrameId, ScoredProposal, UnknownFrameError, normalize_yaw
from .extractor import FeatureExtractor


@dataclass(frozen=True)
class SyntheticDomain:
    """Generative description of one domain, including surrogate noise knobs.

    size_mean / size_std: per-axis object size distribution in meters; the
        means must dominate the spread (mean > 3 * std).
    objects_per_frame: Poisson mean of the object count.
    points_per_object: point density on objects, points per cubic meter.
    clutter_rate: Poisson mean of background points per frame.
    frame_extent: scene bounding box (x, y, z) in meters, centered at 0.
    seed: drives every random draw for the domain, frames included.
    """

    size_mean: AnchorSizes
    size_std: tuple[float, float, float]
    objects_per_frame: float = 4.0
    points_per_object: float = 25.0
    clutter_rate: float = 10000.0
    frame_extent: tuple[float, float, float] = (20.0, 20.0, 4.0)
    seed: int = 0
    center_noise: float = 0.02
    size_estimate_noise: float = 0.05
    yaw_noise: float = 0.0
    surface_margin: float = 0.09
    point_jitter: float = 0.015
    grid_resolution: int = 4
    nms: bool = True
    nms_iou: float = 0.5

    def __post_init__(self) -> None:
        std = tuple(float(s) for s in self.size_std)
        if len(std) != 3 or any(s < 0.0 or not math.isfinite(s) for s in std):
            raise ValueError("size_std must be three finite non-negative values")
        object.__setattr__(self, "size_std", std)
        mean = self.size_mean.as_array()
        if np.any(mean <= 3.0 * np.asarray(std)):
            raise ValueError("size_mean must exceed 3x size_std on every axis")
        if self.objects_per_frame < 0.0:
            raise ValueError(f"objects_per_frame must be >= 0, got {self.objects_per_frame!r}")
        if self.points_per_object <= 0.0:
            raise ValueError(f"points_per_object must be positive, got {self.points_per_object!r}")
        if self.clutter_rate < 0.0:
            raise ValueError(f"clutter_rate must be >= 0, got {self.clutter_rate!r}")
        ext = tuple(float(e) for e in self.frame_extent)
        if len(ext) != 3 or any(e <= 0.0 for e in ext):
            raise ValueError("frame_extent must be three positive lengths")
        object.__setattr__(self, "frame_extent", ext)
        diag = math.hypot(mean[0], mean[1])
        if min(ext[0], ext[1]) < 2.0 * diag or ext[2] < 2.0 * mean[2]:
            raise ValueError("frame_extent leaves no room to place objects")
        for name in ("center_noise", "size_estimate_noise", "yaw_noise", "point_jitter"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.surface_margin < 0.0:
            raise ValueError("surface_margin must be >= 0")
        if self.grid_resolution < 1:
            raise ValueError("grid_resolution must be >= 1")
        if not (0.0 < self.nms_iou <= 1.0):
            raise ValueError("nms_iou must lie in (0, 1]")

    @property
    def feature_dim(self) -> int:
        return self.grid_resolution**3


@dataclass(frozen=True)
class SyntheticObject:
    """One generated object plus the surrogate's frozen estimates for it."""

    center: np.ndarray
    size: np.ndarray
    yaw: float
    est_center: np.ndarray
    est_size: np.ndarray
    est_yaw: float
    points: np.ndarray  # (n, 3) world coordinates

    def __post_init__(self) -> None:
        for name in ("center", "size", "est_center", "est_size"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])


@dataclass(frozen=True)
class SyntheticFrame:
    """One frame's objects and clutter, each point stored once: points holds
    them all, objects first, and every object's points and the clutter are
    views into it."""

    objects: tuple[SyntheticObject, ...]
    clutter: np.ndarray  # (m, 3)
    points: np.ndarray = field(init=False, repr=False)  # all points, objects first
    owner: np.ndarray = field(init=False, repr=False)  # object index per point, -1 clutter

    def __post_init__(self) -> None:
        clutter = np.asarray(self.clutter, dtype=np.float64).reshape(-1, 3)
        points = np.concatenate([o.points for o in self.objects] + [clutter], axis=0)
        bounds = np.cumsum([0] + [o.n_points for o in self.objects]).tolist()
        objects = tuple(
            replace(o, points=points[a:b])
            for o, a, b in zip(self.objects, bounds, bounds[1:])
        )
        owners = [np.full(o.n_points, i, dtype=np.int32) for i, o in enumerate(objects)]
        owners.append(np.full(clutter.shape[0], -1, dtype=np.int32))
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "clutter", points[bounds[-1] :])
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "owner", np.concatenate(owners, axis=0))


def _rotation_z(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _sample_shell(
    rng: np.random.Generator, size: np.ndarray, margin: float, jitter: float, n: int
) -> np.ndarray:
    """Points on the inset surface shell of a box, in local coordinates.

    The shell sits margin meters inside each true face (annotation boxes pad
    the physical surface), clamped so very small boxes keep a valid shell.
    """
    if n == 0:
        return np.empty((0, 3))
    half = size / 2.0 - np.minimum(margin, 0.35 * size)
    areas = np.array([half[1] * half[2], half[0] * half[2], half[0] * half[1]])
    probs = np.repeat(areas, 2)
    probs = probs / probs.sum()
    face = rng.choice(6, size=n, p=probs)
    uv = rng.uniform(-1.0, 1.0, (n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    for a in range(3):
        mask = axis == a
        others = [b for b in range(3) if b != a]
        pts[mask, a] = sign[mask] * half[a]
        pts[mask, others[0]] = uv[mask, 0] * half[others[0]]
        pts[mask, others[1]] = uv[mask, 1] * half[others[1]]
    return pts + rng.normal(size=(n, 3)) * jitter


def _generate_frame(spec: SyntheticDomain, rng: np.random.Generator) -> SyntheticFrame:
    ext = np.asarray(spec.frame_extent)
    mean = spec.size_mean.as_array()
    std = np.asarray(spec.size_std)
    n_obj = int(rng.poisson(spec.objects_per_frame))
    objects = []
    for _ in range(n_obj):
        size = np.maximum(mean + rng.normal(size=3) * std, 0.2 * mean)
        footprint = math.hypot(size[0], size[1])
        margin = np.array([footprint / 2.0, footprint / 2.0, size[2] / 2.0])
        center = rng.uniform(-ext / 2.0 + margin, ext / 2.0 - margin)
        yaw = float(rng.uniform(-math.pi, math.pi))
        volume = float(size[0] * size[1] * size[2])
        n_pts = int(rng.poisson(spec.points_per_object * volume))
        local = _sample_shell(rng, size, spec.surface_margin, spec.point_jitter, n_pts)
        world = local @ _rotation_z(yaw).T + center
        est_center = center + rng.normal(size=3) * spec.center_noise
        est_size = np.maximum(size + rng.normal(size=3) * spec.size_estimate_noise, 0.05)
        est_yaw = normalize_yaw(yaw + float(rng.normal()) * spec.yaw_noise)
        objects.append(
            SyntheticObject(center, size, yaw, est_center, est_size, est_yaw, world)
        )
    n_clutter = int(rng.poisson(spec.clutter_rate))
    clutter = rng.uniform(-ext / 2.0, ext / 2.0, (n_clutter, 3))
    return SyntheticFrame(tuple(objects), clutter)


# A rebuild covers at least this multiple of the previous reach2, so an
# ascending sweep or growing DE mutants rebuild a few times, not once per step;
# 2.0 builds as rarely but holds ~70 % more candidates and raises peak RSS.
_TABLE_GROWTH = 1.5


def _box_limit(half: np.ndarray) -> np.ndarray:
    """Per-axis bound of the box test; the slack keeps face points in."""
    return half * (1.0 + 1e-9) + 1e-12


def _reach2(half: np.ndarray) -> float:
    """Squared radius around a box center that holds every point the box can
    capture: a point that passes the box test has r2 <= lim @ lim, up to about
    1e-15 relative rounding from _box_local, which the (1 + 1e-9) factor covers;
    so every table built at or past reach2 holds every point the box captures."""
    lim = _box_limit(half)
    return float(lim @ lim) * (1.0 + 1e-9)


def _box_local(rel: np.ndarray, yaw: float, out: np.ndarray) -> None:
    """Rotate (n, 3) center-relative points into a box frame with the given
    yaw, written to the (3, n) coordinate rows out."""
    c, s = math.cos(yaw), math.sin(yaw)
    out[0] = rel[:, 0] * c + rel[:, 1] * s
    out[1] = -rel[:, 0] * s + rel[:, 1] * c
    out[2] = rel[:, 2]


def _captured(local: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Which candidates a box of half-extents half captures, given their
    box-local coordinates as (3, n) rows: those inside the box.

    Built in one boolean buffer. Kept in float64: a float32 test moves
    decisions at the box faces."""
    lim = _box_limit(half)
    captured = np.ones(local.shape[1], dtype=bool)
    for axis in range(3):
        # -lim <= x <= lim decides exactly as |x| <= lim, without a float temporary
        captured &= local[axis] <= lim[axis]
        captured &= local[axis] >= -lim[axis]
    return captured


def _segment_sums(flags: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Set flags per segment, where segment i spans ends[i - 1]:ends[i] (from 0
    for i = 0) and ends[-1] == len(flags).

    reduceat runs over the non-empty segments only: it would return
    flags[start] for an empty one and rejects a start at len(flags)."""
    starts = np.concatenate([[0], ends])[:-1]
    nonempty = starts < ends
    sums = np.zeros(len(ends), dtype=np.int64)
    sums[nonempty] = np.add.reduceat(flags, starts[nonempty], dtype=np.int64)
    return sums


def _occupancy_bins(local: np.ndarray, box_size: np.ndarray, grid: int) -> np.ndarray:
    """Flat grid^3 cell index of each box-local point, given as (3, n)
    coordinate rows, which it overwrites."""
    # in place, in this order of operations, which decides the bin at cell edges
    local /= box_size[:, None]
    local += 0.5
    local *= grid
    np.floor(local, out=local)
    np.clip(local, 0, grid - 1, out=local)
    # whole numbers far below 2**53, so the dot product is exact in any order
    return np.dot([grid * grid, grid, 1.0], local).astype(np.int64)


def occupancy_feature(
    local_points: np.ndarray, box_size: np.ndarray, grid: int
) -> np.ndarray:
    """Histogram of box-local points over a grid^3 lattice, inverse-count scaled."""
    n = local_points.shape[0]
    if n == 0:
        return np.zeros(grid**3, dtype=np.float32)
    bins = _occupancy_bins(local_points.T.copy(), box_size, grid)
    counts = np.bincount(bins, minlength=grid**3)
    return (counts / n).astype(np.float32)


def _axis_aligned_iou(c1, h1, c2, h2):
    """IoU of axis-aligned boxes given centers and half-extents; broadcasts
    over leading axes."""
    lo = np.maximum(c1 - h1, c2 - h2)
    hi = np.minimum(c1 + h1, c2 + h2)
    edge = np.maximum(hi - lo, 0.0)
    inter = edge[..., 0] * edge[..., 1] * edge[..., 2]
    v1 = 8.0 * h1[..., 0] * h1[..., 1] * h1[..., 2]
    v2 = 8.0 * h2[..., 0] * h2[..., 1] * h2[..., 2]
    union = v1 + v2 - inter
    return np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)


def _nms_keep(scores, centers: np.ndarray, halves: np.ndarray, iou: float) -> list[int]:
    """Greedy suppression of one frame's boxes, visited by (-score, position):
    a box is kept unless its IoU with an already kept box exceeds iou.

    Returns the kept positions in ascending order."""
    pair_iou = _axis_aligned_iou(centers[:, None], halves[:, None], centers[None], halves[None])
    overlap = pair_iou > iou
    kept: list[int] = []
    for j in sorted(range(len(scores)), key=lambda j: (-scores[j], j)):
        if not overlap[j, kept].any():
            kept.append(j)
    kept.sort()
    return kept


def _frame_index(frame: FrameId, n_frames: int) -> int:
    if not (0 <= int(frame) < n_frames):
        raise UnknownFrameError(f"frame {frame!r} is outside 0..{n_frames - 1}")
    return int(frame)


@dataclass(frozen=True)
class _CandidateTables:
    """Per-object candidate points within sqrt(reach2) of the estimated center.

    Live objects (those with points) are numbered frame-major; object g owns
    entries start[g]:start[g + 1] of the concatenated arrays, in its frame's
    point order. The box test alone decides capture, and a table at or past
    a query's _reach2 holds every point its box can capture, so outputs do
    not depend on the reach the tables were built at. local holds the points
    in the object's box frame, one contiguous row per axis, so the per-axis
    passes of the kernel run over contiguous memory; own flags the object's
    own points.
    """

    reach2: float
    start: np.ndarray  # (n_live + 1,) int64
    local: np.ndarray  # (3, N) float64, one row per box axis
    own: np.ndarray  # (N,) bool


class SyntheticExtractor(FeatureExtractor):
    """FeatureExtractor over pre-generated synthetic frames.

    Candidate points are served from _CandidateTables built on first use at
    the queried reach and rebuilt, at least _TABLE_GROWTH times larger, only
    when a query reaches past them. The superseded tables are dropped before
    the rebuild, so one set of tables is held at a time. Tables are never
    mutated once built; the extractor is not meant to be queried from more
    than one thread at once.
    """

    def __init__(self, frames: Sequence[SyntheticFrame], domain: SyntheticDomain) -> None:
        self._frames = list(frames)
        self.domain = domain
        self._tables: _CandidateTables | None = None

        # live objects, frame-major: frame f owns ids live_start[f]:live_start[f + 1]
        live = [
            (f, idx, obj)
            for f, frame in enumerate(self._frames)
            for idx, obj in enumerate(frame.objects)
            if obj.n_points > 0
        ]
        per_frame = np.bincount(
            np.array([f for f, _, _ in live], dtype=np.int64), minlength=len(self._frames)
        )
        self._live_start = np.concatenate([[0], np.cumsum(per_frame)]).astype(np.int64)
        self._live = live
        self._live_npts = np.array([obj.n_points for _, _, obj in live], dtype=np.int64)
        self._live_center = np.array([obj.est_center for _, _, obj in live]).reshape(-1, 3)
        # same-frame pairs of live objects: NMS only changes frames where
        # some pair overlaps past the IoU threshold
        pairs = np.array(
            [
                (f, a, b)
                for f in range(len(self._frames))
                for a in range(self._live_start[f], self._live_start[f + 1])
                for b in range(a + 1, self._live_start[f + 1])
            ],
            dtype=np.int64,
        ).reshape(-1, 3)
        self._pair_frame, self._pair_a, self._pair_b = pairs.T

    @property
    def feature_dim(self) -> int:
        return self.domain.feature_dim

    @property
    def source_sizes(self) -> AnchorSizes:
        return self.domain.size_mean

    def frames(self) -> Sequence[FrameId]:
        return range(len(self._frames))

    def frame_data(self, frame: FrameId) -> SyntheticFrame:
        """Ground-truth access for oracles and reports."""
        return self._frames[_frame_index(frame, len(self._frames))]

    def iter_frames(self) -> Iterator[SyntheticFrame]:
        """The frames in order."""
        return iter(self._frames)

    def _tables_reaching(self, reach2: float) -> _CandidateTables:
        """Candidate tables covering reach2, built anew, with growth headroom,
        if the current ones fall short."""
        tables = self._tables
        if tables is not None and tables.reach2 >= reach2:
            return tables
        if tables is not None:
            reach2 = max(reach2, _TABLE_GROWTH * tables.reach2)
        # drop the superseded tables first, so they are not held beside the new
        self._tables = tables = None
        nears = []
        for f, _, obj in self._live:
            rel = self._frames[f].points - obj.est_center
            nears.append(np.flatnonzero(np.einsum("ij,ij->i", rel, rel) <= reach2))
        start = np.concatenate([[0], np.cumsum([len(n) for n in nears])]).astype(np.int64)
        # filled in place rather than concatenated, so building never holds
        # two copies of the new table
        local = np.empty((3, int(start[-1])))
        own = np.empty(int(start[-1]), dtype=bool)
        for (f, idx, obj), near, a, b in zip(self._live, nears, start[:-1], start[1:]):
            frame = self._frames[f]
            _box_local(frame.points[near] - obj.est_center, obj.est_yaw, local[:, a:b])
            own[a:b] = frame.owner[near] == idx
        for arr in (start, local, own):
            arr.setflags(write=False)
        tables = _CandidateTables(reach2, start, local, own)
        self._tables = tables
        return tables

    def propose(self, frame: FrameId, sizes: AnchorSizes) -> list[ScoredProposal]:
        f = _frame_index(frame, len(self._frames))
        query = sizes.as_array()
        half = query / 2.0
        tables = self._tables_reaching(_reach2(half))
        ids = range(self._live_start[f], self._live_start[f + 1])
        proposals = []
        for g in ids:
            rows = slice(tables.start[g], tables.start[g + 1])
            local = tables.local[:, rows]
            inside = _captured(local, half)
            n_in = int(np.count_nonzero(inside))
            own_in = int(np.count_nonzero(inside & tables.own[rows]))
            foreign_in = n_in - own_in
            own_out = self._live[g][2].n_points - own_in
            score = own_in / (own_in + foreign_in + own_out)
            feature = occupancy_feature(local[:, inside].T, query, self.domain.grid_resolution)
            proposals.append(ScoredProposal(score, feature))
        if self.domain.nms and len(proposals) > 1:
            kept = _nms_keep(
                [p.score for p in proposals],
                self._live_center[ids.start : ids.stop],
                np.tile(half, (len(proposals), 1)),
                self.domain.nms_iou,
            )
            proposals = [proposals[j] for j in kept]
        return proposals

    def gated_features(
        self, frames: Sequence[FrameId], sizes: AnchorSizes, tau: float
    ) -> np.ndarray:
        """Batched gated_features over the requested frames in one pass.

        Equal bit for bit to gating propose() frame by frame: the same
        capture test, binning and NMS. One pass over the whole candidate
        table scores every live object; the requested frames only choose
        which objects reach the output, and in what order, so histograms
        are binned by live object and then picked by output position.
        """
        frames = [_frame_index(f, len(self._frames)) for f in frames]
        query = sizes.as_array()
        half = query / 2.0
        tables = self._tables_reaching(_reach2(half))
        dim = self.feature_dim

        # selected live objects, in output order
        per_frame = [(self._live_start[f], self._live_start[f + 1]) for f in frames]
        sel = np.concatenate(
            [np.arange(a, b, dtype=np.int64) for a, b in per_frame] + [np.empty(0, np.int64)]
        )
        ends = tables.start[1:]
        captured = _captured(tables.local, half)
        n_in = _segment_sums(captured, ends)
        own_in = _segment_sums(captured & tables.own, ends)
        scores = (own_in / (n_in + (self._live_npts - own_in)))[sel]

        keep = scores > tau
        if self.domain.nms and len(self._pair_frame):
            centers = self._live_center
            pair_iou = _axis_aligned_iou(
                centers[self._pair_a], half, centers[self._pair_b], half
            )
            crowded = set(self._pair_frame[pair_iou > self.domain.nms_iou].tolist())
            pos = 0
            for f, (a, b) in zip(frames, per_frame):
                n = int(b - a)
                if f in crowded:
                    kept = _nms_keep(
                        scores[pos : pos + n].tolist(),
                        centers[a:b],
                        np.tile(half, (n, 1)),
                        self.domain.nms_iou,
                    )
                    survives = np.zeros(n, dtype=bool)
                    survives[kept] = True
                    keep[pos : pos + n] &= survives
                pos += n

        out = sel[keep]
        # histograms of the kept objects only, binned by live-object id
        binned = np.zeros(len(n_in), dtype=bool)
        binned[out] = True
        captured &= np.repeat(binned, np.diff(tables.start))
        cells = _occupancy_bins(
            np.compress(captured, tables.local, axis=1), query, self.domain.grid_resolution
        )
        cells += np.repeat(np.arange(len(n_in)) * dim, np.where(binned, n_in, 0))
        counts = np.bincount(cells, minlength=len(n_in) * dim).reshape(-1, dim)
        return (counts[out] / n_in[out][:, None]).astype(np.float32)


class StreamedExtractor(FeatureExtractor):
    """FeatureExtractor over a synthetic domain that is never held whole.

    parts() starts a fresh pass over the domain's n_frames frames, in order,
    as a sequence of SyntheticExtractors (the CLI makes each one frame). A
    query makes one such pass and answers each frame with its part's own
    kernel, so it holds about one part and its candidate tables at a time;
    nothing is read or drawn before the first query.
    """

    def __init__(
        self,
        domain: SyntheticDomain,
        n_frames: int,
        parts: Callable[[], Iterable[SyntheticExtractor]],
    ) -> None:
        self.domain = domain
        self._n_frames = n_frames
        self._parts = parts

    @property
    def feature_dim(self) -> int:
        return self.domain.feature_dim

    @property
    def source_sizes(self) -> AnchorSizes:
        return self.domain.size_mean

    def frames(self) -> Sequence[FrameId]:
        return range(self._n_frames)

    def _pass(self) -> Iterator[tuple[int, SyntheticExtractor, int]]:
        """(frame id, its part, its id within the part) for every frame, in order."""
        first = 0
        for part in self._parts():
            for local in part.frames():
                yield first + local, part, local
            first += len(part.frames())
        if first != self._n_frames:
            raise ValueError(f"the parts hold {first} frames, not {self._n_frames}")

    def iter_frames(self) -> Iterator[SyntheticFrame]:
        """The frames in order, one pass."""
        return (part.frame_data(local) for _, part, local in self._pass())

    def propose(self, frame: FrameId, sizes: AnchorSizes) -> list[ScoredProposal]:
        """Reads the domain up to the frame."""
        f = _frame_index(frame, self._n_frames)
        return next(part.propose(local, sizes) for g, part, local in self._pass() if g == f)

    def gated_features(
        self, frames: Sequence[FrameId], sizes: AnchorSizes, tau: float
    ) -> np.ndarray:
        """Each requested frame gated by its part's kernel, in one pass; equal
        bit for bit to the kernel over the whole domain, which treats every
        object on its own."""
        wanted = [_frame_index(f, self._n_frames) for f in frames]
        need = set(wanted)
        rows = {
            g: part.gated_features([local], sizes, tau)
            for g, part, local in self._pass()
            if g in need
        }
        empty = np.empty((0, self.feature_dim), dtype=np.float32)
        return np.concatenate([rows[g] for g in wanted] + [empty])


def generate_frames(spec: SyntheticDomain, frames: range) -> Iterator[SyntheticFrame]:
    """Draw the domain's frames with the given ids, one at a time.

    Frame i comes from child i of spec.seed's SeedSequence, as spawn() makes
    it, so it is the same whichever other frames are drawn."""
    for i in frames:
        seed = np.random.SeedSequence(spec.seed, spawn_key=(i,))
        yield _generate_frame(spec, np.random.default_rng(seed))


def generate_domain(spec: SyntheticDomain, n_frames: int | range) -> SyntheticExtractor:
    """Materialize the domain's first n_frames frames, or the frames a range
    names (numbered from 0 in the extractor); fully seeded by spec.seed."""
    frames = n_frames if isinstance(n_frames, range) else range(n_frames)
    if len(frames) < 1:
        raise ValueError("n_frames must be >= 1")
    return SyntheticExtractor(list(generate_frames(spec, frames)), spec)


def mean_capture_score(
    extractor: SyntheticExtractor,
    frames: Sequence[FrameId],
    sizes: AnchorSizes,
) -> float:
    """Ungated mean proposal score: the surrogate's detection-quality proxy."""
    scores: list[float] = []
    for frame in frames:
        for p in extractor.propose(frame, sizes):
            scores.append(p.score)
    return float(np.mean(scores)) if scores else 0.0
