import dataclasses
import math

import numpy as np
import pytest

from anchorcal.core import AnchorSizes, UnknownFrameError
from anchorcal.optimizer import default_sweep_configs
from anchorcal.synthdet import (
    _segment_sums,
    SyntheticDomain,
    SyntheticExtractor,
    SyntheticFrame,
    SyntheticObject,
    generate_domain,
    mean_capture_score,
    occupancy_feature,
)

CAR = AnchorSizes(1.9, 4.6, 1.7)


def quiet_domain(**overrides):
    """A low-noise, sparse domain for exact-capture style checks."""
    params = dict(
        size_mean=CAR,
        size_std=(0.0, 0.0, 0.0),
        objects_per_frame=2.0,
        clutter_rate=0.0,
        center_noise=0.0,
        size_estimate_noise=0.0,
        point_jitter=0.0,
        frame_extent=(60.0, 60.0, 8.0),
        seed=5,
    )
    params.update(overrides)
    return SyntheticDomain(**params)


def oracle_counts(frame, obj_idx, sizes_arr):
    """Independent point-in-box counter: rotate every frame point into the
    estimated box frame with an explicit matrix and count memberships."""
    obj = frame.objects[obj_idx]
    c, s = math.cos(obj.est_yaw), math.sin(obj.est_yaw)
    rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    local = (rot @ (frame.points - obj.est_center).T).T
    inside = np.all(np.abs(local) <= sizes_arr / 2.0 * (1.0 + 1e-9) + 1e-12, axis=1)
    own = frame.owner == obj_idx
    own_in = int(np.count_nonzero(inside & own))
    foreign_in = int(np.count_nonzero(inside & ~own))
    own_out = int(np.count_nonzero(own)) - own_in
    return own_in, foreign_in, own_out


def oracle_feature(frame, obj_idx, sizes_arr, grid):
    obj = frame.objects[obj_idx]
    c, s = math.cos(obj.est_yaw), math.sin(obj.est_yaw)
    rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    local = (rot @ (frame.points - obj.est_center).T).T
    inside = np.all(np.abs(local) <= sizes_arr / 2.0 * (1.0 + 1e-9) + 1e-12, axis=1)
    pts = local[inside]
    if pts.shape[0] == 0:
        return np.zeros(grid**3, dtype=np.float32)
    u = np.clip(np.floor((pts / sizes_arr + 0.5) * grid), 0, grid - 1).astype(int)
    hist = np.zeros((grid, grid, grid))
    for bx, by, bz in u:
        hist[bx, by, bz] += 1.0
    return (hist.reshape(-1) / pts.shape[0]).astype(np.float32)


def test_spec_validation_names_offending_field():
    with pytest.raises(ValueError, match="objects_per_frame"):
        SyntheticDomain(CAR, (0.0, 0.0, 0.0), objects_per_frame=-1.0)
    with pytest.raises(ValueError, match="size_mean"):
        SyntheticDomain(AnchorSizes(0.1, 4.6, 1.7), (0.05, 0.05, 0.05))
    with pytest.raises(ValueError, match="points_per_object"):
        SyntheticDomain(CAR, (0.0, 0.0, 0.0), points_per_object=0.0)
    with pytest.raises(ValueError, match="frame_extent"):
        SyntheticDomain(CAR, (0.0, 0.0, 0.0), frame_extent=(4.0, 4.0, 4.0))


def test_generation_is_deterministic():
    spec = SyntheticDomain(CAR, (0.04, 0.05, 0.03), seed=123)
    a = generate_domain(spec, 5)
    b = generate_domain(spec, 5)
    for f in a.frames():
        fa, fb = a.frame_data(f), b.frame_data(f)
        np.testing.assert_array_equal(fa.points, fb.points)
        np.testing.assert_array_equal(fa.owner, fb.owner)
        for oa, ob in zip(fa.objects, fb.objects):
            np.testing.assert_array_equal(oa.points, ob.points)
            np.testing.assert_array_equal(oa.est_center, ob.est_center)
            assert oa.yaw == ob.yaw and oa.est_yaw == ob.est_yaw


def test_frames_hold_each_point_once():
    # every object's points and the clutter are views into the frame's points
    rng = np.random.default_rng(0)
    given = rng.normal(size=(7, 3))
    obj = SyntheticObject(np.zeros(3), CAR.as_array(), 0.0, np.zeros(3), CAR.as_array(), 0.0, given)
    hand_built = SyntheticFrame((obj, obj), rng.normal(size=(5, 3)))
    spec = SyntheticDomain(CAR, (0.04, 0.05, 0.03), seed=4, clutter_rate=300.0)
    generated = [generate_domain(spec, 3).frame_data(f) for f in range(3)]
    for frame in generated + [hand_built]:
        assert np.shares_memory(frame.clutter, frame.points)
        for o in frame.objects:
            assert np.shares_memory(o.points, frame.points)
        parts = [o.points for o in frame.objects] + [frame.clutter]
        np.testing.assert_array_equal(np.concatenate(parts), frame.points)
    assert sum(len(fr.objects) for fr in generated) > 0
    # the caller's object is left as it was
    assert np.shares_memory(obj.points, given)
    assert not np.shares_memory(given, hand_built.points)
    np.testing.assert_array_equal(hand_built.objects[1].points, given)


def test_propose_is_pure():
    spec = SyntheticDomain(CAR, (0.04, 0.05, 0.03), seed=9)
    ex = generate_domain(spec, 3)
    first = ex.propose(0, CAR)
    second = ex.propose(0, CAR)
    assert len(first) == len(second)
    for p, q in zip(first, second):
        assert p.score == q.score
        np.testing.assert_array_equal(p.feature, q.feature)


def test_object_count_concentrates_around_poisson_mean():
    spec = SyntheticDomain(CAR, (0.04, 0.05, 0.03), objects_per_frame=4.0, seed=101)
    ex = generate_domain(spec, 100)
    total = sum(len(ex.frame_data(f).objects) for f in ex.frames())
    # Poisson(400): mean 400, sd 20; 3 sigma band
    assert abs(total - 400) <= 60


def test_points_stay_within_true_extents():
    spec = SyntheticDomain(CAR, (0.04, 0.05, 0.03), seed=17)
    ex = generate_domain(spec, 10)
    for f in ex.frames():
        frame = ex.frame_data(f)
        for obj in frame.objects:
            c, s = math.cos(obj.yaw), math.sin(obj.yaw)
            rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
            local = (rot @ (obj.points - obj.center).T).T
            assert np.all(np.abs(local) <= 1.5 * obj.size / 2.0)


def test_zero_objects_yields_empty_proposals():
    spec = quiet_domain(objects_per_frame=0.0, clutter_rate=50.0)
    ex = generate_domain(spec, 4)
    for f in ex.frames():
        assert ex.propose(f, CAR) == []


def test_unknown_frame_rejected():
    ex = generate_domain(quiet_domain(), 2)
    with pytest.raises(UnknownFrameError):
        ex.propose(99, CAR)


def test_perfect_capture_scores_one_and_matches_canonical_feature():
    # anchor = true box, zero clutter, zero noise: every object point is
    # captured, nothing foreign enters, so score is exactly 1 and the
    # feature is the object's own occupancy descriptor.
    ex = generate_domain(quiet_domain(), 10)
    checked = 0
    for f in ex.frames():
        frame = ex.frame_data(f)
        proposals = ex.propose(f, CAR)
        assert len(proposals) == len(frame.objects)
        for idx, p in enumerate(proposals):
            assert p.score == 1.0
            np.testing.assert_array_equal(p.feature, oracle_feature(frame, idx, CAR.as_array(), 4))
            checked += 1
    assert checked >= 10


def test_scores_match_independent_point_in_box_oracle():
    spec = SyntheticDomain(CAR, (0.04, 0.05, 0.03), seed=33, nms=False)
    ex = generate_domain(spec, 5)
    sizes = AnchorSizes(1.7, 4.2, 1.6)
    arr = sizes.as_array()
    for f in ex.frames():
        frame = ex.frame_data(f)
        proposals = ex.propose(f, sizes)
        live = [i for i, o in enumerate(frame.objects) if o.n_points > 0]
        assert len(proposals) == len(live)
        for idx, p in zip(live, proposals):
            own_in, foreign_in, own_out = oracle_counts(frame, idx, arr)
            assert p.score == pytest.approx(own_in / (own_in + foreign_in + own_out))


def test_half_size_anchor_scores_below_true_size():
    ex = generate_domain(quiet_domain(point_jitter=0.01, seed=8, nms=False), 6)
    half = AnchorSizes(CAR.w / 2, CAR.l / 2, CAR.h / 2)
    for f in ex.frames():
        full_props = ex.propose(f, CAR)
        half_props = ex.propose(f, half)
        for p_full, p_half in zip(full_props, half_props):
            assert p_half.score < p_full.score


def test_double_size_anchor_admits_clutter():
    spec = SyntheticDomain(CAR, (0.0, 0.0, 0.0), clutter_rate=10000.0, seed=44)
    ex = generate_domain(spec, 8)
    frames = list(ex.frames())
    doubled = AnchorSizes(2 * CAR.w, 2 * CAR.l, 2 * CAR.h)
    assert mean_capture_score(ex, frames, doubled) < mean_capture_score(ex, frames, CAR)


def test_mean_score_peaks_at_grid_point_nearest_true_mean():
    # Desk-scale quality proxy: per-axis sweep of the mean capture score
    # attains its grid maximum at the true mean size.
    spec = SyntheticDomain(AnchorSizes(1.6, 3.9, 1.5), (0.04, 0.05, 0.03), seed=22)
    ex = generate_domain(spec, 60)
    frames = list(ex.frames())
    n_objects = sum(len(ex.frame_data(f).objects) for f in frames)
    assert n_objects >= 200
    truth = spec.size_mean.as_array()
    factors = np.linspace(0.5, 1.5, 21)
    factors[10] = 1.0
    for axis in range(3):
        curve = []
        for f in factors:
            sz = truth.copy()
            sz[axis] = truth[axis] * f
            curve.append(mean_capture_score(ex, frames, AnchorSizes(*sz)))
        assert int(np.argmax(curve)) == 10, f"axis {axis}: peak at factor {factors[np.argmax(curve)]}"


def test_occupancy_feature_yaw_invariant_for_aligned_boxes():
    # Same local geometry, boxes axis-aligned with the object: yaw 0 and pi
    # must produce identical features.
    rng = np.random.default_rng(3)
    local = rng.uniform(-0.45, 0.45, (200, 3)) * CAR.as_array()
    center = np.array([1.0, -2.0, 0.5])
    frames = []
    for yaw in (0.0, math.pi):
        c, s = math.cos(yaw), math.sin(yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        obj = SyntheticObject(
            center=center,
            size=CAR.as_array(),
            yaw=yaw,
            est_center=center,
            est_size=CAR.as_array(),
            est_yaw=yaw,
            points=local @ rot.T + center,
        )
        frames.append(SyntheticFrame((obj,), np.empty((0, 3))))
    ex = SyntheticExtractor(frames, SyntheticDomain(CAR, (0.0, 0.0, 0.0)))
    p0 = ex.propose(0, CAR)[0]
    p1 = ex.propose(1, CAR)[0]
    assert p0.score == p1.score == 1.0
    np.testing.assert_array_equal(p0.feature, p1.feature)


def test_feature_dim_and_normalization():
    spec = SyntheticDomain(CAR, (0.04, 0.05, 0.03), seed=2, grid_resolution=3)
    ex = generate_domain(spec, 2)
    assert ex.feature_dim == 27
    for f in ex.frames():
        for p in ex.propose(f, CAR):
            assert p.dim == 27
            assert p.feature.sum() == pytest.approx(1.0, abs=1e-5)


def test_occupancy_feature_empty_is_zero_vector():
    out = occupancy_feature(np.empty((0, 3)), CAR.as_array(), 4)
    assert out.shape == (64,)
    assert not out.any()


def test_nms_suppresses_overlapping_boxes():
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, (50, 3))
    size = np.array([2.0, 2.0, 2.0])

    def make_obj(center, n_pts):
        return SyntheticObject(
            center=center,
            size=size,
            yaw=0.0,
            est_center=center,
            est_size=size,
            est_yaw=0.0,
            points=pts[:n_pts] + center,
        )

    # two nearly coincident objects, one with more support
    a = make_obj(np.zeros(3), 50)
    b = make_obj(np.array([0.1, 0.0, 0.0]), 20)
    frame = SyntheticFrame((a, b), np.empty((0, 3)))
    sizes = AnchorSizes(2.0, 2.0, 2.0)
    spec = SyntheticDomain(sizes, (0.0, 0.0, 0.0))
    with_nms = SyntheticExtractor([frame], spec).propose(0, sizes)
    without = SyntheticExtractor([frame], dataclasses.replace(spec, nms=False)).propose(0, sizes)
    assert len(without) == 2
    assert len(with_nms) == 1
    assert with_nms[0].score == max(p.score for p in without)


def test_features_use_the_query_box_not_estimated_sizes():
    spec = SyntheticDomain(CAR, (0.04, 0.05, 0.03), seed=55, size_estimate_noise=0.2, nms=False)
    ex = generate_domain(spec, 3)
    query = AnchorSizes(1.7, 4.2, 1.6)
    for f in ex.frames():
        frame = ex.frame_data(f)
        live = [i for i, o in enumerate(frame.objects) if o.n_points > 0]
        for idx, p in zip(live, ex.propose(f, query)):
            # suppressed size residuals: the feature depends on the query box, not est_size
            np.testing.assert_array_equal(p.feature, oracle_feature(frame, idx, query.as_array(), 4))


def test_segment_sums_are_zero_for_empty_segments():
    flags = np.array([True, False, True, True, False, True])
    # leading, inner and trailing empty segments around three non-empty ones
    ends = np.array([0, 2, 2, 5, 6, 6])
    assert _segment_sums(flags, ends).tolist() == [0, 1, 0, 2, 1, 0]
    nothing = np.zeros(0, dtype=bool)
    assert _segment_sums(nothing, np.zeros(3, dtype=np.int64)).tolist() == [0, 0, 0]
    assert _segment_sums(nothing, np.zeros(0, dtype=np.int64)).tolist() == []
    assert _segment_sums(flags, np.array([6])).tolist() == [4]


def test_ascending_sweep_rebuilds_candidate_tables_a_few_times():
    # each sweep step reaches a little further than the last; the tables must
    # grow ahead of the queries instead of being rebuilt at every step
    source = AnchorSizes(2.1, 4.8, 1.8)
    spec = SyntheticDomain(AnchorSizes(1.6, 3.9, 1.5), (0.04, 0.05, 0.03),
                           clutter_rate=2000.0, seed=4)
    ex = generate_domain(spec, 4)
    builds = steps = 0
    for cfg in default_sweep_configs(steps=21):
        for value in cfg.grid(getattr(source, cfg.axis)):
            sizes = dataclasses.replace(source, **{cfg.axis: float(value)})
            before = ex._tables
            ex.gated_features(ex.frames(), sizes, 0.6)
            builds += ex._tables is not before
            steps += 1
    assert steps == 63
    assert 1 <= builds <= 6
