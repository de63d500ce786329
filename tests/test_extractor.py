import dataclasses
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorcal.core import AnchorSizes, EmptyDatabaseError, FeatureDatabase
from anchorcal.extractor import (
    FeatureExtractor,
    GateConfig,
    build_reference_db,
    build_target_db,
)
from anchorcal.gmm import EmConfig, fit_em, fitness
from anchorcal.synthdet import (
    SyntheticDomain,
    SyntheticExtractor,
    SyntheticFrame,
    SyntheticObject,
    _reach2,
    generate_domain,
)
from test_synthdet import oracle_counts, oracle_feature

CAR = AnchorSizes(1.9, 4.6, 1.7)


@pytest.fixture(scope="module")
def domain():
    spec = SyntheticDomain(CAR, (0.04, 0.05, 0.03), seed=7)
    ex = generate_domain(spec, 20)
    return ex, list(ex.frames())


def test_gate_config_validation():
    with pytest.raises(ValueError, match="tau"):
        GateConfig(tau=1.5)
    with pytest.raises(ValueError, match="max_features"):
        GateConfig(max_features=0)


@settings(max_examples=20, deadline=None)
@given(
    lo=st.floats(0.0, 1.0, allow_nan=False),
    hi=st.floats(0.0, 1.0, allow_nan=False),
)
def test_gating_is_monotone_in_tau(domain, lo, hi):
    ex, frames = domain
    lo, hi = min(lo, hi), max(lo, hi)
    n_lo = len(build_target_db(ex, frames, CAR, GateConfig(tau=lo)))
    n_hi = len(build_target_db(ex, frames, CAR, GateConfig(tau=hi)))
    assert n_hi <= n_lo


def test_tau_zero_keeps_every_positive_score_proposal(domain):
    ex, frames = domain
    db = build_reference_db(ex, frames, GateConfig(tau=0.0))
    total = sum(
        1 for f in frames for p in ex.propose(f, CAR) if p.score > 0.0
    )
    assert len(db) == total


def test_tau_one_yields_empty_reference_error(domain):
    ex, frames = domain
    with pytest.raises(EmptyDatabaseError, match="tau=1.0"):
        build_reference_db(ex, frames, GateConfig(tau=1.0))


def test_target_db_may_be_empty(domain):
    ex, frames = domain
    db = build_target_db(ex, frames, CAR, GateConfig(tau=1.0))
    assert len(db) == 0
    assert db.dim == ex.feature_dim


def test_gated_count_matches_ground_truth_oracle(domain):
    # at the true sizes with low noise, almost every object scores far above
    # the gate, so the db cardinality tracks the number of generated objects.
    ex, frames = domain
    db = build_reference_db(ex, frames, GateConfig(tau=0.6))
    n_objects = sum(len(ex.frame_data(f).objects) for f in frames)
    assert abs(len(db) - n_objects) <= 0.05 * n_objects


def test_max_features_truncates(domain):
    ex, frames = domain
    full = build_reference_db(ex, frames, GateConfig(tau=0.6))
    capped = build_reference_db(ex, frames, GateConfig(tau=0.6, max_features=10))
    assert len(capped) == 10
    np.testing.assert_array_equal(capped.rows, full.rows[:10])


def test_target_at_source_sizes_equals_reference(domain):
    ex, frames = domain
    gate = GateConfig(tau=0.6)
    ref = build_reference_db(ex, frames, gate)
    tgt = build_target_db(ex, frames, ex.source_sizes, gate)
    assert ref == tgt


def test_shrunken_anchors_shrink_the_db(domain):
    ex, frames = domain
    gate = GateConfig(tau=0.6)
    ref = build_reference_db(ex, frames, gate)
    tiny = build_target_db(ex, frames, AnchorSizes(0.4, 0.9, 0.4), gate)
    assert len(tiny) < len(ref)


def _with_edge_frames(ex):
    """The extractor's frames plus one frame without objects and one whose
    first object carries no points."""
    frames = [ex.frame_data(f) for f in ex.frames()]
    donor = next(fr for fr in frames if fr.objects)
    hollow = dataclasses.replace(donor.objects[0], points=np.empty((0, 3)))
    frames.insert(1, SyntheticFrame((), donor.clutter))
    frames.insert(3, SyntheticFrame((hollow,) + donor.objects[1:], donor.clutter))
    return frames


@pytest.mark.parametrize("grid", [1, 4])
@pytest.mark.parametrize("nms", [True, False])
def test_batched_gated_features_match_propose_bit_for_bit(grid, nms):
    # crowded scenes, so NMS suppresses boxes at the larger sizes
    spec = SyntheticDomain(
        CAR, (0.04, 0.05, 0.03), seed=12, objects_per_frame=8.0,
        frame_extent=(14.0, 14.0, 4.0), clutter_rate=3000.0, grid_resolution=grid, nms=nms,
    )
    frames = _with_edge_frames(generate_domain(spec, 8))
    batched = SyntheticExtractor(frames, spec)
    reference = SyntheticExtractor(frames, spec)
    order = list(np.random.default_rng(0).permutation(len(frames)))
    natural = list(range(len(frames)))
    # the kernel reads the whole table for any frame list; every list but the
    # first picks objects out of it in another order, in part or twice
    orders = [natural, natural[::-1], natural[:3], natural[:4] + [2, 0, 2], order]
    gate = GateConfig(tau=0.6)
    model = fit_em(build_reference_db(reference, order, gate), EmConfig(k=2, seed=0))

    def score(rows):
        return -math.inf if len(rows) == 0 else fitness(FeatureDatabase(grid**3, rows), model)

    rng = np.random.default_rng(1)
    factors = [np.full(3, f) for f in (0.3, 0.5, 0.8, 1.0, 1.3, 2.0)]
    factors += [rng.uniform(0.3, 2.0, 3) for _ in range(10)]
    fits = []
    for factor in factors:
        sizes = AnchorSizes.from_array(CAR.as_array() * factor)
        for query in orders:
            for tau in (0.0, gate.tau):
                got = batched.gated_features(query, sizes, tau)
                want = FeatureExtractor.gated_features(reference, query, sizes, tau)
                assert got.dtype == np.float32 and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        fits.append(score(got))  # of the last frame list, order
        assert fits[-1] == score(want)
    assert fits[0] == -math.inf and math.isfinite(fits[3])  # 0.3x gates to empty
    if nms:
        big = AnchorSizes.from_array(CAR.as_array() * 2.0)
        live = sum(1 for fr in frames for o in fr.objects if o.n_points > 0)
        assert sum(len(reference.propose(f, big)) for f in order) < live


@pytest.mark.parametrize("history", ["fresh", "grown", "built_larger"])
def test_gated_features_do_not_depend_on_the_reach_tables_were_built_at(history):
    # the same rows in the same order whether the tables were built at the
    # query's reach, grown past it from a smaller one, or built far larger
    spec = SyntheticDomain(
        CAR, (0.04, 0.05, 0.03), seed=12, objects_per_frame=8.0,
        frame_extent=(14.0, 14.0, 4.0), clutter_rate=3000.0,
    )
    frames = _with_edge_frames(generate_domain(spec, 6))
    order = list(np.random.default_rng(2).permutation(len(frames)))
    rng = np.random.default_rng(3)
    factors = [np.full(3, 1.0), np.full(3, 0.4)] + [rng.uniform(0.4, 1.8, 3) for _ in range(5)]
    for factor in factors:
        query = CAR.as_array() * factor
        sizes = AnchorSizes.from_array(query)
        ex = SyntheticExtractor(frames, spec)
        if history == "grown":
            ex.gated_features(order, AnchorSizes.from_array(query * 0.9), 0.0)
        elif history == "built_larger":
            ex.gated_features(order, AnchorSizes.from_array(query * 3.0), 0.0)
        for tau in (0.0, 0.6):
            got = ex.gated_features(order, sizes, tau)
            if history == "fresh":
                assert ex._tables.reach2 == _reach2(query / 2.0)
            else:
                assert ex._tables.reach2 > _reach2(query / 2.0)
            fresh = SyntheticExtractor(frames, spec)
            want = FeatureExtractor.gated_features(fresh, order, sizes, tau)
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            # propose() reads the same tables as the kernel
            via_propose = FeatureExtractor.gated_features(ex, order, sizes, tau)
            assert via_propose.tobytes() == want.tobytes()


def test_box_corners_are_captured_whatever_reach_the_tables_were_built_at():
    # a clutter point at each corner of a yaw-0 box, inside the box test's
    # slack but beyond the sphere of radius |half|: the box test alone
    # decides, so tables built at the query's reach and tables built at 3x
    # both capture it, as the independent oracle does
    spec = SyntheticDomain(CAR, (0.0, 0.0, 0.0))
    size = CAR.as_array()
    half = size / 2.0
    pts = np.random.default_rng(0).uniform(-0.45, 0.45, (40, 3)) * size
    zero = np.zeros(3)
    obj = SyntheticObject(zero, size, 0.0, zero, size, 0.0, pts)
    for signs in itertools.product((-1.0, 1.0), repeat=3):
        corner = np.array(signs) * half * (1.0 + 0.9e-9)
        assert corner @ corner > half @ half * (1.0 + 1e-9)
        frame = SyntheticFrame((obj,), corner[None])
        own_in, foreign_in, own_out = oracle_counts(frame, 0, size)
        assert (own_in, foreign_in, own_out) == (40, 1, 0)
        fresh = SyntheticExtractor([frame], spec)
        larger = SyntheticExtractor([frame], spec)
        larger.gated_features([0], AnchorSizes.from_array(size * 3.0), 0.0)
        score = own_in / (own_in + foreign_in + own_out)
        for ex in (fresh, larger):
            assert [p.score for p in ex.propose(0, CAR)] == [score]
            want = FeatureExtractor.gated_features(ex, [0], CAR, 0.0)
            assert ex.gated_features([0], CAR, 0.0).tobytes() == want.tobytes()
            assert np.array_equal(want, [oracle_feature(frame, 0, size, spec.grid_resolution)])
        assert fresh._tables.reach2 == _reach2(half) < larger._tables.reach2


def test_concurrent_table_growth_matches_sequential_results():
    # many threads grow one extractor's candidate tables at once; each call
    # must see a complete table and return what a lone caller gets
    spec = SyntheticDomain(CAR, (0.04, 0.05, 0.03), seed=3, clutter_rate=2000.0)
    frames = [generate_domain(spec, 6).frame_data(f) for f in range(6)]
    shared = SyntheticExtractor(frames, spec)
    sizes = [AnchorSizes.from_array(CAR.as_array() * f) for f in np.linspace(0.5, 1.8, 24)]
    expected = [
        SyntheticExtractor(frames, spec).gated_features(range(6), s, 0.3).tobytes() for s in sizes
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(shared.gated_features, range(6), s, 0.3) for s in sizes]
            got = [fut.result(timeout=60).tobytes() for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
