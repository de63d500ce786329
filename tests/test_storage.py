import math
import struct

import numpy as np
import pytest

from anchorcal.core import AnchorSizes, FeatureDatabase
from anchorcal.gmm import EmConfig, Gmm, fit_em
from anchorcal.optimizer import CalibrationResult
from anchorcal.storage import (
    FormatError,
    domain_spec_from_json,
    load_curve,
    load_domain,
    load_feature_db,
    load_gmm,
    load_result,
    load_trace,
    save_curve,
    save_domain,
    save_feature_db,
    save_gmm,
    save_result,
    save_trace,
)
from anchorcal.synthdet import SyntheticDomain, generate_domain

CAR = AnchorSizes(1.9, 4.6, 1.7)


def test_feature_db_golden_bytes(tmp_path):
    # layout oracle built with struct by hand: magic, version, dim, count, rows
    rows = np.array([[1.5, -2.0], [0.25, 7.0], [0.0, 3.5]], dtype=np.float32)
    db = FeatureDatabase(2, rows)
    path = tmp_path / "db.sfdb"
    save_feature_db(db, path)
    expected = struct.pack("<4sIIQ", b"SFDB", 1, 2, 3)
    expected += struct.pack("<6f", 1.5, -2.0, 0.25, 7.0, 0.0, 3.5)
    assert path.read_bytes() == expected


def test_feature_db_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    db = FeatureDatabase(17, rng.random((40, 17), dtype=np.float32))
    path = tmp_path / "db.sfdb"
    save_feature_db(db, path)
    assert load_feature_db(path) == db


def test_empty_feature_db_round_trip(tmp_path):
    db = FeatureDatabase(5)
    path = tmp_path / "empty.sfdb"
    save_feature_db(db, path)
    loaded = load_feature_db(path)
    assert loaded == db and len(loaded) == 0


def test_feature_db_rejects_corruption(tmp_path):
    db = FeatureDatabase(3, np.ones((2, 3), dtype=np.float32))
    path = tmp_path / "db.sfdb"
    save_feature_db(db, path)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.sfdb"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(FormatError, match="magic"):
        load_feature_db(bad_magic)

    bad_version = tmp_path / "version.sfdb"
    bad_version.write_bytes(struct.pack("<4sI", b"SFDB", 9) + bytes(raw[8:]))
    with pytest.raises(FormatError, match="version"):
        load_feature_db(bad_version)

    truncated = tmp_path / "short.sfdb"
    truncated.write_bytes(bytes(raw[:-4]))
    with pytest.raises(FormatError, match="bytes"):
        load_feature_db(truncated)


def test_gmm_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    db = FeatureDatabase(6, rng.random((64, 6), dtype=np.float32))
    model = fit_em(db, EmConfig(k=3, seed=1))
    path = tmp_path / "model.json"
    save_gmm(model, path)
    assert load_gmm(path) == model


def test_gmm_file_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"weights": [1.0]}')
    with pytest.raises(FormatError, match="mixture"):
        load_gmm(path)
    path.write_text('{"weights": [0.5, 0.4], "means": [[0.0], [1.0]], "variances": [[1.0], [1.0]]}')
    with pytest.raises(FormatError, match="sum"):
        load_gmm(path)


def make_result(**overrides):
    fields = dict(
        calibrated=AnchorSizes(1.62, 3.88, 1.52),
        source_sizes=CAR,
        fitness_calibrated=214.25,
        fitness_source=183.5,
        sweep_curves={
            "w": ((0.95, -math.inf), (1.9, 180.0), (2.85, 120.0)),
            "l": ((2.3, 100.0), (4.6, 181.0), (6.9, 90.0)),
        },
        de_trace=(181.0, 200.0, 214.25),
        termination="converged",
        evaluations=87,
    )
    fields.update(overrides)
    return CalibrationResult(**fields)


def test_result_round_trip_with_infinities(tmp_path):
    result = make_result()
    path = tmp_path / "result.json"
    save_result(result, path)
    assert load_result(path) == result
    # strict JSON: the -inf sentinel must be a string, not Infinity
    assert "Infinity" not in path.read_text()


def test_result_round_trip_minus_inf_source(tmp_path):
    result = make_result(fitness_source=-math.inf)
    path = tmp_path / "result.json"
    save_result(result, path)
    loaded = load_result(path)
    assert loaded == result and loaded.fitness_source == -math.inf


def test_result_file_validation(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text("[1, 2]")
    with pytest.raises(FormatError):
        load_result(path)
    path.write_text("{}")
    with pytest.raises(FormatError):
        load_result(path)


def test_curve_round_trip_exact(tmp_path):
    curve = ((0.1 + 0.2, 17.000000000000004), (1.9, -math.inf), (2.0, -1e-308))
    path = tmp_path / "sweep_w.csv"
    save_curve(curve, path)
    assert load_curve(path) == curve
    header = path.read_text().splitlines()[0]
    assert header == "value,fitness"


def test_curve_rejects_wrong_header(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(FormatError, match="header"):
        load_curve(path)


def test_trace_round_trip(tmp_path):
    trace = (100.0, 120.5, 120.5, 131.25)
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    assert load_trace(path) == trace
    lines = path.read_text().splitlines()
    assert lines[0] == "generation,best_fitness"
    assert lines[1].startswith("0,")


@pytest.mark.parametrize("row", ["1,abc", "1,2,3"])
def test_trace_rejects_malformed_row(tmp_path, row):
    path = tmp_path / "trace.csv"
    path.write_text(f"generation,best_fitness\n0,1.5\n{row}\n")
    with pytest.raises(FormatError):
        load_trace(path)


def test_domain_cache_round_trip(tmp_path):
    spec = SyntheticDomain(CAR, (0.04, 0.05, 0.03), clutter_rate=500.0, seed=21)
    ex = generate_domain(spec, 4)
    save_domain(ex, tmp_path / "dom")
    loaded = load_domain(tmp_path / "dom")
    assert loaded.domain == spec
    assert list(loaded.frames()) == list(ex.frames())
    for f in ex.frames():
        a, b = ex.frame_data(f), loaded.frame_data(f)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.owner, b.owner)
        assert np.shares_memory(b.clutter, b.points)
        for oa, ob in zip(a.objects, b.objects):
            assert oa.yaw == ob.yaw and oa.est_yaw == ob.est_yaw
            np.testing.assert_array_equal(oa.points, ob.points)
            assert np.shares_memory(ob.points, b.points)
            np.testing.assert_array_equal(oa.est_center, ob.est_center)
            np.testing.assert_array_equal(oa.est_size, ob.est_size)
    # behavioral equivalence, not just array equality
    for f in ex.frames():
        pa = ex.propose(f, AnchorSizes(1.7, 4.0, 1.5))
        pb = loaded.propose(f, AnchorSizes(1.7, 4.0, 1.5))
        assert [p.score for p in pa] == [p.score for p in pb]
        for x, y in zip(pa, pb):
            np.testing.assert_array_equal(x.feature, y.feature)


def test_domain_cache_writes_are_deterministic(tmp_path):
    spec = SyntheticDomain(CAR, (0.04, 0.05, 0.03), clutter_rate=200.0, seed=9)
    ex = generate_domain(spec, 3)
    save_domain(ex, tmp_path / "a")
    save_domain(ex, tmp_path / "b")
    for name in ("manifest.json", "frames.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _frames_file_boundaries(data):
    """Offsets where each header and point block of a frames file starts,
    walked with struct alone: domain header <4sIQ, frame header <IQ (objects,
    clutter points), object header <14dQ (last field: points), float64 xyz."""
    bounds, offset = [0], 16
    for _ in range(struct.unpack_from("<4sIQ", data)[2]):
        bounds.append(offset)
        n_objects, n_clutter = struct.unpack_from("<IQ", data, offset)
        offset += 12
        for _ in range(n_objects):
            bounds.append(offset)
            offset += 120
            bounds.append(offset)
            offset += 24 * struct.unpack_from("<14dQ", data, offset - 120)[14]
        bounds.append(offset)
        offset += 24 * n_clutter
    assert offset == len(data)
    return bounds + [offset]


def test_domain_cache_rejects_truncation(tmp_path):
    # a cut at 0, at every header and point-block boundary and one byte
    # either side, halfway between boundaries and 9 bytes short of the end;
    # then one byte appended
    spec = SyntheticDomain(CAR, (0.0, 0.0, 0.0), objects_per_frame=2.0, clutter_rate=20.0, seed=2)
    save_domain(generate_domain(spec, 3), tmp_path / "dom")
    frames = tmp_path / "dom" / "frames.bin"
    data = frames.read_bytes()
    bounds = _frames_file_boundaries(data)
    assert len(bounds) > 8
    cuts = {0, len(data) - 9}
    cuts.update(b + d for b in bounds for d in (-1, 0, 1))
    cuts.update((a + b) // 2 for a, b in zip(bounds, bounds[1:]))
    for cut in sorted(c for c in cuts if 0 <= c < len(data)):
        frames.write_bytes(data[:cut])
        with pytest.raises(FormatError):
            load_domain(tmp_path / "dom")
    frames.write_bytes(data + b"\0")
    with pytest.raises(FormatError, match="1 trailing bytes"):
        load_domain(tmp_path / "dom")
    frames.write_bytes(data)
    assert len(list(load_domain(tmp_path / "dom").frames())) == 3


def test_domain_spec_from_json_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        domain_spec_from_json(
            {"size_mean": [1.9, 4.6, 1.7], "size_std": [0.0, 0.0, 0.0], "bogus": 1}
        )
