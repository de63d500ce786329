import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from anchorcal.core import EmptyDatabaseError, FeatureDatabase, InsufficientSamplesError
from anchorcal.gmm import EmConfig, Gmm, _logsumexp_rows, fit_em, fitness, log_pdf_batch

LOG_2PI = math.log(2.0 * math.pi)

# Frozen case for the extended-precision oracle. The parameters were drawn
# once from default_rng(12345) and the expected values computed with an
# independent mpmath implementation (50 digits) of the naive density sum
# log(sum_i w_i N(x | mu_i, diag(var_i))). See _oracle_log_pdf below for
# the regeneration recipe.
ORACLE_WEIGHTS = [0.1994176272709208, 0.2538949383690967, 0.5466874343599825]
ORACLE_MEANS = [
    [-0.7775197048031928, -0.2260299210315629, -2.2226539562568273, -4.10337810534883, 1.9466784065791196],
    [1.0831743391646849, -5.85858918903657, 7.042228963136555, 2.9054907172557707, -2.2781615412735197],
    [2.706594822636755, -1.4008595199616507, -0.18206855621108392, 2.3665330335576025, -3.7700043994190295],
]
ORACLE_VARIANCES = [
    [1.6008922449950997, 0.8302024333182294, 0.6223918543133122, 0.7398434016125712, 1.0101502774320579],
    [1.1977897305530765, 0.8996315424361565, 1.7236646051372104, 0.7899415839342417, 0.6942036142658004],
    [0.6374971273174039, 1.39785202049737, 1.782112856561002, 1.4024318625405696, 1.8979825417039753],
]
ORACLE_POINTS = [
    [-3.628164860922949, -4.236876040422355, 1.6246404897151585, 2.2558181866730607, -1.9762809587023584],
    [-3.6860249569358303, 0.772673305238617, 0.9387087553041012, -0.3924350706703197, 3.8099493614037985],
    [-0.2788873731998512, -0.1984526670049871, -3.324643401279212, 0.40787055165157077, 4.041233292891802],
    [0.18343206292802522, 0.21274380085412803, 1.3009636111586076, 0.8324509796127031, 1.5907571599203632],
]
ORACLE_EXPECTED = [-25.54880400913717, -28.263462973255802, -22.94561968055244, -20.870621177105427]


def _oracle_log_pdf(weights, means, variances, x):
    """Naive high-precision mixture density, independent of the package."""
    import mpmath as mp

    with mp.workdps(50):
        total = mp.mpf(0)
        for wi, mu, var in zip(weights, means, variances):
            expo = mp.mpf(0)
            norm = mp.mpf(1)
            for xj, mj, vj in zip(x, mu, var):
                d = mp.mpf(xj) - mp.mpf(mj)
                expo += d * d / mp.mpf(vj)
                norm *= 2 * mp.pi * mp.mpf(vj)
            total += mp.mpf(wi) * mp.exp(-expo / 2) / mp.sqrt(norm)
        return float(mp.log(total))


def _single_component(dim, mean=0.0, var=1.0):
    return Gmm(
        np.array([1.0]),
        np.full((1, dim), mean, dtype=np.float64),
        np.full((1, dim), var, dtype=np.float64),
    )


def log_pdf(model, x):
    """Mixture log density of one point."""
    return float(log_pdf_batch(model, np.asarray(x)[None, :])[0])


def peak_log_density(model):
    """Upper bound on log p(x): the largest component peak log density.

    p(x) <= sum_k w_k N(mu_k|mu_k,var_k) <= max_k N(mu_k|mu_k,var_k)
    because the weights are a convex combination.
    """
    peaks = -0.5 * (model.dim * LOG_2PI + np.log(model.variances).sum(axis=1))
    return float(np.max(peaks))


def _random_model(rng, k, dim):
    w = rng.random(k) + 0.1
    w = w / w.sum()
    means = rng.normal(0.0, 2.0, (k, dim))
    variances = rng.uniform(0.2, 3.0, (k, dim))
    return Gmm(w, means, variances)


def test_log_pdf_standard_normal_at_mean():
    model = _single_component(2)
    assert log_pdf(model, np.zeros(2)) == pytest.approx(-LOG_2PI, abs=1e-12)


def test_log_pdf_duplicate_components_collapse():
    single = _single_component(3, mean=0.5, var=1.3)
    double = Gmm(
        np.array([0.5, 0.5]),
        np.full((2, 3), 0.5),
        np.full((2, 3), 1.3),
    )
    x = np.array([0.1, -0.7, 2.2])
    assert log_pdf(double, x) == pytest.approx(log_pdf(single, x), abs=1e-12)


def test_log_pdf_matches_extended_precision_oracle():
    model = Gmm(np.array(ORACLE_WEIGHTS), np.array(ORACLE_MEANS), np.array(ORACLE_VARIANCES))
    got = log_pdf_batch(model, np.array(ORACLE_POINTS))
    np.testing.assert_allclose(got, ORACLE_EXPECTED, rtol=0, atol=1e-10)
    live = [_oracle_log_pdf(ORACLE_WEIGHTS, ORACLE_MEANS, ORACLE_VARIANCES, x) for x in ORACLE_POINTS]
    np.testing.assert_allclose(ORACLE_EXPECTED, live, rtol=0, atol=1e-12)


def test_log_pdf_far_point_stays_finite():
    model = _single_component(4, var=1e-6)
    val = log_pdf(model, np.full(4, 50.0))
    assert math.isfinite(val)
    assert val < -1e6


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_log_pdf_finite_and_bounded_by_peak(seed):
    rng = np.random.default_rng(seed)
    model = _random_model(rng, k=int(rng.integers(1, 5)), dim=3)
    x = rng.normal(0.0, 4.0, (8, 3))
    vals = log_pdf_batch(model, x)
    assert np.all(np.isfinite(vals))
    assert np.all(vals <= peak_log_density(model) + 1e-12)


def test_gmm_weight_sum_validation():
    with pytest.raises(ValueError):
        Gmm(np.array([0.6, 0.5]), np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        Gmm(np.array([1.0]), np.zeros((1, 2)), np.array([[1.0, 0.0]]))


def test_fit_em_k1_matches_moments():
    rng = np.random.default_rng(7)
    rows = rng.normal(1.5, 2.0, (500, 3))
    db = FeatureDatabase(3, rows.astype(np.float32))
    model = fit_em(db, EmConfig(k=1, seed=0))
    x = db.rows.astype(np.float64)
    np.testing.assert_allclose(model.means[0], x.mean(axis=0), atol=1e-9)
    np.testing.assert_allclose(model.variances[0], np.maximum(x.var(axis=0), 1e-6), atol=1e-9)
    assert model.weights[0] == pytest.approx(1.0)


def test_fit_em_identical_copies_hit_variance_floor():
    vec = np.array([0.25, -1.0, 3.0], dtype=np.float32)
    db = FeatureDatabase(3, np.tile(vec, (40, 1)))
    cfg = EmConfig(k=2, variance_floor=1e-6, seed=3)
    model = fit_em(db, cfg)
    for comp in model.means:
        np.testing.assert_allclose(comp, vec.astype(np.float64), atol=1e-9)
    np.testing.assert_allclose(model.variances, cfg.variance_floor, rtol=0, atol=0)


def _two_cluster_db(n=2000, dim=4, seed=99):
    rng = np.random.default_rng(seed)
    n0 = int(round(0.3 * n))
    a = rng.normal(-5.0, 1.0, (n0, dim))
    b = rng.normal(5.0, 1.0, (n - n0, dim))
    rows = np.concatenate([a, b])
    rng.shuffle(rows)
    return FeatureDatabase(dim, rows.astype(np.float32))


def test_fit_em_recovers_two_separated_components():
    db = _two_cluster_db()
    model, histories = fit_em(db, EmConfig(k=2, seed=0), return_history=True)
    order = np.argsort(model.means[:, 0])
    np.testing.assert_allclose(model.means[order[0]], -5.0, atol=0.15)
    np.testing.assert_allclose(model.means[order[1]], 5.0, atol=0.15)
    assert model.weights[order[0]] == pytest.approx(0.3, abs=0.05)
    assert model.weights[order[1]] == pytest.approx(0.7, abs=0.05)
    for history in histories:
        diffs = np.diff(np.array(history))
        assert np.all(diffs >= -1e-9)


def test_fit_em_is_deterministic_and_order_free():
    db = _two_cluster_db(n=300, seed=5)
    cfg = EmConfig(k=3, seed=42, restarts=2)
    a = fit_em(db, cfg)
    b = fit_em(db, cfg)
    assert a == b
    perm = np.random.default_rng(0).permutation(len(db))
    shuffled = FeatureDatabase(db.dim, db.rows[perm])
    c = fit_em(shuffled, cfg)
    assert a == c


def test_fit_em_rejects_empty_and_undersized():
    with pytest.raises(EmptyDatabaseError):
        fit_em(FeatureDatabase(4), EmConfig(k=2))
    small = FeatureDatabase(4, np.random.default_rng(0).random((3, 4)).astype(np.float32))
    with pytest.raises(InsufficientSamplesError):
        fit_em(small, EmConfig(k=8))


def test_fitness_single_zero_vector():
    model = _single_component(3)
    db = FeatureDatabase(3, np.zeros((1, 3), dtype=np.float32))
    assert fitness(db, model) == pytest.approx(-1.5 * LOG_2PI, abs=1e-12)


def test_fitness_empty_database_raises():
    with pytest.raises(EmptyDatabaseError):
        fitness(FeatureDatabase(3), _single_component(3))


def test_fitness_duplication_invariance():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        dim = int(rng.integers(2, 8))
        model = _random_model(rng, k=int(rng.integers(1, 4)), dim=dim)
        rows = rng.normal(0.0, 2.0, (int(rng.integers(1, 60)), dim)).astype(np.float32)
        db = FeatureDatabase(dim, rows)
        tripled = FeatureDatabase.concat([db, db, db])
        f1, f3 = fitness(db, model), fitness(tripled, model)
        assert abs(f1 - f3) <= 1e-12 * max(1.0, abs(f1))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_fitness_is_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    model = _random_model(rng, k=2, dim=4)
    rows = rng.normal(0.0, 2.0, (17, 4)).astype(np.float32)
    db = FeatureDatabase(4, rows)
    perm = rng.permutation(17)
    shuffled = FeatureDatabase(4, rows[perm])
    assert fitness(db, model) == fitness(shuffled, model)


def test_fitness_bounded_by_component_peak():
    rng = np.random.default_rng(31)
    model = _random_model(rng, k=3, dim=5)
    db = FeatureDatabase(5, rng.normal(0, 1, (50, 5)).astype(np.float32))
    assert fitness(db, model) <= peak_log_density(model)


def test_fitness_of_model_samples_matches_monte_carlo_expectation():
    rng = np.random.default_rng(1234)
    model = Gmm(
        np.array([0.4, 0.6]),
        np.array([[0.0, 0.0, 0.0, 0.0], [3.0, -2.0, 1.0, 0.5]]),
        np.array([[1.0, 0.5, 2.0, 1.0], [0.7, 1.2, 0.4, 1.5]]),
    )

    def draw(n, gen):
        comp = gen.choice(2, size=n, p=model.weights)
        std = np.sqrt(model.variances[comp])
        return model.means[comp] + gen.normal(size=(n, 4)) * std

    db = FeatureDatabase(4, draw(10_000, rng).astype(np.float32))
    got = fitness(db, model)
    oracle = float(np.mean(log_pdf_batch(model, draw(1_000_000, np.random.default_rng(777)))))
    assert got == pytest.approx(oracle, abs=0.05)


@pytest.mark.parametrize("k", [1, 2, 8, 16])
def test_logsumexp_rows_matches_scipy_bit_for_bit(k):
    # every artifact hashes fitness values, so the port must not move a bit
    rng = np.random.default_rng(k)
    for scale in (1e-3, 1.0, 1e2, 1e4):
        a = rng.normal(size=(2000, k)) * scale - rng.uniform(0.0, 500.0, (2000, 1))
        if k > 1:
            a[::7, 1] = a[::7, 0]  # tied row maxima
        a[:40] = np.round(a[:40])
        assert _logsumexp_rows(a).tobytes() == logsumexp(a, axis=1).tobytes()
    edge = np.array([[-np.inf] * k, [np.inf] + [0.0] * (k - 1), [-np.inf] * (k - 1) + [1.0]])
    with np.errstate(all="ignore"):
        want = logsumexp(edge, axis=1)
    assert _logsumexp_rows(edge).tobytes() == want.tobytes()
