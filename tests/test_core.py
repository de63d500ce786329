import numpy as np
import pytest

from anchorcal.core import AnchorSizes, DimensionMismatchError, FeatureDatabase, ScoredProposal

@pytest.mark.parametrize("bad", [(0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, float("nan"))])
def test_sizes_reject_non_positive(bad):
    with pytest.raises(ValueError):
        AnchorSizes(*bad)


def test_scored_proposal_validates_score_and_feature():
    feat = np.zeros(8, dtype=np.float32)
    p = ScoredProposal(0.5, feat)
    assert p.dim == 8
    with pytest.raises(ValueError):
        ScoredProposal(1.5, feat)
    with pytest.raises(ValueError):
        ScoredProposal(0.5, np.array([np.inf, 0.0]))


def test_database_rejects_mixed_dims_and_nonfinite():
    with pytest.raises(DimensionMismatchError):
        FeatureDatabase(3, np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        FeatureDatabase(2, np.array([[1.0, np.nan]], dtype=np.float32))


def test_database_concat_and_len():
    a = FeatureDatabase(2, np.array([np.ones(2), 2 * np.ones(2)]))
    b = FeatureDatabase(2)
    c = FeatureDatabase.concat([a, b, a])
    assert len(c) == 4
    assert c.dim == 2
    np.testing.assert_array_equal(c.rows[:2], a.rows)
    with pytest.raises(DimensionMismatchError):
        FeatureDatabase.concat([a, FeatureDatabase(3)])


def test_database_rows_are_float32():
    db = FeatureDatabase(2, np.array([[0.1, 0.2]], dtype=np.float64))
    assert db.rows.dtype == np.float32
