import numpy as np
import pytest

from sparsegmm.errors import DataError
from sparsegmm.preprocess import preprocess_scrna


def _counts(seed=0, genes=20, cells=12, scale=40):
    rng = np.random.default_rng(seed)
    return rng.poisson(scale, size=(genes, cells)).astype(float)


def test_log_transform_value():
    counts = _counts()
    counts[0, 0] = 3.0
    kept_before = counts.sum(axis=1) > 10
    x = np.log2(counts[kept_before] + 1.0)
    assert x[0, 0] == pytest.approx(2.0)  # log2(3 + 1)


def test_gene_at_threshold_dropped():
    counts = np.zeros((3, 5))
    counts[0] = [2, 2, 2, 2, 2]     # total 10 -> dropped (<= threshold)
    counts[1] = [3, 2, 2, 2, 2]     # total 11 -> kept
    counts[2] = [50, 10, 20, 30, 5]
    data = preprocess_scrna(counts, min_total=10)
    assert data.p == 2


def test_standardization_contract():
    data = preprocess_scrna(_counts(seed=1))
    means = data.values.mean(axis=1)
    variances = data.values.var(axis=1, ddof=0)
    assert np.abs(means).max() < 1e-10
    assert np.abs(variances - 1.0).max() < 1e-10


def test_empty_after_filter():
    with pytest.raises(DataError, match="no gene exceeds the total-count threshold 10"):
        preprocess_scrna(np.ones((4, 3)), min_total=10)


def test_constant_gene_dropped_with_warning():
    # symmetric design: both cells have equal log-totals, so the uniform
    # gene stays constant after normalization and must be dropped
    counts = np.array([[8.0, 2.0], [2.0, 8.0], [5.0, 5.0]])
    with pytest.warns(UserWarning):
        data = preprocess_scrna(counts, min_total=5)
    assert data.p == 2


def test_negative_counts_rejected():
    counts = _counts()
    counts[0, 0] = -1
    with pytest.raises(DataError):
        preprocess_scrna(counts)


def test_zero_cell_rejected():
    counts = _counts(seed=3, genes=5, cells=4)
    counts[:, 2] = 0.0
    with pytest.raises(DataError):
        preprocess_scrna(counts, min_total=0)
