import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ari_pair_counting,
    dh_exhaustive,
    mean_matrix_error_naive,
    nmi_entropy_sum,
)
from sparsegmm.errors import SparseGmmError
from sparsegmm.metrics import ari, contingency_table, mean_matrix_error, min_hamming, nmi

partitions = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(1, 4), min_size=n, max_size=n),
        st.lists(st.integers(1, 4), min_size=n, max_size=n),
    )
)


def test_contingency_table_sums():
    t = contingency_table([1, 1, 2, 2], [1, 2, 1, 2])
    assert t.counts.sum() == t.n == 4
    assert np.array_equal(t.row_marginals, [2, 2])
    assert np.array_equal(t.col_marginals, [2, 2])


def test_ari_relabeling_gives_one():
    z = np.array([1, 1, 2, 3, 3, 2])
    relabeled = np.array([3, 3, 1, 2, 2, 1])
    assert ari(z, relabeled) == pytest.approx(1.0)


def test_ari_single_cluster_estimate_is_zero():
    assert ari([1, 1, 2, 2], [1, 1, 1, 1]) == pytest.approx(0.0)


def test_ari_crosscut_matches_pair_counting():
    z_true = [1, 1, 2, 2]
    z_est = [1, 2, 1, 2]
    assert ari(z_true, z_est) == pytest.approx(ari_pair_counting(z_true, z_est), abs=1e-12)


def test_ari_length_mismatch():
    with pytest.raises(SparseGmmError, match="partitions must be equal-length vectors"):
        ari([1, 2], [1, 2, 3])


@settings(deadline=None, max_examples=80)
@given(partitions)
def test_ari_matches_oracle_and_is_symmetric(pair):
    za, zb = pair
    assert ari(za, zb) == pytest.approx(ari_pair_counting(za, zb), abs=1e-12)
    assert ari(za, zb) == pytest.approx(ari(zb, za), abs=1e-12)


def test_nmi_identical_partitions():
    assert nmi([1, 2, 2, 3], [1, 2, 2, 3]) == pytest.approx(1.0)


def test_nmi_independent_partitions_near_zero():
    rng = np.random.default_rng(5)
    za = rng.integers(1, 4, size=20_000)
    zb = rng.integers(1, 4, size=20_000)
    assert abs(nmi(za, zb)) < 0.05


def test_nmi_small_case_matches_entropy_oracle():
    z_true = [1, 1, 2, 2]
    z_est = [1, 2, 1, 2]
    assert nmi(z_true, z_est) == pytest.approx(nmi_entropy_sum(z_true, z_est), abs=1e-12)


def test_nmi_degenerate_partition_raises():
    with pytest.raises(SparseGmmError, match="both partitions need at least 2 clusters"):
        nmi([1, 1, 1], [1, 2, 1])


@settings(deadline=None, max_examples=80)
@given(partitions)
def test_nmi_matches_oracle_when_defined(pair):
    za, zb = pair
    if len(set(za)) < 2 or len(set(zb)) < 2:
        with pytest.raises(SparseGmmError, match="both partitions need at least 2 clusters"):
            nmi(za, zb)
        return
    assert nmi(za, zb) == pytest.approx(nmi_entropy_sum(za, zb), abs=1e-12)
    assert nmi(za, zb) == pytest.approx(nmi(zb, za), abs=1e-12)


def test_min_hamming_global_swap():
    assert min_hamming([1, 1, 2, 2], [2, 2, 1, 1], 2) == 0.0


def test_min_hamming_one_third():
    assert min_hamming([1, 1, 2], [1, 2, 2], 2) == pytest.approx(1 / 3)


def test_min_hamming_identity():
    z = [1, 2, 3, 1]
    assert min_hamming(z, z, 3) == 0.0


def test_min_hamming_label_out_of_range():
    with pytest.raises(SparseGmmError, match=r"labels must lie in \[1, 3\]"):
        min_hamming([1, 2, 4], [1, 2, 3], 3)
    with pytest.raises(SparseGmmError, match=r"labels must lie in \[1, 2\]"):
        min_hamming([0, 1, 2], [1, 2, 2], 2)


@settings(deadline=None, max_examples=100)
@given(
    n=st.integers(2, 12),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**31),
)
def test_min_hamming_matches_exhaustive(n, k, seed):
    rng = np.random.default_rng(seed)
    za = rng.integers(1, k + 1, size=n)
    zb = rng.integers(1, k + 1, size=n)
    assert min_hamming(za, zb, k) == pytest.approx(dh_exhaustive(za, zb, k))
    assert min_hamming(za, zb, k) == pytest.approx(min_hamming(zb, za, k))


def test_min_hamming_triangle_inequality_random_triples():
    rng = np.random.default_rng(77)
    for _ in range(300):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 11))
        za, zb, zc = (rng.integers(1, k + 1, size=n) for _ in range(3))
        dab = min_hamming(za, zb, k)
        dbc = min_hamming(zb, zc, k)
        dac = min_hamming(za, zc, k)
        assert dac <= dab + dbc + 1e-12


def test_mean_matrix_error_zero_at_truth():
    mu = np.array([[1.0, 2.0], [0.0, 3.0]])
    z = np.array([1, 2, 1])
    assert mean_matrix_error(mu, z, mu, z) == 0.0


def test_mean_matrix_error_single_coordinate():
    mu_true = np.array([[1.0, 2.0]])
    mu_hat = np.array([[1.0, 4.0]])
    z = np.array([1, 2, 1])
    # one observation in cluster 2, off by 2 -> squared error 4
    assert mean_matrix_error(mu_hat, z, mu_true, z) == pytest.approx(4.0)


def test_mean_matrix_error_matches_naive_sum():
    rng = np.random.default_rng(3)
    mu_hat = rng.standard_normal((4, 3))
    mu_true = rng.standard_normal((4, 2))
    z_hat = rng.integers(1, 4, size=7)
    z_true = rng.integers(1, 3, size=7)
    assert mean_matrix_error(mu_hat, z_hat, mu_true, z_true) == pytest.approx(
        mean_matrix_error_naive(mu_hat, z_hat, mu_true, z_true), rel=1e-12
    )


def test_mean_matrix_error_dimension_mismatch():
    with pytest.raises(SparseGmmError, match="mean matrices must be p x K with equal p"):
        mean_matrix_error(np.ones((3, 2)), [1, 2], np.ones((4, 2)), [1, 2])
    with pytest.raises(SparseGmmError, match="labels must index mean columns"):
        mean_matrix_error(np.ones((3, 2)), [1, 3], np.ones((3, 2)), [1, 2])
