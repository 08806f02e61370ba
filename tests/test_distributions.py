import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import gig_moment_quad, trunc_poisson_pmf_direct
from sparsegmm.distributions import (
    log_trunc_poisson_table,
    sample_categorical_log,
    sample_gig_half_vector,
)
from sparsegmm.errors import SparseGmmError


def _gig_draws(chi, tau, n, seed=0):
    """n GIG(1/2, chi, tau) draws."""
    return sample_gig_half_vector(np.full(n, chi), tau, np.random.default_rng(seed))


def test_gig_chi_zero_reduces_to_gamma():
    draws = _gig_draws(0.0, 1.0, 100_000, seed=1)
    assert abs(draws.mean() - 1.0) < 0.01  # Gamma(1/2, rate 1/2) has mean 1


def test_gig_unit_params_matches_bessel_ratio():
    # closed form: mean = 2 for order 1/2 at chi = tau = 1
    assert gig_moment_quad(0.5, 1.0, 1.0, 1) == pytest.approx(2.0, rel=1e-8)
    draws = _gig_draws(1.0, 1.0, 100_000, seed=2)
    assert abs(draws.mean() - 2.0) < 0.02


def test_gig_chi_four_matches_quadrature():
    target = gig_moment_quad(0.5, 4.0, 1.0, 1)
    draws = _gig_draws(4.0, 1.0, 100_000, seed=3)
    assert abs(draws.mean() - target) < 0.01 * target


@settings(deadline=None, max_examples=60)
@given(chi=st.floats(0.0, 50.0), seed=st.integers(0, 2**31))
@example(chi=2.725112060336652e-97, seed=0)
def test_gig_draws_positive_and_finite(chi, seed):
    x = _gig_draws(chi, 1.0, 1, seed)[0]
    assert 0.0 < x < math.inf


def test_gig_half_vector_matches_scalar_branches():
    chi = np.array([0.0, 4.0, 1e-310, 0.25])
    rng1 = np.random.default_rng(9)
    vec = sample_gig_half_vector(chi, 1.0, rng1)
    assert (vec > 0).all()
    # wald block first (indices 1 and 3, ascending), then the gamma block
    rng2 = np.random.default_rng(9)
    wald = 1.0 / rng2.wald(np.sqrt(1.0 / chi[[1, 3]]), 1.0)
    gamma = rng2.gamma(0.5, 2.0, size=2)
    assert vec[[1, 3]] == pytest.approx(wald)
    assert vec[[0, 2]] == pytest.approx(gamma)


def test_gig_half_small_chi_branch():
    # one draw just below the numpy-wald cutoff, where wald is still accurate
    chi = np.array([1e-9])
    vec = sample_gig_half_vector(chi, 1.0, np.random.default_rng(3))
    wald = 1.0 / np.random.default_rng(3).wald(np.sqrt(1.0 / chi), 1.0)
    assert vec == pytest.approx(wald, rel=1e-6)
    # far below it numpy's wald underflows to 0; E[X] = sqrt(chi) + 1, E[X^2] -> 3
    draws = sample_gig_half_vector(np.full(200_000, 1e-97), 1.0, np.random.default_rng(4))
    assert np.isfinite(draws).all() and (draws > 0).all()
    for order, target in ((1, 1.0), (2, 3.0)):
        se = (draws**order).std(ddof=1) / math.sqrt(draws.size)
        assert abs((draws**order).mean() - target) < 4 * se


def test_trunc_poisson_degenerate_support():
    assert log_trunc_poisson_table(3.7, 1).tolist() == [0.0]


def test_trunc_poisson_two_point():
    # rate 2 over {1, 2}: weights 2 and 2 -> pmf(1) = 1/2
    assert log_trunc_poisson_table(2.0, 2)[0] == pytest.approx(math.log(0.5))


@settings(deadline=None, max_examples=40)
@given(rate=st.floats(0.05, 40.0), k_max=st.integers(1, 30))
def test_trunc_poisson_normalizes(rate, k_max):
    table = log_trunc_poisson_table(rate, k_max)
    assert np.exp(table).sum() == pytest.approx(1.0, abs=1e-12)
    direct = trunc_poisson_pmf_direct(rate, k_max)
    assert np.exp(table) == pytest.approx(direct, rel=1e-10)


def test_categorical_symmetric_pair():
    rng = np.random.default_rng(11)
    draws = [sample_categorical_log(np.zeros(2), rng) for _ in range(100_000)]
    assert abs(np.mean(draws) - 0.5) < 0.01


def test_categorical_dominant_weight():
    rng = np.random.default_rng(12)
    draws = [sample_categorical_log([0.0, -1000.0], rng) for _ in range(10_000)]
    assert not any(draws)


def test_categorical_proportions():
    rng = np.random.default_rng(13)
    lw = np.log([1.0, 2.0, 3.0])
    draws = np.array([sample_categorical_log(lw, rng) for _ in range(100_000)])
    freq = np.bincount(draws, minlength=3) / draws.size
    assert freq == pytest.approx([1 / 6, 1 / 3, 1 / 2], abs=0.02)


def test_categorical_all_neg_infinite():
    with pytest.raises(SparseGmmError, match="no finite log-weight"):
        sample_categorical_log([-np.inf, -np.inf], np.random.default_rng(0))


@pytest.mark.parametrize("lw", [[0.0, np.nan], [np.nan, 0.0], [0.0, np.nan, -1.0]])
def test_categorical_nan_weight_raises(lw):
    # max() keeps a leading NaN, so that weight is caught as the maximum
    message = "no finite log-weight" if math.isnan(lw[0]) else "a log-weight is NaN"
    with pytest.raises(SparseGmmError, match=message):
        sample_categorical_log(lw, np.random.default_rng(0))


def test_categorical_shift_invariant_draws():
    lw = np.array([-3.0, 0.5, -700.0])
    a = [sample_categorical_log(lw, np.random.default_rng(7)) for _ in range(500)]
    b = [sample_categorical_log(lw + 123.4, np.random.default_rng(7)) for _ in range(500)]
    assert a == b


def test_categorical_list_and_array_draw_the_same_index():
    rng = np.random.default_rng(14)
    for _ in range(300):
        lw = rng.normal(scale=5.0, size=int(rng.integers(1, 8)))
        seed = int(rng.integers(2**32))
        a = sample_categorical_log(lw, np.random.default_rng(seed))
        assert sample_categorical_log(lw.tolist(), np.random.default_rng(seed)) == a
