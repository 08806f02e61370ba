import numpy as np
import pytest

from oracles import cmle_exhaustive
import sparsegmm.cmle as cmle
from sparsegmm.cmle import CmleConfig, fit_cmle, fit_kmeans, sparsify_rows
from sparsegmm.core import DataMatrix
from sparsegmm.metrics import min_hamming


def _sparse_blobs(seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    mu = np.zeros((6, 2))
    mu[:2, 0] = 4.0
    mu[:2, 1] = -4.0
    z = np.repeat([1, 2], 8)
    vals = mu[:, z - 1] + noise * rng.standard_normal((6, 16))
    return DataMatrix(vals), z, mu


def test_noiseless_truth_is_fixed_point():
    # the best of several restarts on noiseless blobs lands on the truth
    data, z_true, mu_true = _sparse_blobs()
    cfg = CmleConfig(k=2, s=2, n_restarts=8, seed=0)
    mu, z, obj = fit_cmle(data, cfg)
    assert obj == 0.0
    assert min_hamming(z, z_true, 2) == 0.0
    if z[0] != z_true[0]:
        mu = mu[:, ::-1]
    assert mu == pytest.approx(mu_true)


def test_full_budget_reduces_to_kmeans():
    data, z_true, _ = _sparse_blobs(noise=0.3)
    cfg = CmleConfig(k=2, s=6, n_restarts=4, seed=1)
    mu_c, z_c, obj_c = fit_cmle(data, cfg)
    mu_k, z_k = fit_kmeans(data, 2, n_restarts=4, seed=1)
    obj_k = fit_cmle(data, CmleConfig(k=2, n_restarts=4, seed=1))[2]
    assert obj_c == pytest.approx(obj_k)
    assert min_hamming(z_c, z_k, 2) == 0.0


def test_tiny_instance_matches_exhaustive_search():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((3, 4))
    data = DataMatrix(values)
    cfg = CmleConfig(k=2, s=1, n_restarts=32, max_iters=50, seed=9)
    _, _, obj = fit_cmle(data, cfg)
    assert obj == pytest.approx(cmle_exhaustive(values, 2, 1), rel=1e-9)


def test_output_row_sparsity():
    data, _, _ = _sparse_blobs(noise=0.5, seed=3)
    for s in (1, 2, 4):
        mu, _, _ = fit_cmle(data, CmleConfig(k=2, s=s, n_restarts=4, seed=2))
        assert int((mu != 0).any(axis=1).sum()) <= s


def test_best_of_restarts_monotone():
    rng = np.random.default_rng(8)
    data = DataMatrix(rng.standard_normal((4, 12)))
    objs = []
    for r in (1, 2, 4, 8):
        _, _, obj = fit_cmle(data, CmleConfig(k=3, s=2, n_restarts=r, seed=4))
        objs.append(obj)
    assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))


def test_sparsify_rows_identity_cases():
    mu = np.array([[1.0, 2.0], [0.0, 0.5]])
    assert np.array_equal(sparsify_rows(mu, 2), mu)
    single = np.array([[0.0, 0.0], [3.0, 1.0]])
    assert np.array_equal(sparsify_rows(single, 1), single)


def test_sparsify_rows_ordering():
    mu = np.array([[np.sqrt(5.0)], [np.sqrt(3.0)], [1.0]])
    out = sparsify_rows(mu, 2)
    assert out[2, 0] == 0.0
    assert out[0, 0] == mu[0, 0] and out[1, 0] == mu[1, 0]


def test_sparsify_rows_tie_breaks_low_index():
    mu = np.array([[1.0], [1.0], [1.0]])
    out = sparsify_rows(mu, 2)
    assert out[2, 0] == 0.0 and out[0, 0] == 1.0 and out[1, 0] == 1.0


def test_sparsify_rows_uses_cluster_size_weights():
    mu = np.array([[1.0, 0.0], [0.0, 1.1]])
    # unweighted, row 1 wins; with a heavy first cluster row 0 wins
    assert sparsify_rows(mu, 1)[0, 0] == 0.0
    assert sparsify_rows(mu, 1, sizes=np.array([10.0, 1.0]))[1, 1] == 0.0


def test_exhaustive_oracle_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(20):
        p = int(rng.integers(2, 5))
        n = int(rng.integers(3, 7))
        s = int(rng.integers(1, p + 1))
        values = rng.standard_normal((p, n))
        cfg = CmleConfig(k=2, s=s, n_restarts=32, max_iters=60, seed=trial)
        _, _, obj = fit_cmle(DataMatrix(values), cfg)
        target = cmle_exhaustive(values, 2, s)
        assert obj == pytest.approx(target, rel=1e-9, abs=1e-12)


def _old_sq_residuals(values, mu, z):
    """The reseed's residual as it was written before ``_sq_residuals``."""
    return (values - mu[:, z - 1]) ** 2


@pytest.mark.parametrize("p, n", [(1, 5), (3, 7), (50, 40), (400, 200), (2000, 300)])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_sq_residuals_match_the_expression_bit_for_bit(p, n, layout):
    """The reseed's residuals, their column sums and the objective, at value
    scales 1e-3 to 1e3: those of the expression, laid out C-ordered."""
    rng = np.random.default_rng(p * n)
    for scale in (1e-3, 1.0, 1e3):
        values = np.asarray(scale * rng.standard_normal((p, n)), order=layout)
        mu = scale * rng.standard_normal((p, 4))
        z = rng.integers(1, 5, size=n)
        old = np.ascontiguousarray(_old_sq_residuals(values, mu, z))
        new = cmle._sq_residuals(values, mu, z)
        assert new.flags.c_contiguous and new.tobytes() == old.tobytes()
        assert new.sum(axis=0).tobytes() == old.sum(axis=0).tobytes()
        assert cmle._objective(values, mu, z) == float(np.sum(old))


@pytest.mark.parametrize("layout", ["C", "F"])
def test_kmeans_reseed_matches_the_old_residual(monkeypatch, layout):
    """Five centres for three distinct observations leave clusters empty,
    so every restart reseeds; the fit is the one the old expression gave."""
    base = np.random.default_rng(3).standard_normal((6, 3))
    data = DataMatrix(np.asarray(base[:, np.repeat([0, 1, 2], 4)], order=layout))
    calls, helper = [], cmle._sq_residuals

    def spy(values, mu, z):
        calls.append(z)
        return helper(values, mu, z)

    monkeypatch.setattr(cmle, "_sq_residuals", spy)
    mu_new, z_new = fit_kmeans(data, 5, n_restarts=4, seed=2)
    assert calls
    monkeypatch.setattr(cmle, "_sq_residuals", _old_sq_residuals)
    mu_old, z_old = fit_kmeans(data, 5, n_restarts=4, seed=2)
    assert mu_new.tobytes() == mu_old.tobytes()
    assert np.array_equal(z_new, z_old)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_assign_sends_ties_to_the_lowest_label(layout):
    """Duplicated centres tie bit for bit: every observation takes the lower
    label of its pair, the one that direct distances give.  Stacked into
    one product, each restart's block sends ties to its own lowest label."""
    rng = np.random.default_rng(4)
    values = np.asarray(rng.standard_normal((30, 50)), order=layout)
    centres = rng.standard_normal((30, 2))
    mu = centres[:, [0, 1, 0, 1, 1]]
    z = cmle._assign(values, mu)
    direct = ((values[:, :, None] - centres[:, None, :]) ** 2).sum(axis=0).argmin(axis=1) + 1
    assert set(z) == {1, 2}
    assert np.array_equal(z, direct)
    same = cmle._assign(values, centres[:, [1, 1, 1]])
    assert np.array_equal(same, np.ones(50, dtype=int))

    centres = np.hstack([centres, rng.standard_normal((30, 1))])
    blocks = [[0, 1, 0, 1, 1], [1, 1, 1, 1, 1], [2, 0, 2, 0, 1], [1, 2, 2, 0, 0]]
    stacked = centres[:, [c for block in blocks for c in block]]
    for out in (None, np.empty(len(blocks) * 5 * 50)):
        z = cmle._assign_stacked(values, stacked, 5, out)
        assert z.shape == (len(blocks), 50)
        for row, block in zip(z, blocks):
            assert all(block.index(block[c - 1]) == c - 1 for c in set(row))
            direct = ((values[:, :, None] - centres[:, None, block]) ** 2).sum(axis=0)
            assert np.array_equal(row, direct.argmin(axis=1) + 1)
            assert np.array_equal(row, cmle._assign(values, centres[:, block]))
