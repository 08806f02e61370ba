"""Bitwise equality of the lean sampler paths with their naive references.

The cluster sums, the scale update, the k-means Lloyd loop and the
synthetic generator were rewritten to do less work, or to hold less
memory, with the same random draws and the same arithmetic (the loop
ranks its iterates from cluster sums, the reference by the dense
objective, and both must pick the same one; its distances leave out the
observation's squared norm, which only the argmin reads); the reseat pass
computes its distances from inner products, which changes the weights by
rounding only, and the weights only steer categorical draws, whose
uniforms it takes in blocks, and which it makes for blocks of
observations at once in numpy.  These tests hold them to the plain versions
kept in ``oracles.py``: every array, and the generator's state, must be
equal bit for bit, not close.
"""

import tracemalloc

import numpy as np
import pytest

import sparsegmm.distributions as distributions
import sparsegmm.gibbs as gibbs
from oracles import reference_generate, reference_kmeans, reference_sweep, reference_update_phi
from sparsegmm.cmle import CmleConfig, fit_cmle, fit_kmeans
from sparsegmm.core import (SPARSE_SUMS_MIN, DataMatrix, Hyperparams, ModelState, cluster_sums,
                            stacked_cluster_sums)
from sparsegmm.gibbs import InitSpec, RunConfig, init_state, sweep
from sparsegmm.ssl import build_context, update_mu, update_phi, update_theta, update_xi
from sparsegmm.synthetic import ScenarioSpec, generate
from sparsegmm.urn import ReseatWorkspace, build_vn_table, reseat_observation


def _churning_design(ssl_mode):
    """Two groups at p=3, n=24, with a prior that favours more clusters:
    small clusters keep opening and closing, and K often reaches k_max=4."""
    rng = np.random.default_rng(1)
    lab = rng.integers(0, 2, size=24)
    centres = np.array([[2.0, -2.0], [1.0, -1.0], [0.0, 0.0]])
    data = DataMatrix(centres[:, lab] + rng.standard_normal((3, 24)))
    hyper = Hyperparams(lambda0=2.0, lambda1=1.0, beta_theta=2.0, alpha=1.0,
                        poisson_lambda=6.0, k_max=4, ssl_mode=ssl_mode)
    return data, hyper


def _count_moves(monkeypatch, k_max, check=None):
    """Count over the sweep's reseat pass, whether a block of
    ``ReseatWorkspace.advance`` or the scalar step reseated: clusters opened
    and closed, reseats started at K = k_max, and moves between clusters
    that blocks made.  ``check(state, ws)`` runs after each scalar step."""
    moves = {"opened": 0, "closed": 0, "at_k_max": 0, "block_moves": 0}
    reseat, advance = gibbs.reseat_observation, ReseatWorkspace.advance

    def counting_reseat(i, st, ws, rng):
        before = st.k_active
        out = reseat(i, st, ws, rng)
        moves["opened"] += st.k_active > before
        moves["closed"] += st.k_active < before
        moves["at_k_max"] += before == k_max
        if check is not None:
            check(st, ws)
        return out

    def counting_advance(ws, z, start):
        labels = z.copy()
        stop = advance(ws, z, start)
        # a block opens and closes nothing, so K is the same for each of its reseats
        moves["at_k_max"] += (stop - start) * (ws.k == k_max)
        moves["block_moves"] += int((z != labels).sum())
        return stop

    monkeypatch.setattr(gibbs, "reseat_observation", counting_reseat)
    monkeypatch.setattr(ReseatWorkspace, "advance", counting_advance)
    return moves


def _churning_start(data, hyper):
    return init_state(data, hyper, RunConfig(init=InitSpec("random_k", 2)),
                      np.random.default_rng(1))


@pytest.mark.parametrize("ssl_mode", ["joint", "column"])
def test_sweep_matches_reference_sweep_bitwise(ssl_mode, monkeypatch):
    """40 sweeps of the kernel and of the reference from equal streams."""
    data, hyper = _churning_design(ssl_mode)
    vn = build_vn_table(data.n, hyper)
    state = _churning_start(data, hyper)
    ref = state.copy()
    moves = _count_moves(monkeypatch, hyper.k_max)
    rng, rng_ref = np.random.default_rng(101), np.random.default_rng(101)
    for s in range(40):
        sweep(state, data, vn, hyper, rng)
        reference_sweep(ref, data, vn, hyper, rng_ref)
        assert np.array_equal(state.z, ref.z), s
        assert np.array_equal(state.mu, ref.mu), s
        assert np.array_equal(state.phi, ref.phi), s
        assert np.array_equal(state.xi, ref.xi), s
        assert state.theta == ref.theta, s
        # the blocks of uniforms leave the generator where scalar draws do
        assert rng.bit_generator.state == rng_ref.bit_generator.state, s
    # the paths that matter ran: clusters opened and closed, and reseats
    # started at K = k_max, where a non-singleton is offered no new cluster
    assert moves["opened"] >= 5 and moves["closed"] >= 5, moves
    assert moves["at_k_max"] >= 50, moves


@pytest.mark.parametrize("ssl_mode", ["joint", "column"])
def test_sweep_matches_reference_sweep_bitwise_under_dense_moves(ssl_mode, monkeypatch):
    """Three overlapping groups at p=2, n=200 and K = k_max = 3: about half
    the observations change cluster in every pass, and the blocks, not the
    scalar step, must make those moves with the reference's draws."""
    rng = np.random.default_rng(3)
    lab = rng.integers(0, 3, size=200)
    centres = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    data = DataMatrix(centres[:, lab] + rng.standard_normal((2, 200)))
    hyper = Hyperparams(lambda0=2.0, lambda1=1.0, beta_theta=2.0, poisson_lambda=3.0,
                        k_max=3, ssl_mode=ssl_mode)
    vn = build_vn_table(data.n, hyper)
    state = init_state(data, hyper, RunConfig(init=InitSpec("random_k", 3)),
                       np.random.default_rng(1))
    ref = state.copy()
    moves = _count_moves(monkeypatch, hyper.k_max)
    rng, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    for s in range(20):
        sweep(state, data, vn, hyper, rng)
        reference_sweep(ref, data, vn, hyper, rng_ref)
        assert np.array_equal(state.z, ref.z), s
        assert np.array_equal(state.mu, ref.mu), s
        assert np.array_equal(state.xi, ref.xi), s
        assert rng.bit_generator.state == rng_ref.bit_generator.state, s
    assert moves["block_moves"] >= 50 * 20, moves


def test_joint_indicator_rows_stay_tied(monkeypatch):
    """Joint mode stores its shared indicators in every row of the (K, p)
    xi: the rows, and the auxiliary's row in the reseat workspace, stay
    equal through reseats that open and close clusters and reach k_max,
    and after every sweep."""
    data, hyper = _churning_design("joint")
    vn = build_vn_table(data.n, hyper)
    state = _churning_start(data, hyper)
    values = set()

    def tied(st, ws):
        assert st.xi.shape == st.mu.shape
        assert (ws.xi[: ws.k + 1] == st.xi[0]).all()
        values.update(st.xi[0].tolist())

    moves = _count_moves(monkeypatch, hyper.k_max, tied)
    rng = np.random.default_rng(7)
    for s in range(40):
        sweep(state, data, vn, hyper, rng)
        state.check_invariants(k_max=hyper.k_max)
        assert (state.xi == state.xi[0]).all(), s
    assert moves["opened"] >= 5 and moves["closed"] >= 5, moves
    assert moves["at_k_max"] >= 50, moves
    assert values == {0, 1}  # the indicators switched, so tied rows are not trivial


@pytest.mark.parametrize("ssl_mode", ["joint", "column"])
def test_workspace_rows_follow_the_state_through_opens_and_closes(ssl_mode):
    """The workspace's size row equals the state's cluster sizes, and its
    halved squared norms those of the means and the auxiliary, after every
    block and every scalar step of passes that open and close clusters and
    reach k_max; the passes run as ``sweep`` runs them."""
    data, hyper = _churning_design(ssl_mode)
    vn = build_vn_table(data.n, hyper)
    state = _churning_start(data, hyper)
    rng = np.random.default_rng(7)
    seen = {"opened": 0, "closed": 0, "at_k_max": 0}

    def check(ws):
        assert np.array_equal(ws.sizes[: ws.k], np.bincount(state.z)[1:])
        rows = ws.mu[: ws.m]  # the clusters, then the auxiliary if offered
        assert ws.half_sq[: ws.m] == pytest.approx(0.5 * (rows * rows).sum(axis=1),
                                                   rel=1e-12, abs=0)
        seen["at_k_max"] += ws.k == hyper.k_max

    for _ in range(40):
        ws = ReseatWorkspace(state, data, vn, hyper, rng)
        check(ws)
        i = ws.advance(state.z, 0)
        check(ws)
        while i < data.n:
            before = ws.k
            reseat_observation(i, state, ws, rng)
            seen["opened"] += ws.k > before
            seen["closed"] += ws.k < before
            check(ws)
            i = ws.advance(state.z, i + 1)
            check(ws)
        ws.finish()
        sums, sizes = build_context(state, data)
        update_phi(state, hyper, rng)
        update_xi(state, sums, sizes, hyper, rng)
        update_mu(state, sums, sizes, hyper, rng)
        update_theta(state, hyper, rng)
    assert seen["opened"] >= 5 and seen["closed"] >= 5, seen
    assert seen["at_k_max"] > 0, seen


@pytest.mark.parametrize("tiny_chi", [False, True])
def test_update_phi_matches_reference_bitwise(tiny_chi, monkeypatch):
    """The scale update equals the per-cluster oracle bit for bit: as one
    block when every chi exceeds 1e-8, and cluster by cluster when one does
    not (there its draw takes another branch)."""
    rng = np.random.default_rng(12)
    k, p = 3, 40
    hyper = Hyperparams(lambda0=100.0, lambda1=1.0, beta_theta=2.0)
    state = ModelState(z=np.arange(1, k + 1), mu=rng.standard_normal((k, p)),
                       phi=np.ones((k, p)), xi=rng.integers(0, 2, size=(k, p)).astype(np.int8),
                       theta=0.5)
    if tiny_chi:
        state.mu[1, 7] = 1e-9  # chi = 1e-18 lambda^2 <= 1e-8 at either rate
    ref = state.copy()
    calls = []
    draw = distributions.sample_gig_half_vector

    def counting(*args, **kwargs):
        calls.append(1)
        return draw(*args, **kwargs)

    monkeypatch.setattr(distributions, "sample_gig_half_vector", counting)
    rng, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(3):
        update_phi(state, hyper, rng)
        reference_update_phi(ref, hyper, rng_ref)
        assert np.array_equal(state.phi, ref.phi)
        assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert len(calls) == (3 * k if tiny_chi else 3)


def _wide_range_data(p, n=300, k=5):
    """(values, z, k): a p x n matrix with magnitudes over 16 decades, so a
    different order of addition shows, and labels with label min(4, k)
    empty if k > 1."""
    rng = np.random.default_rng(p)
    values = rng.standard_normal((p, n)) * 10.0 ** rng.integers(-8, 8, size=(p, n))
    z = rng.permutation(np.repeat(np.arange(1, k + 1), n // k))
    if k > 1:
        z[z == min(4, k)] = min(4, k) - 1
    return values, z, k


# (p, n, k, order of obs, whether n * p reaches the sparse product's switch)
@pytest.mark.parametrize("p,n,k,order,sparse", [
    (1, 300, 5, "C", False), (2, 300, 5, "C", False), (7, 300, 5, "C", False),
    (64, 300, 5, "C", False), (64, 300, 5, "F", False), (500, 300, 1, "C", True),
    (1, 2**17, 4, "C", True), (1000, 300, 3, "C", True), (1000, 300, 3, "F", True),
    (700, 420, 21, "C", True),
], ids=["1", "2", "7", "64", "64-F", "sparse-k1", "sparse-p1", "sparse-k3", "sparse-k3-F",
        "sparse-k21"])
def test_cluster_sums_match_add_at_bitwise(p, n, k, order, sparse):
    values, z, k = _wide_range_data(p, n, k)
    obs = np.ascontiguousarray(values.T) if order == "C" else values.T
    assert (obs.size >= SPARSE_SUMS_MIN) == sparse
    expected = np.zeros((k, p))
    np.add.at(expected, z - 1, obs)
    got = cluster_sums(obs, z, k)
    assert np.array_equal(got, expected)
    assert k == 1 or not got[min(4, k) - 1].any()


@pytest.mark.parametrize("p,n,order", [(1, 300, "C"), (7, 300, "C"), (1000, 300, "C"),
                                         (1000, 300, "F")])
def test_stacked_cluster_sums_match_add_at_per_labelling_bitwise(p, n, order):
    # three labellings, one with an empty cluster, summed in one product
    values, z, k = _wide_range_data(p, n, 5)
    obs = np.ascontiguousarray(values.T) if order == "C" else values.T
    rng = np.random.default_rng(p)
    labellings = [z, rng.integers(1, k + 1, size=n), np.sort(z)[::-1].copy()]
    got = stacked_cluster_sums(obs, labellings, k)
    for a, labels in enumerate(labellings):
        expected = np.zeros((k, p))
        np.add.at(expected, labels - 1, obs)
        assert np.array_equal(got[a * k:(a + 1) * k], expected)


def test_cluster_sums_above_the_switch_copy_no_rows():
    # the gather copied each cluster's rows: here 3/5 of the matrix at once
    values, z, k = _wide_range_data(600, 500, 5)
    obs = np.ascontiguousarray(values.T)
    z[z == 2] = 1
    z[z == 3] = 1
    tracemalloc.start()
    try:
        cluster_sums(obs, z, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert obs.size >= SPARSE_SUMS_MIN
    assert peak < obs.nbytes / 4


@pytest.mark.parametrize("rows", [[0], [5, 1, 40], list(range(0, 64, 3))])
def test_cluster_sums_of_gathered_support_match_add_at_bitwise(rows):
    # the support's rows, as alignment gathers them: (n, |S|), not C-ordered
    values, z, k = _wide_range_data(64)
    obs = values[np.array(rows)].T
    assert not obs.flags.c_contiguous or len(rows) == 1
    expected = np.zeros((k, len(rows)))
    np.add.at(expected, z - 1, obs)
    assert np.array_equal(cluster_sums(obs, z, k), expected)


@pytest.mark.parametrize("scenario,seed", [("one", 1), ("one", 2), ("two", 1), ("two", 3)])
def test_fit_kmeans_matches_reference_kmeans_bitwise(scenario, seed):
    spec = ScenarioSpec(scenario=scenario, p=60, n=120, s=6 if scenario == "one" else None,
                        mean_scale=1.5, seed=seed)
    data = generate(spec)[0]
    mu, z = fit_kmeans(data, 3, seed=seed)
    obj = fit_cmle(data, CmleConfig(k=3, seed=seed))[2]
    mu_ref, z_ref, obj_ref, _ = reference_kmeans(data.values, 3, seed=seed)
    assert np.array_equal(mu, mu_ref)
    assert np.array_equal(z, z_ref)
    assert obj == obj_ref


def test_fit_kmeans_matches_reference_through_empty_cluster_reseed():
    # eight centres for 12 observations in three tight groups: starts at the
    # means of a random partition leave clusters empty, and they are re-seeded
    rng = np.random.default_rng(4)
    values = np.repeat(np.array([[0.0, 5.0, 10.0]]), 4, axis=1) + 0.1 * rng.standard_normal((1, 12))
    values = np.vstack([values, 0.1 * rng.standard_normal((1, 12))])
    mu, z = fit_kmeans(DataMatrix(values), 8, seed=3)
    obj = fit_cmle(DataMatrix(values), CmleConfig(k=8, seed=3))[2]
    mu_ref, z_ref, obj_ref, reseeds = reference_kmeans(values, 8, seed=3)
    assert reseeds > 0
    assert np.array_equal(mu, mu_ref)
    assert np.array_equal(z, z_ref)
    assert obj == obj_ref


@pytest.mark.parametrize("scenario,seed,s", [("one", 1, 6), ("one", 2, 10), ("two", 1, 8),
                                             ("two", 3, 20)])
def test_fit_cmle_sparse_matches_reference_bitwise(scenario, seed, s):
    spec = ScenarioSpec(scenario=scenario, p=60, n=120, s=6 if scenario == "one" else None,
                        mean_scale=1.5, seed=seed)
    data = generate(spec)[0]
    mu, z, obj = fit_cmle(data, CmleConfig(k=3, s=s, seed=seed))
    mu_ref, z_ref, obj_ref, _ = reference_kmeans(data.values, 3, seed=seed, s=s)
    assert np.count_nonzero(np.abs(mu_ref).sum(axis=1)) <= s
    assert np.array_equal(mu, mu_ref)
    assert np.array_equal(z, z_ref)
    assert obj == obj_ref


@pytest.mark.parametrize("s", [None, 6], ids=["kmeans", "s6"])
@pytest.mark.parametrize("max_iters", [1, 2, 3, 100])
@pytest.mark.parametrize("n_restarts", [1, 3])
def test_fit_cmle_matches_reference_at_the_samplers_size(s, max_iters, n_restarts):
    # p=400, n=200 (the chains_column data): the size of a sampler's start,
    # above the sampler's switch to sparse sums.  Runs are cut after 1-3
    # rounds or run to convergence.  Uncut, three restarts stop at rounds 3,
    # 4 and 4 (k-means) and at rounds 7, 8 and 14 (s=6)
    spec = ScenarioSpec(scenario="two", p=400, n=200, s=8, seed=1)
    data = generate(spec)[0]
    assert data.values.size >= SPARSE_SUMS_MIN
    config = CmleConfig(k=3, s=s, max_iters=max_iters, n_restarts=n_restarts, seed=5)
    mu, z, obj = fit_cmle(data, config)
    mu_ref, z_ref, obj_ref, _ = reference_kmeans(data.values, 3, seed=5, n_restarts=n_restarts,
                                                 max_iters=max_iters, s=s)
    assert np.array_equal(mu, mu_ref)
    assert np.array_equal(z, z_ref)
    assert obj == obj_ref
    if s is None:
        mu_k, z_k = fit_kmeans(data, 3, n_restarts=n_restarts, seed=5, max_iters=max_iters)
        assert np.array_equal(mu_k, mu_ref) and np.array_equal(z_k, z_ref)


def _custom_t_mixture():
    rng = np.random.default_rng(5)
    variances = rng.random((4, 20)) * np.array([[0.0], [1.0], [2.0], [3.0]])
    return ScenarioSpec(scenario="custom", means=rng.standard_normal((20, 4)),
                        weights=np.full(4, 0.25), diag_variances=variances, t_dof=3.0,
                        n=300, seed=9)


@pytest.mark.parametrize("spec", [
    *(ScenarioSpec(scenario=sc, p=p, n=n, s=min(p, 6), seed=seed)
      for sc in ("one", "two", "three") for seed in (0, 1) for p, n in ((1, 2), (30, 40), (400, 200))),
    ScenarioSpec(scenario="one", k_star=5, p=50, n=101, s=12, mean_scale=1.5, seed=4),
    _custom_t_mixture(),
], ids=lambda spec: f"{spec.scenario}-{spec.p}x{spec.n}-seed{spec.seed}")
def test_generate_matches_reference_generate_bitwise(spec):
    data, z, means = generate(spec)
    values_ref, z_ref, means_ref = reference_generate(spec)
    assert data.obs.flags.c_contiguous and np.shares_memory(data.values, data.obs)
    assert np.array_equal(data.values, values_ref)
    assert np.array_equal(z, z_ref) and np.array_equal(means, means_ref)
