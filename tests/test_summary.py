from dataclasses import replace

import numpy as np
import pytest

import sparsegmm.summarize as summarize
from oracles import (
    aligned_draw,
    dense_reconstruction_error,
    permute_snapshot_labels,
    reference_index,
    reference_psrf_report,
)
from sparsegmm.core import ChainTrace, DataMatrix, Snapshot, TraceMeta, default_hyperparams
from sparsegmm.errors import DataError, SparseGmmError
from sparsegmm.gibbs import RunConfig, run_chains
from sparsegmm.summarize import (
    align_labels,
    point_estimates,
    psrf,
    psrf_report,
    reconstruction_error,
)
from sparsegmm.synthetic import ScenarioSpec, generate


def _snapshot(z, mu, theta=0.2, support=None):
    mu = np.asarray(mu, dtype=float)
    k, p = mu.shape
    support = np.arange(1, p + 1) if support is None else np.asarray(support)
    return Snapshot(
        z=np.asarray(z, dtype=int),
        k=k,
        theta=theta,
        support=support,
        mu_support=mu[:, support - 1],
    )


def _data_for(mu, z, noise=0.0, seed=0):
    mu = np.asarray(mu, dtype=float)
    vals = mu[np.asarray(z) - 1].T
    if noise:
        vals = vals + noise * np.random.default_rng(seed).standard_normal(vals.shape)
    return DataMatrix(vals)


BASE_MU = np.array([[4.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
BASE_Z = [1, 1, 2, 2, 2]


def test_alignment_restores_cyclic_relabelings():
    data = _data_for(BASE_MU, BASE_Z, noise=0.05)
    perms = [np.array([1, 2]), np.array([2, 1]), np.array([1, 2]), np.array([2, 1])]
    snaps = []
    for perm in perms:
        z_p, mu_p = permute_snapshot_labels(BASE_Z, BASE_MU, perm)
        snaps.append(_snapshot(z_p, mu_p))
    aligned = align_labels(snaps, data)
    for b in range(len(aligned)):
        z, mu = aligned_draw(aligned, b)
        assert np.array_equal(z, np.asarray(BASE_Z))
        assert np.array_equal(mu, BASE_MU)


def test_alignment_applies_swap_on_perturbed_means():
    data = _data_for(BASE_MU, BASE_Z, noise=0.05)
    wiggle = BASE_MU + 0.01
    z_sw, mu_sw = permute_snapshot_labels(BASE_Z, wiggle, np.array([2, 1]))
    aligned = align_labels([_snapshot(BASE_Z, BASE_MU), _snapshot(z_sw, mu_sw)], data)
    z, mu = aligned_draw(aligned, 1)
    assert np.array_equal(z, np.asarray(BASE_Z))
    assert np.array_equal(mu, wiggle)
    # the snapshot itself is kept as it was drawn
    assert np.array_equal(aligned.snapshots[1].z, z_sw)


def test_alignment_pads_when_k_differs():
    # reference K=2; snapshot K=3 -> two nearest matched, surplus keeps label 3
    mu_ref = np.array([[5.0, 0.0], [0.0, 5.0]])
    z_ref = [1, 1, 2, 2]
    data = _data_for(mu_ref, z_ref, noise=0.01)
    mu3 = np.array([[0.1, 5.1], [9.0, 9.0], [5.1, 0.1]])  # rows: near ref2, stray, near ref1
    snap3 = _snapshot([1, 3, 2, 1], mu3)
    aligned = align_labels([_snapshot(z_ref, mu_ref), snap3], data)
    label_map = aligned.perms[1]
    assert label_map[0] == 2  # snapshot cluster 1 -> reference label 2
    assert label_map[2] == 1  # snapshot cluster 3 -> reference label 1
    assert label_map[1] == 3  # stray cluster keeps the first surplus label

    # brute-force check over every injection of {ref labels} into snapshot rows
    best, best_cost = None, np.inf
    from itertools import permutations

    for cols in permutations(range(3), 2):
        cost = sum(
            ((mu_ref[r] - mu3[c]) ** 2).sum() for r, c in enumerate(cols)
        )
        if cost < best_cost:
            best, best_cost = cols, cost
    assert label_map[best[0]] == 1 and label_map[best[1]] == 2


def test_alignment_reference_minimizes_reconstruction():
    good = _snapshot(BASE_Z, BASE_MU)
    bad = _snapshot(BASE_Z, BASE_MU + 3.0)
    data = _data_for(BASE_MU, BASE_Z, noise=0.01)
    aligned = align_labels([bad, good, bad], data)
    assert aligned.ref_index == 1
    assert reconstruction_error(good, data) < reconstruction_error(bad, data)


def test_alignment_reference_has_modal_k():
    # a surplus cluster always lowers the error; the reference keeps the modal K
    data = _data_for(BASE_MU, BASE_Z, noise=0.5, seed=1)
    two = _snapshot(BASE_Z, BASE_MU)
    three = _snapshot([1, 1, 2, 2, 3], np.vstack([BASE_MU, data.values[:, 4]]))
    assert reconstruction_error(three, data) < reconstruction_error(two, data)
    assert align_labels([two, three, two], data).ref_index == 0


def test_alignment_empty_trace_raises():
    with pytest.raises(SparseGmmError, match="cannot align an empty trace"):
        align_labels([], _data_for(BASE_MU, BASE_Z))


def test_point_estimates_degenerate_trace():
    data = _data_for(BASE_MU, BASE_Z)
    snaps = [_snapshot(BASE_Z, BASE_MU) for _ in range(4)]
    est = point_estimates(align_labels(snaps, data))
    assert est.k_hat == 2
    assert np.array_equal(est.z_hat, np.asarray(BASE_Z))
    assert est.mu_hat == pytest.approx(BASE_MU.T)
    assert est.support_hat == (1, 2, 3)


def test_point_estimates_k_mode():
    data = _data_for(BASE_MU, BASE_Z)
    two = _snapshot(BASE_Z, BASE_MU)
    three = _snapshot([1, 1, 2, 2, 3], np.vstack([BASE_MU, [0.0, 0.0, 9.0]]))
    est = point_estimates(align_labels([three, three, three, two], data))
    assert est.k_hat == 3


def test_point_estimates_majority_label():
    data = _data_for(BASE_MU, BASE_Z)
    snaps = [_snapshot(BASE_Z, BASE_MU) for _ in range(60)]
    flipped = [2] + BASE_Z[1:]
    snaps += [_snapshot(flipped, BASE_MU) for _ in range(40)]
    est = point_estimates(align_labels(snaps, data))
    assert est.z_hat[0] == 1  # 60/40 majority


def test_point_estimates_invariant_to_global_relabeling():
    data = _data_for(BASE_MU, BASE_Z, noise=0.02, seed=4)
    rng = np.random.default_rng(9)
    snaps, snaps_q = [], []
    q = np.array([2, 1])
    for _ in range(12):
        mu = BASE_MU + 0.05 * rng.standard_normal(BASE_MU.shape)
        perm = np.array([1, 2]) if rng.random() < 0.5 else q
        z_p, mu_p = permute_snapshot_labels(BASE_Z, mu, perm)
        snaps.append(_snapshot(z_p, mu_p))
        z_pq, mu_pq = permute_snapshot_labels(z_p, mu_p, q)
        snaps_q.append(_snapshot(z_pq, mu_pq))
    est = point_estimates(align_labels(snaps, data))
    est_q = point_estimates(align_labels(snaps_q, data))
    # same partition and same reconstruction up to one global relabeling
    assert est.k_hat == est_q.k_hat
    from sparsegmm.metrics import ari, mean_matrix_error

    assert ari(est.z_hat, est_q.z_hat) == pytest.approx(1.0)
    assert mean_matrix_error(est.mu_hat, est.z_hat, est_q.mu_hat, est_q.z_hat) == pytest.approx(
        0.0, abs=1e-18
    )


def test_psrf_stationary_iid_chains_near_one():
    rng = np.random.default_rng(0)
    chains = [rng.standard_normal(2000) for _ in range(4)]
    assert 0.99 <= psrf(chains) <= 1.05


def test_psrf_separated_chains_large():
    rng = np.random.default_rng(1)
    chains = [0.01 * rng.standard_normal(500), 100 + 0.01 * rng.standard_normal(500)]
    assert psrf(chains) > 1.2


def test_psrf_identical_constant_chains_is_one():
    chains = [np.full(10, 3.3), np.full(10, 3.3)]
    assert psrf(chains) == 1.0


def test_psrf_mismatched_lengths():
    with pytest.raises(SparseGmmError, match="chains must have equal lengths"):
        psrf([np.zeros(5), np.zeros(6)])
    with pytest.raises(SparseGmmError, match="need at least 2 chains"):
        psrf([np.zeros(5)])


@pytest.fixture(scope="module", params=["joint", "column"])
def fixed_traces(request):
    """Two short fixed-seed chains that keep their dense means."""
    data = generate(ScenarioSpec(scenario="one", p=40, n=60, s=6, mean_scale=1.5, seed=3))[0]
    hyper = default_hyperparams(data.p, ssl_mode=request.param)
    config = RunConfig(n_burn=10, n_keep=30, n_chains=2, seed=5, store_dense_mu=True)
    return data, run_chains(data, hyper, config)


def _support_only(snap):
    return replace(snap, mu_dense=None)


def _no_support(snap):
    return replace(snap, support=np.zeros(0, dtype=int), mu_support=np.zeros((snap.k, 0)),
                   mu_dense=None)


def test_reconstruction_error_is_dense_error_less_data_norm(fixed_traces):
    data, traces = fixed_traces
    y_norm = float(np.sum(data.values * data.values))
    for snap in traces[0].snapshots:
        for variant in (snap, _support_only(snap), _no_support(snap)):
            dense = dense_reconstruction_error(variant, data)
            assert reconstruction_error(variant, data) + y_norm == pytest.approx(dense, rel=1e-12)


def test_reference_and_psrf_table_match_dense_oracle(fixed_traces, monkeypatch):
    data, traces = fixed_traces
    pooled = [s for t in traces for s in t.snapshots]
    for snaps in (pooled, [_support_only(s) for s in pooled], traces[1].snapshots):
        ks = [s.k for s in snaps]
        assert max(ks.count(k) for k in ks) >= 2  # the search has candidates to rank
        assert align_labels(snaps, data).ref_index == reference_index(snaps, data)
    report = psrf_report(traces, data)
    monkeypatch.setattr(summarize, "reconstruction_error", dense_reconstruction_error)
    assert report == psrf_report(traces, data)


def test_reference_search_gathers_each_support_once(fixed_traces, monkeypatch):
    data, traces = fixed_traces
    pooled = [s for t in traces for s in t.snapshots]
    # widen the supports (the added features at mean 0): a third keep their
    # own, a third share the union of all, a third share every feature;
    # every fourth snapshot keeps its dense means
    union = np.unique(np.concatenate([s.support for s in pooled]))
    snaps = []
    for b, s in enumerate(pooled):
        support = (s.support, union, np.arange(1, data.p + 1))[b % 3]
        snaps.append(replace(s, support=support, mu_support=s.dense_mu(data.p)[:, support - 1],
                             mu_dense=s.mu_dense if b % 4 == 0 else None))
    gathers, errors = [], {}
    gather, score = summarize._support_obs, summarize.reconstruction_error

    def spy(snap, *args):
        errors[id(snap)] = score(snap, *args)
        return errors[id(snap)]

    monkeypatch.setattr(summarize, "_support_obs", lambda d, sup: gathers.append(sup) or gather(d, sup))
    monkeypatch.setattr(summarize, "reconstruction_error", spy)
    ref = summarize._reference_index(snaps, data)
    monkeypatch.undo()

    assert ref == reference_index(snaps, data)
    k_mode = summarize._modal_k(snaps)
    modal = [s for s in snaps if s.k == k_mode]
    shared = {s.support.tobytes() for s in modal if s.mu_dense is None}
    assert sorted(g.tobytes() for g in gathers) == sorted(shared)
    assert len(shared) < sum(s.mu_dense is None for s in modal)  # some gathers are shared
    assert errors.keys() == {id(s) for s in modal}
    y_norm = float(np.sum(data.values * data.values))
    for s in modal:
        assert errors[id(s)] == reconstruction_error(s, data)  # bit for bit, gathered alone
        assert errors[id(s)] + y_norm == pytest.approx(dense_reconstruction_error(s, data), rel=1e-12)


@pytest.mark.parametrize("variant", ["dense", "support_only"])
def test_psrf_table_matches_brute_force_alignment(fixed_traces, variant):
    data, traces = fixed_traces
    if variant == "support_only":
        traces = [replace(t, snapshots=[_support_only(s) for s in t.snapshots]) for t in traces]
    report = psrf_report(traces, data)
    assert any(key.startswith("mu_") for key in report)
    assert report == reference_psrf_report(traces, data, psrf)


def test_psrf_table_drops_labels_missing_from_some_draws():
    data = _data_for(BASE_MU, BASE_Z, noise=0.05, seed=2)
    rng = np.random.default_rng(11)

    def draw(k):
        if k == 1:  # one cluster near the first mean: label 2 is missing
            return _snapshot([1] * 5, BASE_MU[:1] + 0.1 * rng.standard_normal((1, 3)))
        mu = np.vstack([BASE_MU, [0.0, 0.0, 6.0]])[:k] + 0.1 * rng.standard_normal((k, 3))
        z_p, mu_p = permute_snapshot_labels(BASE_Z, mu, rng.permutation(k) + 1)
        return _snapshot(z_p, mu_p)

    chains = [[draw(k) for k in (2, 2, 3, 2, 2)], [draw(k) for k in (2, 1, 2, 2, 3)]]
    traces = [ChainTrace(snapshots=c, meta=TraceMeta(n=5, p=3, n_burn=0, thin=1, seed=0,
                                                     chain_id=i, hyper_digest="",
                                                     ssl_mode="joint"))
              for i, c in enumerate(chains)]
    report = psrf_report(traces, data)
    assert "mu_1_1" in report and "mu_2_1" not in report
    assert report == reference_psrf_report(traces, data, psrf)


def test_traces_that_do_not_fit_the_data_raise(fixed_traces):
    data, traces = fixed_traces
    snap = traces[0].snapshots[0]
    bad = [
        (replace(snap, z=snap.z[:-1]), "labels .* observations, the data has"),
        (replace(snap, z=np.where(snap.z == 1, snap.k + 1, snap.z)), "has labels outside"),
        (replace(_no_support(snap), support=np.array([data.p + 1]),
                 mu_support=np.zeros((snap.k, 1))), "has support outside the data's features"),
        (replace(snap, mu_dense=snap.mu_dense[:, :-1]), "has dense means of shape"),
    ]
    for b, message in bad:
        with pytest.raises(DataError, match=message):
            align_labels(traces[0].snapshots + [b], data)
        with pytest.raises(DataError, match=message):
            psrf_report([traces[0], replace(traces[1], snapshots=[b] * len(traces[1]))], data)
