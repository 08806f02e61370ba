"""Posterior summarization: label alignment, point estimates, diagnostics.

Raw mixture traces are only identified up to cluster relabeling.  The
alignment pass picks, among the snapshots with the modal K, the one with
the smallest Frobenius reconstruction error as the reference and finds,
for every snapshot, the label map that best matches its means to the
reference means.  The error alone would favour the rare draws with a
surplus cluster, since an extra cluster always lowers it.  The snapshots
are not copied: the point estimate and the PSRF table read each one
through its map, and a multi-chain fit aligns its pooled draws once for
both.

Scoring a snapshot builds no p x n residual.  With S_k and n_k the sum
and size of cluster k, ||Y - mu_z||_F^2 = ||Y||_F^2 - (2 sum_k S_k.mu_k
- sum_k n_k ||mu_k||^2), and only the rows where the means can be
non-zero (the support, or every row of a dense mean) enter the sums.
:func:`reconstruction_error` returns the error less ||Y||_F^2, which is
the same for every snapshot, so it orders snapshots exactly as the error
does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import (
    ChainTrace,
    ClusterEstimate,
    DataMatrix,
    Snapshot,
    cluster_sums,
    residual_score,
)
from .errors import DataError, SparseGmmError


def solve_assignment(cost: np.ndarray) -> np.ndarray:
    """Column index assigned to each row of a square cost matrix, minimizing total cost."""
    return linear_sum_assignment(cost)[1]


@dataclass
class AlignedTrace:
    """The snapshots, unchanged, plus the label map that aligns each one.

    ``perms[b][c]`` is the aligned label of original label c+1 in
    snapshot b, so the snapshot's aligned labels read as
    ``perms[b][snapshots[b].z - 1]`` and its mean row c belongs to
    aligned label ``perms[b][c]``.  Aligned labels live in
    1..max(K, K_ref) and are not necessarily dense when the snapshot's K
    differs from the reference's.  ``ref_index`` is the reference
    snapshot.
    """

    snapshots: list[Snapshot]
    perms: list[np.ndarray]
    ref_index: int
    p: int
    support_freq: np.ndarray

    def __len__(self) -> int:
        return len(self.snapshots)


def reconstruction_error(snapshot: Snapshot, data: DataMatrix,
                         obs: np.ndarray | None = None) -> float:
    """||Y - mu L^T||_F^2 - ||Y||_F^2 for one snapshot, from its cluster sums.

    The dropped ||Y||_F^2 is the same for every snapshot, so this orders
    snapshots exactly as the reconstruction error does.  ``obs`` is the
    (n, |support|) block of ``data.obs`` that a support-only snapshot
    reads; pass it to gather the support's columns once for the snapshots
    that share it.
    """
    if snapshot.mu_dense is not None:
        obs, mu = data.obs, snapshot.mu_dense
    else:
        if obs is None:
            obs = _support_obs(data, snapshot.support)
        mu = snapshot.mu_support
    return residual_score(cluster_sums(obs, snapshot.z, snapshot.k), mu, snapshot.z)


def _support_obs(data: DataMatrix, support: np.ndarray) -> np.ndarray:
    """The support's columns of ``data.obs``, C-ordered: a strided gather,
    each observation's row read once."""
    return np.take(data.obs, support - 1, axis=1)


def _check_fits(snaps: list[Snapshot], data: DataMatrix) -> None:
    """Raise DataError unless every snapshot fits the p x n data."""
    for b, s in enumerate(snaps):
        if s.z.shape != (data.n,):
            raise DataError(
                f"snapshot {b} labels {s.z.size} observations, the data has {data.n}"
            )
        if s.z.size and (s.z.min() < 1 or s.z.max() > s.k):
            raise DataError(f"snapshot {b} has labels outside 1..{s.k}")
        if s.support.size and (s.support.min() < 1 or s.support.max() > data.p):
            raise DataError(
                f"snapshot {b} has support outside the data's features 1..{data.p}"
            )
        if s.mu_dense is not None and s.mu_dense.shape != (s.k, data.p):
            raise DataError(
                f"snapshot {b} has dense means of shape {s.mu_dense.shape}, "
                f"not ({s.k}, {data.p})"
            )


def _modal_k(snaps: list[Snapshot]) -> int:
    """Posterior mode of K over the snapshots (smallest on ties)."""
    k_counts = Counter(s.k for s in snaps)
    top = max(k_counts.values())
    return min(k for k, c in k_counts.items() if c == top)


def _reference_index(snaps: list[Snapshot], data: DataMatrix) -> int:
    """Index of the best-reconstructing snapshot among those with the modal K."""
    k_mode = _modal_k(snaps)
    errors = np.full(len(snaps), np.inf)
    # snapshots with the same support share one gather of its columns
    by_support: dict[bytes | None, list[int]] = {}
    for b, s in enumerate(snaps):
        if s.k == k_mode:
            key = None if s.mu_dense is not None else s.support.tobytes()
            by_support.setdefault(key, []).append(b)
    for key, members in by_support.items():
        args = (data,) if key is None else (data, _support_obs(data, snaps[members[0]].support))
        for b in members:
            errors[b] = reconstruction_error(snaps[b], *args)
    return int(np.argmin(errors))


def _match_to_reference(mu_ref: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Label map sending snapshot cluster c+1 to its aligned label.

    Solves the assignment on the squared-distance matrix between
    reference rows and snapshot rows, padded with a large constant to a
    square when the cluster counts differ.  Surplus snapshot clusters
    keep fresh labels after the matched ones, in their original order.
    """
    k_ref, k = mu_ref.shape[0], mu.shape[0]
    m = max(k_ref, k)
    d = mu_ref[:, None, :] - mu[None, :, :]
    cost_real = np.einsum("rcp,rcp->rc", d, d)
    pad = m * (cost_real.max(initial=0.0) + 1.0) + 1.0
    cost = np.full((m, m), pad)
    cost[:k_ref, :k] = cost_real
    cols_for_rows = solve_assignment(cost)

    label_map = np.zeros(k, dtype=int)
    for r, c in enumerate(cols_for_rows):
        if r < k_ref and c < k:
            label_map[c] = r + 1
    surplus = np.flatnonzero(label_map == 0)
    label_map[surplus] = k_ref + 1 + np.arange(surplus.size)
    return label_map


def align_labels(trace: ChainTrace | list[Snapshot], data: DataMatrix) -> AlignedTrace:
    """Map every snapshot's labels onto those of one reference snapshot.

    The reference is the snapshot minimizing the reconstruction error
    among those with the modal K.  The snapshots are kept as they are;
    only their label maps are added.
    """
    snaps = list(trace.snapshots if isinstance(trace, ChainTrace) else trace)
    if not snaps:
        raise SparseGmmError("cannot align an empty trace")
    _check_fits(snaps, data)
    ref_index = _reference_index(snaps, data)
    mu_ref = snaps[ref_index].dense_mu(data.p)

    freq = np.zeros(data.p)
    perms = []
    for s in snaps:
        perms.append(_match_to_reference(mu_ref, s.dense_mu(data.p)))
        freq[s.support - 1] += 1.0
    freq /= len(snaps)
    return AlignedTrace(
        snapshots=snaps, perms=perms, ref_index=ref_index, p=data.p, support_freq=freq
    )


def point_estimates(aligned: AlignedTrace, inclusion_threshold: float = 0.5) -> ClusterEstimate:
    """Posterior point estimate from an aligned trace.

    The cluster count is the posterior mode of K (smallest on ties); each
    observation gets its modal aligned label among the snapshots with
    that K; cluster means average the aligned draws over the same
    snapshots.  Labels are densified at the end so z_hat uses exactly
    1..k_hat.  The support estimate keeps features whose inclusion
    frequency over all snapshots reaches the threshold.
    """
    snaps, perms, p = aligned.snapshots, aligned.perms, aligned.p
    k_mode = _modal_k(snaps)
    chosen = [b for b, s in enumerate(snaps) if s.k == k_mode]

    n = snaps[0].z.shape[0]
    max_label = max(int(perms[b].max()) for b in chosen)
    votes = np.zeros((n, max_label), dtype=int)
    mu_sum = np.zeros((max_label, p))
    mu_count = np.zeros(max_label)
    for b in chosen:
        perm = perms[b]
        votes[np.arange(n), perm[snaps[b].z - 1] - 1] += 1
        mu_sum[perm - 1] += snaps[b].dense_mu(p)
        mu_count[perm - 1] += 1
    z_modal = votes.argmax(axis=1) + 1

    used = np.unique(z_modal)
    lut = np.zeros(max_label + 1, dtype=int)
    lut[used] = np.arange(1, used.size + 1)
    z_hat = lut[z_modal]
    mu_hat = (mu_sum[used - 1] / np.maximum(mu_count[used - 1], 1.0)[:, None]).T

    freq = aligned.support_freq
    support_hat = tuple(int(j) + 1 for j in np.flatnonzero(freq >= inclusion_threshold))

    return ClusterEstimate(
        k_hat=int(used.size),
        z_hat=z_hat,
        mu_hat=mu_hat,
        support_hat=support_hat,
        inclusion_freq=freq,
    )


def psrf(chains) -> float:
    """Potential scale reduction factor for one scalar across chains.

    sqrt(((L-1)/L * W + B/L) / W) with W the mean within-chain variance
    and B = L * variance of the chain means.  Identical constant chains
    return 1 by convention.
    """
    arrs = [np.asarray(c, dtype=float) for c in chains]
    if len(arrs) < 2:
        raise SparseGmmError("need at least 2 chains")
    length = arrs[0].size
    if any(a.size != length for a in arrs):
        raise SparseGmmError("chains must have equal lengths")
    if length < 2:
        raise SparseGmmError("chains must have length >= 2")
    mat = np.stack(arrs)
    w = mat.var(axis=1, ddof=1).mean()
    b = length * mat.mean(axis=1).var(ddof=1)
    if w == 0.0:
        return 1.0 if b == 0.0 else float("inf")
    return float(np.sqrt(((length - 1) / length * w + b / length) / w))


def psrf_report(traces: list[ChainTrace], data: DataMatrix) -> dict[str, float]:
    """PSRF table over theta, K, and first-coordinate cluster means.

    All chains are aligned against one reference: the best-reconstructing
    snapshot among the pooled snapshots with the modal K.  A
    mean-coordinate entry appears only for aligned labels present in
    every snapshot of every chain.
    """
    if len(traces) < 2:
        raise SparseGmmError("need at least 2 chains")
    if len({len(t) for t in traces}) > 1 or len(traces[0]) < 2:
        raise DataError("chains must have equal lengths of at least 2 snapshots")
    bad = [t.meta for t in traces if (t.meta.n, t.meta.p) != (data.n, data.p)]
    if bad:
        raise DataError(f"a trace of n={bad[0].n}, p={bad[0].p} for data of n={data.n}, p={data.p}")
    return _psrf_table(traces, align_labels([s for t in traces for s in t.snapshots], data))


def _psrf_table(traces: list[ChainTrace], pooled: AlignedTrace) -> dict[str, float]:
    """:func:`psrf_report` from the alignment of the chains' pooled snapshots.

    Chain c is the c-th run of ``len(traces[0])`` consecutive pooled
    snapshots; the chains must have equal lengths of at least 2.
    """
    report = {
        "theta": psrf([t.theta_values() for t in traces]),
        "k": psrf([t.k_values() for t in traces]),
    }
    k_ref, p = pooled.snapshots[pooled.ref_index].k, pooled.p
    firsts = np.zeros((len(pooled), k_ref))
    present = np.zeros((len(pooled), k_ref), dtype=bool)
    for b, (s, perm) in enumerate(zip(pooled.snapshots, pooled.perms)):
        hit = perm <= k_ref
        firsts[b, perm[hit] - 1] = s.dense_mu(p)[hit, 0]
        present[b, perm[hit] - 1] = True
    for c in range(k_ref):
        if present[:, c].all():
            report[f"mu_{c + 1}_1"] = psrf(firsts[:, c].reshape(len(traces), -1))
    return report
