"""Clustering and estimation quality metrics.

All partition metrics are permutation-invariant; labels may be arbitrary
integers except for min_hamming, which requires labels in 1..K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import SparseGmmError


@dataclass(frozen=True)
class ContingencyTable:
    counts: np.ndarray       # (K_true, K_est)
    row_marginals: np.ndarray
    col_marginals: np.ndarray
    n: int


def contingency_table(z_true, z_est) -> ContingencyTable:
    zt = np.asarray(z_true)
    ze = np.asarray(z_est)
    if zt.shape != ze.shape or zt.ndim != 1:
        raise SparseGmmError("partitions must be equal-length vectors")
    _, ti = np.unique(zt, return_inverse=True)
    _, ei = np.unique(ze, return_inverse=True)
    counts = np.zeros((ti.max() + 1, ei.max() + 1), dtype=np.int64)
    np.add.at(counts, (ti, ei), 1)
    return ContingencyTable(
        counts=counts,
        row_marginals=counts.sum(axis=1),
        col_marginals=counts.sum(axis=0),
        n=zt.size,
    )


def _comb2(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x * (x - 1.0) / 2.0


def ari(z_true, z_est) -> float:
    """Adjusted Rand index between two partitions, in [-1, 1].

    Computed from the contingency table with the chance-expected pair
    count subtracted.  When the adjustment denominator vanishes (both
    partitions degenerate in the same way) the score is 1.
    """
    table = contingency_table(z_true, z_est)
    if table.n < 2:
        raise SparseGmmError("need at least 2 observations")
    index = _comb2(table.counts).sum()
    row = _comb2(table.row_marginals).sum()
    col = _comb2(table.col_marginals).sum()
    expected = row * col / _comb2(np.array(table.n))
    max_index = 0.5 * (row + col)
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))


def nmi(z_true, z_est) -> float:
    """Normalized mutual information: MI over the geometric entropy mean.

    Raises SparseGmmError when either partition has a single
    cluster (zero entropy makes the normalizer vanish).
    """
    table = contingency_table(z_true, z_est)
    if table.counts.shape[0] < 2 or table.counts.shape[1] < 2:
        raise SparseGmmError("both partitions need at least 2 clusters")
    n = float(table.n)
    p_joint = table.counts / n
    p_row = table.row_marginals / n
    p_col = table.col_marginals / n
    nz = p_joint > 0
    mi = float(
        (p_joint[nz] * (np.log(p_joint[nz]) - np.log(np.outer(p_row, p_col)[nz]))).sum()
    )
    h_row = float(-(p_row * np.log(p_row)).sum())
    h_col = float(-(p_col * np.log(p_col)).sum())
    return mi / np.sqrt(h_row * h_col)


def min_hamming(z, z_prime, k: int | None = None) -> float:
    """Mis-clustering rate: minimum label-disagreement fraction over relabelings.

    Labels must lie in 1..K.  When K is omitted it defaults to the larger
    label count of the two partitions.  The minimum over permutations is
    found by a maximum-match assignment on the K x K agreement matrix.
    """
    za = np.asarray(z, dtype=int)
    zb = np.asarray(z_prime, dtype=int)
    if za.shape != zb.shape or za.ndim != 1:
        raise SparseGmmError("partitions must be equal-length vectors")
    if k is None:
        k = max(np.unique(za).size, np.unique(zb).size)
    for arr in (za, zb):
        if arr.min() < 1 or arr.max() > k:
            raise SparseGmmError(f"labels must lie in [1, {k}]")
    matches = np.zeros((k, k), dtype=np.int64)
    np.add.at(matches, (za - 1, zb - 1), 1)
    rows, cols = linear_sum_assignment(matches, maximize=True)
    return float((za.size - matches[rows, cols].sum()) / za.size)


def mean_matrix_error(mu_hat, z_hat, mu_true, z_true) -> float:
    """Squared Frobenius distance between the two reconstructed mean matrices.

    Means are p x K with column c-1 the mean of cluster c; the
    reconstruction places each observation's cluster mean in its column.
    """
    mh = np.asarray(mu_hat, dtype=float)
    mt = np.asarray(mu_true, dtype=float)
    zh = np.asarray(z_hat, dtype=int)
    zt = np.asarray(z_true, dtype=int)
    if mh.ndim != 2 or mt.ndim != 2 or mh.shape[0] != mt.shape[0]:
        raise SparseGmmError("mean matrices must be p x K with equal p")
    if zh.shape != zt.shape or zh.ndim != 1:
        raise SparseGmmError("label vectors must be equal-length")
    if zh.min() < 1 or zh.max() > mh.shape[1] or zt.min() < 1 or zt.max() > mt.shape[1]:
        raise SparseGmmError("labels must index mean columns")
    diff = mh[:, zh - 1] - mt[:, zt - 1]
    return float(np.sum(diff * diff))
