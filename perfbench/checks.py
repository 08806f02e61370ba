"""Correctness checks that the benchmark computes itself.

Every check is a function returning a list of failure messages (empty
when the check passes).  None of them calls the program's own metrics
(``sparsegmm.ari``, ``mean_matrix_error``) or compares against a stored
copy of an earlier output: ARI is computed from pair counts here, the
centre error from the truth the generator returned, and the trace round
trip field by field.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

# A workload's estimate must reach this ARI against the true labels.  A
# posterior that splits the zero-mean cluster of scenario I in two (odds
# near 1 on some datasets), or with K wandering to 5 in a short chain,
# still reads 0.69-1 (136 scenario-I datasets at p=n=100).
ARI_FLOOR = 0.5

# A cluster mean estimated from m observations is off by about s / m in
# squared norm, so the label-matched centre error contracts like
# sum_k s / n_k.  The sum runs over the true clusters and the estimated
# ones: a surplus cluster of m observations, which zero-padding matches to
# a zero mean, is allowed its own s / m.
CENTRE_ERROR_FACTOR = 10.0


def pair_count_ari(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand index from the counts of pairs the two labelings share."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ia.max() + 1, ib.max() + 1), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)

    def pairs(x):
        x = np.asarray(x, dtype=np.int64)
        return int((x * (x - 1) // 2).sum())

    both = pairs(table)
    in_a = pairs(table.sum(axis=1))
    in_b = pairs(table.sum(axis=0))
    total = n * (n - 1) // 2
    expected = in_a * in_b / total
    top = (in_a + in_b) / 2.0
    if top == expected:
        return 1.0
    return (both - expected) / (top - expected)


def _padded(mu_hat: np.ndarray, mu_true: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = max(mu_hat.shape[1], mu_true.shape[1])
    a = np.zeros((mu_true.shape[0], k))
    b = np.zeros((mu_true.shape[0], k))
    a[:, : mu_hat.shape[1]] = mu_hat
    b[:, : mu_true.shape[1]] = mu_true
    return a, b


def _pair_cost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """cost[c, k] = ||a[:, c] - b[:, k]||^2."""
    d = a[:, :, None] - b[:, None, :]
    return np.einsum("pck,pck->ck", d, d)


def centre_error(mu_hat: np.ndarray, mu_true: np.ndarray) -> float:
    """min over label matchings pi of sum_k ||mu_hat_pi(k) - mu_k||^2.

    Both p x K matrices are zero-padded to the larger cluster count, so a
    surplus or missing cluster costs the squared norm of its mean.
    """
    cost = _pair_cost(*_padded(mu_hat, mu_true))
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def label_matched_error(
    z_hat: np.ndarray, mu_hat: np.ndarray, z_true: np.ndarray, mu_true: np.ndarray
) -> float:
    """Centre error under the matching the labels imply.

    Estimated cluster c is matched to the true cluster it shares most
    observations with (a maximum-overlap assignment), so an estimate
    whose labels and means disagree reads a large error even when the
    means alone are right.
    """
    a, b = _padded(mu_hat, mu_true)
    k = a.shape[1]
    overlap = np.zeros((k, k), dtype=np.int64)
    np.add.at(overlap, (np.asarray(z_hat) - 1, np.asarray(z_true) - 1), 1)
    rows, cols = linear_sum_assignment(-overlap)
    return float(_pair_cost(a, b)[rows, cols].sum())


def centre_error_bound(z_true: np.ndarray, z_hat: np.ndarray, s: int) -> float:
    """CENTRE_ERROR_FACTOR * sum_k s / n_k over the true and the estimated clusters."""
    sizes = np.concatenate([np.bincount(z_true)[1:], np.bincount(z_hat)[1:]])
    return CENTRE_ERROR_FACTOR * float((s / sizes[sizes > 0]).sum())


def check_labels_and_support(est, z_true, mu_true) -> list[str]:
    """ARI against the truth, and the true support inside support_hat."""
    out = []
    ari = pair_count_ari(z_true, est.z_hat)
    if not ari >= ARI_FLOOR:
        out.append(f"ARI {ari:.3f} < {ARI_FLOOR}")
    true_support = set(np.flatnonzero(np.abs(mu_true).sum(axis=1) > 0) + 1)
    missing = sorted(int(j) for j in true_support - set(est.support_hat))
    if missing:
        out.append(f"true features {missing} missing from support_hat")
    return out


def check_centres(est, z_true, mu_true, s: int) -> list[str]:
    """Both centre errors within CENTRE_ERROR_FACTOR * sum_k s / n_k."""
    out = []
    bound = centre_error_bound(z_true, est.z_hat, s)
    err = centre_error(est.mu_hat, mu_true)
    if not err <= bound:
        out.append(f"centre error {err:.3f} > bound {bound:.3f}")
    lab = label_matched_error(est.z_hat, est.mu_hat, z_true, mu_true)
    if not lab <= bound:
        out.append(f"centre error under the labels' matching {lab:.3f} > bound {bound:.3f}")
    return out


def check_snapshots(trace, k_max: int) -> list[str]:
    """Dense labels 1..K, K <= k_max, theta in (0, 1), support within 1..p."""
    p = trace.meta.p
    for b, s in enumerate(trace.snapshots):
        labels = np.unique(s.z)
        if not (1 <= s.k <= k_max) or not np.array_equal(labels, np.arange(1, s.k + 1)):
            return [f"snapshot {b}: labels {labels.tolist()[:8]} are not dense 1..K={s.k} <= {k_max}"]
        if not 0.0 < s.theta < 1.0:
            return [f"snapshot {b}: theta {s.theta} outside (0, 1)"]
        if s.support.size and (s.support.min() < 1 or s.support.max() > p):
            return [f"snapshot {b}: support outside 1..{p}"]
        if s.mu_support.shape != (s.k, s.support.size):
            return [f"snapshot {b}: mu_support shape {s.mu_support.shape}"]
    return []


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and a.dtype.kind == b.dtype.kind and np.array_equal(a, b)


def check_round_trip(original, restored) -> list[str]:
    """The trace read back from NDJSON equals the one written, field for field."""
    if original.meta != restored.meta:
        return [f"meta differs: {original.meta} vs {restored.meta}"]
    if len(original.snapshots) != len(restored.snapshots):
        return [f"{len(original.snapshots)} snapshots written, {len(restored.snapshots)} read"]
    fields = ("z", "k", "theta", "support", "mu_support", "mu_dense")
    for b, (s, r) in enumerate(zip(original.snapshots, restored.snapshots)):
        for f in fields:
            x, y = getattr(s, f), getattr(r, f)
            same = x == y if f in ("k", "theta") else _same(x, y)
            if not same:
                return [f"snapshot {b}: field {f} differs after the round trip"]
    return []


def check_psrf(report: dict) -> list[str]:
    """The report lists theta and k, and every value is finite."""
    out = [f"psrf_report lacks {key!r}" for key in ("theta", "k") if key not in report]
    bad = {k: v for k, v in report.items() if not math.isfinite(v)}
    if bad:
        out.append(f"psrf_report has non-finite values {bad}")
    return out
