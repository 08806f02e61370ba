"""Shared data model: data matrix, prior constants, sampler state, traces.

Conventions used throughout the package:

* The data matrix ``Y`` is p x n: rows are features, columns are
  observations (column ``i`` is observation ``Y_i``).
* Cluster labels are dense 1-based integers ``1..K`` in every public
  array (``z``, ``z_hat``, ``z_true``).  Row ``c`` of a ``(K, p)`` mean
  array corresponds to label ``c + 1``.
* Feature indices in public outputs (supports) are 1-based to match the
  label convention; in-memory numpy indexing is 0-based.
* Randomness: one master seed spawns independent per-chain streams via
  ``numpy.random.SeedSequence``.  Within a chain all draws happen in a
  fixed order, documented in :mod:`sparsegmm.gibbs`.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import (
    DataError,
    NonFiniteEntryError,
    TooFewObservationsError,
)

JOINT_SSL = "joint"
COLUMN_SSL = "column"


@dataclass(frozen=True)
class DataMatrix:
    """Dense p x n observation matrix (rows = features, cols = observations).

    ``obs`` is an observation-major (n, p) C-ordered copy, built on first
    use and kept for the life of the matrix: the sampler's cluster sums
    read its rows.  ``values`` stays p x n for the matrix products (the reseat
    distances, k-means assignment), whose last bits depend on the layout.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise DataError(f"expected a 2-d matrix, got ndim={v.ndim}")
        object.__setattr__(self, "values", v)

    @cached_property
    def obs(self) -> np.ndarray:
        return np.ascontiguousarray(self.values.T)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def validate_dataset(data: DataMatrix) -> None:
    """Check DataMatrix invariants; raise on violations.

    Raises
    ------
    NonFiniteEntryError
        If any entry is NaN or infinite (first offender in row-major order).
    TooFewObservationsError
        If n < 2 or p < 1.
    """
    v = data.values
    if v.shape[0] < 1 or v.shape[1] < 2:
        raise TooFewObservationsError(
            f"need p >= 1 and n >= 2, got p={v.shape[0]}, n={v.shape[1]}"
        )
    bad = ~np.isfinite(v)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise NonFiniteEntryError(int(r), int(c))


@dataclass(frozen=True)
class Hyperparams:
    """Prior constants for the sparse mixture model.

    lambda0/lambda1 are the spike/slab Laplace rates, beta_theta the second
    shape of the Beta prior on the slab inclusion probability, alpha the
    symmetric Dirichlet weight parameter, poisson_lambda the rate of the
    truncated Poisson prior on the number of clusters, k_max its truncation
    point, and ssl_mode selects shared ("joint") or per-cluster ("column")
    inclusion indicators.
    """

    lambda0: float
    lambda1: float
    beta_theta: float
    alpha: float = 1.0
    poisson_lambda: float = 2.0
    k_max: int = 20
    ssl_mode: str = JOINT_SSL

    def __post_init__(self):
        if not (self.lambda0 > self.lambda1 > 0):
            raise ValueError(
                f"need lambda0 > lambda1 > 0, got {self.lambda0}, {self.lambda1}"
            )
        if self.beta_theta <= 0 or self.poisson_lambda <= 0:
            raise ValueError("beta_theta and poisson_lambda must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.ssl_mode not in (JOINT_SSL, COLUMN_SSL):
            raise ValueError(f"unknown ssl_mode {self.ssl_mode!r}")
        if self.alpha < 1:
            warnings.warn(
                f"alpha={self.alpha} < 1 is outside the supported analysis regime",
                stacklevel=2,
            )

    def digest(self) -> str:
        """Stable hash of the hyperparameter values."""
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def default_hyperparams(p: int, ssl_mode: str = JOINT_SSL) -> Hyperparams:
    """Default prior constants for a p-feature dataset.

    lambda0=100, lambda1=1, alpha=1, poisson rate 2, k_max=20, and
    beta_theta = p^(1+kappa) * ln(p) with kappa = 0.1.  Natural log is
    used for the ``log p`` factor.
    """
    if p < 2:
        raise ValueError("default_hyperparams requires p >= 2")
    kappa = 0.1
    return Hyperparams(
        lambda0=100.0,
        lambda1=1.0,
        beta_theta=p ** (1.0 + kappa) * math.log(p),
        alpha=1.0,
        poisson_lambda=2.0,
        k_max=20,
        ssl_mode=ssl_mode,
    )


def cluster_sums(obs: np.ndarray, z: np.ndarray, k: int) -> np.ndarray:
    """(k, p) per-cluster sums of the rows of an (n, p) observation matrix.

    Pass ``DataMatrix.obs``: gathering a cluster's rows from that C-ordered
    copy reads contiguous memory.  Row c sums the observations labelled
    c + 1, starting from 0 and adding them in ascending order, exactly as
    ``np.add.at(out, z - 1, obs)`` does, so the result is bitwise the same
    for any memory layout of ``obs``; an empty cluster sums to 0.
    Reducing the (m, p) block of a cluster along its first axis adds row
    by row; at p = 1 that axis is the contiguous one, where numpy would
    sum pairwise, so the running sum is taken instead.
    """
    out = np.zeros((k, obs.shape[1]))
    for c in range(k):
        members = obs[z == c + 1]
        if obs.shape[1] > 1:
            np.add.reduce(members, axis=0, out=out[c], initial=0.0)
        elif members.size:
            out[c] += np.add.accumulate(members[:, 0])[-1]
    return out


def residual_score(sums: np.ndarray, mu: np.ndarray, z: np.ndarray) -> float:
    """||Y - mu_z||_F^2 - ||Y||_F^2 from the (k, m) cluster sums and means.

    With S_c and n_c the sum and size of cluster c, the residual of the
    labels z under the means expands to ||Y||_F^2 + sum_c n_c ||mu_c||^2
    - 2 sum_c S_c.mu_c, over the m rows where the means can be non-zero;
    only the last two terms are returned.  Clusters enter in order of
    first appearance in z, so every labelling of one partition and its
    means scores bit for bit the same, as their residuals do.
    """
    labels, first, counts = np.unique(z, return_index=True, return_counts=True)
    order = np.argsort(first)
    rows = labels[order] - 1
    m, s = mu[rows], sums[rows]
    return float(np.sum(counts[order] * np.sum(m * m, axis=1)) - 2.0 * np.sum(s * m))


@dataclass
class ModelState:
    """One Gibbs-sampler state.

    z        : (n,) int labels in 1..K (dense, every cluster non-empty)
    mu       : (K, p) cluster means; row c is the mean of label c+1
    phi      : (K, p) strictly positive Laplace scale auxiliaries
    xi       : (K, p) int8 0/1 inclusion indicators; in joint mode the K
               rows are tied (one indicator per feature, stored per row)
    theta    : slab inclusion probability in (0, 1)
    """

    z: np.ndarray
    mu: np.ndarray
    phi: np.ndarray
    xi: np.ndarray
    theta: float

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def p(self) -> int:
        return self.mu.shape[1]

    @property
    def k_active(self) -> int:
        return self.mu.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        """Sizes of clusters 1..K as a (K,) int array."""
        return np.bincount(self.z, minlength=self.k_active + 1)[1:]

    def copy(self) -> "ModelState":
        return ModelState(
            z=self.z.copy(),
            mu=self.mu.copy(),
            phi=self.phi.copy(),
            xi=self.xi.copy(),
            theta=self.theta,
        )

    def check_invariants(self, k_max: int | None = None) -> None:
        """Assert the partition/state invariants; raise AssertionError if broken."""
        k = self.k_active
        assert self.z.min() >= 1 and self.z.max() <= k, "labels out of range"
        sizes = self.cluster_sizes()
        assert (sizes >= 1).all(), "empty active cluster"
        assert self.phi.shape == self.mu.shape and (self.phi > 0).all(), "phi must be positive"
        assert self.xi.shape == self.mu.shape, "xi must be (K, p)"
        assert 0.0 < self.theta < 1.0, "theta outside (0,1)"
        if k_max is not None:
            assert k <= k_max, "more active clusters than k_max"


@dataclass(frozen=True)
class Snapshot:
    """Post-burn-in state summary kept in a trace.

    Means are stored restricted to the active support (features with an
    inclusion indicator of 1; the union over clusters in column mode).
    ``support`` holds 1-based feature indices.  ``mu_dense`` is populated
    only when dense storage is toggled on.
    """

    z: np.ndarray
    k: int
    theta: float
    support: np.ndarray
    mu_support: np.ndarray
    mu_dense: np.ndarray | None = None

    def dense_mu(self, p: int) -> np.ndarray:
        """(K, p) mean matrix with zeros off the stored support."""
        if self.mu_dense is not None:
            return self.mu_dense
        out = np.zeros((self.k, p))
        if self.support.size:
            out[:, self.support - 1] = self.mu_support
        return out


@dataclass(frozen=True)
class TraceMeta:
    n: int
    p: int
    n_burn: int
    thin: int
    seed: int
    chain_id: int
    hyper_digest: str
    ssl_mode: str


@dataclass
class ChainTrace:
    """Ordered post-burn-in snapshots from one chain."""

    snapshots: list[Snapshot]
    meta: TraceMeta

    def __len__(self) -> int:
        return len(self.snapshots)

    def k_values(self) -> np.ndarray:
        return np.array([s.k for s in self.snapshots], dtype=int)

    def theta_values(self) -> np.ndarray:
        return np.array([s.theta for s in self.snapshots])


@dataclass(frozen=True)
class ClusterEstimate:
    """Aligned posterior point estimate.

    z_hat labels are exactly {1, ..., k_hat}; mu_hat is p x k_hat with
    column c-1 the mean of cluster c; support_hat holds 1-based feature
    indices whose posterior inclusion frequency reached the threshold.
    """

    k_hat: int
    z_hat: np.ndarray
    mu_hat: np.ndarray
    support_hat: tuple[int, ...]
    inclusion_freq: np.ndarray = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# trace serialization (newline-delimited JSON, one snapshot per line)
# ---------------------------------------------------------------------------


def trace_to_ndjson(trace: ChainTrace) -> str:
    """Serialize a trace; first record is the meta, then one snapshot per line."""
    lines = [json.dumps({"type": "meta", **asdict(trace.meta)}, sort_keys=True)]
    for s in trace.snapshots:
        rec = {
            "type": "snapshot",
            "z": s.z.tolist(),
            "k": s.k,
            "theta": s.theta,
            "support": s.support.tolist(),
            "mu_support": s.mu_support.tolist(),
        }
        if s.mu_dense is not None:
            rec["mu_dense"] = s.mu_dense.tolist()
        lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines) + "\n"


def _json_record(lineno: int, line: str) -> dict:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"trace line {lineno} is not JSON: {exc}") from None
    if not isinstance(rec, dict):
        raise DataError(f"trace line {lineno} is not a JSON object")
    return rec


_SNAPSHOT_FIELDS = ("z", "k", "theta", "support", "mu_support")
_KINDS = {"whole": ("iu", int), "real": ("iuf", float)}  # numpy dtype kinds


def _numbers_field(rec: dict, key: str, what: str, ndim: int, lineno: int) -> np.ndarray:
    """``rec[key]`` as an ``ndim``-dimensional int or float array of
    ``what`` ("whole" or "real") numbers; DataError naming the line
    otherwise.  The kind of the array numpy builds is checked, not each
    element: an empty list passes."""
    try:
        arr = np.asarray(rec[key])
    except ValueError:  # nested lists of unequal lengths
        arr = np.asarray(None)
    kinds, dtype = _KINDS[what]
    if (arr.size and arr.dtype.kind not in kinds) or arr.ndim != ndim:
        raise DataError(f"snapshot on trace line {lineno}: {key} is not {what} numbers "
                        f"in {ndim} dimensions")
    return arr.astype(dtype, copy=False)


def trace_from_ndjson(text: str) -> ChainTrace:
    """Inverse of :func:`trace_to_ndjson`; round-trips every field exactly.

    Raises DataError, naming the line, on a record that is not JSON, lacks
    a field, or holds a field of the wrong kind: labels, k and the support
    must be whole numbers, theta and the means real numbers.
    """
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise DataError("empty trace file")
    head = _json_record(*lines[0])
    if head.get("type") != "meta":
        raise DataError("trace file must start with a meta record")
    names = [f.name for f in fields(TraceMeta)]
    missing = [name for name in names if name not in head]
    if missing:
        raise DataError(f"trace meta record lacks {', '.join(missing)}")
    meta = TraceMeta(**{name: head[name] for name in names})
    snaps = []
    for lineno, ln in lines[1:]:
        rec = _json_record(lineno, ln)
        if rec.get("type") != "snapshot":
            raise DataError(f"unexpected record type {rec.get('type')!r} on trace line {lineno}")
        missing = [name for name in _SNAPSHOT_FIELDS if name not in rec]
        if missing:
            raise DataError(f"snapshot on trace line {lineno} lacks {', '.join(missing)}")
        k = int(_numbers_field(rec, "k", "whole", 0, lineno))
        support = _numbers_field(rec, "support", "whole", 1, lineno)
        mu_support = _numbers_field(rec, "mu_support", "real", 2, lineno)
        if mu_support.size != k * support.size:
            raise DataError(
                f"snapshot on trace line {lineno} has {mu_support.size} support means, "
                f"not k * |support| = {k * support.size}"
            )
        dense = None
        if rec.get("mu_dense") is not None:
            dense = _numbers_field(rec, "mu_dense", "real", 2, lineno)
        snaps.append(
            Snapshot(
                z=_numbers_field(rec, "z", "whole", 1, lineno),
                k=k,
                theta=float(_numbers_field(rec, "theta", "real", 0, lineno)),
                support=support,
                mu_support=mu_support.reshape(k, support.size),
                mu_dense=dense,
            )
        )
    return ChainTrace(snapshots=snaps, meta=meta)
