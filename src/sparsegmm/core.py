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

import functools
import hashlib
import itertools
import json
import math
import typing
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

import numpy as np
from scipy.sparse import csc_array

from .errors import ConfigError, DataError, SparseGmmError

JOINT_SSL = "joint"
COLUMN_SSL = "column"


@dataclass(frozen=True)
class DataMatrix:
    """Dense p x n observation matrix (rows = features, cols = observations).

    The data is held once, observation-major: ``values`` is a p x n
    F-ordered array, and ``obs`` is its transpose, an (n, p) C-ordered view
    of the same buffer whose rows the sampler's cluster sums read.  An
    F-ordered float input is kept as it is, so later edits to it show
    through; any other input (a C-ordered array, a list, ints) is copied
    once, and later edits to the caller's array are not seen.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float, order="F")
        if v.ndim != 2:
            raise DataError(f"expected a 2-d matrix, got ndim={v.ndim}")
        object.__setattr__(self, "values", v)

    @property
    def obs(self) -> np.ndarray:
        return self.values.T

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def validate_dataset(data: DataMatrix) -> None:
    """Check DataMatrix invariants; DataError if n < 2 or p < 1, or naming
    the first NaN or infinite entry in row-major order."""
    v = data.values
    if v.shape[0] < 1 or v.shape[1] < 2:
        raise DataError(f"need p >= 1 and n >= 2, got p={v.shape[0]}, n={v.shape[1]}")
    # a finite sum proves every entry finite without an n x p temporary; a
    # sum that overflows on finite entries is searched row by row and passes
    with np.errstate(over="ignore", invalid="ignore"):
        total = v.sum()
    if math.isfinite(total):
        return
    for r, row in enumerate(v):
        bad = ~np.isfinite(row)
        if bad.any():
            raise DataError(f"non-finite entry at row {r}, column {int(bad.argmax())}")


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
        for name in ("lambda0", "lambda1"):
            # squared as a float, as the sampler squares it: 1e200 overflows
            try:
                rate = float(getattr(self, name))
            except OverflowError:
                rate = math.inf
            if not 0 < rate * rate < math.inf:
                raise ValueError(f"{name}**2 must be a positive finite float, got {rate * rate}")
        if not (self.alpha > 0 and self.beta_theta > 0 and self.poisson_lambda > 0):
            raise ValueError("alpha, beta_theta and poisson_lambda must be positive")
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


# n * p at and above which ``cluster_sums`` takes the sparse product.  Below
# it the product's fixed cost (about 15 us a call) outweighs the gathers'
# copies.  From here up, a cluster's copy can pass the allocator's
# threshold for mapping fresh pages (128 KB by default in glibc): in some
# processes, four chains of 50 sweeps at p=400, n=200 took about 6000 page
# faults with the gathers, against 4 with the product.
SPARSE_SUMS_MIN = 2**16


def cluster_sums(obs: np.ndarray, z: np.ndarray, k: int) -> np.ndarray:
    """(k, p) per-cluster sums of the rows of an (n, p) observation matrix.

    Pass ``DataMatrix.obs``: both paths read it row by row.  Row c sums the
    observations labelled c + 1, starting from 0 and adding them in
    ascending order, exactly as ``np.add.at(out, z - 1, obs)`` does, so the
    result is bitwise the same for any memory layout of ``obs``; an empty
    cluster sums to 0.

    From ``SPARSE_SUMS_MIN`` elements up, the sums are one product of the
    (k, n) 0/1 indicator matrix and ``obs`` (``stacked_cluster_sums`` with
    one labelling), which adds the observations into their rows in that
    order.  That reads the data once and copies none of it.  Below, each
    cluster's rows are gathered and the (m, p) block reduced along its
    first axis, which adds row by row; at p = 1 that axis is the
    contiguous one, where numpy would sum pairwise, so the running sum is
    taken instead.
    """
    n, p = obs.shape
    if n * p >= SPARSE_SUMS_MIN:
        return stacked_cluster_sums(obs, [z], k)
    out = np.zeros((k, p))
    for c in range(k):
        members = obs[z == c + 1]
        if p > 1:
            np.add.reduce(members, axis=0, out=out[c], initial=0.0)
        elif members.size:
            out[c] += np.add.accumulate(members[:, 0])[-1]
    return out


def stacked_cluster_sums(obs: np.ndarray, z: typing.Sequence[np.ndarray], k: int) -> np.ndarray:
    """(A * k, p) cluster sums of A labellings at once: row a * k + c sums
    the observations that the labels ``z[a]`` mark c + 1.

    One product of the (A * k, n) 0/1 indicator matrix and ``obs``.  Column
    i of the CSC matrix holds observation i's row in each labelling, and
    scipy's CSC-times-dense loop takes the columns in ascending order,
    adding 1.0 * x_i, which is x_i, into each of those zeroed rows.  So
    every row adds its observations in ascending order, as ``cluster_sums``
    does, and each row of ``obs`` is read once for all A labellings.
    """
    n = obs.shape[0]
    a = len(z)
    rows = np.empty((n, a), dtype=np.intp)
    for j, labels in enumerate(z):
        np.add(labels, j * k - 1, out=rows[:, j])
    indptr = np.arange(0, a * n + 1, a)
    return csc_array((np.ones(a * n), rows.ravel(), indptr), shape=(a * k, n)) @ obs


def residual_score(sums: np.ndarray, mu: np.ndarray, z: np.ndarray) -> float:
    """||Y - mu_z||_F^2 - ||Y||_F^2 from the (k, m) cluster sums and means.

    With S_c and n_c the sum and size of cluster c, the residual of the
    labels z under the means expands to ||Y||_F^2 + sum_c n_c ||mu_c||^2
    - 2 sum_c S_c.mu_c, over the m rows where the means can be non-zero;
    only the last two terms are returned.  Clusters enter in order of
    first appearance in z, so every labelling of one partition and its
    means scores bit for bit the same, as their residuals do.
    """
    return ordered_residual_score(sums, mu, *first_appearance(z))


def first_appearance(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based labels that z uses, in order of first appearance, and
    the size of each of those clusters."""
    labels, first, counts = np.unique(z, return_index=True, return_counts=True)
    order = np.argsort(first)
    return labels[order] - 1, counts[order]


def ordered_residual_score(sums: np.ndarray, mu: np.ndarray, rows: np.ndarray,
                           counts: np.ndarray) -> float:
    """:func:`residual_score` of labels whose clusters ``first_appearance``
    gave as ``rows`` and ``counts``: labels of one partition share them."""
    m, s = mu[rows], sums[rows]
    return float(np.sum(counts * np.sum(m * m, axis=1)) - 2.0 * np.sum(s * m))


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

    def __post_init__(self):
        """Refuse values that no chain writes."""
        if min(self.n, self.p, self.thin) < 1 or min(self.n_burn, self.chain_id) < 0:
            raise ValueError("need n, p, thin >= 1 and n_burn, chain_id >= 0")
        if self.ssl_mode not in (JOINT_SSL, COLUMN_SSL):
            raise ValueError(f"unknown ssl_mode {self.ssl_mode!r}")


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


def trace_from_ndjson(text: str, where: str = "trace") -> ChainTrace:
    """Inverse of :func:`trace_to_ndjson`; round-trips every field exactly.

    DataError naming ``where``, the line and the field on a record that is
    not a JSON object, lacks a field, or holds an unknown one or one of the
    wrong kind (meta fields as TraceMeta declares them; whole labels, k and
    support; finite theta and means)."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise DataError(f"{where} is empty")
    line = f"{where} line {lines[0][0]}"
    head = parse_json_object(lines[0][1], line)
    if head.pop("type", None) != "meta":
        raise DataError(f"{where} must start with a meta record")
    meta = _section(TraceMeta, head, f"the meta record on {line}", DataError)

    def converters(check_bools: bool) -> dict:
        numbers = functools.partial(_numbers, check_bools=check_bools)
        return {
            "z": functools.partial(numbers, ndim=1, whole=True),
            "k": lambda v: int(numbers(v, 0, whole=True)),
            "theta": lambda v: float(numbers(v, 0)),
            "support": functools.partial(numbers, ndim=1, whole=True),
            "mu_support": functools.partial(numbers, ndim=2),
            "mu_dense": lambda v: None if v is None else numbers(v, 2),
        }

    # a record whose text holds no true or false literal holds no boolean,
    # so only the others pay for a check of every label
    convert = {check: converters(check) for check in (False, True)}
    required, snaps = ("z", "k", "theta", "support", "mu_support"), []
    for lineno, ln in lines[1:]:
        line = f"{where} line {lineno}"
        rec = parse_json_object(ln, line)
        if rec.pop("type", None) != "snapshot":
            raise DataError(f"{line} is not a snapshot record")
        f = json_fields(rec, convert["true" in ln or "false" in ln],
                        f"the snapshot on {line}", DataError, required)
        shape = (f["k"], f["support"].size)
        if f["mu_support"].shape != shape:
            raise DataError(f"the snapshot on {line} has support means of shape "
                            f"{f['mu_support'].shape}, not (k, |support|) = {shape}")
        snaps.append(Snapshot(**f))
    return ChainTrace(snapshots=snaps, meta=meta)


# ---------------------------------------------------------------------------
# JSON input: one object parse, one number check, one field check
# ---------------------------------------------------------------------------


def parse_json_object(text: str, where: str, error: type[SparseGmmError] = DataError) -> dict:
    """The JSON object ``text`` holds; ``error`` naming ``where`` otherwise."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where} is not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise error(f"{where} must hold a JSON object, not a {type(d).__name__}")
    return d


def _has_bool(value, depth: int) -> bool:
    """Whether ``value``, lists nested ``depth`` deep, holds a boolean."""
    for _ in range(depth - 1):
        value = itertools.chain.from_iterable(value)
    return bool in map(type, value) if depth else type(value) is bool


def json_numbers(value, ndim: int | None = None, whole: bool = False) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array of ``ndim``
    dimensions (any number if None), or an int array if ``whole``; ValueError
    on a boolean, a string, ragged lists, a number that is not finite, or,
    if ``whole``, one that is not integral (2.0 is whole) or not an int64."""
    return _numbers(value, ndim, whole, check_bools=True)


def _numbers(value, ndim: int | None = None, whole: bool = False, *,
             check_bools: bool) -> np.ndarray:
    """:func:`json_numbers`, with every check in the same order, except that
    it looks for a boolean among numbers (numpy reads one as 0 or 1) only if
    ``check_bools``.  Pass False only for a value parsed from text that
    holds neither ``true`` nor ``false``, the only literals a JSON boolean
    comes from."""
    try:
        arr = np.asarray(value)
    except ValueError:  # nested lists of unequal lengths
        raise ValueError("expected nested lists of equal lengths") from None
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected numbers in {ndim} dimension(s), got {arr.ndim}")
    kind = arr.dtype.kind
    if arr.size and (kind not in "iuf" or check_bools and _has_bool(value, arr.ndim)):
        raise ValueError("expected JSON numbers, not booleans, strings or null")
    if kind == "f" and not (np.isfinite(arr).all() if arr.ndim else math.isfinite(arr)):
        raise ValueError("expected finite numbers, not NaN or Infinity")
    if not whole:
        return arr.astype(float, copy=False)
    if kind == "u" or kind == "f" and not ((arr == np.trunc(arr)) & (abs(arr) < 2.0**63)).all():
        raise ValueError("expected whole numbers below 2**63 in magnitude")
    return arr.astype(int, copy=False)


def json_fields(d: dict, convert: dict, where: str, error: type[SparseGmmError],
                required=(), closed: bool = True) -> dict:
    """``{key: convert[key](d[key])}`` over the keys of ``convert`` that
    ``d`` holds; ``error`` naming ``where`` if a ``required`` key is
    missing, if ``closed`` and ``d`` holds a key ``convert`` lacks, or,
    naming the field, if a conversion raises TypeError or ValueError."""
    missing = [key for key in required if key not in d]
    if missing:
        raise error(f"{where} lacks {', '.join(missing)}")
    unknown = sorted(d.keys() - convert.keys()) if closed else []
    if unknown:
        raise error(f"unknown field(s) in {where}: {', '.join(unknown)}")
    out = {}
    for key, fn in convert.items():
        if key in d:
            try:
                out[key] = fn(d[key])
            except (TypeError, ValueError) as exc:
                raise error(f"{where}: field {key} is malformed: {exc}") from None
    return out


# a dataclass's field types, cached: get_type_hints evaluates every annotation per call
_type_hints = functools.cache(typing.get_type_hints)


def _field(kind, value, where: str, error: type[SparseGmmError], partial: bool):
    """A JSON value checked against a field's declared type (ValueError if
    of the wrong kind); a dataclass is a nested section, and the one dict
    field (a config's ``hyperparams``) holds Hyperparams fields."""
    if type(None) in typing.get_args(kind):
        if value is None:
            return None
        (kind,) = set(typing.get_args(kind)) - {type(None)}
    if kind is dict:
        return _section(Hyperparams, value, where, error, partial=True)
    if is_dataclass(kind):
        return _section(kind, value, where, error, partial)
    if kind is int:
        return int(json_numbers(value, 0, whole=True))
    if kind is float:
        json_numbers(value, 0)
        return value  # a JSON integer stays one: Hyperparams.digest hashes it
    if kind is np.ndarray:
        return json_numbers(value)
    if isinstance(value, kind):  # str, bool
        return value
    raise ValueError(f"expected a {kind.__name__}, got {value!r}")


def _section(cls: type, d, where: str, error: type[SparseGmmError], partial: bool = False):
    """``cls`` built from the JSON object ``d`` by its fields' declared types;
    ``error`` naming ``where`` (``where.field`` for a nested section) if
    ``d`` is not an object, lacks a field without a default, holds an
    unknown field or a value of the wrong kind, or fails ``cls``'s checks.
    ``partial`` returns the checked fields, for a section not yet complete."""
    if not isinstance(d, dict):
        raise error(f"{where} must be an object, not {type(d).__name__}")
    kinds = _type_hints(cls)
    convert = {f.name: functools.partial(_field, kinds[f.name], where=f"{where}.{f.name}",
                                         error=error, partial=partial)
               for f in fields(cls)}
    required = [] if partial else [f.name for f in fields(cls) if f.default is MISSING]
    checked = json_fields(d, convert, where, error, required)
    if partial:
        return checked
    try:
        return cls(**checked)
    except (TypeError, ValueError, ConfigError) as exc:
        raise error(f"bad {where}: {exc}") from None
