"""End-to-end experiment pipeline and file I/O for the CLI.

A run directory always receives a machine-readable manifest (resolved
config, seed, library versions, data digest) sufficient to reproduce the
run byte-for-byte; no timestamps are written anywhere.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import platform
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .cmle import CmleConfig, fit_cmle
from .core import (
    ChainTrace,
    ClusterEstimate,
    DataMatrix,
    Hyperparams,
    _section,
    default_hyperparams,
    json_fields,
    json_numbers,
    parse_json_object,
    trace_from_ndjson,
    trace_to_ndjson,
    validate_dataset,
)
from .errors import ConfigError, DataError, SparseGmmError
from .gibbs import RunConfig, run_chains
from .metrics import ari, mean_matrix_error, min_hamming, nmi
from .summarize import _psrf_table, align_labels, point_estimates
from .synthetic import ScenarioSpec, generate

METHOD_BAYESIAN = "bayesian"
METHOD_CMLE = "cmle"
METHOD_KMEANS = "kmeans"


# ---------------------------------------------------------------------------
# CSV / JSON helpers.  Every file the CLI reads or writes goes through
# read_text, write_text or output_dir: an input that cannot be read is a
# DataError (a ConfigError for a config file), an output that cannot be
# written a ConfigError, and each names the path.
# ---------------------------------------------------------------------------


def read_text(path: str | Path, error: type[SparseGmmError] = DataError) -> str:
    """The text of a file; ``error`` naming it if it cannot be read or decoded."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from None


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to a file; ConfigError naming it if it cannot be written."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def output_dir(path: str | Path) -> Path:
    """A directory, made with its parents if missing; ConfigError naming it
    if it cannot be made."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory {path}: {exc}") from None
    return path


def load_matrix_csv(path: str | Path, transpose: bool = False) -> np.ndarray:
    """Read a numeric CSV matrix; a non-numeric first row is treated as a header."""
    text = read_text(path)
    if not text:
        raise DataError(f"{path} is empty")
    skip = 0
    try:
        [float(tok) for tok in text.partition("\n")[0].strip().split(",") if tok != ""]
    except ValueError:
        skip = 1
    try:
        mat = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=skip, ndmin=2)
    except ValueError as exc:
        raise DataError(f"could not parse {path}: {exc}") from exc
    return mat.T if transpose else mat


def save_matrix_csv(path: str | Path, values: np.ndarray) -> None:
    buf = io.StringIO()
    np.savetxt(buf, values, delimiter=",", fmt="%.17g")
    write_text(path, buf.getvalue())


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def estimate_to_dict(est: ClusterEstimate) -> dict:
    return {
        "k_hat": int(est.k_hat),
        "z_hat": [int(v) for v in est.z_hat],
        "support": [int(v) for v in est.support_hat],
        "mu_hat": est.mu_hat.tolist(),
    }


def estimate_from_dict(d: dict, where: str) -> ClusterEstimate:
    """Inverse of :func:`estimate_to_dict` (without inclusion frequencies;
    ``support`` may be absent, other fields are ignored); DataError naming
    ``where`` and the field if one is missing or malformed."""
    whole = functools.partial(json_numbers, ndim=1, whole=True)
    est = json_fields(
        d,
        {"k_hat": lambda v: int(json_numbers(v, 0, whole=True)), "z_hat": whole,
         "mu_hat": functools.partial(json_numbers, ndim=2), "support": whole},
        where, DataError, required=("k_hat", "z_hat", "mu_hat"), closed=False,
    )
    support = tuple(est["support"].tolist()) if "support" in est else ()
    return ClusterEstimate(est["k_hat"], est["z_hat"], est["mu_hat"], support)


def write_estimate(out_dir: Path, est: ClusterEstimate) -> None:
    write_text(out_dir / "estimate.json", canonical_json(estimate_to_dict(est)))
    lines = ["observation,label"]
    lines += [f"{i + 1},{int(z)}" for i, z in enumerate(est.z_hat)]
    write_text(out_dir / "assignments.csv", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """One experiment: a data source, a method, and its settings.

    ``hyperparams`` overrides fields of ``default_hyperparams(p)``; k-means
    is the constrained MLE without a row budget (``cmle.s`` is ignored).
    """

    data_path: str | None = None
    transpose: bool = False
    scenario: ScenarioSpec | None = None
    method: str = METHOD_BAYESIAN
    hyperparams: dict | None = None
    run: RunConfig | None = None
    cmle: CmleConfig | None = None
    truth_path: str | None = None
    output_dir: str = "run_out"

    def __post_init__(self):
        if (self.data_path is None) == (self.scenario is None):
            raise ConfigError("specify exactly one data source (path or scenario)")
        if self.method not in (METHOD_BAYESIAN, METHOD_CMLE, METHOD_KMEANS):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.run is None:
            self.run = RunConfig()
        if self.method in (METHOD_CMLE, METHOD_KMEANS) and self.cmle is None:
            raise ConfigError(f"method {self.method} requires a cmle section with k (--k)")
        if self.method == METHOD_CMLE and self.cmle.s is None:
            raise ConfigError("method cmle requires cmle.s, the row budget (--sparsity)")
        if self.method == METHOD_KMEANS:
            self.cmle = replace(self.cmle, s=None)
        if self.method == METHOD_BAYESIAN and self.run.n_chains >= 2 and self.run.n_keep < 2:
            raise ConfigError(
                f"a PSRF over {self.run.n_chains} chains needs n_keep >= 2, "
                f"got {self.run.n_keep}"
            )


def config_from_dict(d: dict, overrides: dict | None = None) -> tuple[ExperimentConfig, dict]:
    """The experiment a config dict describes, and ``d`` with ``overrides``
    (the CLI's flags: None removes a field, a dict updates a section)
    applied, for the manifest.  ``d``'s own values are checked before any
    override replaces them; ConfigError names the section at fault."""
    _section(ExperimentConfig, d, "config", ConfigError, partial=True)
    merged = dict(d)
    for key, value in (overrides or {}).items():
        if value is None:
            merged.pop(key, None)
        elif isinstance(value, dict):
            merged[key] = {**(merged.get(key) or {}), **value}
        else:
            merged[key] = value
    return _section(ExperimentConfig, merged, "config", ConfigError), merged


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass
class ReportBundle:
    estimate: ClusterEstimate
    metrics: dict | None


def load_json_object(path: str | Path, error: type[SparseGmmError] = DataError) -> dict:
    """The JSON object in a file; ``error`` (DataError for a data file,
    ConfigError for a config file) if the file cannot be read or holds none."""
    return parse_json_object(read_text(path, error), str(path), error)


def write_truth(path: str | Path, z_true: np.ndarray, mu_true: np.ndarray) -> None:
    write_text(path, canonical_json({"z_true": [int(v) for v in z_true],
                                     "mu_true": mu_true.tolist()}))


def load_truth(path: str | Path) -> tuple[np.ndarray, np.ndarray | None]:
    """``(z_true, mu_true)`` from a truth file (mu_true None if absent or
    null); DataError naming the file and the field if one is malformed."""
    truth = json_fields(
        load_json_object(path),
        {"z_true": functools.partial(json_numbers, ndim=1, whole=True),
         "mu_true": lambda v: None if v is None else json_numbers(v, 2)},
        str(path), DataError, required=("z_true",), closed=False,
    )
    return truth["z_true"], truth.get("mu_true")


def _check_truth(z_true: np.ndarray, mu_true: np.ndarray | None, data: DataMatrix,
                 path: str | Path) -> None:
    """DataError naming the truth file unless it fits the data: one label
    >= 1 per observation and, if given, p x K true means with a column for
    every label."""
    if z_true.size != data.n:
        problem = f"{z_true.size} labels for n={data.n} observations"
    elif z_true.min() < 1:
        problem = "labels must be at least 1"
    elif mu_true is not None and (mu_true.shape[0] != data.p
                                  or mu_true.shape[1] < z_true.max()):
        problem = (f"mu_true is {mu_true.shape[0]}x{mu_true.shape[1]}, not p={data.p} rows"
                   f" with a column for each of labels 1..{int(z_true.max())}")
    else:
        return
    raise DataError(f"{path}: the truth does not fit the data: {problem}")


def compute_metrics(
    est: ClusterEstimate,
    z_true: np.ndarray,
    mu_true: np.ndarray | None,
) -> dict:
    """ARI, NMI (None unless both partitions have two labels or more),
    mis-clustering rate, reconstruction error for an estimate; DataError if
    the estimate and the truth do not fit each other."""
    try:
        k_common = max(int(np.max(z_true)), int(np.max(est.z_hat)))
        out = {
            "k_hat": int(est.k_hat),
            "ari": ari(z_true, est.z_hat),
            "d_h": min_hamming(z_true, est.z_hat, k_common),
        }
        two_each = min(np.unique(z_true).size, np.unique(est.z_hat).size) >= 2
        out["nmi"] = nmi(z_true, est.z_hat) if two_each else None
        out["mean_matrix_error"] = None if mu_true is None else mean_matrix_error(
            est.mu_hat, est.z_hat, mu_true, z_true
        )
    except SparseGmmError as exc:
        raise DataError(f"the estimate does not fit the truth: {exc}") from None
    return out


def _estimate_from_flat(mu: np.ndarray, z: np.ndarray) -> ClusterEstimate:
    support = np.flatnonzero((mu != 0).any(axis=1))
    return ClusterEstimate(
        k_hat=mu.shape[1],
        z_hat=z,
        mu_hat=mu,
        support_hat=tuple(int(j) + 1 for j in support),
        inclusion_freq=None,
    )


# elements of ``values`` that ``data_sha256`` copies at a time (128 KB)
_DIGEST_BLOCK = 2**14


def data_sha256(data: DataMatrix) -> str:
    """SHA-256 of the p x n values' bytes in C order, hashed a block of
    feature rows at a time, so no full C-ordered copy is made."""
    h = hashlib.sha256()
    step = max(_DIGEST_BLOCK // data.n, 1)
    for j in range(0, data.p, step):
        h.update(np.ascontiguousarray(data.values[j : j + step]))
    return h.hexdigest()


def _manifest(config_dict: dict, data: DataMatrix) -> dict:
    digest = data_sha256(data)[:16]
    return {
        "config": config_dict,
        "data_digest": digest,
        "p": data.p,
        "n": data.n,
        "versions": {
            "sparsegmm": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }


def run_experiment(
    config: ExperimentConfig,
    config_dict: dict | None = None,
    progress=None,
) -> ReportBundle:
    """simulate/ingest -> fit -> align -> estimate -> metrics -> diagnostics.

    Writes estimate.json, assignments.csv, metrics.json (when truth is
    available), psrf.json (multi-chain Bayesian runs), per-chain trace
    files, and manifest.json into the output directory.
    """
    out_dir = output_dir(config.output_dir)

    z_true = mu_true = None
    if config.scenario is not None:
        data, z_true, mu_true = generate(config.scenario)
    else:
        data = DataMatrix(values=load_matrix_csv(config.data_path, config.transpose))
        if config.truth_path:
            z_true, mu_true = load_truth(config.truth_path)
    validate_dataset(data)
    if config.scenario is None and config.truth_path:
        _check_truth(z_true, mu_true, data, config.truth_path)

    if config.method == METHOD_BAYESIAN:
        defaults = asdict(default_hyperparams(data.p))
        hyper = _section(Hyperparams, {**defaults, **(config.hyperparams or {})},
                         "config.hyperparams", ConfigError)
        traces = run_chains(data, hyper, config.run, progress=progress)
        for t in traces:
            write_text(out_dir / f"trace_chain{t.meta.chain_id}.ndjson", trace_to_ndjson(t))
        aligned = align_labels([s for t in traces for s in t.snapshots], data)
        est = point_estimates(aligned)
        if len(traces) >= 2:
            write_text(out_dir / "psrf.json", canonical_json(_psrf_table(traces, aligned)))
    else:
        mu, z, _ = fit_cmle(data, config.cmle)
        est = _estimate_from_flat(mu, z)

    write_estimate(out_dir, est)

    metrics = None
    if z_true is not None:
        metrics = compute_metrics(est, z_true, mu_true)
        write_text(out_dir / "metrics.json", canonical_json(metrics))

    manifest = _manifest(config_dict or {}, data)
    write_text(out_dir / "manifest.json", canonical_json(manifest))
    return ReportBundle(estimate=est, metrics=metrics)


def load_traces(paths: list[str | Path]) -> list[ChainTrace]:
    return [trace_from_ndjson(read_text(p), str(p)) for p in paths]
