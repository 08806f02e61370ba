"""End-to-end experiment pipeline and file I/O for the CLI.

A run directory always receives a machine-readable manifest (resolved
config, seed, library versions, data digest) sufficient to reproduce the
run byte-for-byte; no timestamps are written anywhere.
"""

from __future__ import annotations

import hashlib
import json
import platform
import typing
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from . import __version__
from .cmle import CmleConfig, fit_cmle
from .core import (
    ChainTrace,
    ClusterEstimate,
    DataMatrix,
    Hyperparams,
    default_hyperparams,
    trace_from_ndjson,
    trace_to_ndjson,
    validate_dataset,
)
from .errors import (
    ConfigError,
    DataError,
    DegeneratePartitionError,
    DimensionMismatchError,
    LabelOutOfRangeError,
    LengthMismatchError,
    SparseGmmError,
)
from .gibbs import RunConfig, run_chains
from .metrics import ari, mean_matrix_error, min_hamming, nmi
from .summarize import _psrf_table, align_labels, point_estimates
from .synthetic import ScenarioSpec, generate

METHOD_BAYESIAN = "bayesian"
METHOD_CMLE = "cmle"
METHOD_KMEANS = "kmeans"


# ---------------------------------------------------------------------------
# CSV / JSON helpers
# ---------------------------------------------------------------------------


def load_matrix_csv(path: str | Path, transpose: bool = False) -> np.ndarray:
    """Read a numeric CSV matrix; a non-numeric first row is treated as a header."""
    path = Path(path)
    with path.open() as fh:
        first = fh.readline()
        if not first:
            raise DataError(f"{path} is empty")
        skip = 0
        try:
            [float(tok) for tok in first.strip().split(",") if tok != ""]
        except ValueError:
            skip = 1
    try:
        mat = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except ValueError as exc:
        raise DataError(f"could not parse {path}: {exc}") from exc
    return mat.T if transpose else mat


def save_matrix_csv(path: str | Path, values: np.ndarray) -> None:
    np.savetxt(path, values, delimiter=",", fmt="%.17g")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def estimate_to_dict(est: ClusterEstimate) -> dict:
    return {
        "k_hat": int(est.k_hat),
        "z_hat": [int(v) for v in est.z_hat],
        "support": [int(v) for v in est.support_hat],
        "mu_hat": est.mu_hat.tolist(),
    }


def write_estimate(out_dir: Path, est: ClusterEstimate) -> None:
    (out_dir / "estimate.json").write_text(canonical_json(estimate_to_dict(est)))
    lines = ["observation,label"]
    lines += [f"{i + 1},{int(z)}" for i, z in enumerate(est.z_hat)]
    (out_dir / "assignments.csv").write_text("\n".join(lines) + "\n")


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


def _field(kind, value, name: str, partial: bool):
    """One config value, checked against its field's declared type.  The
    one dict-valued field, ``hyperparams``, holds Hyperparams fields."""
    if type(None) in typing.get_args(kind):
        if value is None:
            return None
        (kind,) = set(typing.get_args(kind)) - {type(None)}
    if kind is dict:
        return _section(Hyperparams, value, name, partial=True)
    if is_dataclass(kind):
        return _section(kind, value, name, partial)
    if kind in (str, bool, float):
        # a float field takes a JSON integer, but not true or false (Python ints)
        integer = kind is float and isinstance(value, int) and not isinstance(value, bool)
        if isinstance(value, kind) or integer:
            return value
        raise ConfigError(f"{name}: expected a {kind.__name__}, got {value!r}")
    try:
        return whole_number(value) if kind is int else real_numbers(value)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _section(cls: type, d, name: str, partial: bool = False):
    """``cls`` built from the config section ``d``; ConfigError naming the
    section if ``d`` is not an object, has a field ``cls`` lacks, holds a
    value of the wrong kind for its field's type, or fails ``cls``'s own
    checks.  ``partial`` returns the checked fields as a dict instead, for
    a section that need not be complete."""
    where = f"section {name}" if name else "the config"
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, not {type(d).__name__}")
    kinds = typing.get_type_hints(cls)
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {', '.join(unknown)}")
    checked = {key: _field(kinds[key], value, f"{name}.{key}".lstrip("."), partial)
               for key, value in d.items()}
    if partial:
        return checked
    try:
        return cls(**checked)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from None


def config_from_dict(d: dict, overrides: dict | None = None) -> tuple[ExperimentConfig, dict]:
    """The experiment a config dict describes, and ``d`` with ``overrides``
    (the CLI's flags: None removes a field, a dict updates a section)
    applied, for the manifest.  ``d``'s own values are checked before any
    override replaces them; ConfigError names the section at fault."""
    _section(ExperimentConfig, d, "", partial=True)
    merged = dict(d)
    for key, value in (overrides or {}).items():
        if value is None:
            merged.pop(key, None)
        elif isinstance(value, dict):
            merged[key] = {**(merged.get(key) or {}), **value}
        else:
            merged[key] = value
    return _section(ExperimentConfig, merged, ""), merged


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass
class ReportBundle:
    estimate: ClusterEstimate
    metrics: dict | None


def load_json_object(path: str | Path, error: type[SparseGmmError] = DataError) -> dict:
    """The JSON object in a file; ``error`` (DataError for a data file,
    ConfigError for a config file) if the file holds none."""
    try:
        d = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise error(f"{path} must hold a JSON object, not a {type(d).__name__}")
    return d


def json_field(d: dict, key: str, convert: Callable, path: str | Path):
    """``convert(d[key])``; DataError naming the field and the file if the
    value has the wrong type or shape."""
    try:
        return convert(d[key])
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: field {key} is malformed: {exc}") from None


def _numbers_only(value) -> bool:
    if isinstance(value, list):
        return all(_numbers_only(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def real_numbers(value) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array; ValueError
    on a boolean or a string."""
    if not _numbers_only(value):
        raise ValueError("expected JSON numbers, not booleans or strings")
    return np.asarray(value, dtype=float)


def whole_numbers(value) -> np.ndarray:
    """A JSON number, or nested lists of them, as an int array; ValueError
    on a boolean, a string, or a number that is not whole."""
    arr = real_numbers(value)
    if not np.all(np.isfinite(arr) & (arr == np.trunc(arr))):
        raise ValueError("expected whole numbers")
    return arr.astype(int)


def whole_number(value) -> int:
    """A JSON number as an int; ValueError unless it is one whole number."""
    arr = whole_numbers(value)
    if arr.ndim:
        raise ValueError(f"expected one number, got shape {arr.shape}")
    return int(arr)


def load_truth(path: str | Path) -> tuple[np.ndarray, np.ndarray | None]:
    d = load_json_object(path)
    if "z_true" not in d:
        raise DataError(f"{path} lacks a z_true field")
    z = json_field(d, "z_true", whole_numbers, path)
    if d.get("mu_true") is None:
        return z, None
    return z, json_field(d, "mu_true", real_numbers, path)


def compute_metrics(
    est: ClusterEstimate,
    z_true: np.ndarray,
    mu_true: np.ndarray | None,
) -> dict:
    """ARI, NMI, mis-clustering rate, reconstruction error for an estimate;
    DataError if the estimate and the truth do not fit each other."""
    try:
        k_common = max(int(np.max(z_true)), int(np.max(est.z_hat)))
        out = {
            "k_hat": int(est.k_hat),
            "ari": ari(z_true, est.z_hat),
            "d_h": min_hamming(z_true, est.z_hat, k_common),
        }
        try:
            out["nmi"] = nmi(z_true, est.z_hat)
        except DegeneratePartitionError:
            out["nmi"] = None
        out["mean_matrix_error"] = None if mu_true is None else mean_matrix_error(
            est.mu_hat, est.z_hat, mu_true, z_true
        )
    except (LengthMismatchError, LabelOutOfRangeError, DimensionMismatchError) as exc:
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


def _manifest(config_dict: dict, data: DataMatrix) -> dict:
    digest = hashlib.sha256(np.ascontiguousarray(data.values).tobytes()).hexdigest()[:16]
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
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    z_true = mu_true = None
    if config.scenario is not None:
        data, z_true, mu_true = generate(config.scenario)
    else:
        data = DataMatrix(values=load_matrix_csv(config.data_path, config.transpose))
        if config.truth_path:
            z_true, mu_true = load_truth(config.truth_path)
    validate_dataset(data)

    if config.method == METHOD_BAYESIAN:
        hyper = default_hyperparams(data.p)
        try:
            hyper = replace(hyper, **(config.hyperparams or {}))
        except ValueError as exc:
            raise ConfigError(f"bad section hyperparams: {exc}") from None
        traces = run_chains(data, hyper, config.run, progress=progress)
        for t in traces:
            (out_dir / f"trace_chain{t.meta.chain_id}.ndjson").write_text(
                trace_to_ndjson(t)
            )
        aligned = align_labels([s for t in traces for s in t.snapshots], data)
        est = point_estimates(aligned)
        if len(traces) >= 2:
            (out_dir / "psrf.json").write_text(canonical_json(_psrf_table(traces, aligned)))
    else:
        mu, z, _ = fit_cmle(data, config.cmle)
        est = _estimate_from_flat(mu, z)

    write_estimate(out_dir, est)

    metrics = None
    if z_true is not None:
        metrics = compute_metrics(est, z_true, mu_true)
        (out_dir / "metrics.json").write_text(canonical_json(metrics))

    manifest = _manifest(config_dict or {}, data)
    (out_dir / "manifest.json").write_text(canonical_json(manifest))
    return ReportBundle(estimate=est, metrics=metrics)


def load_traces(paths: list[str | Path]) -> list[ChainTrace]:
    return [trace_from_ndjson(Path(p).read_text()) for p in paths]
