"""End-to-end experiment pipeline and file I/O for the CLI.

A run directory always receives a machine-readable manifest (resolved
config, seed, library versions, data digest) sufficient to reproduce the
run byte-for-byte; no timestamps are written anywhere.
"""

from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from . import __version__
from .cmle import CmleConfig, fit_cmle, fit_kmeans
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
)
from .gibbs import KMEANS, InitSpec, RunConfig, run_chains
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
    """One experiment: a data source, a method, and its settings."""

    data_path: str | None = None
    transpose: bool = False
    scenario: ScenarioSpec | None = None
    method: str = METHOD_BAYESIAN
    hyper_overrides: dict | None = None
    run: RunConfig = None
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
            raise ConfigError(f"method {self.method} requires a cmle section with k")
        if self.method == METHOD_BAYESIAN and self.run.n_chains >= 2 and self.run.n_keep < 2:
            raise ConfigError(
                f"a PSRF over {self.run.n_chains} chains needs n_keep >= 2, "
                f"got {self.run.n_keep}"
            )


def _scenario_from_dict(d: dict) -> ScenarioSpec:
    kwargs = dict(d)
    for key in ("means", "weights", "diag_variances"):
        if kwargs.get(key) is not None:
            kwargs[key] = np.asarray(kwargs[key], dtype=float)
    try:
        return ScenarioSpec(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad scenario section: {exc}") from exc


def _run_config_from_dict(d: dict) -> RunConfig:
    kwargs = dict(d)
    init = kwargs.pop("init", None)
    if init is not None and not isinstance(init, dict):
        raise ConfigError(f"run.init must be an object with kind and k, got {init!r}")
    try:
        if init is not None:
            kwargs["init"] = InitSpec(kind=init.get("kind", KMEANS), k=init.get("k"))
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad run section: {exc}") from exc


def config_from_dict(d: dict) -> ExperimentConfig:
    scenario = d.get("scenario")
    run = d.get("run") or {}
    cmle_d = d.get("cmle")
    try:
        cmle_cfg = CmleConfig(**cmle_d) if cmle_d else None
    except TypeError as exc:
        raise ConfigError(f"bad cmle section: {exc}") from exc
    return ExperimentConfig(
        data_path=d.get("data_path"),
        transpose=bool(d.get("transpose", False)),
        scenario=_scenario_from_dict(scenario) if scenario else None,
        method=d.get("method", METHOD_BAYESIAN),
        hyper_overrides=d.get("hyperparams"),
        run=_run_config_from_dict(run),
        cmle=cmle_cfg,
        truth_path=d.get("truth_path"),
        output_dir=d.get("output_dir", "run_out"),
    )


def resolve_hyperparams(p: int, overrides: dict | None) -> Hyperparams:
    base = default_hyperparams(p)
    if not overrides:
        return base
    fields = asdict(base)
    unknown = set(overrides) - set(fields)
    if unknown:
        raise ConfigError(f"unknown hyperparameter(s): {sorted(unknown)}")
    fields.update(overrides)
    try:
        return Hyperparams(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass
class ReportBundle:
    estimate: ClusterEstimate
    metrics: dict | None


def load_json_object(path: str | Path) -> dict:
    """The JSON object in a data file; DataError if the file holds none."""
    try:
        d = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise DataError(f"{path} must hold a JSON object, not a {type(d).__name__}")
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
        hyper = resolve_hyperparams(data.p, config.hyper_overrides)
        traces = run_chains(data, hyper, config.run, progress=progress)
        for t in traces:
            (out_dir / f"trace_chain{t.meta.chain_id}.ndjson").write_text(
                trace_to_ndjson(t)
            )
        aligned = align_labels([s for t in traces for s in t.snapshots], data)
        est = point_estimates(aligned)
        if len(traces) >= 2:
            (out_dir / "psrf.json").write_text(canonical_json(_psrf_table(traces, aligned)))
    elif config.method == METHOD_CMLE:
        mu, z, _ = fit_cmle(data, config.cmle)
        est = _estimate_from_flat(mu, z)
    else:
        mu, z, _ = fit_kmeans(
            data,
            config.cmle.k,
            n_restarts=config.cmle.n_restarts,
            seed=config.cmle.seed,
            max_iters=config.cmle.max_iters,
        )
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
