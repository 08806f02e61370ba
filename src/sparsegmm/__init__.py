"""Sparse Bayesian Gaussian mixture clustering for high-dimensional data.

Fits a Gaussian mixture whose cluster means share a sparse support,
with the number of clusters inferred by the sampler rather than fixed
in advance.
"""

__version__ = "0.1.0"

from .cmle import CmleConfig, fit_cmle, fit_kmeans
from .core import (
    ChainTrace,
    ClusterEstimate,
    DataMatrix,
    Hyperparams,
    default_hyperparams,
    trace_from_ndjson,
    trace_to_ndjson,
)
from .gibbs import InitSpec, RunConfig, run_chain, run_chains
from .metrics import ari, mean_matrix_error
from .preprocess import preprocess_scrna
from .summarize import align_labels, point_estimates, psrf_report
from .synthetic import ScenarioSpec, generate

__all__ = [
    "__version__",
    "ChainTrace",
    "ClusterEstimate",
    "CmleConfig",
    "DataMatrix",
    "Hyperparams",
    "InitSpec",
    "RunConfig",
    "ScenarioSpec",
    "align_labels",
    "ari",
    "default_hyperparams",
    "fit_cmle",
    "fit_kmeans",
    "generate",
    "mean_matrix_error",
    "point_estimates",
    "preprocess_scrna",
    "psrf_report",
    "run_chain",
    "run_chains",
    "trace_from_ndjson",
    "trace_to_ndjson",
]
