"""Reproducible synthetic benchmark generators.

Three named scenarios plus a free-form Gaussian/Student-t mixture.  All
dimensions and mean magnitudes can be overridden for desk-scale runs;
fixed seeds give bit-identical output.

Named scenarios (defaults p=400, n=200, support = first s features):

* scenario one: K*=3 with means 3, -1.5, 0 on the support and weights
  (0.3, 0.3, 0.4), or K*=5 with means 4, -4, 0, alternating +-4 and
  alternating +-1.5 and uniform weights; unit-variance Gaussian noise.
* scenario two: s=8, means (5,2,...), (10,5,...), (15,2,...) on the
  support, weights (0.02, 0.48, 0.5); the middle cluster has variance 4
  on the support (1 elsewhere), the others are isotropic.
* scenario three: the means/covariances of scenario two, weights
  (0.2, 0.4, 0.4), and multivariate Student-t noise with 5 degrees of
  freedom (Gaussian draw scaled by sqrt(dof / chi-square(dof))).

Draw order per dataset: cluster labels, then the Gaussian noise block,
then (t only) the chi-square scaling block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DataMatrix
from .errors import ConfigError

SCENARIO_ONE = "one"
SCENARIO_TWO = "two"
SCENARIO_THREE = "three"
CUSTOM = "custom"

# elements in one block of ``generate``'s in-place passes (64 KB of floats)
_BLOCK = 2**13


@dataclass(frozen=True)
class ScenarioSpec:
    scenario: str = SCENARIO_ONE
    p: int | None = None
    n: int | None = None
    seed: int = 0
    k_star: int = 3          # scenario one: 3 or 5
    s: int | None = None     # support size (scenario one: 6 or 12)
    mean_scale: float = 1.0
    # custom-mixture fields
    means: np.ndarray | None = None          # (p, K)
    weights: np.ndarray | None = None        # (K,)
    diag_variances: np.ndarray | None = None  # (K, p), defaults to ones
    t_dof: float | None = None

    def __post_init__(self):
        for name, least in (("p", 1), ("n", 1), ("s", 1), ("seed", 0)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ConfigError(f"{name} must be at least {least}, got {value}")
        if not math.isfinite(self.mean_scale):
            raise ConfigError(f"mean_scale must be finite, got {self.mean_scale}")
        if self.t_dof is not None and not (math.isfinite(self.t_dof) and self.t_dof > 0):
            raise ConfigError(f"t_dof must be finite and positive, got {self.t_dof}")
        weights = None if self.weights is None else np.asarray(self.weights, dtype=float)
        if weights is not None and not (np.isfinite(weights).all() and (weights >= 0).all()):
            raise ConfigError(f"weights must be finite and non-negative, got {weights.tolist()}")


def _scenario_one_means(p: int, k_star: int, s: int) -> np.ndarray:
    if k_star == 3:
        base = [3.0, -1.5, 0.0]
        mu = np.zeros((p, 3))
        for c, v in enumerate(base):
            mu[:s, c] = v
    elif k_star == 5:
        mu = np.zeros((p, 5))
        mu[:s, 0] = 4.0
        mu[:s, 1] = -4.0
        alt = np.array([(-1.0) ** (j + 1) for j in range(s)])  # -1, +1, -1, ...
        mu[:s, 3] = 4.0 * alt
        mu[:s, 4] = 1.5 * -alt
    else:
        raise ConfigError(f"scenario one supports k_star in {{3, 5}}, got {k_star}")
    return mu


def _scenario_two_means(p: int, s: int) -> np.ndarray:
    mu = np.zeros((p, 3))
    pattern = np.array([[5.0, 2.0], [10.0, 5.0], [15.0, 2.0]])
    for c in range(3):
        mu[:s, c] = np.tile(pattern[c], (s + 1) // 2)[:s]
    return mu


def _resolve(spec: ScenarioSpec):
    """(p, n, means, weights, variances, t_dof) for any scenario; the means
    are scaled by ``mean_scale`` and must stay finite."""
    if spec.scenario in (SCENARIO_ONE, SCENARIO_TWO, SCENARIO_THREE):
        p = 400 if spec.p is None else spec.p
        s = spec.s if spec.s is not None else 6 if spec.scenario == SCENARIO_ONE else 8
        if s > p:
            raise ConfigError(f"support size {s} exceeds p={p}")
        if spec.scenario == SCENARIO_ONE:
            means = _scenario_one_means(p, spec.k_star, s)
            weights = np.array([0.3, 0.3, 0.4]) if spec.k_star == 3 else np.full(5, 0.2)
            variances, t_dof = np.ones((means.shape[1], p)), None
        else:
            means = _scenario_two_means(p, s)
            variances = np.ones((3, p))
            variances[1, :s] = 4.0
            weights, t_dof = ((np.array([0.02, 0.48, 0.5]), None) if spec.scenario == SCENARIO_TWO
                              else (np.array([0.2, 0.4, 0.4]), 5.0))
    elif spec.scenario == CUSTOM:
        if spec.means is None or spec.weights is None:
            raise ConfigError("custom scenario requires means and weights")
        means = np.asarray(spec.means, dtype=float)
        weights = np.asarray(spec.weights, dtype=float)
        if means.ndim != 2 or weights.ndim != 1 or means.shape[1] != weights.size:
            raise ConfigError("means must be p x K with one weight per cluster")
        if not np.isclose(weights.sum(), 1.0):
            raise ConfigError(f"weights sum to {weights.sum()}, expected 1")
        p = means.shape[0]
        if spec.p is not None and spec.p != p:
            raise ConfigError("explicit p conflicts with means dimension")
        if spec.diag_variances is None:
            variances = np.ones((weights.size, p))
        else:
            variances = np.asarray(spec.diag_variances, dtype=float)
            if variances.shape != (weights.size, p):
                raise ConfigError("diag_variances must be K x p")
        t_dof = spec.t_dof
    else:
        raise ConfigError(f"unknown scenario {spec.scenario!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        means = means * spec.mean_scale
    if not np.isfinite(means).all():
        raise ConfigError(f"the means scaled by mean_scale {spec.mean_scale} are not finite")
    return p, 200 if spec.n is None else spec.n, means, weights, variances, t_dof


def generate(spec: ScenarioSpec) -> tuple[DataMatrix, np.ndarray, np.ndarray]:
    """Draw one dataset: (data, z_true, mu_true).

    z_true uses labels 1..K; mu_true is p x K.
    """
    p, n, means, weights, variances, t_dof = _resolve(spec)
    if n < 2:
        raise ConfigError("need n >= 2")
    rng = np.random.default_rng(spec.seed)
    z = rng.choice(weights.size, size=n, p=weights) + 1
    # straight into the (n, p) buffer that DataMatrix keeps: the p x n
    # normals of rng.standard_normal((p, n)), drawn feature block by
    # feature block in the same order (at least 8 features, a cache line
    # of each observation's row), then each observation's
    # noise * sd * t-scale + mean, one observation block at a time, with
    # the same products and sums as the whole-matrix expression
    y = np.empty((n, p))
    step = max(_BLOCK // n, 8)
    for j in range(0, p, step):
        y[:, j : j + step] = rng.standard_normal((min(step, p - j), n)).T
    scale = np.sqrt(t_dof / rng.chisquare(t_dof, size=n)) if t_dof is not None else None
    sd, mean_rows = np.sqrt(variances), means.T
    step = max(_BLOCK // p, 1)
    for i in range(0, n, step):
        rows, labels = y[i : i + step], z[i : i + step] - 1
        rows *= sd[labels]
        if scale is not None:
            rows *= scale[i : i + step, None]
        rows += mean_rows[labels]
    return DataMatrix(values=y.T), z, means
