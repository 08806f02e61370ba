"""Count-matrix preprocessing for single-cell expression data.

Pipeline: (1) drop genes whose total count over all cells is at or below
a threshold, (2) log2(count + 1), (3) divide each entry by its cell's
total log-expression, (4) standardize each gene to zero mean and unit
(population) variance, dropping genes that became constant.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import DataMatrix
from .errors import DataError


def preprocess_scrna(counts: np.ndarray, min_total: int = 10) -> DataMatrix:
    """Transform a genes x cells count matrix into a standardized DataMatrix.

    Parameters
    ----------
    counts : array of shape (genes, cells)
        Non-negative integer (or float) raw counts.
    min_total : int
        Genes with total count <= min_total are dropped (default 10).
    """
    c = np.asarray(counts, dtype=float)
    if c.ndim != 2:
        raise DataError("counts must be a 2-d genes x cells matrix")
    if not np.isfinite(c).all() or (c < 0).any():
        raise DataError("counts must be finite and non-negative")

    keep = c.sum(axis=1) > min_total
    if not keep.any():
        raise DataError(
            f"no gene exceeds the total-count threshold {min_total}"
        )
    x = np.log2(c[keep] + 1.0)

    cell_totals = x.sum(axis=0)
    if (cell_totals <= 0).any():
        bad = int(np.flatnonzero(cell_totals <= 0)[0])
        raise DataError(f"cell {bad} has zero total expression after filtering")
    x = x / cell_totals[None, :]

    sd = x.std(axis=1, ddof=0)
    constant = sd == 0
    if constant.any():
        warnings.warn(
            f"dropping {int(constant.sum())} constant gene(s) after normalization",
            stacklevel=2,
        )
        x = x[~constant]
        sd = sd[~constant]
    if x.shape[0] == 0:
        raise DataError("every gene is constant after normalization")
    x = (x - x.mean(axis=1, keepdims=True)) / sd[:, None]
    return DataMatrix(values=x)
