"""Least-squares slope fit with a standard error, for tail and growth exponents."""
from __future__ import annotations

import numpy as np

from .errors import ContractViolationError


def slope_and_se(x, y) -> tuple:
    """Least-squares slope of y on x with its standard error."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 3:
        raise ContractViolationError("need matching 1-d arrays of length >= 3")
    n = x.size
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        raise ContractViolationError("slope of a constant abscissa")
    slope = float(xc @ y) / sxx
    resid = y - y.mean() - slope * xc
    sigma2 = float(resid @ resid) / (n - 2)
    return slope, (sigma2 / sxx) ** 0.5
