"""Deterministic adaptive one-dimensional integration.

A fixed-order Gauss-Legendre rule is applied on panels that are bisected
until the local error estimate (coarse panel vs. its two halves) meets the
width-apportioned tolerance.  Panel values are combined with pairwise
summation so results do not depend on evaluation order.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_ORDER = 15
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_ORDER)
# Always split this many levels before accepting, so narrow features inside a
# wide domain cannot slip between the nodes of a single coarse panel.
_MIN_DEPTH = 4
# A panel is accepted when its error is within max(_ABS_TOL, _REL_TOL * |total|),
# apportioned by width; a solve that needs more than _MAX_PANELS panels fails.
_REL_TOL = 1e-10
_ABS_TOL = 1e-12
_MAX_PANELS = 4096


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted or the integrand is not finite.

    Carries the best estimate, which is NaN for a non-finite integrand.
    """

    def __init__(self, message: str, estimate: float, err_estimate: float):
        super().__init__(message)
        self.estimate = estimate
        self.err_estimate = err_estimate


def _rule(f: Callable, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    value = half * float(np.dot(_WEIGHTS, np.asarray(f(mid + half * _NODES), dtype=float)))
    if not math.isfinite(value):  # a NaN or inf value; no bisection can mend it
        raise QuadratureError(f"integrand is not finite on the panel [{a!r}, {b!r}]",
                              estimate=math.nan, err_estimate=math.inf)
    return value


def integrate(f: Callable, lo: float, hi: float) -> tuple[float, float]:
    """Integrate ``f`` over [lo, hi] to 1e-10 relative or 1e-12 absolute.

    Parameters
    ----------
    f : callable
        Integrand; must accept an ndarray of abscissae and return values of
        the same shape, finite on [lo, hi].
    lo, hi : float
        Bounds with lo <= hi.

    Returns
    -------
    (value, err_estimate) : tuple of float
        err_estimate sums the per-panel coarse-vs-refined discrepancies and
        satisfies err_estimate <= max(1e-12, 1e-10 * |value|).

    Raises
    ------
    QuadratureError
        If the tolerance is not met within 4096 panels, in
        which case the exception carries the best estimate obtained, or at
        the first panel where the integrand is not finite.
    """
    if lo > hi:
        raise ValueError(f"integration bounds out of order: [{lo}, {hi}]")
    if lo == hi:
        return 0.0, 0.0

    width = hi - lo
    whole = _rule(f, lo, hi)
    total = whole  # running sum of the finest-level panel estimates
    stack = [(lo, hi, whole, 0)]
    accepted_vals: list[float] = []
    accepted_lhs: list[float] = []
    accepted_errs: list[float] = []
    n_panels = 1

    while stack:
        a, b, coarse, depth = stack.pop()
        mid = 0.5 * (a + b)
        left = _rule(f, a, mid)
        right = _rule(f, mid, b)
        refined = left + right
        total += refined - coarse
        err = abs(coarse - refined)
        tol_here = max(_ABS_TOL, _REL_TOL * abs(total)) * (b - a) / width
        if depth >= _MIN_DEPTH and err <= tol_here:
            accepted_lhs.append(a)
            accepted_vals.append(refined)
            accepted_errs.append(err)
            continue
        n_panels += 1
        if n_panels > _MAX_PANELS:
            best = total
            err_best = err + float(np.sum(accepted_errs)) if accepted_errs else err
            raise QuadratureError(
                f"no convergence within {_MAX_PANELS} panels over [{lo}, {hi}]",
                estimate=best, err_estimate=err_best)
        stack.append((a, mid, left, depth + 1))
        stack.append((mid, b, right, depth + 1))

    order = np.argsort(accepted_lhs)
    value = float(np.sum(np.asarray(accepted_vals)[order]))
    err_estimate = float(np.sum(np.asarray(accepted_errs)[order]))
    return value, err_estimate
