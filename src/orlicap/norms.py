"""Orlicz modular and Luxemburg norm of grid functions."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .grid import GridFunction, integrate
from .young import YoungSpec, eval_phi

_REL_TOL = 1e-12      # relative width at which the bisection stops
_MAX_DOUBLINGS = 200  # bracket doublings and halvings before giving up


def modular(u: GridFunction, spec: YoungSpec) -> float:
    """Integral of Phi(|u|) over the ball."""
    return integrate(eval_phi(spec, np.abs(u.values)), u.domain)


def _modular_scaled(u: GridFunction, spec: YoungSpec, s: float) -> float:
    return integrate(eval_phi(spec, np.abs(u.values) / s), u.domain)


def luxemburg_norm(u: GridFunction, spec: YoungSpec) -> float:
    """inf{ s : modular(u/s) <= 1 } by bracketing plus bisection.

    s -> modular(u/s) is strictly decreasing where positive, so the root of
    modular(u/s) = 1 is simple and bisection is globally convergent.
    """
    peak = u.max_abs()
    if peak == 0.0:
        return 0.0
    hi = peak * max(integrate(np.ones(u.domain.shape), u.domain), 1.0)
    hi = max(hi, 1e-300)
    n = 0
    while _modular_scaled(u, spec, hi) > 1.0:
        hi *= 2.0
        n += 1
        if n > _MAX_DOUBLINGS:
            raise NumericalError("no upper bracket for the Luxemburg norm")
    lo = hi
    while _modular_scaled(u, spec, lo) <= 1.0:
        lo *= 0.5
        n += 1
        if n > _MAX_DOUBLINGS:
            raise NumericalError("no lower bracket for the Luxemburg norm")
    # invariant: modular(u/lo) > 1 >= modular(u/hi)
    while hi - lo > _REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if _modular_scaled(u, spec, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
