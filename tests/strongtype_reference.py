"""Reference formulas of the strong-type side that only the tests use: the
truncation of the standard proof and the exact dyadic Darboux sums that
acceptance criterion 4 sandwiches the dyadic sum with."""

import numpy as np

from orlicap.capacity import CapacityCache, cache_for
from orlicap.grid import GridFunction, level_mask
from orlicap.strongtype import PsiSpec, lhs_dyadic
from orlicap.young import YoungSpec


def truncation_H(t):
    """Piecewise-linear truncation: 0 below 1/2, ramp 2t-1, then 1."""
    arr = np.asarray(t, dtype=float)
    out = np.clip(2.0 * arr - 1.0, 0.0, 1.0)
    return float(out) if np.ndim(t) == 0 else out


def dyadic_darboux_sums(u: GridFunction, phi_spec: YoungSpec, psi: PsiSpec,
                        cache: CapacityCache = None):
    """Lower/upper Darboux sums of t -> cap({|u| > t}) over the dyadic partition.

    Level sets are nested, so that function is non-increasing, and on the
    lattice it is a step function.  On the octave (2^k, 2^(k+1)] its sup is
    therefore cap({|u| > 2^k}), the set `lhs_dyadic` solves, and its inf is
    the limit from the left at 2^(k+1), cap({|u| >= 2^(k+1)}): the next
    level's set unless a node sits exactly on 2^(k+1), and empty in the top
    octave.  Both sums are exact, with no sampling.  The upper sum is
    `lhs_dyadic`'s sum itself, with its `NumericalError` checks; the lower
    sum takes its levels and weights and adds in the same order, from the
    top level down.
    """
    cache = cache_for(phi_spec, u.domain, cache)
    rep = lhs_dyadic(u, phi_spec, psi, cache)
    lower = 0.0
    for row in reversed(rep.levels):
        # {|u| > the float below 2^(k+1)} is {|u| >= 2^(k+1)}
        mask = level_mask(u, np.nextafter(2.0 * row.level, 0.0))
        lower += cache.capacity(mask).value * row.psi_weight
    return lower, rep.lhs
