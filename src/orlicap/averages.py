"""Capacitary averages over shrinking balls.

The average at (x0, r) is the dyadic level-set sum of |u - u(x0)| restricted
to B(x0, r), normalized by the capacity of that ball.  Centers are snapped
to grid nodes so u(x0) is unambiguous; the resolvable radii are
[4h, domain size] (`smallest_radius`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .capacity import CapacityCache, cache_for
from .grid import GridDomain, GridFunction, ball_mask, check_ball_inside, forward_difference
from .strongtype import PsiSpec, lhs_dyadic
from .young import YoungSpec


def _nearest_node(domain: GridDomain, x0) -> tuple:
    """Index and coordinates of the lattice node nearest to x0."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (domain.n,):
        raise ValueError(f"center must have {domain.n} coordinates")
    index = tuple(int(np.argmin(np.abs(ax - c))) for ax, c in zip(domain.axes, x0))
    return index, np.array([ax[i] for ax, i in zip(domain.axes, index)])


def snap_to_node(domain: GridDomain, x0) -> np.ndarray:
    """Nearest lattice node to x0."""
    return _nearest_node(domain, x0)[1]


def smallest_radius(domain: GridDomain) -> float:
    """4h, the smallest ball radius the lattice resolves."""
    return 4.0 * domain.h


def capacitary_average(u: GridFunction, x0, r: float, phi_spec: YoungSpec,
                       psi: PsiSpec, cache: CapacityCache = None) -> float:
    """Normalized level-set integral of |u - u(x0)| over B(x0, r)."""
    domain = u.domain
    index, x0 = _nearest_node(domain, x0)
    check_ball_inside(domain, x0, r)
    cache = cache_for(phi_spec, domain, cache)
    ball = ball_mask(domain, r, x0)
    w = GridFunction(domain, np.where(ball.mask, np.abs(u.values - u.values[index]), 0.0))
    cap_ball = cache.capacity(ball).value
    rep = lhs_dyadic(w, phi_spec, psi, cache)
    return rep.lhs / cap_ball


@dataclass
class AverageTrace:
    center: tuple
    radii: List[float]
    values: List[float]
    truncated: bool
    final: float
    passed: bool


def average_trace(u: GridFunction, x0, phi_spec: YoungSpec, psi: PsiSpec,
                  j_max: int, r0: float = 0.25, epsilon: float = 0.05,
                  cache: CapacityCache = None) -> AverageTrace:
    """Averages along r_j = 2^-j r0; verdict: final below epsilon and no
    increase over the last three radii.  Radii under `smallest_radius` are
    dropped with a truncation flag (the grid cannot resolve them)."""
    domain = u.domain
    cache = cache_for(phi_spec, domain, cache)
    x0 = snap_to_node(domain, x0)
    radii, values = [], []
    truncated = False
    for j in range(j_max + 1):
        r = r0 * 2.0 ** (-j)
        if r < smallest_radius(domain):
            truncated = True
            break
        radii.append(r)
        values.append(capacitary_average(u, x0, r, phi_spec, psi, cache))
    final = values[-1] if values else math.nan
    tail = values[-3:]
    slack = 1e-9 + 1e-6 * max((abs(v) for v in tail), default=0.0)
    non_increasing = all(tail[i] >= tail[i + 1] - slack for i in range(len(tail) - 1))
    passed = bool(values) and final < epsilon and non_increasing
    return AverageTrace(center=tuple(float(c) for c in x0), radii=radii,
                        values=values, truncated=truncated, final=final,
                        passed=passed)


def grid_lipschitz(u: GridFunction) -> float:
    """Largest axis-direction difference quotient on the lattice, from the
    energy's forward difference with zero extension (for a u that vanishes
    on the boundary band, the extension adds no larger quotient)."""
    vals = np.ascontiguousarray(u.values)
    d = np.empty_like(vals)
    return max(float(np.abs(forward_difference(vals, a, d)).max())
               for a in range(u.domain.n)) / u.domain.h


def default_centers(domain: GridDomain, spacing: float = 0.2) -> List[np.ndarray]:
    """3 x 3 (or 3 x 3 x 1) pattern of snapped sample centers."""
    offs = [-spacing, 0.0, spacing]
    centers = []
    for a in offs:
        for b in offs:
            x = np.zeros(domain.n)
            x[0], x[1] = a, b
            centers.append(snap_to_node(domain, x))
    return centers
