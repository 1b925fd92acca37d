"""Capacitary averages over shrinking balls and the associated maximal
operator.

The average at (x0, r) is the dyadic level-set sum of |u - u(x0)| restricted
to B(x0, r), normalized by the capacity of that ball.  Centers are snapped
to grid nodes so u(x0) is unambiguous; the sup over radii of the maximal
operator is restricted to a finite dyadic list, the resolvable range being
[4h, domain size] (`smallest_radius`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .capacity import CapacityCache, cache_for
from .grid import GridDomain, GridFunction, SetMask, ball_mask, check_ball_inside, integrate
from .strongtype import PsiSpec, lhs_dyadic
from .young import YoungSpec, eval_phi


def snap_to_node(domain: GridDomain, x0) -> np.ndarray:
    """Nearest lattice node to x0."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (domain.n,):
        raise ValueError(f"center must have {domain.n} coordinates")
    snapped = [domain.axes[i][int(np.argmin(np.abs(domain.axes[i] - x0[i])))]
               for i in range(domain.n)]
    return np.array(snapped)


def smallest_radius(domain: GridDomain) -> float:
    """4h, the smallest ball radius the lattice resolves."""
    return 4.0 * domain.h


def _node_index(domain: GridDomain, x0: np.ndarray) -> tuple:
    return tuple(int(np.argmin(np.abs(domain.axes[i] - x0[i])))
                 for i in range(domain.n))


def capacitary_average(u: GridFunction, x0, r: float, phi_spec: YoungSpec,
                       psi: PsiSpec, cache: CapacityCache = None) -> float:
    """Normalized level-set integral of |u - u(x0)| over B(x0, r)."""
    domain = u.domain
    x0 = snap_to_node(domain, x0)
    check_ball_inside(domain, x0, r)
    cache = cache_for(phi_spec, domain, cache)
    ball = ball_mask(domain, r, x0)
    u0 = u.values[_node_index(domain, x0)]
    w = GridFunction(domain, np.where(ball.mask, np.abs(u.values - u0), 0.0))
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
    x0s = snap_to_node(domain, x0)
    return AverageTrace(center=tuple(float(c) for c in x0s), radii=radii,
                        values=values, truncated=truncated, final=final,
                        passed=passed)


def capacitary_maximal(F: GridFunction, x0, phi_spec: YoungSpec, psi: PsiSpec,
                       radii: Sequence[float], cache: CapacityCache = None) -> float:
    """Max of the capacitary averages over a finite radii list."""
    if not len(radii):
        raise ValueError("need at least one radius")
    cache = cache_for(phi_spec, F.domain, cache)
    return max(capacitary_average(F, x0, r, phi_spec, psi, cache) for r in radii)


def grid_lipschitz(u: GridFunction) -> float:
    """Largest axis-direction difference quotient on the lattice."""
    h = u.domain.h
    return max(float(np.abs(np.diff(u.values, axis=a)).max()) / h
               for a in range(u.domain.n))


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


# ---------------------------------------------------------------------------
# Weak-type sweep for the maximal operator of the Phi-averages
# ---------------------------------------------------------------------------

@dataclass
class WeakTypeRow:
    threshold: float
    phi_threshold: float
    set_nodes: int
    set_capacity: float
    band_constant: float  # capacity * Phi(t) / modular(F)


def weak_type_sweep(F: GridFunction, phi_spec: YoungSpec,
                    thresholds: Sequence[float],
                    centers: Sequence, radii: Sequence[float],
                    cache: CapacityCache = None) -> List[WeakTypeRow]:
    """Measure how capacities of maximal-average super-level sets decay.

    For each sampled center x the Phi-average maximal value
    sup_r modular(F; B(x,r)) / capacity(B(x,r)) is computed; the sweep
    reports the capacity of {x sampled : maximal value > Phi(t)} against
    the modular of F, one row per threshold.
    """
    domain = F.domain
    cache = cache_for(phi_spec, domain, cache)
    phi_of_F = eval_phi(phi_spec, np.abs(F.values))
    total_modular = integrate(phi_of_F, domain)

    maximal = {}
    for c in centers:
        x0 = snap_to_node(domain, c)
        vals = []
        for r in radii:
            check_ball_inside(domain, x0, r)
            ball = ball_mask(domain, r, x0)
            local = integrate(np.where(ball.mask, phi_of_F, 0.0), domain)
            vals.append(local / cache.capacity(ball).value)
        maximal[tuple(x0)] = max(vals)

    rows = []
    for t in thresholds:
        phi_t = float(eval_phi(phi_spec, t))
        sel = np.zeros(domain.shape, dtype=bool)
        for c, m in maximal.items():
            if m > phi_t:
                sel[_node_index(domain, np.array(c))] = True
        mask = SetMask(domain, sel)
        cap = 0.0 if mask.is_empty() else cache.capacity(mask).value
        band = cap * phi_t / total_modular if total_modular > 0 else math.nan
        rows.append(WeakTypeRow(threshold=t, phi_threshold=phi_t,
                                set_nodes=mask.count, set_capacity=cap,
                                band_constant=band))
    return rows
