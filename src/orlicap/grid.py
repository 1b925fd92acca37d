"""Cell-centered discretization of the ball B^n(0,R) and field operations.

Nodes sit at cell centers of a uniform lattice over [-R, R]^n, so no node
lies exactly on the sphere |x| = R.  Functions that represent zero-trace
candidates must vanish on the boundary band |x| > R - h; forward
differences with zero extension then capture every jump their support can
produce inside the ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True, eq=False)
class GridDomain:
    n: int
    R: float
    resolution: int
    h: float
    axes: tuple            # n 1-D coordinate arrays
    radius: np.ndarray     # |x| per node
    inside: np.ndarray     # |x| < R
    boundary_band: np.ndarray  # |x| > R - h
    weights: np.ndarray    # h^n on inside nodes, 0 elsewhere

    @property
    def shape(self):
        return (self.resolution,) * self.n

    @property
    def mark_radius(self) -> float:
        """R - 2h: marked nodes and test-function supports lie strictly inside."""
        return self.R - 2.0 * self.h


def build_domain(n: int, R: float, resolution: int) -> GridDomain:
    if n not in (2, 3):
        raise ConfigurationError(f"dimension must be 2 or 3, got {n}")
    if resolution < 32:
        raise ConfigurationError("need at least 32 nodes per diameter")
    if not 0 < R < math.inf:
        raise ConfigurationError("ball radius must be positive and finite")
    h = 2.0 * R / resolution
    ax = -R + (np.arange(resolution) + 0.5) * h
    axes = tuple(ax.copy() for _ in range(n))
    grids = np.meshgrid(*axes, indexing="ij")
    radius = np.sqrt(sum(g * g for g in grids))
    inside = radius < R
    band = radius > R - h
    weights = np.where(inside, h ** n, 0.0)
    for arr in (radius, inside, band, weights):
        arr.flags.writeable = False
    return GridDomain(n=n, R=R, resolution=resolution, h=h, axes=axes,
                      radius=radius, inside=inside, boundary_band=band,
                      weights=weights)


@dataclass(eq=False)
class GridFunction:
    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.shape:
            raise ValueError("values shape does not match the domain lattice")

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


def from_callable(domain: GridDomain, fn) -> GridFunction:
    """Sample fn(x) at the nodes; fn receives an (n, ...) coordinate stack."""
    grids = np.meshgrid(*domain.axes, indexing="ij")
    return GridFunction(domain, np.asarray(fn(np.stack(grids)), dtype=float))


@dataclass(frozen=True, eq=False)
class SetMask:
    domain: GridDomain
    mask: np.ndarray

    def __post_init__(self):
        # a C-ordered copy: the solve's flat-offset differences need C order
        # (key() is the same for any memory order), and a later write to the
        # caller's array neither fails nor changes a mask already in use
        m = np.array(self.mask, dtype=bool, order="C")
        if m.shape != self.domain.shape:
            raise ValueError("mask shape does not match the domain lattice")
        if np.any(m & (self.domain.radius >= self.domain.mark_radius)):
            raise ValueError("marked nodes must lie strictly inside B(0, R - 2h)")
        m.flags.writeable = False
        object.__setattr__(self, "mask", m)

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    def is_empty(self) -> bool:
        return not bool(self.mask.any())

    def key(self) -> bytes:
        return np.packbits(self.mask.ravel()).tobytes()


def ball_mask(domain: GridDomain, r: float, center=None) -> SetMask:
    """Nodes with |x - center| <= r."""
    if center is None:
        dist = domain.radius
    else:
        c = np.asarray(center, dtype=float)
        grids = np.meshgrid(*domain.axes, indexing="ij")
        dist = np.sqrt(sum((g - c[i]) ** 2 for i, g in enumerate(grids)))
    return SetMask(domain, dist <= r)


def check_ball_inside(domain: GridDomain, center, r: float) -> None:
    """ConfigurationError unless |center| + r < R - 2h, so that every node
    of B(center, r) lies where SetMask accepts marked nodes."""
    if float(np.linalg.norm(center)) + r >= domain.mark_radius:
        raise ConfigurationError(f"B({center}, {r}) does not fit inside B(0, R - 2h)")


def _flat_pair(vals: np.ndarray, out: np.ndarray, axis: int):
    """Raveled views of `vals` and `out` and the flat offset of one step
    along `axis`; ValueError unless both are C-contiguous and of one shape,
    since only then are the ravels views whose offset is that step."""
    if vals.shape != out.shape:
        raise ValueError(f"out has shape {out.shape}, vals {vals.shape}")
    if not (vals.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("vals and out must be C-contiguous")
    return vals.reshape(-1), out.reshape(-1), math.prod(vals.shape[axis + 1:])


def _slab(axis: int, index: int) -> tuple:
    """Index of the slab at `index` (0 or -1) along `axis`, kept as an array."""
    return (slice(None),) * axis + (slice(index, index + 1 or None),)


def forward_difference(vals: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Undivided forward difference with zero extension, written into `out`.

    `vals` and `out` must be C-contiguous arrays of one shape that share no
    memory.  One contiguous subtraction at the axis's flat offset k covers
    every node; the last slab along the axis, where that pairs a node with
    one a row further on in the axes before it (or runs off the end), is
    then overwritten with 0 - v.  Equal bit
    for bit to np.diff(vals, axis=axis, append=0.0), without its
    temporaries.
    """
    v, o, k = _flat_pair(vals, out, axis)
    np.subtract(v[k:], v[:v.size - k], out=o[:o.size - k])
    last = _slab(axis, -1)
    np.subtract(0.0, vals[last], out=out[last])
    return out


def backward_difference(vals: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Undivided backward difference with zero extension, written into `out`.

    Same layout rules and flat subtraction as forward_difference; here the
    first slab along the axis is overwritten with v.  Minus the adjoint of
    forward_difference; equal bit for bit to
    np.diff(vals, axis=axis, prepend=0.0).
    """
    v, o, k = _flat_pair(vals, out, axis)
    np.subtract(v[k:], v[:v.size - k], out=o[k:])
    first = _slab(axis, 0)
    out[first] = vals[first]
    return out


def integrate(field: np.ndarray, domain: GridDomain) -> float:
    """Quadrature-weighted sum over the ball of an array on the domain's lattice."""
    vals = np.asarray(field, dtype=float)
    if vals.shape != domain.shape:
        raise ValueError("field shape does not match the domain lattice")
    return float(np.sum(vals * domain.weights))


def level_mask(u: GridFunction, t: float) -> SetMask:
    """Strict superlevel set {|u| > t}."""
    if t <= 0:
        raise ValueError("level must be positive")
    return SetMask(u.domain, np.abs(u.values) > t)


# ---------------------------------------------------------------------------
# I/O: CSV (x1..xn,value)
# ---------------------------------------------------------------------------

def save_csv(u: GridFunction, path) -> None:
    dom = u.domain
    grids = np.meshgrid(*dom.axes, indexing="ij")
    cols = [g.ravel() for g in grids] + [u.values.ravel()]
    header = ",".join([f"x{i + 1}" for i in range(dom.n)] + ["value"])
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header,
               comments="", fmt="%.17g")
