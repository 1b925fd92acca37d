"""Cell-centered discretization of the ball B^n(0,R) and field operations.

Nodes sit at cell centers of a uniform lattice over [-R, R]^n, so no node
lies exactly on the sphere |x| = R.  Functions that represent zero-trace
candidates must vanish on the boundary band |x| > R - h; forward
differences with zero extension then capture every jump their support can
produce inside the ball.
"""

from __future__ import annotations

import struct
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
    def interior(self) -> np.ndarray:
        return ~self.boundary_band

    @property
    def shape(self):
        return (self.resolution,) * self.n

    def key(self) -> tuple:
        return (self.n, self.R, self.resolution)


def build_domain(n: int, R: float, resolution: int) -> GridDomain:
    if n not in (2, 3):
        raise ConfigurationError(f"dimension must be 2 or 3, got {n}")
    if resolution < 32:
        raise ConfigurationError("need at least 32 nodes per diameter")
    if R <= 0:
        raise ConfigurationError("ball radius must be positive")
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

    def copy(self) -> "GridFunction":
        return GridFunction(self.domain, self.values.copy())

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


def zero_function(domain: GridDomain) -> GridFunction:
    return GridFunction(domain, np.zeros(domain.shape))


def from_callable(domain: GridDomain, fn) -> GridFunction:
    """Sample fn(x) at the nodes; fn receives an (n, ...) coordinate stack."""
    grids = np.meshgrid(*domain.axes, indexing="ij")
    return GridFunction(domain, np.asarray(fn(np.stack(grids)), dtype=float))


@dataclass(frozen=True, eq=False)
class SetMask:
    domain: GridDomain
    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.shape != self.domain.shape:
            raise ValueError("mask shape does not match the domain lattice")
        limit = self.domain.R - 2.0 * self.domain.h
        if np.any(m & (self.domain.radius >= limit)):
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


def forward_difference(vals: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Undivided forward difference with zero extension, written into `out`.

    Equal bit for bit to np.diff(vals, axis=axis, append=0.0), without its
    temporaries.
    """
    v, o = vals.swapaxes(0, axis), out.swapaxes(0, axis)
    np.subtract(v[1:], v[:-1], out=o[:-1])
    np.subtract(0.0, v[-1], out=o[-1])
    return out


def backward_difference(vals: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Undivided backward difference with zero extension, written into `out`.

    Minus the adjoint of forward_difference; equal bit for bit to
    np.diff(vals, axis=axis, prepend=0.0).
    """
    v, o = vals.swapaxes(0, axis), out.swapaxes(0, axis)
    o[0] = v[0]
    np.subtract(v[1:], v[:-1], out=o[1:])
    return out


def gradient(u: GridFunction) -> np.ndarray:
    """Forward differences with zero extension; shape (n, *lattice)."""
    out = np.empty((u.domain.n,) + u.domain.shape)
    for a in range(u.domain.n):
        forward_difference(u.values, a, out[a])
        out[a] /= u.domain.h
    return out


def gradient_magnitude(u: GridFunction) -> np.ndarray:
    g = gradient(u)
    return np.sqrt(np.sum(g * g, axis=0))


def integrate(field, domain: GridDomain = None) -> float:
    """Quadrature-weighted sum over the ball."""
    if isinstance(field, GridFunction):
        if domain is not None and domain is not field.domain:
            raise ValueError("field and domain do not match")
        domain = field.domain
        vals = field.values
    else:
        if domain is None:
            raise ValueError("integrating a raw array needs the domain")
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
# I/O: CSV (x1..xn,value) and flat float64 binary with an {n, R, resolution}
# header
# ---------------------------------------------------------------------------

_BIN_HEADER = struct.Struct("<qdq")  # n, R, resolution


def save_csv(u: GridFunction, path) -> None:
    dom = u.domain
    grids = np.meshgrid(*dom.axes, indexing="ij")
    cols = [g.ravel() for g in grids] + [u.values.ravel()]
    header = ",".join([f"x{i + 1}" for i in range(dom.n)] + ["value"])
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header,
               comments="", fmt="%.17g")


def load_csv(path, domain: GridDomain = None) -> GridFunction:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = data.shape[1] - 1
    if domain is None:
        resolution = round(data.shape[0] ** (1.0 / n))
        if resolution ** n != data.shape[0]:
            raise ValueError("row count is not a full lattice")
        ax = np.unique(data[:, 0])
        h = float(ax[1] - ax[0])
        R = float(ax[-1] + h / 2.0)
        domain = build_domain(n, R, resolution)
    vals = data[:, -1].reshape(domain.shape)
    return GridFunction(domain, vals)


def save_binary(u: GridFunction, path) -> None:
    dom = u.domain
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(dom.n, dom.R, dom.resolution))
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def load_binary(path) -> GridFunction:
    with open(path, "rb") as fh:
        n, R, resolution = _BIN_HEADER.unpack(fh.read(_BIN_HEADER.size))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    domain = build_domain(n, R, resolution)
    return GridFunction(domain, raw.reshape(domain.shape).copy())
