"""Variational capacities on grid domains and their independent oracles.

The main solve minimizes the discrete energy  sum_x w(x) Phi(|D+ u(x)|)
over the free nodes, with u = 1 on the marked set and u = 0 on the
boundary band.  (The capacity asks for u >= 1 on the marked set; clipping
to 1 never raises |D+ u|, so holding those nodes at exactly 1 loses
nothing.)  The energy is convex, and the solve is nonlinear conjugate
gradients (Polak-Ribiere+) preconditioned by one multigrid V-cycle on the
Hessian of the quadratic energy sum w |D+ u / h|^2, the lattice version of
the Laplacian preconditioning that `capacity_ball_radial` does in 1-D
(Huang, Li & Liu, J. Sci. Comput. 32, 2007).  Each step takes a secant
step on the directional derivative and halves it until the energy
strictly drops.

The stop rule is a certificate: the minimizer lies in [0, 1], so for the
convex energy  E(u*) >= E(u) - gap  with gap = sum_free (g u - min(0, g))
at the iterate u and its gradient g.  The solve converges once
gap <= tol * E, or once no step lowers E in floating point any more
(stationary to machine precision; near the optimum E stops resolving
progress before the gap reaches tol * E).  `CapacityResult.lower` is
E - gap either way; it is certified for the built-in families only, since
a `custom_table`'s log-linear interpolant need not be convex.  Every solve
starts from the indicator of its set, so a value depends only on the set.

Each solve builds one `_EnergyWorkspace`: preallocated C-contiguous
buffers on which the forward difference with zero extension
(`grid.forward_difference`, the one used by `grid.gradient` too) and its
adjoint are each one contiguous subtraction at the axis's flat offset plus
one boundary slab.  Its `energy` and `grad` share one evaluation order,
|D+ v| = sqrt(sum d^2) / h on the undivided differences d; Phi and Phi'
write into workspace buffers too (`out=` and `scratch=` of
`young.eval_phi` / `eval_phi_prime`), so an evaluation allocates no
lattice-sized array.  A `custom_table` whose last knot lies below the
initial iterate's largest lattice gradient raises `NumericalError` before
Phi is evaluated there; so does any other non-finite initial energy or
gradient, or final value.

The preconditioner (`_Multigrid`) holds every level as a CSR matrix: the
free-node Hessian, assembled in one vectorized pass over the lattice
edges, and the Galerkin products below it, formed block by block.

The Riesz capacity (`riesz_capacity_variational`) is a dense problem on
the kernel |x - y|^(1-n) from the marked to the inside nodes, gathered
from one table over lattice offsets.  It is solved through its Fenchel
dual on one multiplier per marked node by spectral projected gradient;
each iterate gives a dual lower bound and a feasible density, and the
solve stops once their gap is at most tol * value.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.integrate import quad
from scipy.linalg import solveh_banded
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, NumericalError
from .grid import GridDomain, GridFunction, SetMask, backward_difference, forward_difference
from .young import (YoungSpec, check_delta2, check_delta2_plus, eval_phi, eval_phi_prime, factored,
                    phi_prime_inverse)

_RATIO_FLOOR = 1e-12  # clamp for phi(g)/g at the 0/0 singularity
_EPS = float(np.finfo(float).eps)


@dataclass
class CapacityResult:
    value: float
    minimizer: GridFunction
    iterations: int
    converged: bool
    method: str
    lower: float  # capacity >= lower, certified for the built-in (convex) families

    def summary(self) -> dict:
        return {"value": self.value, "lower": self.lower, "iterations": self.iterations,
                "converged": self.converged, "method": self.method}


@dataclass(frozen=True)
class BallEstimate:
    r: float
    R: float
    F_value: float
    estimate: float


@functools.lru_cache(maxsize=64)
def _delta2_ok(spec: YoungSpec) -> bool:
    return check_delta2(spec).passed


@functools.lru_cache(maxsize=64)
def _delta2_plus_ok(spec: YoungSpec) -> bool:
    return check_delta2_plus(spec).passed


def _require_delta2(spec: YoungSpec) -> None:
    if not _delta2_ok(spec):
        raise ConfigurationError(f"{spec.tag} fails the doubling condition")


class _EnergyWorkspace:
    """Energy sum w Phi(|D+ v|) and its gradient, on buffers kept for one solve.

    Holds one buffer per axis for the undivided differences d, two arrays
    for |D+ v| and Phi or Phi', the scratch pair that Phi and Phi' write
    their intermediates to, and the gradient, so an evaluation allocates no
    lattice-sized array.  All are C-contiguous, as the difference kernels
    require of `v` too.  |D+ v| = sqrt(sum d*d) / h is formed in one order
    for `energy`, `grad` and `max_gradient` (np.square gives the bits of
    d * d), and the gradient applies 1/h^2 once, in the flux
    w Phi'(g) / (g h^2).
    """

    def __init__(self, domain: GridDomain, spec: YoungSpec):
        self.spec = spec
        self.h = domain.h
        self.weights = domain.weights
        self._flux_weights = domain.weights / domain.h ** 2
        self._diffs = [np.empty(domain.shape) for _ in range(domain.n)]
        self._s = np.empty(domain.shape)
        self._t = np.empty(domain.shape)
        self._scratch = np.empty((2,) + domain.shape)
        self._grad = np.empty(domain.shape)

    def _gradient_norm(self, v: np.ndarray) -> np.ndarray:
        """|D+ v| in the s buffer; the per-axis buffers keep the differences."""
        s, t = self._s, self._t
        for a, d in enumerate(self._diffs):
            forward_difference(v, a, d)
            np.square(d, out=s if a == 0 else t)
            if a:
                s += t
        np.sqrt(s, out=s)
        s /= self.h
        return s

    def energy(self, v: np.ndarray) -> float:
        phi = eval_phi(self.spec, self._gradient_norm(v), out=self._t, scratch=self._scratch)
        return float(np.sum(np.multiply(self.weights, phi, out=phi)))

    def max_gradient(self, v: np.ndarray) -> float:
        """Largest |D+ v|, the argument `energy(v)` would give Phi."""
        return float(self._gradient_norm(v).max())

    def grad(self, v: np.ndarray) -> np.ndarray:
        """Gradient with respect to the node values, in a workspace buffer
        that the next `grad` call overwrites."""
        s, t, grad = self._gradient_norm(v), self._t, self._grad
        np.maximum(s, _RATIO_FLOOR, out=s)
        ratio = eval_phi_prime(self.spec, s, out=t, scratch=self._scratch)
        ratio /= s
        flux = np.multiply(self._flux_weights, ratio, out=s)  # frees t
        # -sum_a D-_a(flux * d_a) over the per-axis difference buffers d_a
        for a, d in enumerate(self._diffs):
            np.multiply(flux, d, out=d)
            backward_difference(d, a, t)
            if a:
                grad -= t
            else:
                np.subtract(0.0, t, out=grad)
        return grad


_COARSE_MAX = 500  # unknowns at which the multigrid factorizes instead of coarsening
# largest P kept as CSR, which applies 1.8-9x faster but takes 12 B an entry:
# above a 3-D 48^3 first coarse P (55,296), below a 3-D 32^3 finest (110,784)
_STORED_ENTRIES = 1 << 16
_BLOCK_ENTRIES = 1 << 15  # entries of P^T A formed at once while building P^T A P


def _free_hessian(domain: GridDomain, free: np.ndarray) -> sparse.csr_matrix:
    """The Hessian of sum w |D+ u / h|^2 in the free-node values, as CSR.

    Each weighted lattice edge (x, x + e_a) adds 2 w(x) / h^2 times
    [[1, -1], [-1, 1]] on its free endpoints, and only the diagonal term
    where the other endpoint is held.  One vectorized pass over the 2n + 1
    flat offsets of the stencil, with a lattice map from node to free-node
    number.  Free nodes lie off the lattice's first and last slabs (the
    boundary band), so every neighbour is on the lattice.
    """
    at = np.flatnonzero(free)
    number = np.full(free.size, -1, dtype=np.int32)
    number[at] = np.arange(at.size, dtype=np.int32)
    steps = [math.prod(free.shape[a + 1:]) for a in range(free.ndim)]
    # one column per flat offset, in increasing order, so each row is sorted
    offsets = [-k for k in steps] + [0] + steps[::-1]
    cols = np.empty((at.size, len(offsets)), dtype=np.int32)
    vals = np.zeros(cols.shape)
    for j, k in enumerate(offsets):
        cols[:, j] = number[at + k]
        if k:
            # an edge's weight sits at its lower end
            w = domain.weights.reshape(-1)[at + min(k, 0)] * (2.0 / domain.h ** 2)
            cols[w == 0, j] = -1
            np.negative(w, out=vals[:, j])
            vals[:, free.ndim] += w
    keep = cols >= 0
    indptr = np.zeros(at.size + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return sparse.csr_matrix((vals[keep], cols[keep], indptr), shape=(at.size, at.size))


class _Prolongation:
    """Cell-centred linear prolongation P onto the free nodes of a lattice.

    The coarse lattice has one node per 2^n block of cells; its unknowns are
    the cell parents of free nodes, and nothing else.  A fine node takes the
    tensor product over the axes of 3/4 of its parent and 1/4 of the
    parent's neighbour on its side; a weight that falls on a coarse node
    outside that set is dropped.  Adding every coarse node a free node
    interpolates from instead can leave two coarse unknowns that one fine
    row alone sees, and a singular coarse operator.

    `rows(lo, hi)` makes P's rows lo..hi-1 as CSR, each with 2^n entries (a
    dropped weight is a zero on the parent), for building P^T A P.  A P
    with at most `_STORED_ENTRIES` entries is kept whole as CSR (`matrix`).
    A larger one is never stored: `prolong` (P x) then interpolates axis by
    axis on the coarse lattice, with zeros at the coarse nodes outside the
    unknowns and off the lattice, which drops their weights, and `restrict`
    (P^T y) is its adjoint.
    """

    def __init__(self, free: np.ndarray):
        self.fine_shape = free.shape
        self.fine_at = np.flatnonzero(free)
        self.coarse = np.zeros(tuple((s + 1) // 2 for s in free.shape), dtype=bool)
        self.coarse[tuple(x // 2 for x in np.nonzero(free))] = True
        # coarse unknown numbers on the lattice with a border of -1 (absent)
        self._index = np.full(tuple(s + 2 for s in self.coarse.shape), -1, dtype=np.int32)
        self._index[(slice(1, -1),) * free.ndim][self.coarse] = np.arange(
            np.count_nonzero(self.coarse))
        self.coarse_at = np.flatnonzero(self._index >= 0)
        self.shape = (self.fine_at.size, self.coarse_at.size)
        self.matrix = None
        if self.shape[0] << free.ndim <= _STORED_ENTRIES:
            self.matrix = self.rows(0, self.shape[0])
            self._transpose = self.matrix.T  # a CSC view, made once

    def prolong(self, x: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix @ x
        y = np.zeros(self._index.shape)
        y.reshape(-1)[self.coarse_at] = x
        for a in reversed(range(y.ndim)):  # the smallest arrays first
            # along axis a, fine cell 2q takes 3/4 of coarse node q and 1/4
            # of q - 1, and fine cell 2q + 1 takes 3/4 of q and 1/4 of q + 1
            # (coarse node q sits at q + 1 on the bordered lattice)
            out = np.empty(y.shape[:a] + (self.fine_shape[a],) + y.shape[a + 1:])
            coarse, fine = np.moveaxis(y, a, 0), np.moveaxis(out, a, 0)
            coarse *= 0.25
            for parity in (0, 1):
                f = fine[parity::2]
                np.multiply(coarse[1:len(f) + 1], 3.0, out=f)
                f += coarse[2 * parity:2 * parity + len(f)]
            y = out
        return y.reshape(-1)[self.fine_at]

    def restrict(self, r: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return self._transpose @ r
        y = np.zeros(self.fine_shape)
        y.reshape(-1)[self.fine_at] = r
        for a in range(y.ndim):  # the largest array shrinks first: prolong's adjoint
            out = np.zeros(y.shape[:a] + (self._index.shape[a],) + y.shape[a + 1:])
            fine, coarse = np.moveaxis(y, a, 0), np.moveaxis(out, a, 0)
            for parity in (0, 1):
                f = fine[parity::2]
                f *= 0.25
                coarse[2 * parity:2 * parity + len(f)] += f
                f *= 3.0
                coarse[1:len(f) + 1] += f
            y = out
        return y.reshape(-1)[self.coarse_at]

    def rows(self, lo: int, hi: int) -> sparse.csr_matrix:
        """Rows lo..hi-1 of P, in a CSR matrix of P's shape whose other rows
        are empty (all of P once stored)."""
        if self.matrix is not None:
            return self.matrix
        f, n = self.fine_at[lo:hi], len(self.fine_shape)
        # flat index of each corner on the bordered coarse lattice: the
        # parent, then for each axis the same plus the step to the side
        at = np.zeros((f.size, 1), dtype=f.dtype)
        for a in range(n):
            x = f // math.prod(self.fine_shape[a + 1:]) % self.fine_shape[a]
            step = math.prod(self._index.shape[a + 1:])
            at += ((x // 2 + 1) * step)[:, None]
            side = ((x % 2) * (2 * step) - step)[:, None]
            at = np.stack([at, at + side], axis=-1).reshape(f.size, -1)
        cols = self._index.reshape(-1)[at]
        absent = cols < 0
        far = np.array([sum(c) for c in itertools.product((0, 1), repeat=n)])
        vals = np.where(absent, 0.0, 0.25 ** far * 0.75 ** (n - far))
        np.copyto(cols, cols[:, :1], where=absent)
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int32)
        indptr[lo + 1:hi + 1] = np.arange(1, f.size + 1) << n
        indptr[hi + 1:] = cols.size
        return sparse.csr_matrix((vals.reshape(-1), cols.reshape(-1), indptr), shape=self.shape)

    def blocks(self, rows: int, radius: int):
        """Runs i..j-1 of P's columns: whole coarse slabs (along the first
        axis), at least one and at most about `rows` columns; each with the
        fine rows lo..hi-1 that hold those columns of P and every fine node
        within `radius` slabs of them."""
        slab_of = self.coarse_at // math.prod(self._index.shape[1:]) - 1
        edges = np.searchsorted(slab_of, np.arange(self.coarse.shape[0] + 1))
        edges = edges[::max(1, rows // int(np.diff(edges).max()))].tolist() + [self.shape[1]]
        fine_slab = math.prod(self.fine_shape[1:])
        for i, j in zip(edges, edges[1:]):
            if j > i:
                lo, hi = np.searchsorted(self.fine_at, [
                    max(2 * slab_of[i] - 1 - radius, 0) * fine_slab,
                    (2 * slab_of[j - 1] + 3 + radius) * fine_slab])
                yield i, j, int(lo), int(hi)


def _galerkin(A: sparse.csr_matrix, P: _Prolongation, radius: int):
    """P^T A P as CSR, and its largest Gershgorin ratio max_i sum_j |c_ij| / c_ii.

    A couples nodes at most `radius` apart along each axis.  The product is
    formed one block of coarse rows at a time (`P.blocks`), from P's rows
    on the fine slabs that the block's columns of P and their A-neighbours
    reach, so no product with all of A and no copy of A is held.  A row of
    P^T covers 4 fine nodes along each axis, so a row of P^T A has at most
    (4 + 2 radius)^n entries; blocks are sized by that to about
    `_BLOCK_ENTRIES`.
    """
    block = _BLOCK_ENTRIES // (4 + 2 * radius) ** len(P.fine_shape)
    # each block is written straight into arrays of the bound's size (a few
    # entries too many at most), so the blocks and the whole are never held
    # together
    bound = _pattern_pairs(P.coarse, radius)
    data, indices = np.empty(bound), np.empty(bound, dtype=np.int32)
    indptr = np.zeros(P.shape[1] + 1, dtype=np.int32)
    ratio = 0.0
    for i, j, lo, hi in P.blocks(block, radius):
        Q = P.rows(lo, hi)
        B = (Q.T[i:j].tocsr() @ A) @ Q
        start = indptr[i]
        data[start:start + B.nnz] = B.data
        indices[start:start + B.nnz] = B.indices
        indptr[i + 1:j + 1] = B.indptr[1:] + start
        # every row holds its positive diagonal, so no row is empty
        row_abs = np.add.reduceat(np.abs(B.data), B.indptr[:-1])
        ratio = max(ratio, float((row_abs / B.diagonal(k=i)).max()))
    nnz = indptr[-1]
    return sparse.csr_matrix((data[:nnz], indices[:nnz], indptr), shape=(P.shape[1],) * 2), ratio


def _pattern_pairs(coarse: np.ndarray, radius: int) -> int:
    """A bound on the entries of P^T A P: the pairs of coarse unknowns whose
    lattice offset d has |d_a| <= 2 on every axis, and on at most one axis
    when A has radius 1 (there a row of P^T A spans 6 fine cells along one
    axis and 4 along the others, which reach coarse offsets 2 and 1)."""
    padded = np.pad(coarse, 2)
    total = 0
    for d in itertools.product(range(-2, 3), repeat=coarse.ndim):
        if radius == 1 and sum(abs(x) == 2 for x in d) > 1:
            continue
        shifted = padded[tuple(slice(2 + x, 2 + x + s) for x, s in zip(d, coarse.shape))]
        total += np.count_nonzero(coarse & shifted)
    return total


class _Multigrid:
    """One symmetric V-cycle: an SPD approximate inverse of the free-node
    Hessian of sum w |D+ u / h|^2.

    Every level is a CSR matrix: the finest is `_free_hessian`, and each
    next one the Galerkin operator P^T A P (`_galerkin`) with
    `_Prolongation`, down to a sparse LU factor at the first level with at
    most `_COARSE_MAX` unknowns.  Each level smooths with one damped Jacobi
    sweep before and one after the coarse correction; the damping
    4 / (3 max_i sum_j |a_ij| / a_ii) keeps a sweep a contraction in the
    energy norm, and both sweeps are the same symmetric operator, so the
    V-cycle is symmetric.
    """

    def __init__(self, domain: GridDomain, free: np.ndarray):
        A = _free_hessian(domain, free)
        diag = A.diagonal()
        # an M-matrix (off-diagonals <= 0): sum_j |a_ij| = 2 a_ii - sum_j a_ij
        ratio = float((2.0 - (A @ np.ones(A.shape[0])) / diag).max())
        radius = 1  # of the fine stencil; every coarse operator couples nodes up to 2 apart
        self.levels = []
        while A.shape[0] > _COARSE_MAX and free.size > 1:
            P = _Prolongation(free)
            C, coarse_ratio = _galerkin(A, P, radius)
            self.levels.append((A, 4.0 / (3.0 * ratio) / diag, P))
            A, ratio, free, radius = C, coarse_ratio, P.coarse, 2
            diag = A.diagonal()
        self.coarse = splu(A.tocsc())

    def __call__(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.levels):
            return self.coarse.solve(b)
        A, smooth, P = self.levels[level]
        x = smooth * b
        x += P.prolong(self(P.restrict(b - A @ x), level + 1))
        r = A @ x
        x += np.multiply(smooth, np.subtract(b, r, out=r), out=r)
        return x


def _gap(g: np.ndarray, x: np.ndarray) -> float:
    """sum over free nodes of g x - min(0, g), with g the energy gradient at
    free values x: E(x) minus the gap is a lower bound on the capacity.

    The minimizer lies in [0, 1] (clipping to [0, 1] is 1-Lipschitz, so it
    never raises |D+ u|), and E is convex, so E(u*) >= E(x) + <g, u* - x>
    >= E(x) - <g, x> + sum min(0, g).
    """
    return float(np.dot(g, x) - np.minimum(g, 0.0).sum())


def capacity_variational(E: SetMask, spec: YoungSpec, domain: GridDomain = None,
                         tol: float = 1e-8, max_iter: int = 100_000) -> CapacityResult:
    """Capacity of a node set: minimal Phi-energy over admissible functions.

    Converged when the certified gap falls to tol * value, or when no step
    strictly lowers the energy any more (stationary to machine precision);
    not converged after `max_iter` iterations.  `lower` = value - gap either way.
    """
    if domain is None:
        domain = E.domain
    elif domain is not E.domain:
        raise ValueError("mask and domain do not match")
    _require_delta2(spec)

    if E.is_empty():
        u = GridFunction(domain, np.zeros(domain.shape))
        return CapacityResult(0.0, u, 0, True, "pcg-multigrid", 0.0)

    free = ~(E.mask | domain.boundary_band)
    at = np.flatnonzero(free).astype(np.int32)
    u = np.where(E.mask, 1.0, 0.0)
    work = _EnergyWorkspace(domain, spec)
    if spec.family == "custom_table":
        # Phi is +inf past the last knot: fail before evaluating it there
        g_max, t_last = work.max_gradient(u), spec.table[-1][0]
        if g_max > t_last:
            raise NumericalError(
                f"{spec.tag}: the initial lattice gradient reaches {g_max!r}, "
                f"past the table's last knot {t_last!r}")
    e_u, g = work.energy(u), work.grad(u)
    if not (math.isfinite(e_u) and np.isfinite(g).all()):
        raise NumericalError(
            f"{spec.tag}: non-finite initial energy {e_u} or gradient; "
            "the lattice gradients leave the range where Phi is finite")

    def gradient(v):
        return work.grad(v).reshape(-1)[at]

    def trial(alpha):
        v.reshape(-1)[at] = np.add(x, np.multiply(alpha, d, out=step), out=step)
        return v

    g = g.reshape(-1)[at]
    x = u.reshape(-1)[at]  # the free values; held nodes keep 1 (marked) and 0 (band)
    v = u.copy()           # trial point: the same held values, free ones rewritten
    step = np.empty_like(x)
    gap = _gap(g, x)
    converged = gap <= tol * e_u
    precondition, d, alpha, it = None, None, 1.0, 0
    while not converged and it < max_iter:
        it += 1
        if precondition is None:
            precondition = _Multigrid(domain, free)
        z = precondition(-g)
        z_dot_g = float(np.dot(z, g))
        if d is not None:
            # Polak-Ribiere+: beta = <z, r - r_prev> / <z_prev, r_prev>, r = -g
            beta = max(0.0, (z_dot_g - float(np.dot(z, g_prev))) / z_dot_g_prev)
            d *= beta
            d += z
        if d is None or float(np.dot(d, g)) >= 0.0:  # first, or no descent: restart
            d = z
        slope = float(np.dot(d, g))
        g_prev, z_dot_g_prev = g, z_dot_g
        # secant on the directional derivative, between 0 and the last step
        slope_t = float(np.dot(gradient(trial(alpha)), d))
        if math.isfinite(slope_t) and slope_t > slope:
            alpha *= slope / (slope - slope_t)
        # halve while the first-order decrease alpha |slope| could still show
        # in E; below eps * E no step can lower it in floating point
        while ((e_v := work.energy(trial(alpha))) >= e_u
               and -alpha * slope > _EPS * e_u):
            alpha *= 0.5
        if e_v < e_u:  # strict decrease only: equal energies would loop at E's resolution
            u, v = v, u
            x = u.reshape(-1)[at]
            e_u, g = e_v, gradient(u)
            gap = _gap(g, x)
            converged = gap <= tol * e_u
        else:
            converged = True  # no step lowers E: stationary to machine precision

    if not math.isfinite(e_u):
        raise NumericalError(f"{spec.tag}: non-finite capacity energy {e_u}")
    gf = GridFunction(domain, u)
    gf.values.flags.writeable = False
    return CapacityResult(e_u, gf, it, converged, "pcg-multigrid", e_u - gap)


class CapacityCache:
    """Memoizes capacity solves by mask content.

    Every solve starts cold, so a cached value depends only on its mask,
    never on the order of earlier lookups.  Cached results are shared
    objects; their minimizer arrays are read-only.
    """

    def __init__(self, spec: YoungSpec, domain: GridDomain):
        self.spec = spec
        self.domain = domain
        self._store = {}

    def capacity(self, mask: SetMask) -> CapacityResult:
        key = mask.key()
        hit = self._store.get(key)
        if hit is not None:
            return hit
        res = capacity_variational(mask, self.spec, self.domain)
        self._store[key] = res
        return res


def cache_for(spec: YoungSpec, domain: GridDomain, cache: CapacityCache = None) -> CapacityCache:
    """`cache` if it solves for spec on domain, a new cache if it is None;
    ValueError for a cache built for another Phi or domain."""
    if cache is None:
        return CapacityCache(spec, domain)
    if cache.spec != spec or cache.domain is not domain:
        raise ValueError("cache does not match spec/domain")
    return cache


# ---------------------------------------------------------------------------
# 1-D radial oracle
# ---------------------------------------------------------------------------

def capacity_ball_radial(r: float, spec: YoungSpec, R: float, n: int,
                         nodes: int = 10_000, max_iter: int = 300) -> float:
    """Condenser capacity of B(0,r) in B(0,R) from the radial reduction.

    Minimizes omega * int_r^R Phi(|u'|) rho^(n-1) drho over profiles with
    u(r) = 1, u(R) = 0, by descent preconditioned with the quadratic-energy
    Hessian (a tridiagonal weighted Laplacian), which also makes the
    quadratic family converge in one step.
    """
    if not 0 < r < R:
        raise ConfigurationError("need 0 < r < R")
    if n not in (2, 3):
        raise ConfigurationError("dimension must be 2 or 3")
    omega = 2.0 * math.pi if n == 2 else 4.0 * math.pi  # |S^(n-1)|
    rho = np.linspace(r, R, nodes + 1)
    delta = (R - r) / nodes
    mid = 0.5 * (rho[:-1] + rho[1:])
    w = omega * mid ** (n - 1) * delta

    def energy(u):
        s = np.abs(np.diff(u)) / delta
        return float(np.sum(w * eval_phi(spec, s)))

    def grad_interior(u):
        s = np.diff(u) / delta
        sa = np.maximum(np.abs(s), _RATIO_FLOOR)
        flux = w * eval_phi_prime(spec, sa) * np.sign(s) / delta
        return flux[:-1] - flux[1:]

    # banded SPD Hessian of the quadratic energy, interior unknowns only
    m = nodes - 1
    diag = 2.0 * (w[:-1] + w[1:]) / delta ** 2
    off = -2.0 * w[1:-1] / delta ** 2
    band = np.zeros((2, m))
    band[0, 1:] = off
    band[1, :] = diag

    u = np.linspace(1.0, 0.0, nodes + 1)
    e = energy(u)
    for _ in range(max_iter):
        g = grad_interior(u)
        step_dir = solveh_banded(band, -g)
        s = 1.0
        while s > 1e-20:
            trial = u.copy()
            trial[1:-1] += s * step_dir
            e_t = energy(trial)
            if e_t < e:
                break
            s *= 0.5
        else:
            break
        if e - e_t < 1e-13 * max(e_t, 1e-300):
            u, e = trial, e_t
            break
        u, e = trial, e_t
    return e


def ball_capacity_estimate(r: float, spec: YoungSpec, R: float, n: int) -> BallEstimate:
    """Closed-form two-sided estimate F(r)^(1-n) for ball capacities.

    F(r) integrates s^-1 * phi(1/s)^(-1/(n-1)) over (r, R), with phi the
    factor of the t^n * phi(t) factorization; valid only when the
    factorization exponent equals the dimension.
    """
    if not 0 < r < R / 2:
        raise ConfigurationError("estimate needs 0 < r < R/2")
    pair = factored(spec)
    if pair.p != n:
        raise ConfigurationError(
            f"factorization exponent {pair.p} must equal the dimension {n}")
    if not _delta2_plus_ok(spec):
        raise ConfigurationError(f"{spec.tag} fails the delta2+ condition")

    def integrand(s):
        return float(pair.phi_part(1.0 / s)) ** (-1.0 / (n - 1)) / s

    F, _ = quad(integrand, r, R, epsrel=1e-8, limit=200)
    return BallEstimate(r=r, R=R, F_value=F, estimate=F ** (1 - n))


# ---------------------------------------------------------------------------
# Riesz capacity via the discretized kernel
# ---------------------------------------------------------------------------

_MAX_CONSTRAINT_NODES = 4096
_KERNEL_ROWS = 64         # rows of the Riesz kernel gathered at once
_NONMONOTONE = 10         # past dual values the Armijo test takes the max of
_ARMIJO = 1e-4            # sufficient-decrease fraction of the projected slope
_ALPHA_MIN, _ALPHA_MAX = 1e-30, 1e30  # Barzilai-Borwein step safeguards


def _kernel_diagonal(n: int, h: float) -> float:
    """Cell average of |y|^(1-n) over one grid cell.

    Exact for the square cell in 2-D; equal-measure ball average in 3-D.
    The O(h) quadrature error washes out of two-sided comparisons.
    """
    if n == 2:
        return 4.0 * math.log(1.0 + math.sqrt(2.0)) / h
    rho = h * (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
    return 4.0 * math.pi * rho / h ** 3


def _riesz_kernel(domain: GridDomain, E: SetMask) -> np.ndarray:
    """Riesz kernel A[j, i] = |x_j - y_i|^(1-n) h^n from marked nodes x_j to
    inside nodes y_i, with the cell average `_kernel_diagonal` at x_j = y_i.

    The kernel depends on x_j - y_i alone, so A is gathered, a block of rows
    at a time, from one table over the lattice offsets (|k_1|, ..., |k_n|).
    """
    n, h = domain.n, domain.h
    hn = h ** n
    sq = np.ix_(*[np.square(np.arange(m) * h) for m in domain.shape])
    with np.errstate(divide="ignore"):
        table = np.sqrt(functools.reduce(np.add, sq)) ** (1 - n) * hn
    table.flat[0] = _kernel_diagonal(n, h) * hn
    steps = [st // table.itemsize for st in table.strides]
    marked, inside = np.argwhere(E.mask), np.argwhere(domain.inside)
    A = np.empty((len(marked), len(inside)))
    for r0 in range(0, len(marked), _KERNEL_ROWS):
        rows = marked[r0:r0 + _KERNEL_ROWS]
        offset = np.zeros((len(rows), len(inside)), dtype=np.intp)
        for ax in range(n):
            offset += np.abs(rows[:, None, ax] - inside[None, :, ax]) * steps[ax]
        np.take(table.ravel(), offset, out=A[r0:r0 + len(rows)])
    return A


def riesz_capacity_variational(E: SetMask, spec: YoungSpec,
                               domain: GridDomain = None,
                               tol: float = 1e-8,
                               max_iter: int = 10_000) -> CapacityResult:
    """Riesz capacity: minimal modular of densities whose potential covers E.

    The primal problem minimizes sum_i w Phi(f_i) over f >= 0 on the inside
    nodes, subject to (A f)_j >= 1 at every marked node (`_riesz_kernel`).
    The solve runs on its Fenchel dual over multipliers mu >= 0 on the
    marked nodes: minimize  phi(mu) = sum_i w Phi*((A^T mu)_i / w) - sum mu,
    whose gradient is A t - 1 with t = (Phi')^-1(A^T mu / w).  Each step is
    a projected Barzilai-Borwein step with a nonmonotone Armijo search
    against the last `_NONMONOTONE` values (spectral projected gradient,
    Birgin, Martinez & Raydan, SIAM J. Optim. 10, 2000).

    Every iterate certifies a bracket: by weak duality -phi(mu) <= cap, with
    Phi* bounded above from the bracket of `young.phi_prime_inverse`, and
    the density t / min(A t) is feasible, so its modular bounds cap from
    above.  `value` and `lower` are the best of each; the solve converges
    once value - lower <= tol * value, and reports `converged=False` after
    `max_iter` iterations or when no step lowers phi any more.
    """
    if domain is None:
        domain = E.domain
    elif domain is not E.domain:
        raise ValueError("mask and domain do not match")
    if not _delta2_plus_ok(spec):
        raise ConfigurationError(f"{spec.tag} fails the delta2+ condition")
    if E.is_empty():
        u = GridFunction(domain, np.zeros(domain.shape))
        return CapacityResult(0.0, u, 0, True, "riesz-dual", 0.0)
    if E.count > _MAX_CONSTRAINT_NODES:
        raise ConfigurationError(
            f"{E.count} constraint nodes exceed the dense-kernel cap "
            f"{_MAX_CONSTRAINT_NODES}")

    A = _riesz_kernel(domain, E)
    w = domain.h ** domain.n

    def dual(mu, t_prev):
        """phi(mu), bounded above, and the densities t at mu."""
        y = (A.T @ mu) / w
        t_lo, t = phi_prime_inverse(spec, y, t_prev)
        return w * (float(y @ t) - float(eval_phi(spec, t_lo).sum())) - float(mu.sum()), t

    def search(mu, phi, t, d, slope, phi_ref):
        """Nonmonotone Armijo search along d from mu; None once the step no
        longer changes mu."""
        lam = 1.0
        while True:
            mu_new = np.maximum(mu + lam * d, 0.0)
            phi_new, t_new = dual(mu_new, t)
            if phi_new <= phi_ref + _ARMIJO * lam * slope:
                return mu_new, phi_new, t_new
            # safeguarded minimizer of the quadratic through phi, slope, phi_new
            quad_min = -0.5 * lam * lam * slope / (phi_new - phi - lam * slope)
            lam = quad_min if 0.1 * lam <= quad_min <= 0.9 * lam else 0.5 * lam
            if not lam * float(np.abs(d).max()) > _EPS * float(mu.max()):
                return None

    # start on the ray of mu = 1, scaled as if Phi* were homogeneous of
    # degree q = p/(p-1), as it is for power(p)
    mu = np.ones(E.count)
    phi, t = dual(mu, None)
    mu *= (E.count / ((phi + E.count) * spec.p / (spec.p - 1.0))) ** (spec.p - 1.0)
    phi, t = dual(mu, t)
    At = A @ t
    g = At - 1.0
    history = collections.deque([phi], maxlen=_NONMONOTONE)
    value, f = math.inf, None
    lower = -phi
    alpha = float(mu.max() / np.abs(g).max())
    it = 0
    while True:
        f_new = t / At.min()  # feasible: A f_new >= 1
        v_new = w * float(eval_phi(spec, f_new).sum())
        if v_new < value:
            value, f = v_new, f_new
        converged = value - lower <= tol * value
        if converged or it >= max_iter:
            break
        it += 1
        d = np.maximum(mu - alpha * g, 0.0) - mu
        slope = float(g @ d)
        step = search(mu, phi, t, d, slope, max(history)) if slope < 0.0 else None
        if step is None:
            break  # stationary to machine precision
        mu_new, phi_new, t_new = step
        At = A @ t_new
        g_new = At - 1.0
        s, r = mu_new - mu, g_new - g
        sr = float(s @ r)
        alpha = min(max(float(s @ s) / sr, _ALPHA_MIN), _ALPHA_MAX) if sr > 0 else _ALPHA_MAX
        mu, phi, t, g = mu_new, phi_new, t_new, g_new
        history.append(phi)
        lower = max(lower, -phi)

    if not math.isfinite(value):
        raise NumericalError(f"{spec.tag}: non-finite Riesz modular {value}")
    dens = np.zeros(domain.shape)
    dens[domain.inside] = f
    gf = GridFunction(domain, dens)
    gf.values.flags.writeable = False
    return CapacityResult(value, gf, it, converged, "riesz-dual", lower)
