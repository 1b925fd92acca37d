"""Variational capacities on grid domains and their independent oracles.

The main solve minimizes the discrete energy  sum_x w(x) Phi(|D+ u(x)|)
over the free nodes, with u = 1 on the marked set and u = 0 on the
boundary band.  (The capacity asks for u >= 1 on the marked set; clipping
to 1 never raises |D+ u|, so holding those nodes at exactly 1 loses
nothing.)  The energy is convex, and the solve is nonlinear conjugate
gradients (Polak-Ribiere+) preconditioned by one multigrid V-cycle on the
Hessian of the quadratic energy sum w |D+ u / h|^2, a Laplacian
preconditioning (Huang, Li & Liu, J. Sci. Comput. 32, 2007).  Each step
takes a secant step on the directional derivative and halves it until the
energy strictly drops.

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
(`grid.forward_difference`) and its adjoint are each one contiguous
subtraction at the axis's flat offset plus one boundary slab
(`strongtype.rhs_energy` is its `energy` at u).  Its `energy` and `grad`
share one evaluation order, |D+ v| = sqrt(sum d^2) / h on the undivided
differences d; Phi and Phi' write into workspace buffers too (`out=` and `scratch=` of
`young.eval_phi` / `eval_phi_prime`), so an evaluation allocates no
lattice-sized array.  A `custom_table` whose last knot lies below the
initial iterate's largest lattice gradient raises `NumericalError` before
Phi is evaluated there; so does any other non-finite initial energy or
gradient, or final value.

The preconditioner (`_Multigrid`) holds every level as a CSR matrix: the
free-node Hessian, assembled in one vectorized pass over the lattice
edges, and the Galerkin products below it, formed block by block, down to
a level of at most `_COARSE_MAX` (64) unknowns, kept as its dense inverse.
The solve's dot products and that inverse's product run in numpy's own
loops (`np.einsum`), never in BLAS, so a solve's bits do not depend on the
BLAS thread count; the Riesz solve's dense kernel products still do.  Each
lattice domain keeps the coarse levels of its own hierarchy, the one with
no node marked, from its first solve until the domain is dropped.  A mask
removes unknowns, and it changes only the Galerkin rows whose stencil
reaches a removed unknown or a changed row of the level above (the dirty
rows).  So each coarse level of a mask copies the domain's rows,
restricted to the mask's unknowns, and forms the dirty rows alone.  A
copied row sums the same products in the same order as it would from
scratch, so every level equals the one built from scratch, bit for bit.

Swapping the first two lattice axes maps the problem to itself, bit for
bit, in 2-D and 3-D alike: `grid.build_domain` sums the squared
coordinates as (x0^2 + x1^2) [+ x2^2], so radius, inside, boundary band
and weights equal their swaps, and |D+ u|^2 sums d0^2 + d1^2 [+ d2^2], so
the energy of u and of its swap are one sum over the nodes in another
order.  Hence cap(M) = cap(swap(M)) exactly, and the certified bracket of
one member holds for the other.  `CapacityCache` solves one canonical
member of each pair {M, swap(M)} (the smaller `SetMask.key()` bytes) and
serves the other with the swapped minimizer.  Other axis permutations are
not used: in 3-D, the radius sum is not bit-symmetric under them.
Reflections are not used either, since forward differences are not
reflection-invariant.

The radial oracle (`capacity_ball_radial`) is the exact minimum of the
1-D discrete condenser problem, from its constant-flux condition.

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
import weakref
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

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
    F_value: float
    estimate: float


# each check runs once per spec that passes it (lru_cache keeps no raise)
@functools.lru_cache(maxsize=64)
def _require_delta2(spec: YoungSpec) -> None:
    if not check_delta2(spec).passed:
        raise ConfigurationError(f"{spec.tag} fails the doubling condition")


@functools.lru_cache(maxsize=64)
def _require_delta2_plus(spec: YoungSpec) -> None:
    if not check_delta2_plus(spec).passed:
        raise ConfigurationError(f"{spec.tag} fails the delta2+ condition")


def _read_only(domain: GridDomain, values: np.ndarray) -> GridFunction:
    """A minimizer that a cache may share: its values are made read-only."""
    gf = GridFunction(domain, values)
    gf.values.flags.writeable = False
    return gf


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

    def _gradient_norm(self, v: np.ndarray, keep: bool = False) -> np.ndarray:
        """|D+ v| in the s buffer.  Each axis's differences are squared in
        the buffer they are written to: the axis's own buffer with `keep`,
        which then holds them, else the s or t buffer itself."""
        s, t = self._s, self._t
        for a, d in enumerate(self._diffs):
            square = s if a == 0 else t
            forward_difference(v, a, d if keep else square)
            np.square(d if keep else square, out=square)
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
        s, t, grad = self._gradient_norm(v, keep=True), self._t, self._grad
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


_COARSE_MAX = 64  # unknowns at which the multigrid inverts a level instead of coarsening
# largest P kept as CSR (12 B an entry): it applies faster than the per-axis transfers
# on 2-D levels, and a 3-D finest P (110,784 entries at 32^3) is never held in memory
_STORED_ENTRIES = 1 << 16
_BLOCK_ENTRIES = 1 << 15  # entries of P^T A formed at once while building P^T A P
_RUN_ENTRIES = 1 << 16    # entries of a level filtered or scanned at once
# each lattice domain's coarse levels with no marked node, as (unknowns
# lattice, CSR) pairs, made at its first multigrid build, dropped with it
_DOMAIN_LEVELS = weakref.WeakKeyDictionary()


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

    `rows(at)` makes the rows of P in the index array `at` as CSR, each with
    2^n entries (a dropped weight is a zero on the parent), for building
    P^T A P.  A P with at most `_STORED_ENTRIES` entries is kept whole as
    CSR (`matrix`).  A larger one is never stored: `prolong` (P x) then
    interpolates axis by axis from the coarse lattice, with zeros at the
    coarse nodes outside the unknowns, and `restrict` (P^T y) is its
    adjoint, each axis one product with a 1-D transfer (`_transfers`); a
    weight on a coarse node off the lattice has no entry there.
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
        self._coarse_at = np.flatnonzero(self.coarse)  # on the lattice without the border
        self.shape = (self.fine_at.size, self.coarse_at.size)
        self.matrix = None
        if self.shape[0] << free.ndim <= _STORED_ENTRIES:
            self.matrix = self.rows(np.arange(self.shape[0]))
            self._transpose = self.matrix.T  # a CSC view, made once

    @functools.cached_property
    def _transfers(self) -> tuple:
        """Made at the first transfer: the fine lattice, zero off the free
        nodes; the coarse one with its last axis first, zero off the
        unknowns, and the unknowns' places on it; and per axis a the
        restriction and the interpolation along a, as CSR.  Along an axis,
        coarse cell q takes 1/4 of fine cell 2q + 2, 3/4 of 2q, 1/4 of
        2q - 1 and 3/4 of 2q + 1, and fine cells 2q and 2q + 1 take 3/4 of q
        and then 1/4 of q - 1 and of q + 1; each row sums its terms in that
        order, starting from 0.  The matrix of an axis between the first and
        the last is block-diagonal over the coarse axes before it; the last
        axis is transferred across the lattice with that axis first."""
        fine, coarse = self.fine_shape, self.coarse.shape
        restrict, prolong = [], []
        for a, (m, k) in enumerate(zip(fine, coarse)):
            q, i = np.arange(k)[:, None], np.arange(m)[:, None]
            lead = math.prod(coarse[:a]) if a < len(fine) - 1 else 1
            restrict.append(_along(np.hstack([2 * q + 2, 2 * q, 2 * q - 1, 2 * q + 1]),
                                   [0.25, 0.75, 0.25, 0.75], m, lead))
            prolong.append(_along(np.hstack([i // 2, i // 2 + 2 * (i % 2) - 1]),
                                  [0.75, 0.25], k, lead))
        lines = math.prod(coarse[:-1])
        at = self._coarse_at % coarse[-1] * lines + self._coarse_at // coarse[-1]
        return np.zeros(fine), np.zeros(self.coarse.size), at, restrict, prolong

    def prolong(self, x: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix @ x
        _, y, at, _, steps = self._transfers
        y[at] = x  # the other nodes stay zero
        y = steps[-1] @ y.reshape(self.coarse.shape[-1], -1)  # the last axis first
        y = np.ascontiguousarray(y.T)
        for T in steps[-2::-1]:
            y = T @ y.reshape(T.shape[1], -1)
        return y.reshape(-1)[self.fine_at]

    def restrict(self, r: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return self._transpose @ r
        y, _, at, steps, _ = self._transfers
        y.reshape(-1)[self.fine_at] = r  # the other nodes stay zero
        for R in steps[:-1]:  # the first axis first: prolong's adjoint
            y = R @ y.reshape(R.shape[1], -1)
        return (steps[-1] @ y.reshape(-1, self.fine_shape[-1]).T).reshape(-1)[at]

    def rows(self, at: np.ndarray) -> sparse.csr_matrix:
        """The rows of P in the sorted index array `at`, in a CSR matrix of
        P's shape whose other rows are empty (all of P once stored)."""
        if self.matrix is not None:
            return self.matrix
        f, n = self.fine_at[at], len(self.fine_shape)
        # flat index of each corner on the bordered coarse lattice: the
        # parent, then for each axis the same plus the step to the side
        corner = np.zeros((f.size, 1), dtype=f.dtype)
        for a in range(n):
            x = f // math.prod(self.fine_shape[a + 1:]) % self.fine_shape[a]
            step = math.prod(self._index.shape[a + 1:])
            corner += ((x // 2 + 1) * step)[:, None]
            side = ((x % 2) * (2 * step) - step)[:, None]
            corner = np.stack([corner, corner + side], axis=-1).reshape(f.size, -1)
        cols = self._index.reshape(-1)[corner]
        absent = cols < 0
        far = np.array([sum(c) for c in itertools.product((0, 1), repeat=n)])
        vals = np.where(absent, 0.0, 0.25 ** far * 0.75 ** (n - far))
        np.copyto(cols, cols[:, :1], where=absent)
        # row r starts after the 2^n entries of each row of `at` below it
        bounds = np.diff(at, prepend=-1, append=self.shape[0])
        indptr = np.repeat(np.arange(at.size + 1, dtype=np.int32) << n, bounds)
        return sparse.csr_matrix((vals.reshape(-1), cols.reshape(-1), indptr), shape=self.shape)

    def blocks(self, rows: np.ndarray, size: int, radius: int):
        """Runs i..j-1 of `rows`, a sorted array of P's columns, by whole
        coarse slabs (along the first axis): as many slabs as hold at most
        `size` columns, and at least one; each with the fine rows lo..hi-1
        that hold those columns of P and every fine node within `radius`
        slabs of them."""
        slab_of = self.coarse_at[rows] // math.prod(self._index.shape[1:]) - 1
        slabs = np.searchsorted(slab_of, np.arange(self.coarse.shape[0] + 1))
        edges = [0]
        while edges[-1] < rows.size:
            last = slabs[np.searchsorted(slabs, edges[-1] + size, side="right") - 1]
            edges.append(int(max(last, slabs[np.searchsorted(slabs, edges[-1], side="right")])))
        fine_slab = math.prod(self.fine_shape[1:])
        for i, j in zip(edges, edges[1:]):
            if j > i:
                lo, hi = np.searchsorted(self.fine_at, [
                    max(2 * slab_of[i] - 1 - radius, 0) * fine_slab,
                    (2 * slab_of[j - 1] + 3 + radius) * fine_slab])
                yield i, j, int(lo), int(hi)


def _along(cols: np.ndarray, vals: list, size: int, lead: int) -> sparse.csr_matrix:
    """`lead` diagonal blocks of the matrix whose row r holds vals[j] in
    column cols[r, j], for the columns in 0..size-1 and in that order, as
    CSR: a 1-D transfer along one lattice axis, on every line of the axes
    before it."""
    keep = np.broadcast_to((cols >= 0) & (cols < size), (lead,) + cols.shape)
    at = cols + size * np.arange(lead)[:, None, None]
    indptr = np.zeros(keep.shape[0] * keep.shape[1] + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=-1), out=indptr[1:])
    return sparse.csr_matrix((np.broadcast_to(vals, at.shape)[keep], at[keep].astype(np.int32),
                              indptr), shape=(lead * cols.shape[0], lead * size))


def _windows(Z: np.ndarray, radius: int, fine_shape: tuple = None) -> np.ndarray:
    """The coarse cells c whose fine window 2c - 1 - radius .. 2c + 2 + radius
    along every axis meets the fine lattice set Z; or, given the fine
    lattice's shape, the fine nodes that such a window of a coarse cell of
    Z covers.  Axis by axis, from running counts of Z."""
    for a in range(Z.ndim):
        if fine_shape is None:
            c = np.arange((Z.shape[a] + 1) // 2)
            lo, hi = 2 * c - 1 - radius, 2 * c + 3 + radius
        else:  # node j lies in the windows of cells ceil((j - 2 - radius) / 2) .. (j + 1 + radius) // 2
            j = np.arange(fine_shape[a])
            lo, hi = -((2 + radius - j) // 2), (j + 1 + radius) // 2 + 1
        count = np.cumsum(Z, axis=a, dtype=np.int32)
        count = np.concatenate([np.zeros_like(count.take([0], axis=a)), count], axis=a)
        lo, hi = np.clip(lo, 0, Z.shape[a]), np.clip(hi, 0, Z.shape[a])
        Z = count.take(hi, axis=a) > count.take(lo, axis=a)
    return Z


def _galerkin(A: sparse.csr_matrix, P: _Prolongation, radius: int,
              dirty: np.ndarray) -> sparse.csr_matrix:
    """The rows of P^T A P at the coarse unknowns in the lattice set
    `dirty` (within P.coarse), as a CSR matrix of those rows.

    A couples nodes at most `radius` apart along each axis.  The product is
    formed one block of coarse rows at a time (`P.blocks`), from the rows of
    P that the block's columns of P and their A-neighbours reach, so no
    product with all of A and no copy of A is held.  A row of P^T covers 4
    fine nodes along each axis, so a row of P^T A has at most
    (4 + 2 radius)^n entries; blocks are sized by that to about
    `_BLOCK_ENTRIES`.  Each row of the product is a sum over its own row of
    P^T alone, in the same order whichever block and which other rows of P
    it is formed with, so a row comes out the same, entry order included,
    whether it is formed alone or with every row.
    """
    block = _BLOCK_ENTRIES // (4 + 2 * radius) ** len(P.fine_shape)
    rows = np.flatnonzero(dirty[P.coarse])
    reached = _windows(dirty, radius, P.fine_shape).reshape(-1)[P.fine_at]
    # each block is written straight into arrays of the bound's size (a few
    # entries too many at most), so the blocks and the whole are never held
    # together
    bound = _pattern_pairs(P.coarse, radius, dirty)
    data, indices = np.empty(bound), np.empty(bound, dtype=np.int32)
    indptr = np.zeros(rows.size + 1, dtype=np.int32)
    for i, j, lo, hi in P.blocks(rows, block, radius):
        Q = P.rows(lo + np.flatnonzero(reached[lo:hi]))
        B = (Q.T[rows[i:j]].tocsr() @ A) @ Q
        start = indptr[i]
        data[start:start + B.nnz] = B.data
        indices[start:start + B.nnz] = B.indices
        indptr[i + 1:j + 1] = B.indptr[1:] + start
    nnz = indptr[-1]
    return sparse.csr_matrix((data[:nnz], indices[:nnz], indptr), shape=(rows.size, P.shape[1]))


def _pattern_pairs(coarse: np.ndarray, radius: int, rows: np.ndarray) -> int:
    """A bound on the entries of P^T A P in the rows at `rows` (a subset of
    the coarse lattice set `coarse`): the pairs of coarse unknowns whose
    lattice offset d has |d_a| <= 2 on every axis, and on at most one axis
    when A has radius 1 (there a row of P^T A spans 6 fine cells along one
    axis and 4 along the others, which reach coarse offsets 2 and 1)."""
    padded = np.pad(coarse, 2)
    total = 0
    for d in itertools.product(range(-2, 3), repeat=coarse.ndim):
        if radius == 1 and sum(abs(x) == 2 for x in d) > 1:
            continue
        shifted = padded[tuple(slice(2 + x, 2 + x + s) for x, s in zip(d, coarse.shape))]
        total += np.count_nonzero(rows & shifted)
    return total


def _runs(indptr: np.ndarray):
    """Row runs r0..r1-1 of a CSR matrix, of about `_RUN_ENTRIES` entries
    each and at least one row."""
    cuts = np.searchsorted(indptr, np.arange(_RUN_ENTRIES, indptr[-1], _RUN_ENTRIES))
    edges = np.unique(np.r_[0, cuts, indptr.size - 1]).tolist()
    return zip(edges, edges[1:])


def _gershgorin(C: sparse.csr_matrix) -> float:
    """max_i sum_j |c_ij| / c_ii over the rows of C, each of which holds its
    positive diagonal; a run of rows at a time, so no copy of C's data is
    held."""
    ratio, diagonal = 0.0, C.diagonal()
    for r0, r1 in _runs(C.indptr):
        e0, e1 = C.indptr[r0], C.indptr[r1]
        row_abs = np.add.reduceat(np.abs(C.data[e0:e1]), C.indptr[r0:r1] - e0)
        ratio = max(ratio, float((row_abs / diagonal[r0:r1]).max()))
    return ratio


def _splice(base: sparse.csr_matrix, base_at: np.ndarray, at: np.ndarray,
            dirty: np.ndarray, fresh: sparse.csr_matrix) -> sparse.csr_matrix:
    """A level of a mask's hierarchy from the domain's level `base`.

    `base_at` and `at` are the lattice sets of the domain's and the mask's
    unknowns (at within base_at), and `dirty` a lattice set whose mask
    unknowns take their rows from `fresh`, in order.  Every other row of the
    mask is base's row, its entries filtered to the mask's columns and
    renumbered through a lattice lookup, in base's entry order.  Base is
    filtered a run of rows at a time (`_runs`) into arrays of a bound's
    size, and each run's clean and fresh rows are merged by their sizes.
    """
    number = np.full(at.size, -1, dtype=np.int32)
    number[np.flatnonzero(at)] = np.arange(np.count_nonzero(at), dtype=np.int32)
    to_mask = number[np.flatnonzero(base_at)]  # -1: removed by the mask
    stale = dirty[at]  # per mask unknown
    clean = to_mask >= 0
    clean[clean] = ~stale
    counts = np.diff(base.indptr)
    bound = int(counts[clean].sum()) + fresh.nnz
    data, indices = np.empty(bound), np.empty(bound, dtype=np.int32)
    indptr = np.zeros(stale.size + 1, dtype=np.int32)
    m0 = f0 = 0  # the first mask row and the first fresh row of a run
    for r0, r1 in _runs(base.indptr):
        e0, e1 = base.indptr[r0], base.indptr[r1]
        cols = to_mask[base.indices[e0:e1]]
        keep = np.repeat(clean[r0:r1], counts[r0:r1])
        keep &= cols >= 0
        size = np.add.reduceat(keep, base.indptr[r0:r1] - e0, dtype=np.int32)[to_mask[r0:r1] >= 0]
        m1 = m0 + size.size
        redo = stale[m0:m1]
        f1 = f0 + np.count_nonzero(redo)
        size[redo] = np.diff(fresh.indptr[f0:f1 + 1])
        np.cumsum(size, out=indptr[m0 + 1:m1 + 1])
        start = indptr[m0]
        indptr[m0 + 1:m1 + 1] += start
        run = slice(start, indptr[m1])
        slot = np.repeat(~redo, size)
        data[run][slot] = base.data[e0:e1][keep]
        indices[run][slot] = cols[keep]
        data[run][~slot] = fresh.data[fresh.indptr[f0]:fresh.indptr[f1]]
        indices[run][~slot] = fresh.indices[fresh.indptr[f0]:fresh.indptr[f1]]
        m0, f0 = m1, f1
    nnz = indptr[-1]
    return sparse.csr_matrix((data[:nnz], indices[:nnz], indptr), shape=(stale.size,) * 2)


def _levels(domain: GridDomain, free: np.ndarray, base: list = None):
    """Each level's operator, Gershgorin ratio and prolongation, from the
    free-node Hessian down to the first level with at most `_COARSE_MAX`
    unknowns (yielded with P = None).  Every coarse row is a Galerkin
    product when `base` is None; otherwise each coarse level is spliced
    from the domain's level in `base`, and only its dirty rows are formed
    (see `_Multigrid`)."""
    A = _free_hessian(domain, free)
    # an M-matrix (off-diagonals <= 0): sum_j |a_ij| = 2 a_ii - sum_j a_ij
    ratio = float((2.0 - (A @ np.ones(A.shape[0])) / A.diagonal()).max())
    radius = 1  # of the fine stencil; every coarse operator couples nodes up to 2 apart
    Z = ~(domain.boundary_band | free)  # the dirty rows and removed unknowns of a level
    level = 0
    while A.shape[0] > _COARSE_MAX and free.size > 1:
        P = _Prolongation(free)
        if base is None:
            C = _galerkin(A, P, radius, P.coarse)
        else:
            base_at, base_C = base[level]
            dirty = _windows(Z, radius) & P.coarse
            Z = dirty | (base_at & ~P.coarse)
            C = _splice(base_C, base_at, P.coarse, dirty, _galerkin(A, P, radius, dirty))
        yield A, ratio, P
        A, ratio, free, radius, level = C, _gershgorin(C), P.coarse, 2, level + 1
    yield A, ratio, None


def _domain_levels(domain: GridDomain) -> list:
    """The coarse levels of the domain's own hierarchy, the one with no
    marked node, as (unknowns lattice, CSR) pairs; made at the first call
    and kept in `_DOMAIN_LEVELS` until the domain is dropped."""
    levels = _DOMAIN_LEVELS.get(domain)
    if levels is None:
        levels, at = [], None
        for A, _, P in _levels(domain, ~domain.boundary_band):
            if at is not None:
                levels.append((at, A))
            at = P.coarse if P is not None else None
        _DOMAIN_LEVELS[domain] = levels
    return levels


class _Multigrid:
    """One symmetric V-cycle: an SPD approximate inverse of the free-node
    Hessian of sum w |D+ u / h|^2.

    Every level is a CSR matrix: the finest is `_free_hessian`, and each
    next one the Galerkin operator P^T A P (`_galerkin`) with
    `_Prolongation`, down to the first level with at most `_COARSE_MAX`
    unknowns, which is inverted (`_coarse_inverse`).  Each level smooths
    with one damped Jacobi sweep before and one after the coarse
    correction; the damping 4 / (3 max_i sum_j |a_ij| / a_ii) keeps a sweep
    a contraction in the energy norm, and both sweeps are the same
    symmetric operator, so the V-cycle is symmetric.  No step of the cycle
    calls BLAS, so its bits do not depend on the BLAS thread count.

    The coarse levels are derived from the domain's hierarchy
    (`_domain_levels`), the one of the free set D with no node marked.  A
    mask with free set F within D removes unknowns and changes only the
    Galerkin rows that reach them:
    - level 0 is the domain's restricted to F, since `_free_hessian` puts
      every edge on the diagonal whatever holds the edge's other end.  It
      is assembled from F, which costs no more than filtering the domain's
      level 0, so the domain does not keep its largest level;
    - with Z the lattice set of level l's dirty rows and of the domain's
      level-l unknowns that the mask removed (Z = D \\ F on level 0), a row
      c of level l + 1 is dirty when its fine window 2c - 1 .. 2c + 2 along
      every axis, widened by the level's stencil radius (1 on level 0, 2
      below), meets Z.
    A clean row of P^T A P sums the products of the same entries of A and
    P as the domain's row, in the same order, and drops only the columns of
    coarse unknowns that the mask removed; a weight of P that the mask
    drops adds a zero to the parent's sum, which leaves it as it is.  So a
    clean row is the domain's row restricted to the mask's columns
    (`_splice`), and `_galerkin` forms the dirty rows alone.  Every level
    therefore equals the direct build's (`_levels` with no base), entry
    order and bits included.
    """

    def __init__(self, domain: GridDomain, free: np.ndarray):
        self.levels = []
        for A, ratio, P in _levels(domain, free, _domain_levels(domain)):
            if P is None:
                self.coarse = _coarse_inverse(A)
            else:
                self.levels.append((A, 4.0 / (3.0 * ratio) / A.diagonal(), P))

    def __call__(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.levels):
            return np.einsum("ij,j->i", self.coarse, b)
        A, smooth, P = self.levels[level]
        x = smooth * b
        x += P.prolong(self(P.restrict(b - A @ x), level + 1))
        r = A @ x
        x += np.multiply(smooth, np.subtract(b, r, out=r), out=r)
        return x


def _coarse_inverse(A: sparse.csr_matrix) -> np.ndarray:
    """The inverse of the coarsest level A, dense and exactly symmetric,
    applied by `_Multigrid` as one product in numpy's own loops.
    NumericalError when A is not positive definite (Cholesky fails)."""
    dense = A.toarray()
    try:
        np.linalg.cholesky(dense)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"the coarsest multigrid level ({A.shape[0]} unknowns) is not "
                             "positive definite") from exc
    inverse = np.linalg.inv(dense)
    return 0.5 * (inverse + inverse.T)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum a_i b_i in numpy's own loop: a threaded BLAS dot would add the
    products in an order that depends on its thread count."""
    return float(np.einsum("i,i->", a, b))


def _gap(g: np.ndarray, x: np.ndarray) -> float:
    """sum over free nodes of g x - min(0, g), with g the energy gradient at
    free values x: E(x) minus the gap is a lower bound on the capacity.

    The minimizer lies in [0, 1] (clipping to [0, 1] is 1-Lipschitz, so it
    never raises |D+ u|), and E is convex, so E(u*) >= E(x) + <g, u* - x>
    >= E(x) - <g, x> + sum min(0, g).
    """
    return _dot(g, x) - float(np.minimum(g, 0.0).sum())


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
        return CapacityResult(0.0, _read_only(domain, np.zeros(domain.shape)), 0, True,
                              "pcg-multigrid", 0.0)

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
        z_dot_g = _dot(z, g)
        if d is not None:
            # Polak-Ribiere+: beta = <z, r - r_prev> / <z_prev, r_prev>, r = -g
            beta = max(0.0, (z_dot_g - _dot(z, g_prev)) / z_dot_g_prev)
            d *= beta
            d += z
            slope = _dot(d, g)
        if d is None or slope >= 0.0:  # first, or no descent: restart
            d, slope = z, z_dot_g
        g_prev, z_dot_g_prev = g, z_dot_g
        # secant on the directional derivative, between 0 and the last step
        slope_t = _dot(gradient(trial(alpha)), d)
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
    return CapacityResult(e_u, _read_only(domain, u), it, converged, "pcg-multigrid", e_u - gap)


class CapacityCache:
    """Memoizes capacity solves by the orbit {M, swap(M)} of a mask M under
    the swap of the first two lattice axes.

    The swap leaves the domain and the energy unchanged (see the module
    docstring), so cap(M) = cap(swap(M)).  A miss solves the orbit's
    canonical member, the one with the smaller `SetMask.key()` bytes (M
    itself when M is symmetric), and stores it under its key; the other
    member is served the same value, bracket, iterations and convergence
    flag, with the minimizer's first two axes swapped in a read-only view.
    The canonical member depends on the orbit alone and every solve starts
    cold, so a cached value depends only on its mask, never on the order of
    earlier lookups, and its `[lower, value]` certifies both members.
    Cached results are shared objects; their minimizer arrays are read-only.

    `lookups`, `hits` (served without a solve, twins included), `solves`
    and `iterations` (summed over the solves) count this cache's work.
    """

    def __init__(self, spec: YoungSpec, domain: GridDomain):
        self.spec = spec
        self.domain = domain
        self._store = {}
        self.lookups = self.hits = self.solves = self.iterations = 0

    def capacity(self, mask: SetMask) -> CapacityResult:
        self.lookups += 1
        key = mask.key()
        res = self._store.get(key)
        if res is not None:
            self.hits += 1
            return res
        twin = SetMask(mask.domain, np.swapaxes(mask.mask, 0, 1))
        twin_key = twin.key()
        canonical = self._store.get(twin_key)
        if canonical is not None:
            self.hits += 1
        else:
            solved, solved_key = (twin, twin_key) if twin_key < key else (mask, key)
            canonical = capacity_variational(solved, self.spec, self.domain)
            self.solves += 1
            self.iterations += canonical.iterations
            self._store[solved_key] = canonical
            if solved is mask:
                return canonical
        # a view of the read-only minimizer, so read-only too
        swapped = GridFunction(self.domain, np.swapaxes(canonical.minimizer.values, 0, 1))
        res = replace(canonical, minimizer=swapped)
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

_RADIAL_TOL = 1e-12    # largest KKT residual, in logs, of a finished radial solve
_RADIAL_TRIALS = 100   # Newton trial points a radial solve may evaluate


def capacity_ball_radial(r: float, spec: YoungSpec, R: float, n: int,
                         nodes: int = 10_000) -> float:
    """Condenser capacity of B(0,r) in B(0,R) from the radial reduction.

    The exact minimum, up to rounding, of sum_i w_i Phi(s_i) over the slopes
    s_i >= 0 of a profile falling from 1 to 0 over `nodes` cells of width
    delta, with w_i = omega rho_i^(n-1) delta at the midpoints and
    delta sum s = 1.  The problem is convex, so the minimum has constant
    flux w_i Phi'(s_i) = lambda delta, in closed form for `power(p)`.  Other
    families start there and take Newton steps on (log s, log lambda), each
    cell's slope of log Phi' in log s a secant through its last two iterates
    (at least (p - 1) / 1000), halving a step until the largest residual
    drops, down to `_RADIAL_TOL`.  A `custom_table` raises
    ConfigurationError, since its log-linear interpolant is not convex; a
    non-finite value or `_RADIAL_TRIALS` spent raises NumericalError.
    """
    if not 0 < r < R:
        raise ConfigurationError("need 0 < r < R")
    if n not in (2, 3):
        raise ConfigurationError("dimension must be 2 or 3")
    if spec.family == "custom_table":
        raise ConfigurationError(f"{spec.tag}: the radial oracle needs a convex Phi, and a "
                                 "table's log-linear interpolant is not convex")
    omega = 2.0 * math.pi if n == 2 else 4.0 * math.pi  # |S^(n-1)|
    delta = (R - r) / nodes
    rho = np.linspace(r, R, nodes + 1)
    w = omega * (0.5 * (rho[:-1] + rho[1:])) ** (n - 1) * delta
    x = np.log(w.min() / w) / (spec.p - 1.0)  # log s for power(p), up to a constant
    if spec.family != "power":
        log_flux = np.log(w / delta)

        def residual(x, mu):  # s, log Phi'(s), the flux and constraint residuals, their max
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                s = np.exp(x)
                log_d = np.log(eval_phi_prime(spec, s))
                F, G = log_d + log_flux - mu, float(np.log(delta * s.sum()))
            return s, log_d, F, G, max(float(np.abs(F).max()), abs(G))

        mu, alpha, slope, trials = 0.0, 1.0, np.full(nodes, spec.p - 1.0), 0
        s, log_d, F, G, res = residual(x, mu)
        while not res <= _RADIAL_TOL:  # also while res is NaN
            if trials == _RADIAL_TRIALS:
                raise NumericalError(f"{spec.tag}: the radial solve stopped at residual "
                                     f"{res!r} after {trials} trial points")
            if alpha == 1.0:  # a new direction: slope dx - dmu = -F, s.dx / sum s = -G
                a = s / slope
                dmu = (float(np.dot(a, F)) - G * float(s.sum())) / float(a.sum())
                dx = (dmu - F) / slope
            trial, trials = residual(x + alpha * dx, mu + alpha * dmu), trials + 1
            if not trial[-1] < res:
                alpha *= 0.5
                continue
            step = alpha * dx
            with np.errstate(divide="ignore", invalid="ignore"):
                secant = np.maximum((trial[1] - log_d) / step, 1e-3 * (spec.p - 1.0))
            slope = np.where(np.abs(step) > 1e-10, secant, slope)  # a tiny move keeps its slope
            x, mu, alpha = x + step, mu + alpha * dmu, 1.0
            s, log_d, F, G, res = trial
    s = np.exp(x)
    s /= delta * s.sum()
    value = float(np.dot(w, eval_phi(spec, s)))
    if not math.isfinite(value):
        raise NumericalError(f"{spec.tag}: non-finite radial capacity {value}")
    return value


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
    _require_delta2_plus(spec)

    def integrand(s):
        return float(pair.phi_part(1.0 / s)) ** (-1.0 / (n - 1)) / s

    from scipy.integrate import quad  # loads about 200 modules, which no solve needs

    F, _ = quad(integrand, r, R, epsrel=1e-8, limit=200)
    return BallEstimate(F_value=F, estimate=F ** (1 - n))


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
    _require_delta2_plus(spec)
    if E.is_empty():
        return CapacityResult(0.0, _read_only(domain, np.zeros(domain.shape)), 0, True,
                              "riesz-dual", 0.0)
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
    return CapacityResult(value, _read_only(domain, dens), it, converged, "riesz-dual", lower)
