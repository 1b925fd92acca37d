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

The stop rule is a certificate: E(u) minus a dual value bounds
E(u) - E(u*).  The cheap one, `_gap`, is linear in the free gradient g;
once it is at most sqrt(tol) * E, the flux gap (`_EnergyWorkspace.flux_gap`,
after Prager & Synge, Quart. Appl. Math. 5, 1947; Repin, A Posteriori
Estimates for PDEs, 2008, ch. 3) equilibrates the flux of u with a
cumulative sum of g along the last axis, and is quadratic in g.  The solve
converges once the smaller is at most tol * E, or once no step lowers E in
floating point any more (stationary to machine precision).
`CapacityResult.lower` is E minus the smaller, the flux gap included at a
final iterate that did not pass; it is certified for every family, since
every Phi is convex (a `custom_table`'s interpolant too).  Every solve
starts from the indicator of its set, so a value depends only on the set.

For `power(2)` the energy sum w |D+ u / h|^2 is quadratic, and its Hessian
in the free values is the multigrid's finest level, so the solve is one
linear system, A x = -g0 from the indicator's gradient g0, solved by
linear CG with the same V-cycle as preconditioner (`_pcg`).  Its residual
r gives E and g = -r at every step without a lattice pass; once that
`_gap` passes sqrt(tol) * E, the lattice energy, gradient and flux gap at
the iterate confirm it, so `value` is the lattice energy and `lower`
certified as above.  The linear solve also stops, converged, at a step
whose decrease is below eps^2 E: E is u's squared energy norm, so the step
moves u by less than its rounding.  Every other family takes the
nonlinear loop.

Each solve builds one `_EnergyWorkspace`: preallocated C-contiguous
buffers on which the forward difference with zero extension
(`grid.forward_difference`) and its adjoint are each one contiguous
subtraction at the axis's flat offset plus one boundary slab
(`strongtype.rhs_energy` is its `energy` at u).  Its `energy` and `grad`
share one evaluation order, |D+ v| = sqrt(sum d^2) / h on the undivided
differences d, and a `grad` at the point `energy` just evaluated (the
point a line search accepts) starts from the differences and |D+ v| that
`energy` left; Phi and Phi' write into workspace buffers too (`out=` and `scratch=` of
`young.eval_phi` / `eval_phi_prime`), so an evaluation allocates no
lattice-sized array.  A `custom_table` is +inf past its last knot; when
that makes the initial energy infinite, a `NumericalError` names the
largest |D+ u| that energy pass left, before any gradient is evaluated.
Any other non-finite initial energy or gradient, or final value, raises
`NumericalError` too.

The preconditioner (`_Multigrid`), built once per solve, holds every level
as a CSR matrix: the free-node Hessian, assembled in one vectorized pass
over the lattice edges, and the Galerkin products below it, down to a
level of at most `_COARSE_MAX` (64) unknowns, kept as its dense inverse;
only the levels it smooths on get a Jacobi damping.  Sparse products
run in scipy's own loops (`_matvec`), dot products and that inverse's
product in numpy's (`np.einsum`), never in BLAS, so a solve's bits do not
depend on the BLAS thread count; in the Riesz solve only the `power(2)`
working set's Gram product and its solve still do.  Each
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
serves both with one result, which keeps no minimizer.  Other axis
permutations are not used: in 3-D, the radius sum is not bit-symmetric
under them.  Reflections are not used either, since forward differences
are not reflection-invariant.

The radial oracle (`capacity_ball_radial`) is the exact minimum of the
1-D discrete condenser problem, from its constant-flux condition.

The Riesz capacity (`riesz_capacity_variational`) is a problem on the
kernel A = |x - y|^(1-n) from the marked to the inside nodes.  A depends
on x - y alone, so each lattice domain keeps one table of it over signed
lattice offsets, and that table's spectrum, from its first Riesz solve
until the domain is dropped (`_riesz_table`): a row of A is gathered from
the table with one flat index per entry (`_riesz_kernel`), and A t, or
A^T mu, is one FFT convolution (`_riesz_potential`), so no solve forms A
whole.  It is solved through its Fenchel dual on one multiplier per
marked node; each iterate gives a dual lower bound and a feasible
density, and the solve stops once their gap is at most tol * value.  For
`power(2)` the dual is a quadratic program in A A^T, solved exactly by
an active set that starts at the boundary of the set, where the
multipliers live: it gathers the rows of A on the working set alone,
forms A A^T there, and checks the rest of the set with one potential per
solve, so a ball takes one solve and its bracket closes to rounding.
Every other family runs spectral projected gradient on those potentials
and `young.phi_prime_inverse`.
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
from scipy.sparse import _sparsetools

from .errors import ConfigurationError, NumericalError
from .grid import GridDomain, GridFunction, SetMask, backward_difference, forward_difference
from .young import (YoungSpec, check_delta2, check_delta2_plus, eval_phi, eval_phi_prime, factored,
                    phi_prime_inverse)

_RATIO_FLOOR = 1e-12  # clamp for phi(g)/g at the 0/0 singularity
_EPS = float(np.finfo(float).eps)


@dataclass
class CapacityResult:
    value: float
    minimizer: GridFunction | None  # None in a result that `CapacityCache` serves
    iterations: int
    converged: bool
    method: str
    lower: float  # capacity >= lower, certified: every Phi is convex

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


class _EnergyWorkspace:
    """Energy sum w Phi(|D+ v|) and its gradient, on buffers kept for one solve.

    Holds one buffer per axis for the undivided differences d, two arrays
    for |D+ v| and Phi or Phi', the scratch pair that Phi and Phi' write
    their intermediates to, and the gradient, so an evaluation allocates no
    lattice-sized array.  All are C-contiguous, as the difference kernels
    require of `v` too.  |D+ v| = sqrt(sum d*d) / h is formed in one order
    for `energy` and `grad` (np.square gives the bits of d * d), and the
    gradient applies 1/h^2 once, in the flux w Phi'(g) / (g h^2).
    `energy(v)` leaves the differences and |D+ v| of v in their buffers
    (|D+ v| in `_s`), and a `grad(v)` of the same array next starts from
    them, with the same bits; the caller writes nothing into v between the
    two calls.
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
        self._left = None  # the array whose differences and |D+ v| the buffers hold

    def _gradient_norm(self, v: np.ndarray) -> np.ndarray:
        """|D+ v| in the s buffer, from the differences in each axis's own
        buffer."""
        self._left = None
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
        s = self._gradient_norm(v)
        phi = eval_phi(self.spec, s, out=self._t, scratch=self._scratch)
        value = float(np.sum(np.multiply(self.weights, phi, out=phi)))
        self._left = v
        return value

    def grad(self, v: np.ndarray) -> np.ndarray:
        """Gradient with respect to the node values, in a workspace buffer
        that the next `grad` call overwrites."""
        s = self._s if v is self._left else self._gradient_norm(v)
        self._left = None  # the flux overwrites s and each d below
        t, grad = self._t, self._grad
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

    def flux_gap(self, u: np.ndarray, g: np.ndarray, at: np.ndarray, starts: np.ndarray) -> float:
        """E(u) minus the dual value of an equilibrated flux: quadratic in the
        gradient g at the free nodes `at` (flat, increasing; runs along the
        last axis a begin at `starts`).  With q = D+ u / h, s0 = Phi'(|q|) and
        w = h^n, sigma = w s0 q / |q| has D+^T sigma = h g, and tau, h times
        the sum of g over the run up to each node, D+_a^T tau = -h g.  The gap
        is sum w [Phi*(s') - Phi*(s0)] - tau q_a, s' = |sigma + tau e_a| / w:
        closed-form for `power`, else at most t (s' - s0) at t = |q|
        (s'/s0)^(1/(p-1)) where one Phi' pass puts t past the root of Phi'(t)
        = s' (seen from s0), the `phi_prime_inverse` end elsewhere; plus 16
        eps times the terms' magnitudes.  Overwrites every buffer."""
        spec, h, m, p = self.spec, self.h, at.size, self.spec.p
        w = h ** len(self._diffs)
        s = self._gradient_norm(u)
        Q, A, T, S, X, Y, Z = (b.reshape(-1)[:m] for b in (
            self._grad, self._t, self._s, self._diffs[0], self._diffs[-1], *self._scratch))
        np.take(s.reshape(-1), at, out=Q, mode="clip")  # |q|; "clip" takes no buffer
        np.divide(np.take(self._diffs[-1].reshape(-1), at, out=A, mode="clip"), h, out=A)  # q_a
        np.copyto(T, g)
        T[starts[1:]] -= np.add.reduceat(g, starts)[:-1]  # each run's sum starts from 0
        np.multiply(np.cumsum(T, out=T), h, out=T)  # tau
        cross = float(np.multiply(T, A, out=X).sum())
        size = float(np.abs(X, out=X).sum())
        T /= w  # kappa
        S = eval_phi_prime(spec, Q, out=S, scratch=(Y, Z))  # s0
        # s'^2 = s0^2 + kappa (2 sigma_a / w + kappa), sigma_a / w = s0 q_a / |q|
        np.divide(np.multiply(A, S, out=A), np.maximum(Q, _RATIO_FLOOR, out=X), out=A)
        np.multiply(np.add(np.multiply(A, 2.0, out=A), T, out=A), T, out=A)
        np.sqrt(np.maximum(np.add(A, np.square(S, out=X), out=A), 0.0, out=A), out=A)
        if spec.family == "power":  # Phi*(y) = (p - 1) (y / p)^(p / (p - 1))
            hi, lo = (float(np.power(np.divide(b, p, out=b), p / (p - 1.0), out=b).sum())
                      for b in (A, S))
            gap, size = (p - 1.0) * w * (hi - lo) - cross, size + (p - 1.0) * w * (hi + lo)
        else:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                t = np.multiply(np.power(np.divide(A, S, out=T), 1.0 / (p - 1.0), out=T), Q, out=T)
                d = eval_phi_prime(spec, t, out=X, scratch=(Y, Z))
                np.multiply(np.subtract(d, A, out=d), np.subtract(A, S, out=Y), out=d)  # Y: s' - s0
                miss = np.flatnonzero(~(d >= 0.0))
            if miss.size:
                t_lo, t_hi = phi_prime_inverse(spec, A[miss], Q[miss])
                t[miss] = np.where(Y[miss] > 0.0, t_hi, t_lo)
            gap = w * float(np.multiply(t, Y, out=Y).sum()) - cross
            size += w * float(np.multiply(t, np.add(A, S, out=X), out=X).sum())
        return gap + 16.0 * _EPS * size


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
    2^n entries (a dropped weight is a zero on the parent), for storing P
    or building P^T A P block by block.  A P with at most `_STORED_ENTRIES`
    entries is kept whole as CSR (`matrix`).  A larger one is never stored:
    `prolong` (P x) then interpolates axis by axis from the coarse lattice,
    with zeros at the coarse nodes outside the unknowns, and `restrict`
    (P^T y) is its adjoint, each axis one product with a 1-D transfer
    (`_transfers`); a weight on a coarse node off the lattice has no entry
    there.
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
            return _matvec(self.matrix, x)
        _, y, at, _, steps = self._transfers
        y[at] = x  # the other nodes stay zero
        y = steps[-1] @ y.reshape(self.coarse.shape[-1], -1)  # the last axis first
        y = np.ascontiguousarray(y.T)
        for T in steps[-2::-1]:
            y = T @ y.reshape(T.shape[1], -1)
        return y.reshape(-1)[self.fine_at]

    def restrict(self, r: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return _matvec(self.matrix, r, transpose=True)
        y, _, at, steps, _ = self._transfers
        y.reshape(-1)[self.fine_at] = r  # the other nodes stay zero
        for R in steps[:-1]:  # the first axis first: prolong's adjoint
            y = R @ y.reshape(R.shape[1], -1)
        return (steps[-1] @ y.reshape(-1, self.fine_shape[-1]).T).reshape(-1)[at]

    def rows(self, at: np.ndarray) -> sparse.csr_matrix:
        """The rows of P in the sorted index array `at`, in a CSR matrix of
        P's shape whose other rows are empty."""
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

    A stored P gives one product, (P^T)[rows] @ A @ P, from a CSR
    transpose made for it.  Otherwise (the 3-D finest level) A couples
    nodes at most `radius` apart along each axis, and the product is formed
    one block of coarse rows at a time (`P.blocks`), from the rows of P
    that the block's columns of P and their A-neighbours reach, so no
    product with all of A and no copy of A is held.  A row of P^T covers 4
    fine nodes along each axis, so a row of P^T A has at most
    (4 + 2 radius)^n entries; blocks are sized by that to about
    `_BLOCK_ENTRIES`.  Each row of the product is a sum over its own row of
    P^T alone, in the same order whichever block and which other rows of P
    it is formed with, so a row comes out the same, entry order included,
    whether it is formed alone, in a block or with every row.
    """
    rows = np.flatnonzero(dirty[P.coarse])
    if P.matrix is not None:
        return P.matrix.T.tocsr()[rows] @ A @ P.matrix
    block = _BLOCK_ENTRIES // (4 + 2 * radius) ** len(P.fine_shape)
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
    edges = sorted({0, *cuts.tolist(), indptr.size - 1})
    return zip(edges, edges[1:])


def _gershgorin(C: sparse.csr_matrix, diagonal: np.ndarray) -> float:
    """max_i sum_j |c_ij| / c_ii over the rows of C, each of which holds its
    positive diagonal c_ii = diagonal[i]; a run of rows at a time, so no
    copy of C's data is held."""
    ratio = 0.0
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
    """Each level's operator and prolongation, from the free-node Hessian
    down to the first level with at most `_COARSE_MAX` unknowns (yielded
    with P = None).  Every coarse row is a Galerkin product when `base` is
    None; otherwise each coarse level is spliced from the domain's level in
    `base`, and only its dirty rows are formed (see `_Multigrid`)."""
    A = _free_hessian(domain, free)
    radius = 1  # of the fine stencil; every coarse operator couples nodes up to 2 apart
    removed = ~(domain.boundary_band | free)  # the domain's unknowns of a level the mask removed
    dirty = None  # the rows of a level that differ from the domain's (none on level 0)
    level = 0
    while A.shape[0] > _COARSE_MAX:
        P = _Prolongation(free)
        if base is None:
            C = _galerkin(A, P, radius, P.coarse)
        else:
            base_at, base_C = base[level]
            reach = _windows(removed, radius)
            dirty = (reach if dirty is None else reach | _windows(dirty, 0)) & P.coarse
            removed = base_at & ~P.coarse
            C = _splice(base_C, base_at, P.coarse, dirty, _galerkin(A, P, radius, dirty))
        yield A, P
        A, free, radius, level = C, P.coarse, 2, level + 1
    yield A, None


def _domain_levels(domain: GridDomain) -> list:
    """The coarse levels of the domain's own hierarchy, the one with no
    marked node, as (unknowns lattice, CSR) pairs; made at the first call
    and kept in `_DOMAIN_LEVELS` until the domain is dropped."""
    levels = _DOMAIN_LEVELS.get(domain)
    if levels is None:
        levels, at = [], None
        for A, P in _levels(domain, ~domain.boundary_band):
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
    symmetric operator, so the V-cycle is symmetric.  It is formed here
    from the diagonal, taken once: by row sums on the finest level, an
    M-matrix, and by `_gershgorin` below (the two can differ in the last
    bit).  Its products with a
    level, a stored P and P^T call scipy's matvec loops directly
    (`_matvec`); no step of the cycle calls BLAS, so its bits do not
    depend on the BLAS thread count.

    The coarse levels are derived from the domain's hierarchy
    (`_domain_levels`), the one of the free set D with no node marked.  A
    mask with free set F within D removes unknowns and changes only the
    Galerkin rows that reach them:
    - level 0 is the domain's restricted to F, since `_free_hessian` puts
      every edge on the diagonal whatever holds the edge's other end.  It
      is assembled from F, which costs no more than filtering the domain's
      level 0, so the domain does not keep its largest level;
    - a row c of level l + 1 sums over the level-l rows in its fine window
      2c - 1 .. 2c + 2 along every axis (the support of its column of P),
      and each of those over the nodes its stencil reaches.  So it is dirty
      when that window holds a dirty row of level l (none on level 0), or
      the window widened by the level's stencil radius (1 on level 0, 2
      below) holds a domain's level-l unknown that the mask removed
      (D \\ F on level 0).
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
        for A, P in _levels(domain, free, _domain_levels(domain)):
            if P is None:
                self.coarse = _coarse_inverse(A)
                break
            diagonal = A.diagonal()
            if self.levels:
                ratio = _gershgorin(A, diagonal)
            else:  # an M-matrix (off-diagonals <= 0): sum_j |a_ij| = 2 a_ii - sum_j a_ij
                ratio = float((2.0 - (A @ np.ones(A.shape[0])) / diagonal).max())
            self.levels.append((A, 4.0 / (3.0 * ratio) / diagonal, P))
            del diagonal  # not held while `_levels` forms the next level
        self.hessian = self.levels[0][0] if self.levels else A  # the finest level

    def __call__(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.levels):
            return np.einsum("ij,j->i", self.coarse, b)
        A, smooth, P = self.levels[level]
        x = smooth * b
        x += P.prolong(self(P.restrict(b - _matvec(A, x)), level + 1))
        r = _matvec(A, x)
        x += np.multiply(smooth, np.subtract(b, r, out=r), out=r)
        return x


def _pcg(A: sparse.csr_matrix, precondition, b: np.ndarray):
    """Linear conjugate gradients on A x = b from x = 0, A SPD and
    `precondition` an SPD approximate inverse of it (a `_Multigrid`).

    Yields x, the recurred residual r = b - A x and the step's decrease of
    x'Ax / 2 - b'x after every step, updating x and r in place.  A step
    with no positive curvature <p, A p> (p = 0 once r is) moves nothing and
    yields a decrease of 0, at which the caller stops.  Products run in
    `_matvec` and `_dot`, so no step calls BLAS.
    """
    x, r = np.zeros_like(b), b.copy()
    z = precondition(r)
    rz = _dot(r, z)
    p = z
    while True:
        q = _matvec(A, p)
        curvature = _dot(p, q)
        alpha = rz / curvature if curvature > 0.0 else 0.0
        x += alpha * p
        r -= alpha * q
        yield x, r, 0.5 * alpha * rz
        z = precondition(r)
        rz, rz_prev = _dot(r, z), rz
        p = z + (rz / rz_prev) * p


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


def _matvec(M: sparse.csr_matrix, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """M x, or M^T x, in the loop that scipy's own `M @ x` (or `M.T @ x`,
    whose CSC arrays are M's) ends in, so the bits are the same, without
    the wrapper's checks and dispatch.  TypeError unless M's two index
    arrays share one dtype and x is contiguous float64, which that loop
    needs."""
    if M.indptr.dtype != M.indices.dtype or x.dtype != np.float64 or not x.flags.c_contiguous:
        raise TypeError("_matvec needs one index dtype and a contiguous float64 vector")
    (rows, cols), kernel = ((M.shape[::-1], _sparsetools.csc_matvec) if transpose
                            else (M.shape, _sparsetools.csr_matvec))
    y = np.zeros(rows)
    kernel(rows, cols, M.indptr, M.indices, M.data, x, y)  # adds M x (M^T x) to y
    return y


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum a_i b_i in numpy's own loop: a threaded BLAS dot would add the
    products in an order that depends on its thread count."""
    return float(np.einsum("i,i->", a, b))


def _gap(g: np.ndarray, x: np.ndarray) -> float:
    """sum over free nodes of g x - min(0, g), with g the energy gradient at
    free values x: E(x) minus the gap is a lower bound on the capacity.

    The minimizer lies in [0, 1] (clipping to [0, 1] is 1-Lipschitz, so it
    never raises |D+ u|), and E is convex, so E(u*) >= E(x) + <g, u* - x>
    >= E(x) - <g, x> + sum min(0, g).  Linear in g, where the error is
    quadratic: the solve's cheap trigger for `_EnergyWorkspace.flux_gap`.
    """
    return _dot(g, x) - float(np.minimum(g, 0.0).sum())


def capacity_variational(E: SetMask, spec: YoungSpec, domain: GridDomain = None,
                         tol: float = 1e-8, max_iter: int = 100_000) -> CapacityResult:
    """Capacity of a node set: minimal Phi-energy over admissible functions.

    Converged when the certificate (`_gap`, or the flux gap where smaller)
    falls to tol * value, or when no step strictly lowers the energy any
    more (stationary to machine precision); not converged after `max_iter`
    iterations.  `lower` = value - certificate either way.  `power(2)`,
    whose energy is quadratic, is solved by linear CG (method
    "linear-pcg-multigrid"), every other family by nonlinear CG
    ("pcg-multigrid"); see the module docstring.
    """
    if domain is None:
        domain = E.domain
    elif domain is not E.domain:
        raise ValueError("mask and domain do not match")
    _require_delta2(spec)
    quadratic = spec.family == "power" and spec.p == 2.0
    method = "linear-pcg-multigrid" if quadratic else "pcg-multigrid"

    if E.is_empty():
        return CapacityResult(0.0, GridFunction(domain, np.zeros(domain.shape)), 0, True,
                              method, 0.0)

    free = ~(E.mask | domain.boundary_band)
    at = np.flatnonzero(free)
    u = np.where(E.mask, 1.0, 0.0)
    work = _EnergyWorkspace(domain, spec)
    e_u = work.energy(u)
    if spec.family == "custom_table" and not math.isfinite(e_u):
        # Phi is +inf past the last knot; the energy pass left |D+ u| in s
        g_max, t_last = float(work._s.max()), spec.table[-1][0]
        if g_max > t_last:
            raise NumericalError(
                f"{spec.tag}: the initial lattice gradient reaches {g_max!r}, "
                f"past the table's last knot {t_last!r}")
    g = work.grad(u)
    if not (math.isfinite(e_u) and np.isfinite(g).all()):
        raise NumericalError(
            f"{spec.tag}: non-finite initial energy {e_u} or gradient; "
            "the lattice gradients leave the range where Phi is finite")

    def gradient(v):
        return work.grad(v).reshape(-1)[at]

    starts = np.flatnonzero(np.diff(at, prepend=-2) != 1)  # runs of free nodes along the last axis
    trigger = math.sqrt(max(tol, 0.0))

    def certificate(v, g, x, e):  # `_gap`, or the flux gap where smaller once `_gap` <= sqrt(tol) e
        gap = _gap(g, x)
        return min(gap, work.flux_gap(v, g, at, starts)) if gap <= trigger * e else gap

    g = g.reshape(-1)[at]
    x = u.reshape(-1)[at]  # the free values; held nodes keep 1 (marked) and 0 (band)
    gap = certificate(u, g, x, e_u)
    converged = gap <= tol * e_u
    it = 0
    precondition = _Multigrid(domain, free)
    if quadratic and not converged:
        # E(u + x) = e0 + <g0, x> + x'Ax / 2 in the free values x (0 at the
        # indicator u), with A the multigrid's finest level: the minimizer
        # solves A x = -g0, and E and its gradient g0 + A x = -r follow from
        # the residual r
        steps = _pcg(precondition.hessian, precondition, -g)
        e0, g0 = e_u, g
        while not converged and it < max_iter:
            x, r, drop = next(steps)
            it += 1
            g_x = np.negative(r)
            e_x = e0 + 0.5 * _dot(g0 + g_x, x)
            # E is u's squared energy norm, so a step of decrease below
            # eps^2 E moves u by less than its rounding in that norm
            stationary = not drop > _EPS * _EPS * e_x
            if stationary or _gap(g_x, x) <= trigger * e_x or it == max_iter:
                # value and certificate from the lattice energy at x itself
                u.reshape(-1)[at] = x
                e_u, g = work.energy(u), gradient(u)
                gap = certificate(u, g, x, e_u)
                converged = stationary or gap <= tol * e_u
    else:
        def trial(alpha):
            v.reshape(-1)[at] = np.add(x, np.multiply(alpha, d, out=step), out=step)
            return v

        v = u.copy()  # trial point: the same held values, free ones rewritten
        step = np.empty_like(x)
        d, alpha = None, 1.0
        while not converged and it < max_iter:
            it += 1
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
            with np.errstate(invalid="ignore"):  # an inf flux past a table's last knot
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
                gap = certificate(u, g, x, e_u)
                converged = gap <= tol * e_u
            else:
                converged = True  # no step lowers E: stationary to machine precision

    if not math.isfinite(e_u):
        raise NumericalError(f"{spec.tag}: non-finite capacity energy {e_u}")
    if not gap <= tol * e_u:  # stationary or out of iterations: the tightest bracket at hand
        gap = min(gap, work.flux_gap(u, g, at, starts))
    return CapacityResult(e_u, GridFunction(domain, u), it, converged, method, e_u - gap)


class CapacityCache:
    """Memoizes capacity solves by the orbit {M, swap(M)} of a mask M under
    the swap of the first two lattice axes.

    The swap leaves the domain and the energy unchanged (see the module
    docstring), so cap(M) = cap(swap(M)).  A miss solves the orbit's
    canonical member, the one with the smaller `SetMask.key()` bytes (M
    itself when M is symmetric), and keeps its certificate, the result with
    `minimizer=None` (its readers sum values and brackets), under both
    members' keys, so both are served one object.  The canonical member
    depends on the orbit alone and every solve starts cold, so a cached
    value depends only on its mask, never on the order of earlier lookups,
    and its `[lower, value]` certifies both members.

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
        solved = twin if twin_key < key else mask
        res = replace(capacity_variational(solved, self.spec, self.domain), minimizer=None)
        self.solves += 1
        self.iterations += res.iterations
        self._store[key] = self._store[twin_key] = res
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
_RADIAL_CELLS = 10_000  # uniform cells of a radial profile on [r, R]


def capacity_ball_radial(r: float, spec: YoungSpec, R: float, n: int) -> float:
    """Condenser capacity of B(0,r) in B(0,R) from the radial reduction.

    The exact minimum, up to rounding, of sum_i w_i Phi(s_i) over the slopes
    s_i >= 0 of a profile falling from 1 to 0 over `_RADIAL_CELLS` cells of
    width delta, with w_i = omega rho_i^(n-1) delta at the midpoints and
    delta sum s = 1.  The problem is convex, so the minimum has constant
    flux w_i Phi'(s_i) = lambda delta, in closed form for `power(p)`.  Other
    families (a `custom_table` with its p = 2) start there and take Newton
    steps on (log s, log lambda), each cell's slope of log Phi' in log s a
    secant through its last two iterates (at least (p - 1) / 1000), halving
    a step until the largest residual drops, down to `_RADIAL_TOL`.  A
    non-finite value or `_RADIAL_TRIALS` spent raises NumericalError.
    """
    if not 0 < r < R:
        raise ConfigurationError("need 0 < r < R")
    if n not in (2, 3):
        raise ConfigurationError("dimension must be 2 or 3")
    omega = 2.0 * math.pi if n == 2 else 4.0 * math.pi  # |S^(n-1)|
    delta = (R - r) / _RADIAL_CELLS
    rho = np.linspace(r, R, _RADIAL_CELLS + 1)
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

        mu, alpha, slope, trials = 0.0, 1.0, np.full(w.size, spec.p - 1.0), 0
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
    factorization exponent equals the dimension.  It is taken in x = log s,
    where the integrand is smooth at every scale, by 16-node Gauss-Legendre
    on ceil(log(R/r)) equal panels; for `power(n)`, F = log(R/r) to rounding.
    """
    if not 0 < r < R / 2:
        raise ConfigurationError("estimate needs 0 < r < R/2")
    pair = factored(spec)
    if pair.p != n:
        raise ConfigurationError(
            f"factorization exponent {pair.p} must equal the dimension {n}")
    _require_delta2_plus(spec)

    # the rule on [-1, 1], formed here: at import its LAPACK call adds about
    # 1 MB to the peak memory of every run
    nodes, weights = np.polynomial.legendre.leggauss(16)
    a, b = math.log(r), math.log(R)
    edges = np.linspace(a, b, math.ceil(b - a) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x = edges[:-1, None] + half * (1.0 + nodes)
    with np.errstate(over="ignore"):  # a phi(1/s) past the float range adds 0
        f = pair.phi_part(np.exp(-x)) ** (-1.0 / (n - 1))
    F = float(np.sum(half * weights * f))
    return BallEstimate(F_value=F, estimate=F ** (1 - n))


# ---------------------------------------------------------------------------
# Riesz capacity via the discretized kernel
# ---------------------------------------------------------------------------

_MAX_CONSTRAINT_NODES = 4096  # rows of the power(2) working set's dense A_F
_KERNEL_ENTRIES = 1 << 16  # entries of the Riesz kernel gathered at once
_NONMONOTONE = 10         # past dual values the Armijo test takes the max of
_ARMIJO = 1e-4            # sufficient-decrease fraction of the projected slope
_ALPHA_MIN, _ALPHA_MAX = 1e-30, 1e30  # Barzilai-Borwein step safeguards
# each lattice domain's `_RieszTable`, made at its first Riesz solve, dropped with it
_RIESZ_TABLES = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class _RieszTable:
    values: np.ndarray    # the kernel over signed offsets, flat
    steps: np.ndarray     # flat step of each lattice axis in `values`
    inside: np.ndarray    # flat index of each inside node, less the centre's
    spectrum: np.ndarray  # rfftn of the offset table, zero-padded to 2m per axis


def _kernel_diagonal(n: int, h: float) -> float:
    """Cell average of |y|^(1-n) over one grid cell.

    Exact for the square cell in 2-D; equal-measure ball average in 3-D.
    The O(h) quadrature error washes out of two-sided comparisons.
    """
    if n == 2:
        return 4.0 * math.log(1.0 + math.sqrt(2.0)) / h
    rho = h * (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
    return 4.0 * math.pi * rho / h ** 3


def _riesz_table(domain: GridDomain) -> _RieszTable:
    """The domain's Riesz kernel over signed lattice offsets; made at its
    first Riesz solve and kept in `_RIESZ_TABLES` until the domain is
    dropped.

    The kernel depends on x - y alone: the table over (|k_1|, ..., |k_n|),
    mirrored to the signed offsets k in (-m, m) per axis, with
    `_kernel_diagonal` at k = 0.  Its spectrum is taken at length 2m per
    axis, at least the 2m - 1 that keeps a circular convolution from
    wrapping into the m central outputs, and a length as fast as m itself.
    """
    tab = _RIESZ_TABLES.get(domain)
    if tab is None:
        n, h = domain.n, domain.h
        hn = h ** n
        sq = np.ix_(*[np.square(np.arange(m) * h) for m in domain.shape])
        with np.errstate(divide="ignore"):
            table = np.sqrt(functools.reduce(np.add, sq)) ** (1 - n) * hn
        table.flat[0] = _kernel_diagonal(n, h) * hn
        table = table[np.ix_(*[np.abs(np.arange(1 - m, m)) for m in domain.shape])]
        steps = np.array(table.strides) // table.itemsize
        inside = np.argwhere(domain.inside) @ steps - (np.array(table.shape) // 2) @ steps
        spectrum = np.fft.rfftn(table, [2 * m for m in domain.shape], range(n))
        tab = _RIESZ_TABLES[domain] = _RieszTable(table.ravel(), steps, inside, spectrum)
    return tab


def _riesz_kernel(domain: GridDomain, E: SetMask, rows: np.ndarray) -> np.ndarray:
    """Rows `rows` of the Riesz kernel A[j, i] = |x_j - y_i|^(1-n) h^n from
    marked nodes x_j to inside nodes y_i, with the cell average
    `_kernel_diagonal` at x_j = y_i.

    They are gathered, a block of rows at a time, from the domain's table
    over signed offsets (`_riesz_table`): the entry at x_j - y_i has the flat
    index a_j - b_i, with a_j the flat index of x_j and b_i that of y_i less
    the centre's, so each entry costs one subtraction and one lookup.
    """
    tab = _riesz_table(domain)
    marked = np.argwhere(E.mask)[rows] @ tab.steps
    A = np.empty((len(marked), len(tab.inside)))
    step = max(1, _KERNEL_ENTRIES // len(tab.inside))
    for r0 in range(0, len(marked), step):
        block = marked[r0:r0 + step]
        # every index lies in the table, so mode="clip" clips none; it also
        # writes straight into A, where the default mode buffers the output
        np.take(tab.values, block[:, None] - tab.inside, out=A[r0:r0 + len(block)],
                mode="clip")
    return A


def _riesz_potential(domain: GridDomain, source: np.ndarray, density: np.ndarray,
                     target: np.ndarray) -> np.ndarray:
    """The potential of `density` on the lattice mask `source`, read on the
    mask `target`: A t from the inside to the marked nodes, and A^T mu the
    other way, since the kernel is even.

    The density is scattered onto a zero lattice, and it and the kernel table
    are transformed at length 2m per axis: the product's inverse holds the
    linear convolution at x + m - 1 for every lattice node x.  The inverse
    makes `np.fft.irfftn`'s calls in its order, the complex inverse along
    each axis but the last and then the real one along the last, and keeps
    only those m rows of an axis once it is transformed, with irfftn's bits.
    pocketfft runs it in one thread, so it does not depend on the BLAS
    thread count.
    """
    tab = _riesz_table(domain)
    lattice = np.zeros(domain.shape)
    lattice[source] = density
    conv = np.fft.rfftn(lattice, [2 * m for m in domain.shape], range(domain.n))
    conv *= tab.spectrum
    for axis, m in enumerate(domain.shape):
        inverse = np.fft.irfft if axis == domain.n - 1 else np.fft.ifft
        conv = inverse(conv, 2 * m, axis)[(slice(None),) * axis + (slice(m - 1, 2 * m - 1),)]
    return conv[target]


def _riesz_dual_qp(domain: GridDomain, E: SetMask, w: float, F: np.ndarray, tol: float,
                   max_iter: int) -> tuple[np.ndarray, float, int]:
    """The `power(2)` Riesz dual  min_{mu >= 0} mu^T Q mu / 2 - sum mu,  with
    Q = A A^T / (2w), over the marked nodes of E, by an active set from
    the working set F (Lawson & Hanson, Solving Least Squares Problems,
    1974, ch. 23, applied to the QP); returns the feasible density, the dual
    lower bound and the number of solves Q_FF mu_F = 1 (mu = 0 off F).
    A itself is never formed: `_riesz_kernel` gathers the rows A_F, and
    `_riesz_potential` gives A t at every marked node.  A_F, |F| x N_in, is
    dense, so |F| > `_MAX_CONSTRAINT_NODES` raises a `ConfigurationError`.

    A solve with a component <= 0 moves mu towards it as far as mu stays
    >= 0, and the components that reach 0 leave F; where that step is 0, the
    indices <= 0 that entered F this round leave.  A positive solve is the
    new mu, and every node whose potential A t, t = A^T mu / (2w), is below
    1 enters F.  phi strictly falls from one positive solve to the next, so
    no working set repeats.  F never empties: mu minimizes phi on the old F
    and each entered index has a negative gradient there, so the solve is
    positive at one of them.

    Any mu >= 0 certifies  sum mu - w |t|^2 <= cap <= w |t|^2 / min(A t)^2,
    the modular of the feasible density t / min(A t) (A > 0 entrywise), at
    mu or, while mu is still 0, at the last solve clipped at 0.
    """
    mu = np.zeros(E.count)
    it = 0
    while True:
        it += 1
        if len(F) > _MAX_CONSTRAINT_NODES:
            raise ConfigurationError(f"{len(F)} rows of A_F exceed the cap {_MAX_CONSTRAINT_NODES}")
        AF = _riesz_kernel(domain, E, F)
        z = np.linalg.solve(AF @ AF.T / (2.0 * w), np.ones(len(F)))
        bad = z <= 0.0
        if not bad.any():
            mu[F] = z
        elif it < max_iter:
            muF = mu[F]
            entered = muF == 0.0
            if (bad & entered).any():
                keep = ~(bad & entered)  # a step of length 0: mu stays
            else:
                ratio = muF[bad] / (muF[bad] - z[bad])
                k = ratio.argmin()
                muF += ratio[k] * (z - muF)
                keep = muF > 0.0
                keep[np.flatnonzero(bad)[k]] = False
                mu[F] = np.where(keep, muF, 0.0)
            F = F[keep]
            continue
        s = mu[F] if mu.any() else np.maximum(z, 0.0)
        t = AF.T @ s / (2.0 * w)
        At = _riesz_potential(domain, domain.inside, t, E.mask)
        m = float(At.min())
        tt = float(t @ t)
        lower = float(s.sum()) - w * tt
        value = w * tt / (m * m)
        violated = At < 1.0
        violated[F] = False
        if it >= max_iter or value - lower <= tol * value or not violated.any():
            return t / m, lower, it
        F = np.union1d(F, np.flatnonzero(violated))


def _riesz_dual_spg(domain: GridDomain, E: SetMask, w: float, spec: YoungSpec, tol: float,
                    max_iter: int) -> tuple[np.ndarray | None, float, int]:
    """The Riesz dual of every family but `power(2)` by spectral projected
    gradient: the best feasible density (None when no iterate had a finite
    modular), the best lower bound and the number of iterations.  phi(mu)
    is bounded above by  w (y . t - sum Phi(t_lo)) - sum mu,  from the
    bracket [t_lo, t] of `young.phi_prime_inverse` at y = A^T mu / w.  Its
    products run in `_riesz_potential` and `_dot`, so no step calls BLAS.
    """
    def dual(mu, t0):
        """The bound on phi(mu) and t at y = A^T mu / w, bracketed from t0."""
        y = _riesz_potential(domain, E.mask, mu, domain.inside) / w
        t_lo, t = phi_prime_inverse(spec, y, t0)
        return w * (_dot(y, t) - float(eval_phi(spec, t_lo).sum())) - float(mu.sum()), t

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
    count = E.count
    mu = np.ones(count)
    phi, t = dual(mu, None)
    mu *= (count / ((phi + count) * spec.p / (spec.p - 1.0))) ** (spec.p - 1.0)
    phi, t = dual(mu, t)
    At = _riesz_potential(domain, domain.inside, t, E.mask)
    g = At - 1.0
    history = collections.deque([phi], maxlen=_NONMONOTONE)
    value, best = math.inf, None
    lower = -phi
    alpha = float(mu.max() / np.abs(g).max())
    it = 0
    while True:
        m = At.min()  # t / m is feasible: A t / m >= 1
        v_new = w * float(eval_phi(spec, t / m).sum()) if m > 0.0 else math.inf
        if v_new < value:
            value, best = v_new, (t, m)
        if value - lower <= tol * value or it >= max_iter:
            break
        it += 1
        d = np.maximum(mu - alpha * g, 0.0) - mu
        slope = _dot(g, d)
        step = search(mu, phi, t, d, slope, max(history)) if slope < 0.0 else None
        if step is None:
            break  # stationary to machine precision
        mu_new, phi_new, t_new = step
        At = _riesz_potential(domain, domain.inside, t_new, E.mask)
        g_new = At - 1.0
        s, r = mu_new - mu, g_new - g
        sr = _dot(s, r)
        alpha = min(max(_dot(s, s) / sr, _ALPHA_MIN), _ALPHA_MAX) if sr > 0 else _ALPHA_MAX
        mu, phi, t, g = mu_new, phi_new, t_new, g_new
        history.append(phi)
        lower = max(lower, -phi)
    return (None if best is None else best[0] / best[1]), lower, it


def riesz_capacity_variational(E: SetMask, spec: YoungSpec,
                               domain: GridDomain = None,
                               tol: float = 1e-8,
                               max_iter: int = 10_000) -> CapacityResult:
    """Riesz capacity: minimal modular of densities whose potential covers E.

    The primal problem minimizes sum_i w Phi(f_i) over f >= 0 on the inside
    nodes, subject to (A f)_j >= 1 at every marked node (`_riesz_kernel`).
    The solve runs on its Fenchel dual over multipliers mu >= 0 on the
    marked nodes: minimize  phi(mu) = sum_i w Phi*((A^T mu)_i / w) - sum mu,
    whose gradient is A t - 1 with t = (Phi')^-1(A^T mu / w).  Every iterate
    certifies a bracket: by weak duality -phi(mu) <= cap, and the density
    t / min(A t) is feasible, so its modular bounds cap from above.  The
    solve converges once value - lower <= tol * value, and reports
    `converged=False` after `max_iter` iterations or when it stalls.

    For `power(2)`, Phi*(y) = y^2 / 4 and the dual is a quadratic program,
    solved exactly by an active set (`_riesz_dual_qp`) that starts at the
    boundary of E, the marked nodes with an unmarked lattice neighbour:
    A A^T is the logarithmic (2-D) or Newtonian (3-D) kernel, whose
    equilibrium measure lives on the outer boundary (Adams & Hedberg,
    Function Spaces and Potential Theory, 1996, ch. 2).  So a ball takes
    one solve, its bracket closes to rounding, and no Phi' is inverted;
    `iterations` counts the solves.

    Every other family runs projected Barzilai-Borwein steps with a
    nonmonotone Armijo search against the last `_NONMONOTONE` values
    (spectral projected gradient, Birgin, Martinez & Raydan, SIAM J. Optim.
    10, 2000; `_riesz_dual_spg`), and stops when no step lowers phi any
    more.  No path forms the N_E x N_in kernel: A t and A^T mu are FFT
    convolutions (`_riesz_potential`), and `power(2)` gathers the rows of
    its working set alone, at most `_MAX_CONSTRAINT_NODES` of them.
    """
    if domain is None:
        domain = E.domain
    elif domain is not E.domain:
        raise ValueError("mask and domain do not match")
    _require_delta2_plus(spec)
    if E.is_empty():
        return CapacityResult(0.0, GridFunction(domain, np.zeros(domain.shape)), 0, True,
                              "riesz-dual", 0.0)
    w = domain.h ** domain.n
    if spec.family == "power" and spec.p == 2.0:
        # marked nodes lie strictly inside the lattice (SetMask), so the
        # wrap-around of np.roll never reaches one
        inner = E.mask.copy()
        for ax in range(domain.n):
            inner &= np.roll(E.mask, 1, ax) & np.roll(E.mask, -1, ax)
        f, lower, it = _riesz_dual_qp(domain, E, w, np.flatnonzero(~inner[E.mask]), tol,
                                      max_iter)
    else:
        f, lower, it = _riesz_dual_spg(domain, E, w, spec, tol, max_iter)
    value = math.inf if f is None else w * float(eval_phi(spec, f).sum())
    if not math.isfinite(value):
        raise NumericalError(f"{spec.tag}: non-finite Riesz modular {value}")
    dens = np.zeros(domain.shape)
    dens[domain.inside] = f
    return CapacityResult(value, GridFunction(domain, dens), it, value - lower <= tol * value,
                          "riesz-dual", lower)
