"""Variational capacities on grid domains and their independent oracles.

The main solve minimizes the discrete energy  sum_x w(x) Phi(|D+ u(x)|)
over node values subject to the clamping projection u >= 1 on the marked
set and u = 0 on the boundary band.  The energy is convex (linear forward
differences composed with a convex increasing Phi), so projected descent
converges; Nesterov-style momentum with adaptive restart plus a
backtracking (halving) line search keeps the iteration count within the
run-time budget at the default resolutions.

Each solve builds one `_EnergyWorkspace`: preallocated C-contiguous
buffers on which the forward difference with zero extension
(`grid.forward_difference`, the one used by `grid.gradient` too) and its
adjoint are each one contiguous subtraction at the axis's flat offset plus
one boundary slab, without `np.diff` temporaries or strided passes.  Its `energy` and `grad` keep
two different evaluation orders (raw differences for the energy,
differences divided by h for the gradient), because each reproduces the
rounding of the formulas the solver was tuned with and so keeps every
iterate, iteration count and cached value unchanged bit for bit.  Phi and
Phi' write into workspace buffers too (`out=` and `scratch=` of
`young.eval_phi` / `eval_phi_prime`), so an energy or gradient evaluation
allocates no lattice-sized array.  `grad` skips Phi unless the energy is
asked for; the descent loop asks once.  A `custom_table` whose last knot
lies below the initial iterate's largest lattice gradient raises
`NumericalError` before Phi is evaluated there; so does any other
non-finite initial energy or gradient, or final value.  These checks run
once per solve, not per iteration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solveh_banded

from .errors import ConfigurationError, NumericalError
from .grid import (GridDomain, GridFunction, SetMask, backward_difference, ball_mask,
                   forward_difference)
from .young import YoungSpec, check_delta2, check_delta2_plus, eval_phi, eval_phi_prime, factored

_RATIO_FLOOR = 1e-12  # clamp for phi(g)/g at the 0/0 singularity


@dataclass
class CapacityResult:
    value: float
    minimizer: GridFunction
    iterations: int
    final_rel_decrease: float
    converged: bool
    method: str

    def summary(self) -> dict:
        return {"value": self.value, "iterations": self.iterations,
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

    Holds one difference buffer per axis, two arrays for |D+ v| and Phi or
    Phi', the scratch pair that Phi and Phi' write their intermediates to,
    and the gradient, so an evaluation allocates no lattice-sized array.
    All are C-contiguous, as the difference kernels require of `v` too.
    Squares are taken by np.square, which gives the bits of d * d.  The two
    entry points keep two different evaluation orders on purpose; they
    round differently, and keeping each one keeps the descent iterates
    unchanged bit for bit:

    - `energy` takes sqrt(sum d*d) / h on the undivided differences d;
    - `grad` divides each d by h first, then forms (w * Phi'(g) / g) * d and
      takes its backward difference divided by h.
    """

    def __init__(self, domain: GridDomain, spec: YoungSpec):
        self.spec = spec
        self.h = domain.h
        self.weights = domain.weights
        self._diffs = [np.empty(domain.shape) for _ in range(domain.n)]
        self._s = np.empty(domain.shape)
        self._t = np.empty(domain.shape)
        self._scratch = np.empty((2,) + domain.shape)
        self._grad = np.empty(domain.shape)

    def _weighted_phi_sum(self, g: np.ndarray) -> float:
        phi = eval_phi(self.spec, g, out=self._t, scratch=self._scratch)
        return float(np.sum(np.multiply(self.weights, phi, out=phi)))

    def energy(self, v: np.ndarray) -> float:
        s, t = self._s, self._t
        for a in range(len(self._diffs)):
            d = s if a == 0 else t
            forward_difference(v, a, d)
            np.square(d, out=d)
            if a:
                s += t
        np.sqrt(s, out=s)
        s /= self.h
        return self._weighted_phi_sum(s)

    def _gradient_norm(self, v: np.ndarray) -> np.ndarray:
        """|D+ v| in the gradient's order, in the s buffer; the per-axis
        buffers keep the differences divided by h."""
        s, t, h = self._s, self._t, self.h
        for a, d in enumerate(self._diffs):
            forward_difference(v, a, d)
            d /= h
            np.square(d, out=s if a == 0 else t)
            if a:
                s += t
        return np.sqrt(s, out=s)

    def max_gradient(self, v: np.ndarray) -> float:
        """Largest |D+ v|, the argument `grad(v)` would give Phi and Phi'."""
        return float(self._gradient_norm(v).max())

    def grad(self, v: np.ndarray, with_energy: bool = False):
        """Gradient with respect to the node values; (energy, gradient) when
        `with_energy`, else the gradient alone, without evaluating Phi.

        The gradient is a workspace buffer: the next `grad` call overwrites it.
        """
        s, t, h, grad = self._gradient_norm(v), self._t, self.h, self._grad
        energy = self._weighted_phi_sum(s) if with_energy else None
        np.maximum(s, _RATIO_FLOOR, out=s)
        ratio = eval_phi_prime(self.spec, s, out=t, scratch=self._scratch)
        ratio /= s
        ratio = np.multiply(self.weights, ratio, out=s)  # frees t for the loop
        for a, d in enumerate(self._diffs):
            np.multiply(ratio, d, out=d)
            backward_difference(d, a, t)
            t /= h
            if a:
                grad -= t
            else:
                np.subtract(0.0, t, out=grad)
        return (energy, grad) if with_energy else grad


def _step(x: np.ndarray, alpha: float, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x - alpha * g, written into `out` (which must not be x)."""
    np.multiply(alpha, g, out=out)
    return np.subtract(x, out, out=out)


def capacity_variational(E: SetMask, spec: YoungSpec, domain: GridDomain = None,
                         tol: float = 1e-8, window: int = 50,
                         max_iter: int = 100_000,
                         warm_start: np.ndarray = None) -> CapacityResult:
    """Capacity of a node set: minimal Phi-energy over admissible functions."""
    if domain is None:
        domain = E.domain
    elif domain is not E.domain:
        raise ValueError("mask and domain do not match")
    _require_delta2(spec)

    if E.is_empty():
        u = GridFunction(domain, np.zeros(domain.shape))
        return CapacityResult(0.0, u, 0, 0.0, True, "projected-descent")

    mask = E.mask
    band = domain.boundary_band

    def project(v):
        v[band] = 0.0
        np.maximum(v, 1.0, where=mask, out=v)
        return v

    if warm_start is not None and warm_start.shape == domain.shape:
        u = project(warm_start.astype(float, order="C", copy=True))
    else:
        u = project(np.where(mask, 1.0, 0.0))

    work = _EnergyWorkspace(domain, spec)
    if spec.family == "custom_table":
        # Phi is +inf past the last knot: fail before evaluating it there
        g_max, t_last = work.max_gradient(u), spec.table[-1][0]
        if g_max > t_last:
            raise NumericalError(
                f"{spec.tag}: the initial lattice gradient reaches {g_max!r}, "
                f"past the table's last knot {t_last!r}")
    e_u, g = work.grad(u, with_energy=True)
    if not (math.isfinite(e_u) and np.isfinite(g).all()):
        raise NumericalError(
            f"{spec.tag}: non-finite initial energy {e_u} or gradient; "
            "the lattice gradients leave the range where Phi is finite")
    history = [e_u]
    alpha = domain.h ** (2 - domain.n) / 8.0
    # u, u_prev, y and the trial point v occupy four buffers that the loop
    # rotates, so an iteration allocates no lattice-sized array
    y, u_prev, v = u.copy(), u.copy(), np.empty_like(u)
    t_k = 1.0
    streak = 0
    converged = False
    it = 0
    while it < max_iter:
        it += 1
        v = project(_step(y, alpha, g, out=v))
        e_v = work.energy(v)
        if e_v <= e_u:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
            # y = v + beta * (v - u_prev), in that rounding order
            np.subtract(v, u_prev, out=y)
            np.multiply((t_k - 1.0) / t_next, y, out=y)
            np.add(v, y, out=y)
            u_prev, u, v = u, v, u_prev
            e_u, t_k = e_v, t_next
            streak += 1
            if streak >= 10:
                alpha *= 1.5
                streak = 0
        else:
            # momentum overshoot or step too long: restart at the incumbent
            t_k = 1.0
            streak = 0
            g_u = work.grad(u)
            accepted = False
            while alpha > 1e-30:
                v = project(_step(u, alpha, g_u, out=v))
                e_v = work.energy(v)
                if e_v <= e_u:
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                converged = True  # stationary to machine precision
                break
            u_prev, u, v = u, v, u_prev
            e_u = e_v
            np.copyto(y, u)
        history.append(e_u)
        if len(history) > window:
            drop = history[-window - 1] - history[-1]
            if drop < tol * max(history[-1], 1e-300):
                converged = True
                break
        g = work.grad(y)

    u = project(u.copy())
    value = work.energy(u)
    if not math.isfinite(value):
        raise NumericalError(f"{spec.tag}: non-finite capacity energy {value}")
    final_drop = 0.0
    if len(history) > window:
        final_drop = (history[-window - 1] - history[-1]) / max(history[-1], 1e-300)
    gf = GridFunction(domain, u)
    gf.values.flags.writeable = False
    return CapacityResult(value, gf, it, final_drop, converged, "projected-descent")


class CapacityCache:
    """Memoizes capacity solves by mask content; warm-starts along chains.

    Level sets of one function are nested, so the previous minimizer is an
    excellent initial iterate for the next solve.  Cached results are
    shared objects; their minimizer arrays are read-only.
    """

    def __init__(self, spec: YoungSpec, domain: GridDomain, **solver_kw):
        self.spec = spec
        self.domain = domain
        self.solver_kw = solver_kw
        self._store = {}
        self._last = None

    def capacity(self, mask: SetMask) -> CapacityResult:
        key = mask.key()
        hit = self._store.get(key)
        if hit is not None:
            return hit
        warm = None if self._last is None else self._last.copy()
        res = capacity_variational(mask, self.spec, self.domain,
                                   warm_start=warm, **self.solver_kw)
        self._store[key] = res
        if not mask.is_empty():
            self._last = res.minimizer.values
        return res

    def ball(self, r: float, center=None) -> CapacityResult:
        return self.capacity(ball_mask(self.domain, r, center))


# ---------------------------------------------------------------------------
# 1-D radial oracle
# ---------------------------------------------------------------------------

def _sphere_area(n: int) -> float:
    return 2.0 * math.pi if n == 2 else 4.0 * math.pi


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
    omega = _sphere_area(n)
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


def _kernel_diagonal(n: int, h: float) -> float:
    """Cell average of |y|^(1-n) over one grid cell.

    Exact for the square cell in 2-D; equal-measure ball average in 3-D.
    The O(h) quadrature error washes out of two-sided comparisons.
    """
    if n == 2:
        return 4.0 * math.log(1.0 + math.sqrt(2.0)) / h
    rho = h * (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
    return 4.0 * math.pi * rho / h ** 3


def riesz_capacity_variational(E: SetMask, spec: YoungSpec,
                               domain: GridDomain = None,
                               feas_tol: float = 1e-6,
                               max_outer: int = 60,
                               inner_iter: int = 600) -> CapacityResult:
    """Riesz capacity: minimal modular of densities whose potential covers E.

    Minimizes sum_i w_i Phi(f_i) over f >= 0 supported on the ball, subject
    to (K f)_j >= 1 at every marked node, where K is the |y|^(1-n) kernel
    with a cell-averaged diagonal.  Augmented-Lagrangian outer loop with
    projected accelerated descent inside; the returned density is rescaled
    so the constraint holds exactly.
    """
    if domain is None:
        domain = E.domain
    elif domain is not E.domain:
        raise ValueError("mask and domain do not match")
    if not _delta2_plus_ok(spec):
        raise ConfigurationError(f"{spec.tag} fails the delta2+ condition")
    if E.is_empty():
        u = GridFunction(domain, np.zeros(domain.shape))
        return CapacityResult(0.0, u, 0, 0.0, True, "riesz-al")
    if E.count > _MAX_CONSTRAINT_NODES:
        raise ConfigurationError(
            f"{E.count} constraint nodes exceed the dense-kernel cap "
            f"{_MAX_CONSTRAINT_NODES}")

    inside = domain.inside
    coords = np.stack(np.meshgrid(*domain.axes, indexing="ij"))
    pts_in = coords[:, inside].T          # (N_in, n)
    pts_e = coords[:, E.mask].T           # (N_e, n)
    h = domain.h
    hn = h ** domain.n
    dist = np.sqrt(((pts_e[:, None, :] - pts_in[None, :, :]) ** 2).sum(axis=2))
    with np.errstate(divide="ignore"):
        A = dist ** (1 - domain.n) * hn
    A[dist == 0.0] = _kernel_diagonal(domain.n, h) * hn

    w = np.full(pts_in.shape[0], hn)

    def objective(fv):
        # extend below zero by the constant Phi(0) = 0; smooth since the
        # density vanishes at 0, and momentum points may dip negative
        return float(np.sum(w * eval_phi(spec, np.maximum(fv, 0.0))))

    rho = 1.0 / max(objective(np.ones_like(w)), 1e-12)
    mu = np.zeros(pts_e.shape[0])

    ones_pot = A @ np.ones_like(w)
    f = np.ones_like(w) / max(ones_pot.min(), 1e-12)

    alpha = 1.0
    total_inner = 0
    converged = False
    prev_viol = math.inf
    for _ in range(max_outer):

        def al_value_grad(fv, need_grad=True):
            c = 1.0 - A @ fv
            active = np.maximum(0.0, mu / rho + c)
            val = (objective(fv) + 0.5 * rho * np.sum(active ** 2)
                   - np.sum(mu ** 2) / (2.0 * rho))
            if not need_grad:
                return val, None
            grad = (w * eval_phi_prime(spec, np.maximum(fv, 0.0))
                    - rho * (A.T @ active))
            return val, grad

        e_f, g = al_value_grad(f)
        y = f
        f_prev = f
        t_k = 1.0
        hist = [e_f]
        for _ in range(inner_iter):
            total_inner += 1
            v = np.maximum(y - alpha * g, 0.0)
            e_v, _ = al_value_grad(v, need_grad=False)
            if e_v <= e_f:
                t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
                y = v + ((t_k - 1.0) / t_next) * (v - f_prev)
                f_prev, f, e_f, t_k = f, v, e_v, t_next
            else:
                t_k = 1.0
                _, g_f = al_value_grad(f)
                accepted = False
                while alpha > 1e-30:
                    v = np.maximum(f - alpha * g_f, 0.0)
                    e_v, _ = al_value_grad(v, need_grad=False)
                    if e_v <= e_f:
                        accepted = True
                        break
                    alpha *= 0.5
                if not accepted:
                    break
                f_prev, f, e_f = f, v, e_v
                y = f
            hist.append(e_f)
            if len(hist) > 10 and hist[-11] - hist[-1] < 1e-10 * max(abs(e_f), 1e-300):
                break
            _, g = al_value_grad(y)

        c = 1.0 - A @ f
        viol = float(np.maximum(c, 0.0).max())
        mu = np.maximum(0.0, mu + rho * c)
        if viol <= 0.5 * feas_tol:
            converged = True
            break
        if viol > 0.25 * prev_viol:
            rho *= 4.0
        prev_viol = viol

    pot = A @ f
    m = pot.min()
    if m < 1.0 and m > 0.0:
        f = f / m
    value = objective(f)
    dens = np.zeros(domain.shape)
    dens[inside] = f
    gf = GridFunction(domain, dens)
    gf.values.flags.writeable = False
    return CapacityResult(value, gf, total_inner, 0.0, converged, "riesz-al")
