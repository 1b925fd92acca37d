import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import cholesky, solve_triangular
from scipy.optimize import brentq, nnls
from scipy.sparse.linalg import spsolve

from orlicap import (
    CapacityCache,
    ConfigurationError,
    NumericalError,
    ball_capacity_estimate,
    ball_mask,
    build_domain,
    capacity_ball_radial,
    capacity_variational,
    custom_table,
    exp_log,
    exp_loglog,
    from_callable,
    integrate,
    power,
    power_log,
    riesz_capacity_variational,
)
from orlicap.averages import _nearest_node
from orlicap.capacity import (_BLOCK_ENTRIES, _DOMAIN_LEVELS, _RATIO_FLOOR, _EnergyWorkspace,
                              _coarse_inverse, _domain_levels, _galerkin, _gershgorin, _levels,
                              _matvec, _Multigrid, _pattern_pairs, _Prolongation,
                              _kernel_diagonal, _riesz_dual_qp, _riesz_kernel, _riesz_potential,
                              _windows)
from orlicap.grid import GridFunction, SetMask, level_mask
from orlicap.strongtype import (SHAPES, TestFunctionSpec, build_test_function, derived_psi,
                                lhs_dyadic, rhs_energy)
from orlicap.young import eval_phi, eval_phi_prime, factored, phi_prime_inverse


@pytest.fixture(scope="module")
def disc():
    return build_domain(2, 1.0, 128)


@pytest.fixture(scope="module")
def disc64():
    return build_domain(2, 1.0, 64)


def condenser_2d(r, R=1.0):
    return 2.0 * math.pi / math.log(R / r)


def test_empty_set_has_zero_capacity(disc):
    empty = SetMask(disc, np.zeros(disc.shape, dtype=bool))
    res = capacity_variational(empty, power(2), disc)
    assert res.value == 0.0
    assert res.minimizer.max_abs() == 0.0
    assert res.converged


def test_condenser_against_closed_form(disc):
    res = capacity_variational(ball_mask(disc, 0.25), power(2), disc)
    assert res.converged
    assert res.value == pytest.approx(condenser_2d(0.25), rel=0.05)


def test_capacity_requires_doubling(disc):
    t = np.geomspace(1e-8, 600, 4000)
    bad = custom_table(np.column_stack([t, np.expm1(t)]))
    with pytest.raises(ConfigurationError):
        capacity_variational(ball_mask(disc, 0.25), bad, disc)


def test_monotone_under_inclusion(disc64):
    spec = power(2)
    small = capacity_variational(ball_mask(disc64, 0.15), spec).value
    big = capacity_variational(ball_mask(disc64, 0.3), spec).value
    assert small <= big + 1e-6


def test_minimizer_is_feasible_and_certifies_value(disc64):
    spec = power_log(2, 1)
    E = ball_mask(disc64, 0.25)
    res = capacity_variational(E, spec)
    u = res.minimizer
    assert np.all(u.values[E.mask] >= 1.0 - 1e-9)
    assert np.all(u.values[disc64.boundary_band] == 0.0)
    recomputed = reference_energy_divided_first(u.values, disc64, spec)
    assert recomputed == pytest.approx(res.value, rel=1e-12)


def test_subadditive_on_separated_sets(disc64):
    spec = power(2)
    m1 = ball_mask(disc64, 0.12, center=(-0.4, 0.0))
    m2 = ball_mask(disc64, 0.12, center=(0.4, 0.0))
    union = SetMask(disc64, m1.mask | m2.mask)
    c1 = capacity_variational(m1, spec).value
    c2 = capacity_variational(m2, spec).value
    cu = capacity_variational(union, spec).value
    assert cu <= c1 + c2 + 2e-6
    assert cu >= max(c1, c2) - 1e-6


def test_cache_reuses_solves(disc64):
    cache = CapacityCache(power(2), disc64)
    a = cache.capacity(ball_mask(disc64, 0.2))
    b = cache.capacity(ball_mask(disc64, 0.2))
    assert a is b
    assert (cache.lookups, cache.hits, cache.solves, cache.iterations) == (2, 1, 1, a.iterations)


def test_cache_keeps_no_lattice_array(disc64):
    # a cached result is a certificate: value, bracket and counts, but no
    # minimizer, so eight solves leave less than two lattice arrays behind
    cache = CapacityCache(power_log(2, 1), disc64)
    cache.capacity(ball_mask(disc64, 0.2))  # warm-up: the domain's levels
    balls = [ball_mask(disc64, r, (x, 0.1)) for r in (0.15, 0.25) for x in (-0.3, -0.1, 0.1, 0.3)]
    gc.collect()
    tracemalloc.start()
    try:
        results = [cache.capacity(E) for E in balls]
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cache.solves == 9
    assert kept < 2 * disc64.radius.nbytes
    assert all(res.minimizer is None for res in results)


def test_fortran_ordered_inputs_solve_as_c_ordered(disc64):
    # a mask or a function in another memory order has the same key, so it
    # must give the C-ordered result, bit for bit, not a layout error
    spec = power_log(2, 1)
    E = ball_mask(disc64, 0.25, (0.1, -0.2))
    F = SetMask(disc64, np.asfortranarray(E.mask))
    assert F.key() == E.key()
    a, b = capacity_variational(E, spec, disc64), capacity_variational(F, spec, disc64)
    assert same_bits(a.minimizer.values, b.minimizer.values)
    assert (a.value, a.lower, a.iterations) == (b.value, b.lower, b.iterations)
    u = build_test_function(TestFunctionSpec("random_smooth"), disc64)
    psi = derived_psi(spec)
    c_rep = lhs_dyadic(u, spec, psi)
    v = GridFunction(disc64, np.asfortranarray(u.values))
    assert not v.values.flags.c_contiguous
    f_rep = lhs_dyadic(v, spec, psi)
    assert same_bits(np.float64(f_rep.lhs), np.float64(c_rep.lhs))
    assert [r.capacity for r in f_rep.levels] == [r.capacity for r in c_rep.levels]


# ---------------------------------------------------------------------------
# radial oracle
# ---------------------------------------------------------------------------

def test_radial_2d_quadratic():
    val = capacity_ball_radial(0.25, power(2), 1.0, 2)
    assert val == pytest.approx(condenser_2d(0.25), rel=0.005)


def test_radial_3d_quadratic():
    val = capacity_ball_radial(0.25, power(2), 1.0, 3)
    exact = 4.0 * math.pi / (1.0 / 0.25 - 1.0)
    assert val == pytest.approx(exact, rel=0.005)


def test_radial_blows_up_toward_outer_radius():
    near = capacity_ball_radial(0.9, power(2), 1.0, 2)
    assert near == pytest.approx(2 * math.pi / math.log(1 / 0.9), rel=0.005)
    assert near > 10.0 * capacity_ball_radial(0.25, power(2), 1.0, 2)


@pytest.mark.parametrize("spec", [power(2), power_log(2, 1)])
@pytest.mark.parametrize("r", [0.125, 0.25, 0.375])
def test_cross_oracle_grid_vs_radial(disc, spec, r):
    grid_val = capacity_variational(ball_mask(disc, r), spec, disc).value
    radial_val = capacity_ball_radial(r, spec, disc.R, disc.n)
    assert abs(grid_val - radial_val) / radial_val <= 0.05


def continuous_condenser(p, n, r, R=1.0):
    """p-capacity of B(0, r) in B(0, R) for Phi = t^p (Maz'ya, Sobolev
    Spaces, 2nd ed., 2011, ch. 2)."""
    omega = 2.0 * math.pi if n == 2 else 4.0 * math.pi
    if p == n:
        return omega * math.log(R / r) ** (1 - n)
    e = (p - n) / (p - 1)
    return omega * abs((n - p) / (p - 1)) ** (p - 1) * abs(R ** e - r ** e) ** (1 - p)


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 5.0])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r", [0.01, 0.25, 0.9])
def test_radial_power_matches_the_continuous_condenser(p, n, r):
    # the discrete minimum is a midpoint rule for int rho^(-(n-1)/(p-1));
    # its error peaks near 7e-5 at p = 1.2, n = 3, r = 0.01
    exact = continuous_condenser(p, n, r)
    assert abs(capacity_ball_radial(r, power(p), 1.0, n) - exact) <= 1e-4 * exact


# r = 0.25 in B(0, 1) on 10,000 cells, from the banded-Hessian descent that
# the constant-flux solve replaced; it stopped on a 1e-13 relative decrease,
# so it sits at or just above the discrete minimum
RADIAL_DESCENT = [
    (power_log(2, 1), 2, 6.46973234520581),
    (power_log(2, 1), 3, 6.3466390516889835),
    (power_log(3, 1), 2, 8.840134806455055),
    (power_log(3, 1), 3, 9.36094784521659),
    (exp_log(2, 0.5), 2, 15.004415543715929),
    (exp_log(2, 0.5), 3, 14.470271512224926),
    (exp_loglog(3, 2, 0.5), 2, 136.54514500787985),
    (exp_loglog(3, 2, 0.5), 3, 143.25720123757168),
]


@pytest.mark.parametrize("spec, n, descent", RADIAL_DESCENT,
                         ids=[f"{s.tag}-{n}d" for s, n, _ in RADIAL_DESCENT])
def test_radial_agrees_with_the_descent_it_replaced(spec, n, descent):
    val = capacity_ball_radial(0.25, spec, 1.0, n)
    assert abs(val - descent) <= 5e-12 * descent
    assert val <= descent * (1.0 + 1e-13)


def radial_dual(spec, r, n, R=1.0, nodes=10_000):
    """max over lambda of lambda - sum_i w_i Phi*(lambda delta / w_i), the
    Lagrange dual of the discrete radial problem, with Phi* bounded above by
    y t_hi - Phi(t_lo) from the bracket of `phi_prime_inverse`: a certified
    lower bound on its minimum."""
    omega = 2.0 * math.pi if n == 2 else 4.0 * math.pi
    delta = (R - r) / nodes
    rho = np.linspace(r, R, nodes + 1)
    w = omega * (0.5 * (rho[:-1] + rho[1:])) ** (n - 1) * delta

    def slopes(log_lam):
        return phi_prime_inverse(spec, math.exp(log_lam) * delta / w)

    def constraint(log_lam):  # log(delta sum s): increasing, 0 at the maximizer
        t_lo, t_hi = slopes(log_lam)
        return math.log(delta * float((t_lo + t_hi).sum()) / 2.0)

    log_lam = brentq(constraint, -50.0, 50.0, xtol=1e-14)
    t_lo, t_hi = slopes(log_lam)
    y = math.exp(log_lam) * delta / w
    return math.exp(log_lam) - float(np.dot(w, y * t_hi - eval_phi(spec, t_lo)))


@pytest.mark.parametrize("spec", [power(1.5), power(3), power_log(2, 1), power_log(3, 1),
                                  exp_log(2, 0.5), exp_loglog(3, 2, 0.5)],
                         ids=lambda s: s.tag)
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r", [0.01, 0.25])
def test_radial_value_meets_its_dual_bound(spec, n, r):
    val = capacity_ball_radial(r, spec, 1.0, n)
    gap = val - radial_dual(spec, r, n)
    assert -1e-14 * val <= gap <= 1e-12 * val


def test_radial_raises_once_its_trial_budget_is_spent(monkeypatch):
    monkeypatch.setattr("orlicap.capacity._RADIAL_TRIALS", 2)
    with pytest.raises(NumericalError, match="after 2 trial points"):
        capacity_ball_radial(0.25, power_log(2, 1), 1.0, 2)
    assert capacity_ball_radial(0.25, power(2), 1.0, 2) > 0  # the closed form takes none


def test_radial_refuses_a_table():
    t = np.linspace(0.0, 100.0, 201)
    with pytest.raises(ConfigurationError, match="not convex"):
        capacity_ball_radial(0.25, custom_table(np.column_stack([t, t ** 2])), 1.0, 2)


# ---------------------------------------------------------------------------
# closed-form ball estimate
# ---------------------------------------------------------------------------

def test_estimate_pure_power_log_integral():
    est = ball_capacity_estimate(0.25, power(2), 1.0, 2)
    assert est.F_value == pytest.approx(math.log(4.0), rel=1e-8)
    assert est.estimate == pytest.approx(1.0 / math.log(4.0), rel=1e-8)


def test_estimate_ratio_to_capacity_is_2pi(disc):
    est = ball_capacity_estimate(0.25, power(2), 1.0, 2)
    cap = capacity_variational(ball_mask(disc, 0.25), power(2), disc).value
    assert cap / est.estimate == pytest.approx(2.0 * math.pi, rel=0.05)


def test_estimate_monotone_in_radius():
    vals = [ball_capacity_estimate(r, power_log(2, 1), 1.0, 2).estimate
            for r in (0.05, 0.1, 0.2, 0.4)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_estimate_of_power_n_is_log_R_over_r_at_every_scale():
    # phi = 1, so F = log(R / r), down to radii far below any lattice
    for r in (0.25, 1e-2, 1e-8, 1e-32, 1e-64, 1e-128, 1e-300):
        F = ball_capacity_estimate(r, power(2), 1.0, 2).F_value
        assert abs(F - math.log(1.0 / r)) <= 1e-12 * math.log(1.0 / r)


def log_midpoint_F(spec, r, n, R=1.0, cells=2_000_000):
    """F(r) by the midpoint rule in x = log s on `cells` uniform cells."""
    phi_part = factored(spec).phi_part
    edges = np.linspace(math.log(r), math.log(R), cells + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return float(np.sum(phi_part(np.exp(-mid)) ** (-1.0 / (n - 1)))) * (edges[1] - edges[0])


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_estimate_integral_holds_at_a_tiny_radius(theta):
    # at r = 1e-64 an adaptive quadrature in s lost most of the integral
    # (78.39 for theta = 0.5 against 22.95); the rule in log s does not
    spec = power_log(2, theta)
    F = ball_capacity_estimate(1e-64, spec, 1.0, 2).F_value
    assert F == pytest.approx(log_midpoint_F(spec, 1e-64, 2), rel=1e-8)


def test_estimate_requires_matching_exponent():
    with pytest.raises(ConfigurationError):
        ball_capacity_estimate(0.25, power(3), 1.0, 2)
    with pytest.raises(ConfigurationError):
        ball_capacity_estimate(0.6, power(2), 1.0, 2)  # r >= R/2


# ---------------------------------------------------------------------------
# Riesz capacity
# ---------------------------------------------------------------------------

def test_riesz_empty(disc64):
    empty = SetMask(disc64, np.zeros(disc64.shape, dtype=bool))
    res = riesz_capacity_variational(empty, power(2), disc64)
    assert res.value == 0.0
    assert res.lower == 0.0


def coordinate_kernel(domain, E):
    """The Riesz kernel from coordinate differences of the marked and the
    inside nodes, with the cell-averaged diagonal."""
    coords = np.stack(np.meshgrid(*domain.axes, indexing="ij"))
    pts_in = coords[:, domain.inside].T
    pts_e = coords[:, E.mask].T
    hn = domain.h ** domain.n
    dist = np.sqrt(((pts_e[:, None, :] - pts_in[None, :, :]) ** 2).sum(axis=2))
    with np.errstate(divide="ignore"):
        A = dist ** (1 - domain.n) * hn
    A[dist == 0.0] = _kernel_diagonal(domain.n, domain.h) * hn
    return A


@pytest.mark.parametrize("n, res, r, where", [
    pytest.param(2, 64, 0.3, None, id="2-64-0.3"),
    pytest.param(2, 32, 0.4, None, id="2-32-0.4"),
    pytest.param(3, 32, 0.3, None, id="3-32-0.3"),
    pytest.param(2, 64, 0.2, (0.3, -0.1), id="2-64-0.2-off-centre"),
    pytest.param(3, 32, 0.2, (0.3, -0.1, 0.05), id="3-32-0.2-off-centre"),
    pytest.param(2, 64, 0.6, "level", id="2-64-level-0.6"),
    pytest.param(3, 32, 0.6, "level", id="3-32-level-0.6"),
])
def test_riesz_kernel_table_is_bit_identical(n, res, r, where):
    # h = 2/res is a power of two here, so coordinate differences are exact.
    # Centred balls are symmetric about the origin, which can hide an error
    # in the signed offsets; an off-centre ball and a level set
    # {|u| > r max|u|} of random_smooth (not convex; in 3-D two pieces) are not
    dom = build_domain(n, 1.0, res)
    if where == "level":
        u = build_test_function(TestFunctionSpec("random_smooth"), dom)
        E = level_mask(u, r * u.max_abs())
    else:
        E = ball_mask(dom, r, where)
    table = _riesz_kernel(dom, E, np.arange(E.count))
    assert np.array_equal(table.view(np.int64), coordinate_kernel(dom, E).view(np.int64))


def annulus(domain):
    """B(0.4) minus B(0.25): a ring whose inner boundary carries no multiplier."""
    return SetMask(domain, ball_mask(domain, 0.4).mask & ~ball_mask(domain, 0.25).mask)


def riesz_test_mask(n, r, where):
    dom = build_domain(n, 1.0, 64 if n == 2 else 32)
    if where == "annulus":
        return annulus(dom)
    if where == "scattered":  # isolated nodes: many boundary multipliers are <= 0
        rng = np.random.default_rng(0)
        return SetMask(dom, ball_mask(dom, r).mask & (rng.random(dom.shape) < 0.3))
    if where == "level":
        u = build_test_function(TestFunctionSpec("random_smooth"), dom)
        return level_mask(u, r * u.max_abs())
    return ball_mask(dom, r, where)


RIESZ_POTENTIAL_SETS = [
    (2, 0.2, (0.3, -0.1), "2-64-off-centre"),
    (2, 0.6, "level", "2-64-level-0.6"),
    (3, 0.2, (0.3, -0.1, 0.05), "3-32-off-centre"),
    (3, 0.6, "level", "3-32-level-0.6"),
]


@pytest.mark.parametrize("n, r, where, transpose", [
    pytest.param(n, r, where, transpose, id=name + ("-transpose" if transpose else ""))
    for transpose in (False, True) for n, r, where, name in RIESZ_POTENTIAL_SETS
])
def test_riesz_potential_matches_the_coordinate_kernel(n, r, where, transpose):
    # the FFT convolution of a random density >= 0 against the dense product
    # of the independent kernel, on sets that are not symmetric: A t from
    # the inside to the marked nodes, and A^T mu from the marked to the inside
    E = riesz_test_mask(n, r, where)
    dom = E.domain
    A = coordinate_kernel(dom, E)
    rng = np.random.default_rng(0)
    if transpose:
        mu = rng.random(E.count)
        want, got = A.T @ mu, _riesz_potential(dom, E.mask, mu, dom.inside)
    else:
        t = rng.random(int(dom.inside.sum()))
        want, got = A @ t, _riesz_potential(dom, dom.inside, t, E.mask)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("spec", [power(2), power_log(2, 1), power(3)], ids=lambda s: s.tag)
def test_riesz_never_forms_the_full_kernel(spec):
    # the power(2) active set gathers the rows of its working set alone, and
    # every family takes A t (and spectral projected gradient A^T mu) from the
    # FFT, so the peak stays far below the N_E x N_in kernel
    dom = build_domain(2, 1.0, 64)
    E = ball_mask(dom, 0.4)
    kernel_bytes = 8 * E.count * int(dom.inside.sum())
    gc.collect()
    tracemalloc.start()
    try:
        res = riesz_capacity_variational(E, spec, dom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak < kernel_bytes / 4


@pytest.mark.parametrize("n, r, where", [
    pytest.param(2, 0.1, None, id="0.1"),
    pytest.param(2, 0.25, None, id="0.25"),
    pytest.param(2, 0.2, (0.3, -0.1), id="off-centre"),
    pytest.param(2, None, "annulus", id="annulus"),
    pytest.param(2, 0.5, "scattered", id="scattered"),
    pytest.param(2, 0.6, "level", id="level-0.6"),
    pytest.param(3, 0.2, None, id="3-32-0.2"),
])
def test_riesz_power2_brackets_the_dual_qp_oracle(n, r, where):
    # For power(2), Phi*(y) = y^2 / 4, so the dual is the QP
    # min_{mu >= 0} mu^T Q mu / 2 - 1^T mu with Q = A A^T / (2w); with Q = L L^T
    # it is the least-squares problem |L^T mu - L^-1 1| over mu >= 0
    E = riesz_test_mask(n, r, where)
    dom = E.domain
    A = coordinate_kernel(dom, E)
    w = dom.h ** n
    Q = A @ A.T / (2.0 * w)
    L = cholesky(Q, lower=True)
    mu, _ = nnls(L.T, solve_triangular(L, np.ones(E.count), lower=True))
    oracle = mu.sum() - 0.5 * mu @ Q @ mu
    res = riesz_capacity_variational(E, power(2), dom)
    assert res.converged
    slack = 1e-12 * oracle  # rounding of the oracle's own sums
    assert res.lower - slack <= oracle <= res.value + slack
    # the active set solves the QP exactly: its bracket closes to rounding
    assert (res.value - res.lower) / res.value <= 1e-12
    assert (A @ res.minimizer.values[dom.inside]).min() >= 1.0 - 1e-12
    if where is None or isinstance(where, tuple):  # a ball: its boundary is the support
        assert res.iterations == 1


def test_riesz_power2_annulus_has_the_capacity_of_its_ball(disc64):
    # the multipliers of B(0.4) live on its outer ring, which the annulus keeps
    ball = riesz_capacity_variational(ball_mask(disc64, 0.4), power(2), disc64)
    ring = riesz_capacity_variational(annulus(disc64), power(2), disc64)
    assert ring.value == pytest.approx(ball.value, rel=1e-12)


@pytest.mark.parametrize("start", ["interior", "centre", "all"])
def test_riesz_dual_qp_reaches_the_optimum_from_any_working_set(disc64, start):
    # from the boundary of a ball the first solve is optimal; from elsewhere
    # the active set must add violated nodes, step back and drop, and it
    # reaches the same optimum (from the interior it does all three)
    E = ball_mask(disc64, 0.1)
    A = _riesz_kernel(disc64, E, np.arange(E.count))
    w = disc64.h ** 2
    inner = E.mask.copy()
    for ax in range(2):
        inner &= np.roll(E.mask, 1, ax) & np.roll(E.mask, -1, ax)
    F = {"interior": np.flatnonzero(inner[E.mask]), "centre": np.array([E.count // 2]),
         "all": np.arange(E.count)}[start]
    f, lower, it = _riesz_dual_qp(disc64, E, w, F, 1e-8, 100)
    value = w * float(f @ f)
    assert (value - lower) / value <= 1e-12
    assert it > 1
    res = riesz_capacity_variational(E, power(2), disc64)
    assert value == pytest.approx(res.value, rel=1e-12)
    assert (A @ f).min() >= 1.0 - 1e-12


@pytest.mark.parametrize("spec, n", [
    pytest.param(power_log(2, 1), 2, id="power_log"),
    pytest.param(exp_loglog(3, 2, 0.5), 2, id="exp_loglog"),
    pytest.param(power(3), 3, id="power-3-32"),  # the paper's case n = p
])
def test_riesz_other_families_certify_and_grow(disc64, spec, n):
    dom = disc64 if n == 2 else build_domain(3, 1.0, 32)
    prev = 0.0
    for r in (0.1, 0.2, 0.3):
        res = riesz_capacity_variational(ball_mask(dom, r), spec, dom)
        assert res.converged
        assert 0.0 < res.lower <= res.value
        assert (res.value - res.lower) / res.value <= 1e-8
        assert res.value > prev
        prev = res.value


def test_riesz_power2_never_inverts_phi_prime(disc64, monkeypatch):
    # power(2) solves its dual as a quadratic program: nothing inverts Phi',
    # and the result still certifies its bracket
    def refuse(*args, **kwargs):
        raise AssertionError("phi_prime_inverse called")

    monkeypatch.setattr("orlicap.capacity.phi_prime_inverse", refuse)
    res = riesz_capacity_variational(ball_mask(disc64, 0.25), power(2), disc64)
    assert res.converged
    assert 0.0 < res.lower <= res.value
    assert (res.value - res.lower) / res.value <= 1e-8
    with pytest.raises(AssertionError, match="phi_prime_inverse"):
        riesz_capacity_variational(ball_mask(disc64, 0.25), power_log(2, 1), disc64)


def test_riesz_nonconvergence_keeps_a_bracket(disc64):
    # spectral projected gradient stopped after 3 iterations
    res = riesz_capacity_variational(ball_mask(disc64, 0.25), power_log(2, 1), disc64, max_iter=3)
    assert not res.converged
    assert res.iterations == 3
    assert res.lower == pytest.approx(0.05900, rel=1e-4)
    assert res.value == pytest.approx(0.06459, rel=1e-4)
    # the power(2) active set stopped after its first solve on the annulus,
    # whose inner ring still carries multipliers <= 0 there; the bracket is
    # certified at that solve clipped at 0
    E = annulus(disc64)
    res = riesz_capacity_variational(E, power(2), disc64, max_iter=1)
    assert not res.converged
    assert res.iterations == 1
    assert res.lower == pytest.approx(0.070175, rel=1e-5)
    assert res.value == pytest.approx(0.070508, rel=1e-5)
    cap = riesz_capacity_variational(E, power(2), disc64).value
    assert res.lower <= cap <= res.value


def test_riesz_monotone_and_feasible(disc64):
    spec = power(2)
    small = riesz_capacity_variational(ball_mask(disc64, 0.1), spec)
    big = riesz_capacity_variational(ball_mask(disc64, 0.3), spec)
    assert small.converged and big.converged
    assert small.value <= big.value
    assert np.all(small.minimizer.values >= 0.0)
    E = ball_mask(disc64, 0.1)
    potential = coordinate_kernel(disc64, E) @ small.minimizer.values[disc64.inside]
    assert potential.min() >= 1.0 - 1e-12


def test_riesz_solves_a_set_of_more_than_4096_nodes():
    # B(0.6) at 128^2 has 4,628 nodes; no path forms its kernel, so it solves:
    # power(2) in one active-set solve to rounding, power_log within tol
    dom = build_domain(2, 1.0, 128)
    E = ball_mask(dom, 0.6)
    assert E.count > 4096
    quad = riesz_capacity_variational(E, power(2), dom)
    assert quad.converged and quad.iterations == 1
    assert 0.0 < quad.lower <= quad.value
    assert (quad.value - quad.lower) / quad.value <= 1e-12
    spg = riesz_capacity_variational(E, power_log(2, 1), dom)
    assert spg.converged
    assert 0.0 < spg.lower <= spg.value
    assert (spg.value - spg.lower) / spg.value <= 1e-8


def test_riesz_working_set_cap(monkeypatch):
    # the power(2) working set's rows A_F are the one dense array left: a
    # set whose isolated nodes all enter it exceeds a lowered cap
    E = riesz_test_mask(2, 0.5, "scattered")
    monkeypatch.setattr("orlicap.capacity._MAX_CONSTRAINT_NODES", E.count // 2)
    with pytest.raises(ConfigurationError, match="rows of A_F"):
        riesz_capacity_variational(E, power(2), E.domain)


def test_riesz_comparable_band(disc64):
    spec = power(2)
    ratios = []
    for r in (0.1, 0.2, 0.3, 0.4):
        rz = riesz_capacity_variational(ball_mask(disc64, r), spec).value
        cv = capacity_variational(ball_mask(disc64, r), spec).value
        ratios.append(rz / cv)
    assert max(ratios) / min(ratios) <= 6.0


@pytest.mark.parametrize("n, res", [(2, 128), (3, 32)], ids=["2-128", "3-32"])
def test_riesz_equivalence_band_at_128_and_in_3d(n, res):
    # acceptance criterion 7's comparison, on a finer lattice and in 3-D
    dom = build_domain(n, 1.0, res)
    ratios = []
    for r in (0.1, 0.2, 0.3, 0.4):
        rz = riesz_capacity_variational(ball_mask(dom, r), power(2), dom)
        cv = capacity_variational(ball_mask(dom, r), power(2), dom)
        assert rz.converged and cv.converged
        ratios.append(rz.value / cv.value)
    assert max(ratios) / min(ratios) <= 6.0


def test_nonconvergence_is_flagged(disc64):
    for spec in (power(2), power_log(2, 1)):  # the linear and the nonlinear solve
        res = capacity_variational(ball_mask(disc64, 0.25), spec, disc64,
                                   max_iter=3)
        assert not res.converged and res.iterations == 3
        assert res.lower < res.value
        # the reported value is still the energy of a feasible iterate
        assert res.value >= condenser_2d(0.25) * 0.9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_energy_raises(disc64):
    # the lattice gradients of the indicator (up to sqrt(2)/h = 45.25) leave
    # the table; the solve stops before Phi is evaluated there, so numpy
    # warns of nothing
    t = np.geomspace(1e-8, 10, 200)
    table = custom_table(np.column_stack([t, t ** 2]))
    with pytest.raises(NumericalError,
                       match=r"reaches 45\.2548\d*, past the table's last knot 10\.0"):
        capacity_variational(ball_mask(disc64, 0.25), table, disc64)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_table_covering_the_gradients_solves(disc64):
    # the same Phi = t^2, tabulated past the largest lattice gradient
    t = np.geomspace(1e-8, 100, 400)
    table = custom_table(np.column_stack([t, t ** 2]))
    E = ball_mask(disc64, 0.25)
    res = capacity_variational(E, table, disc64)
    assert res.converged
    assert res.value == pytest.approx(capacity_variational(E, power(2), disc64).value,
                                      rel=1e-3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_secant_trial_past_the_last_knot_solves():
    # Phi = t^3: the secant trial's gradient passes the table's last knot, an
    # inf flux times zero differences, which the descent takes as no secant
    dom = build_domain(2, 1.0, 32)
    t = np.geomspace(1e-8, 100, 400)
    res = capacity_variational(ball_mask(dom, 0.3), custom_table(np.column_stack([t, t ** 3])),
                               dom)
    assert res.converged and res.iterations == 16
    assert res.value == 7.7008139421233


# ---------------------------------------------------------------------------
# energy/gradient workspace against the np.diff formulas it replaced
# ---------------------------------------------------------------------------

def reference_energy(vals, domain, spec):
    h = domain.h
    g2 = np.zeros_like(vals)
    for a in range(domain.n):
        d = np.diff(vals, axis=a, append=0.0)
        g2 += d * d
    g = np.sqrt(g2) / h
    return float(np.sum(domain.weights * eval_phi(spec, g)))


def reference_energy_divided_first(vals, domain, spec):
    """sum w Phi(|grad u|), with every difference divided by h first; where
    h is a power of 2 it equals `reference_energy` bit for bit."""
    g = np.sqrt(np.sum(reference_gradient(vals, domain) ** 2, axis=0))
    return integrate(eval_phi(spec, g), domain)


def reference_grad_divided_first(vals, domain, spec):
    """The gradient with every difference divided by h first; where h is a
    power of 2 it equals `reference_grad` bit for bit."""
    h = domain.h
    diffs = [np.diff(vals, axis=a, append=0.0) / h for a in range(domain.n)]
    g = np.sqrt(sum(d * d for d in diffs))
    gt = np.maximum(g, _RATIO_FLOOR)
    ratio = eval_phi_prime(spec, gt) / gt
    grad = np.zeros_like(vals)
    for a, d in enumerate(diffs):
        flux = domain.weights * ratio * d
        grad -= np.diff(flux, axis=a, prepend=0.0) / h
    return grad


def reference_grad(vals, domain, spec):
    """The gradient in the energy's order: |D+ v| from the undivided
    differences, and 1/h^2 applied once, in the flux."""
    diffs = [np.diff(vals, axis=a, append=0.0) for a in range(domain.n)]
    g = np.sqrt(sum(d * d for d in diffs)) / domain.h
    gt = np.maximum(g, _RATIO_FLOOR)
    flux = (domain.weights / domain.h ** 2) * (eval_phi_prime(spec, gt) / gt)
    grad = np.zeros_like(vals)
    for a, d in enumerate(diffs):
        grad -= np.diff(flux * d, axis=a, prepend=0.0)
    return grad


def reference_gradient(vals, domain):
    return np.stack([np.diff(vals, axis=a, append=0.0) / domain.h
                     for a in range(domain.n)])


KERNEL_SPECS = [power(2), power_log(2, 1), exp_log(2, 0.5)]


# 48 nodes give h = 1/24, where dividing by h rounds, so that the two
# gradient orders differ; 64 and 32 give powers of 2, where they agree
@pytest.fixture(scope="module", params=[(2, 64), (3, 32), (2, 48)],
                ids=["2d-64", "3d-32", "2d-48"])
def lattice(request):
    return build_domain(request.param[0], 1.0, request.param[1])


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: s.family)
def test_workspace_matches_np_diff_bit_for_bit(lattice, spec):
    rng = np.random.default_rng(11)
    work = _EnergyWorkspace(lattice, spec)
    for scale in (0.5, 1.5):
        v = rng.uniform(-0.1, scale, lattice.shape)
        v[lattice.boundary_band] = 0.0
        assert work.energy(v) == reference_energy(v, lattice, spec)
        g = work.grad(v)
        assert np.array_equal(g, reference_grad(v, lattice, spec))
        if lattice.resolution != 48:
            assert np.array_equal(g, reference_grad_divided_first(v, lattice, spec))
        assert rhs_energy(GridFunction(lattice, v), spec) == reference_energy(v, lattice, spec)
        if lattice.resolution != 48:
            assert work.energy(v) == reference_energy_divided_first(v, lattice, spec)


@pytest.mark.parametrize("spec", [power(2), power_log(2, 1)], ids=lambda s: s.family)
def test_workspace_allocates_no_lattice_array(spec):
    lattice = build_domain(3, 1.0, 32)
    v = np.random.default_rng(5).uniform(0.0, 1.0, lattice.shape)
    v[lattice.boundary_band] = 0.0
    work = _EnergyWorkspace(lattice, spec)

    def evaluate():
        work.energy(v)
        work.grad(v)

    evaluate()  # warm-up
    tracemalloc.start()
    try:
        evaluate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < v.nbytes


def smooth_bump(domain, center, width):
    """C^2 bump supported in B(center, width), clear of the boundary band."""
    def fn(x):
        r2 = sum((xi - c) ** 2 for xi, c in zip(x, center)) / width ** 2
        return np.maximum(1.0 - r2, 0.0) ** 3
    vals = from_callable(domain, fn).values
    assert not vals[domain.boundary_band].any()
    return vals


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=lambda s: s.family)
def test_workspace_gradient_matches_central_difference(lattice, spec):
    n = lattice.n
    v = smooth_bump(lattice, (0.0,) * n, 0.6)
    w = smooth_bump(lattice, (0.15,) + (-0.1,) * (n - 1), 0.4)
    work = _EnergyWorkspace(lattice, spec)
    eps = 1e-5
    fd = (work.energy(v + eps * w) - work.energy(v - eps * w)) / (2.0 * eps)
    exact = float(np.sum(work.grad(v) * w))
    assert abs(fd - exact) <= 1e-5 * abs(exact)


# ---------------------------------------------------------------------------
# preconditioned CG engine
# ---------------------------------------------------------------------------

def quadratic_form(domain):
    """H with sum w |D+ u / h|^2 = u^T H u on the whole lattice, assembled
    from scipy.sparse difference matrices (zero extension), one Kronecker
    product per axis."""
    n = domain.resolution
    step = sparse.diags([-np.ones(n), np.ones(n - 1)], [0, 1])
    eye = sparse.identity(n)
    weights = sparse.diags(domain.weights.ravel())
    H = 0
    for a in range(domain.n):
        D = step if a == 0 else eye
        for b in range(1, domain.n):
            D = sparse.kron(D, step if b == a else eye)
        H = H + D.T @ weights @ D
    return H.tocsr() / domain.h ** 2


def quadratic_minimum(domain, mask):
    """Minimal sum w |D+ u / h|^2 with u = 1 on `mask`, 0 on the boundary
    band: the free-node linear system of `quadratic_form`, solved by
    spsolve."""
    H = quadratic_form(domain)
    free = ~(mask | domain.boundary_band).ravel()
    u = mask.ravel().astype(float)
    u[free] = spsolve(H[free][:, free].tocsc(), -(H[free][:, ~free] @ u[~free]))
    return float(u @ (H @ u))


def test_power2_matches_sparse_direct_solve(disc64):
    # the quadratic energy's linear solve, in 2-D and 3-D: its certified
    # bracket holds the direct solve's minimum and is tighter than tol = 1e-8
    for dom in (disc64, build_domain(3, 1.0, 32)):
        E = ball_mask(dom, 0.25)
        res = capacity_variational(E, power(2), dom)
        exact = quadratic_minimum(dom, E.mask)
        assert res.converged and res.method == "linear-pcg-multigrid"
        assert res.value == pytest.approx(exact, rel=1e-10)
        # both are energies of near-minimizers, each rounded at about 1e-16
        assert res.lower <= exact <= res.value * (1.0 + 1e-14)
        assert (res.value - res.lower) / res.value <= 1e-8


@pytest.fixture(scope="module", params=[(2, 64), (3, 32)], ids=["2d-64", "3d-32"])
def multigrid(request):
    dom = build_domain(request.param[0], 1.0, request.param[1])
    free = ~(ball_mask(dom, 0.3).mask | dom.boundary_band)
    return _Multigrid(dom, free), free, dom


def test_preconditioner_is_symmetric_positive_definite(multigrid):
    M, free, _ = multigrid
    assert M.levels  # at least one coarse level besides the inverted one
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((2, np.count_nonzero(free)))
    Ma, Mb = M(a), M(b)
    assert float(Ma @ b) == pytest.approx(float(a @ Mb), rel=1e-12)
    assert float(Ma @ a) > 0.0 and float(Mb @ b) > 0.0


def interpolation_1d(size):
    """Cell-centred linear interpolation from (size + 1) // 2 coarse cells:
    fine cell i takes 3/4 of coarse cell i // 2 and 1/4 of its neighbour on
    i's side, where there is one."""
    T = sparse.lil_matrix((size, (size + 1) // 2))
    for i in range(size):
        q = i // 2
        side = q - 1 if i % 2 == 0 else q + 1
        T[i, q] = 0.75
        if 0 <= side < T.shape[1]:
            T[i, side] = 0.25
    return T.tocsr()


def prolongation(free):
    """The multigrid's P: the tensor product of `interpolation_1d` on the
    whole lattices, restricted to the free rows and to the coarse cells that
    hold a free node's parent (a weight on any other coarse cell drops)."""
    T = interpolation_1d(free.shape[0])
    for size in free.shape[1:]:
        T = sparse.kron(T, interpolation_1d(size))
    coarse = np.zeros(tuple((s + 1) // 2 for s in free.shape), dtype=bool)
    coarse[tuple(x // 2 for x in np.nonzero(free))] = True
    return T.tocsr()[free.ravel()][:, coarse.ravel()].tocsr(), coarse


def test_levels_are_galerkin_products(multigrid):
    # every stored level against P^T A P built from independent
    # scipy.sparse.kron assemblies of the Hessian and of P
    M, free, dom = multigrid
    A = 2.0 * quadratic_form(dom)[free.ravel()][:, free.ravel()]
    rng = np.random.default_rng(4)
    assert M.hessian is M.levels[0][0]  # the system the linear solve runs on
    for stored, smooth, transfer in M.levels:
        assert abs(stored - A).max() <= 1e-12 * abs(A).max()
        # the damped Jacobi smoother 4 / (3 max_i sum_j |a_ij| / a_ii) / a_ii
        diagonal = stored.diagonal()
        ratio = (abs(stored).sum(axis=1).A1 / diagonal).max()
        assert np.allclose(smooth, 4.0 / (3.0 * ratio) / diagonal, rtol=1e-14, atol=0.0)
        P, free = prolongation(free)
        x, y = rng.standard_normal(P.shape[1]), rng.standard_normal(P.shape[0])
        assert np.allclose(transfer.prolong(x), P @ x, rtol=0.0,
                           atol=1e-12 * np.abs(P @ x).max())
        assert np.allclose(transfer.restrict(y), P.T @ y, rtol=0.0,
                           atol=1e-12 * np.abs(P.T @ y).max())
        A = (P.T @ A @ P).tocsr()
    # the coarsest level is inverted, exactly symmetric, and the V-cycle
    # applies that inverse on it
    assert 0 < A.shape[0] <= 64 and same_bits(M.coarse, M.coarse.T)
    b = rng.standard_normal(A.shape[0])
    assert np.allclose(A @ M(b, len(M.levels)), b, rtol=0.0, atol=1e-9 * np.abs(b).max())


def test_a_coarsest_level_that_is_not_positive_definite_raises():
    indefinite = sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NumericalError, match="not positive definite"):
        _coarse_inverse(indefinite)
    assert np.allclose(_coarse_inverse(sparse.csr_matrix(np.diag([2.0, 4.0]))),
                       np.diag([0.5, 0.25]))


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_multigrid_build_stays_within_the_old_peak():
    dom = build_domain(3, 1.0, 32)
    free = ~(ball_mask(dom, 0.3).mask | dom.boundary_band)
    A, _, P = _Multigrid(dom, free).levels[0]  # also the warm-up
    Q = P.rows(np.arange(P.shape[0]))
    build = traced_peak(lambda: _Multigrid(dom, free))
    # 4,989,930 B is this build's peak with the finest and first coarse
    # levels applied lazily (numpy 2.4.6, scipy 1.17.1): storing every
    # level may not cost more
    assert build <= 4_990_000
    # nor more than the first coarse level alone formed by whole products,
    # a reference measured with the same libraries
    assert build < traced_peak(lambda: (Q.T @ A) @ Q)


def test_cold_build_with_its_domain_hierarchy_stays_within_its_peak():
    # a fresh domain's first build also forms and keeps the domain's own
    # hierarchy; the warm-up builds on another domain
    warm = build_domain(3, 1.0, 32)
    free = ~(ball_mask(warm, 0.3).mask | warm.boundary_band)
    _Multigrid(warm, free)
    dom = build_domain(3, 1.0, 32)
    assert dom not in _DOMAIN_LEVELS
    build = traced_peak(lambda: _Multigrid(dom, free))
    # 6,557,475 B is the largest peak measured for this build when the
    # domain hierarchy came in (6.54-6.56 MB over runs; numpy 2.4.6,
    # scipy 1.17.1)
    assert build <= 6_560_000
    assert dom in _DOMAIN_LEVELS


def test_domain_hierarchy_forms_no_smoother(monkeypatch):
    # the domain's levels are only spliced from, never smoothed with, so a
    # fresh domain's hierarchy takes no Gershgorin bound; a mask's V-cycle
    # takes one on each coarse level it smooths
    calls = []

    def counted(C, diagonal):
        calls.append(C.shape[0])
        return _gershgorin(C, diagonal)

    monkeypatch.setattr("orlicap.capacity._gershgorin", counted)
    dom = build_domain(2, 1.0, 128)
    levels = _domain_levels(dom)
    assert len(levels) >= 2 and calls == []
    M = _Multigrid(dom, ~(ball_mask(dom, 0.25).mask | dom.boundary_band))
    assert calls == [A.shape[0] for A, _, _ in M.levels[1:]]


def test_domain_hierarchy_is_dropped_with_its_domain():
    dom = build_domain(2, 1.0, 64)
    _Multigrid(dom, ~(ball_mask(dom, 0.25).mask | dom.boundary_band))
    domain, level = weakref.ref(dom), weakref.ref(_DOMAIN_LEVELS[dom][0][1])
    del dom
    gc.collect()
    assert domain() is None and level() is None


@pytest.fixture(scope="module")
def hierarchy_lattices():
    return {"2d-64": build_domain(2, 1.0, 64), "3d-32": build_domain(3, 1.0, 32),
            "2d-128": build_domain(2, 1.0, 128)}


@st.composite
def marked_sets(draw):
    """A kind of marked set and where it sits, for `marked_nodes`."""
    kind = draw(st.sampled_from(["ball", "level", "node", "edge", "most"]))
    return (kind, draw(st.tuples(*[st.floats(-0.7, 0.7)] * 3)), draw(st.floats(0.05, 0.95)),
            draw(st.sampled_from(sorted(SHAPES))))


def marked_nodes(domain, kind, centre, r, shape):
    """A ball, a test-function level set, a single node, a ball cut off at
    R - 2h, or all the nodes below R - 2h but a ball."""
    allowed = domain.radius < domain.mark_radius
    c = np.asarray(centre[:domain.n])
    dist = np.sqrt(sum((g - x) ** 2 for g, x in zip(np.meshgrid(*domain.axes, indexing="ij"), c)))
    if kind == "level":
        u = build_test_function(TestFunctionSpec(shape), domain)
        return level_mask(u, r * u.max_abs()).mask
    if kind == "node":
        return dist == dist[allowed].min()
    return allowed & {"ball": dist <= 0.5 * r, "edge": dist <= r + 0.2,
                      "most": dist > 0.3 * r}[kind]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=12, deadline=None)
@given(lattice=st.sampled_from(["2d-64", "3d-32", "2d-128"]),
       sets=st.lists(marked_sets(), min_size=1, max_size=3))
def test_derived_levels_equal_the_direct_build(hierarchy_lattices, lattice, sets):
    # every level spliced from the domain's hierarchy, the coarsest
    # included, equals the one formed with every Galerkin row, entry order
    # included, whatever came before
    dom = hierarchy_lattices[lattice]
    for args in sets:
        free = ~(marked_nodes(dom, *args) | dom.boundary_band)
        derived = _Multigrid(dom, free)
        *direct, (coarsest, _) = _levels(dom, free)
        assert len(derived.levels) == len(direct)
        for (A, _, _), (B, _) in zip(derived.levels, direct):
            for x, y in ((A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data)):
                assert same_bits(x, y)
        assert same_bits(derived.coarse, _coarse_inverse(coarsest))


def block_galerkin(A, P, radius, dirty):
    """The rows of P^T A P at `dirty` formed a block of coarse rows at a
    time, from the rows of P each block reaches: `_galerkin` as it was for
    every P, the reference for the bits of its product with a stored P."""
    block = _BLOCK_ENTRIES // (4 + 2 * radius) ** len(P.fine_shape)
    rows = np.flatnonzero(dirty[P.coarse])
    reached = _windows(dirty, radius, P.fine_shape).reshape(-1)[P.fine_at]
    bound = _pattern_pairs(P.coarse, radius, dirty)
    data, indices = np.empty(bound), np.empty(bound, dtype=np.int32)
    indptr = np.zeros(rows.size + 1, dtype=np.int32)
    for i, j, lo, hi in P.blocks(rows, block, radius):
        Q = P.matrix if P.matrix is not None else P.rows(lo + np.flatnonzero(reached[lo:hi]))
        B = (Q.T[rows[i:j]].tocsr() @ A) @ Q
        start = indptr[i]
        data[start:start + B.nnz] = B.data
        indices[start:start + B.nnz] = B.indices
        indptr[i + 1:j + 1] = B.indptr[1:] + start
    nnz = indptr[-1]
    return sparse.csr_matrix((data[:nnz], indices[:nnz], indptr), shape=(rows.size, P.shape[1]))


def reference_vcycle(M, b, level=0):
    """The V-cycle with scipy's public products, `A @ x`, `P @ x` and
    `P.T @ r`: the reference for the bits of `_matvec`."""
    if level == len(M.levels):
        return np.einsum("ij,j->i", M.coarse, b)
    A, smooth, P = M.levels[level]
    prolong, restrict = ((P.matrix.__matmul__, P.matrix.T.__matmul__) if P.matrix is not None
                         else (P.prolong, P.restrict))
    x = smooth * b
    x += prolong(reference_vcycle(M, restrict(b - A @ x), level + 1))
    r = A @ x
    x += np.multiply(smooth, np.subtract(b, r, out=r), out=r)
    return x


@pytest.mark.parametrize("lattice", ["2d-64", "2d-128", "3d-32"])
def test_lean_kernels_equal_scipys_public_products(hierarchy_lattices, lattice, monkeypatch):
    # every Galerkin block of a stored P and every product of the V-cycle,
    # against the formulas they replace, bit for bit
    dom = hierarchy_lattices[lattice]
    seen = []

    def checked_galerkin(A, P, radius, dirty):
        C = _galerkin(A, P, radius, dirty)
        B = block_galerkin(A, P, radius, dirty)
        assert all(same_bits(x, y) for x, y in
                   ((C.indptr, B.indptr), (C.indices, B.indices), (C.data, B.data)))
        seen.append("stored" if P.matrix is not None else "lazy")
        return C

    def checked_matvec(M, x, transpose=False):
        y = _matvec(M, x, transpose)
        assert same_bits(y, M.T @ x if transpose else M @ x)
        seen.append("transpose" if transpose else "matvec")
        return y

    monkeypatch.setattr("orlicap.capacity._galerkin", checked_galerkin)
    monkeypatch.setattr("orlicap.capacity._matvec", checked_matvec)
    rng = np.random.default_rng(21)
    for args in (("ball", (0.0, 0.0, 0.0), 0.6, "tent"), ("level", (0.0,) * 3, 0.3, "two_peak"),
                 ("node", (0.3, -0.2, 0.1), 0.5, "tent")):
        free = ~(marked_nodes(dom, *args) | dom.boundary_band)
        list(_levels(dom, free))  # every row formed
        M = _Multigrid(dom, free)  # the dirty rows alone
        b = rng.standard_normal(np.count_nonzero(free))
        assert same_bits(M(b), reference_vcycle(M, b))
    assert {"stored", "matvec", "transpose"} <= set(seen)
    assert ("lazy" in seen) == (dom.n == 3)  # a 3-D finest P is never stored


def test_matvec_refuses_what_scipys_loop_cannot_take():
    rng = np.random.default_rng(3)
    M = sparse.csr_matrix(np.where(rng.random((9, 7)) < 0.4, rng.standard_normal((9, 7)), 0.0))
    x = rng.standard_normal(14)
    assert same_bits(_matvec(M, x[:7]), M @ x[:7])
    assert same_bits(_matvec(M, x[:9], transpose=True), M.T @ x[:9])
    for bad in (x[::2], x[:7].astype(np.float32)):  # strided, or not float64
        with pytest.raises(TypeError):
            _matvec(M, bad)
    M.indices = M.indices.astype(np.int64)  # an int32 indptr beside int64 indices
    with pytest.raises(TypeError):
        _matvec(M, x[:7])


def bordered_transfers(P, x, y):
    """P x and P^T y as lattice formulas on zero-bordered arrays, axis by
    axis, new arrays at each step: the reference for the order of the
    transfers' sums."""
    c = np.zeros(P._index.shape)
    c.reshape(-1)[P.coarse_at] = x
    for a in reversed(range(c.ndim)):
        out = np.empty(c.shape[:a] + (P.fine_shape[a],) + c.shape[a + 1:])
        coarse, fine = np.moveaxis(c, a, 0), np.moveaxis(out, a, 0)
        coarse *= 0.25
        for parity in (0, 1):
            f = fine[parity::2]
            np.multiply(coarse[1:len(f) + 1], 3.0, out=f)
            f += coarse[2 * parity:2 * parity + len(f)]
        c = out
    f = np.zeros(P.fine_shape)
    f.reshape(-1)[P.fine_at] = y
    for a in range(f.ndim):
        out = np.zeros(f.shape[:a] + (P._index.shape[a],) + f.shape[a + 1:])
        fine, coarse = np.moveaxis(f, a, 0), np.moveaxis(out, a, 0)
        for parity in (0, 1):
            g = fine[parity::2]
            g *= 0.25
            coarse[2 * parity:2 * parity + len(g)] += g
            g *= 3.0
            coarse[1:len(g) + 1] += g
        f = out
    return c.reshape(-1)[P.fine_at], f.reshape(-1)[P.coarse_at]


@pytest.mark.parametrize("shape", [(9, 12), (25, 26), (64, 64), (7, 10, 13), (32, 32, 32)])
def test_transfers_sum_in_the_order_of_the_lattice_formulas(shape):
    rng = np.random.default_rng(8)
    P = _Prolongation(rng.random(shape) < 0.7)
    P.matrix = None  # as for a P too large to store
    for _ in range(2):  # the second call reuses the transfers' lattices
        x, y = rng.standard_normal(P.shape[1]), rng.standard_normal(P.shape[0])
        px, pty = bordered_transfers(P, x.copy(), y.copy())
        assert same_bits(P.prolong(x), px) and same_bits(P.restrict(y), pty)


def average_level_set(domain, name, center, r, level):
    """A level set that `capacitary_average` solves: {|u - u(x0)| > level}
    on B(x0, r)."""
    u = build_test_function(TestFunctionSpec(name), domain)
    index, x0 = _nearest_node(domain, center)
    ball = ball_mask(domain, r, x0)
    w = np.where(ball.mask, np.abs(u.values - u.values[index]), 0.0)
    return level_mask(GridFunction(domain, w), level)


def test_coarse_operators_are_nonsingular(disc64):
    # From the averages scenario (tent, centre spacing 0.276663).  Taking
    # every coarse node some free node interpolates from, rather than only
    # the cell parents of free nodes, made the first coarse operator of
    # this mask exactly singular.
    E = average_level_set(disc64, "tent", (-0.265625, -0.265625), 0.25, 2.0 ** -6)
    free = ~(E.mask | disc64.boundary_band)
    M = _Multigrid(disc64, free)
    assert len(M.levels) >= 2
    for A, _, _ in M.levels[1:]:
        eig = np.linalg.eigvalsh(A.toarray())
        assert eig[0] > 1e-8 * eig[-1]
    res = capacity_variational(E, power_log(2, 1), disc64)
    assert res.converged
    assert res.value == pytest.approx(7.704989305015243, rel=1e-6)


def test_solve_ends_where_the_energy_stops_resolving():
    # A 128^2 bump level set.  Near the optimum E stops changing in floating
    # point while the gap stays above tol * E; steps that do not strictly
    # lower E are refused, so the solve ends, converged, instead of looping
    # to max_iter.  tol = 0 leaves only that stop; the linear solve's
    # (power(2)) is a step below the rounding of u, and its value is the
    # direct solve's (`quadratic_minimum`).  The last iterate still gets the
    # flux gap, far below the default stop's 1e-8.
    dom = build_domain(2, 1.0, 128)
    E = level_mask(build_test_function(TestFunctionSpec("bump"), dom), 2.0 ** -3)
    for spec, expected in ((power_log(2, 1), 13.785276411492461), (power(2), 8.858026926791961)):
        res = capacity_variational(E, spec, dom, tol=0.0, max_iter=200)
        assert res.converged and res.iterations < 60
        assert res.lower < res.value == pytest.approx(expected, rel=1e-6)
        assert res.value - res.lower <= 1e-12 * res.value


@pytest.mark.parametrize("spec,expected", [(power(3), 6.156896879772685),
                                           (exp_loglog(3, 2, 0.5), 133.93335987627188)],
                         ids=["power3", "exp_loglog"])
def test_values_match_the_momentum_solver(spec, expected):
    # `expected`: the projected-descent solver this one replaced, at tol 1e-8
    dom = build_domain(2, 1.0, 48)
    res = capacity_variational(ball_mask(dom, 0.25), spec, dom)
    assert res.converged
    assert res.value == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("n,res", [(2, 64), (3, 32)], ids=["2d-64", "3d-32"])
def test_lower_bound_brackets_the_capacity(n, res):
    dom = build_domain(n, 1.0, res)
    E = ball_mask(dom, 0.3)
    loose = capacity_variational(E, power_log(2, 1), dom)
    tight = capacity_variational(E, power_log(2, 1), dom, tol=1e-12)
    assert loose.lower <= tight.value <= loose.value
    assert tight.lower <= tight.value
    assert loose.summary()["lower"] == loose.lower


CERTIFIED_SPECS = [power(2), power_log(2, 1), power(3), exp_loglog(3, 2, 0.5)]


@pytest.mark.parametrize("spec", CERTIFIED_SPECS, ids=lambda s: s.tag)
@pytest.mark.parametrize("n,res", [(2, 64), (3, 32)], ids=["2d-64", "3d-32"])
def test_every_family_stops_on_a_bracket_within_tol(n, res, spec):
    # the flux certificate closes the bracket to tol = 1e-8 for the nonlinear
    # families too, where `_gap` alone ended at the stationary stop with
    # brackets of 1e-7
    dom = build_domain(n, 1.0, res)
    E = ball_mask(dom, 0.25)
    res_ = capacity_variational(E, spec, dom)
    assert res_.converged
    assert res_.lower <= res_.value
    assert (res_.value - res_.lower) / res_.value <= 1e-8
    # it stops on the certificate, well before the stationary stop
    assert res_.iterations < capacity_variational(E, spec, dom, tol=0.0).iterations


@pytest.mark.parametrize("r", [0.2, 0.3])
def test_power2_bracket_holds_the_sparse_direct_minimum_at_128(disc, r):
    E = ball_mask(disc, r)
    res = capacity_variational(E, power(2), disc)
    exact = quadratic_minimum(disc, E.mask)
    assert res.converged
    assert res.lower <= exact <= res.value
    assert (res.value - res.lower) / res.value <= 1e-8


def flux_reference(domain, spec, u, mask):
    """The flux sigma + tau e_a per axis, its divergence sum_a D+_a^T and the
    gradient g = D+^T sigma / h at the free nodes, built the long way: sigma
    = w Phi'(|q|) q / |q| from np.diff, and tau along the last axis by a
    loop over the lattice lines, summing h g from 0 at each held node."""
    h, n = domain.h, domain.n
    w = domain.weights
    held = mask | domain.boundary_band
    q = [np.diff(u, axis=a, append=0.0) / h for a in range(n)]
    norm = np.sqrt(sum(c * c for c in q))
    scale = np.divide(w * eval_phi_prime(spec, norm), norm, out=np.zeros_like(norm),
                      where=norm > 0)
    sigma = [scale * c for c in q]

    def divergence(field):  # sum_a D+_a^T field_a
        return -sum(np.diff(f, axis=a, prepend=0.0) for a, f in enumerate(field))

    g = divergence(sigma) / h
    tau = np.zeros_like(u)
    for line in np.ndindex(domain.shape[:-1]):
        run = 0.0
        for k in range(domain.shape[-1]):
            run = 0.0 if held[line + (k,)] else run + h * g[line + (k,)]
            tau[line + (k,)] = run
    sigma[-1] = sigma[-1] + tau
    return sigma, divergence(sigma), g[~held]


# Phi'(t) / t falls for this table, so the tangent point |q| s' / s0 lies on
# the wrong side of the root of Phi'(t) = s', and the flux gap inverts Phi'
_TABLE_KNOTS = np.geomspace(1e-8, 100, 400)
TABLE_T15 = custom_table(np.column_stack([_TABLE_KNOTS, _TABLE_KNOTS ** 1.5]))


@pytest.mark.parametrize("spec", CERTIFIED_SPECS + [TABLE_T15], ids=lambda s: s.tag)
@pytest.mark.parametrize("iterations", [0, 4], ids=["indicator", "4-iterations"])
@pytest.mark.parametrize("n,res", [(2, 32), (3, 32)], ids=["2d-32", "3d-32"])
def test_flux_gap_is_the_duality_gap_of_an_equilibrated_flux(n, res, iterations, spec):
    # at iterates away from the optimum: sigma + tau is equilibrated on the
    # free nodes, and the flux gap is E minus its dual value (power, closed
    # form) or bounds it from above by a small factor (the tangent bound; at
    # the indicator most free nodes have |q| = 0 < s', where it inverts Phi')
    dom = build_domain(n, 1.0, res)
    E = ball_mask(dom, 0.3)
    u = capacity_variational(E, spec, dom, max_iter=iterations).minimizer.values
    sigma, div, g_ref = flux_reference(dom, spec, u, E.mask)
    free = ~(E.mask | dom.boundary_band)
    assert np.abs(div[free]).max() <= 1e-12 * max(np.abs(s).max() for s in sigma)
    w = dom.weights
    y = np.divide(np.sqrt(sum(s * s for s in sigma)), w, out=np.zeros_like(w), where=w > 0)
    assert not y[w == 0].any()  # the flux vanishes where the weight does
    t_lo, t_hi = phi_prime_inverse(spec, y.ravel())
    conjugate = (y.ravel() * t_hi - eval_phi(spec, t_lo)).reshape(y.shape)  # >= Phi*(y)
    dual = div[E.mask].sum() / dom.h - (w * conjugate).sum()

    work = _EnergyWorkspace(dom, spec)
    e = work.energy(u)
    at = np.flatnonzero(free)
    g = work.grad(u).reshape(-1)[at]
    np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12 * np.abs(g_ref).max())
    starts = np.flatnonzero(np.diff(at, prepend=-2) != 1)
    gap = work.flux_gap(u, g, at, starts)
    assert 1e-7 * e < e - dual <= gap * (1 + 1e-6)
    assert gap <= (1 + 1e-6 if spec.family == "power" else 2.5) * (e - dual)


@pytest.mark.parametrize("spec", [power(2), power_log(2, 1)], ids=lambda s: s.family)
def test_flux_gap_allocates_no_lattice_array(spec):
    dom = build_domain(3, 1.0, 32)
    E = ball_mask(dom, 0.3)
    u = capacity_variational(E, spec, dom, max_iter=2).minimizer.values
    at = np.flatnonzero(~(E.mask | dom.boundary_band))
    starts = np.flatnonzero(np.diff(at, prepend=-2) != 1)
    work = _EnergyWorkspace(dom, spec)
    work.energy(u)
    g = work.grad(u).reshape(-1)[at]
    work.flux_gap(u, g, at, starts)  # warm-up
    tracemalloc.start()
    try:
        work.flux_gap(u, g, at, starts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < u.nbytes / 2


def test_truncated_solve_keeps_a_bracket_below_the_capacity(disc64):
    E = ball_mask(disc64, 0.25)
    for spec in CERTIFIED_SPECS:
        tight = capacity_variational(E, spec, disc64, tol=1e-12)
        for max_iter in (1, 3, 6):
            res = capacity_variational(E, spec, disc64, max_iter=max_iter)
            assert not res.converged and res.iterations == max_iter
            assert res.lower <= tight.value <= res.value


@pytest.mark.parametrize("kind", ["one-node", "to-mark-radius"])
@pytest.mark.parametrize("n,res", [(2, 64), (3, 32)], ids=["2d-64", "3d-32"])
def test_flux_bracket_holds_on_edge_sets(n, res, kind):
    # a single marked node, and every node below the mark radius R - 2h
    # outside a ball; at tol = 0 the flux gap's terms cancel to rounding
    # (down to about -4e-16 E), which its allowance covers
    dom = build_domain(n, 1.0, res)
    if kind == "one-node":
        mask = np.zeros(dom.shape, dtype=bool)
        mask.flat[np.argmin(dom.radius)] = True
    else:
        mask = (dom.radius < dom.mark_radius) & (dom.radius > 0.5)
    E = SetMask(dom, mask)
    for spec in CERTIFIED_SPECS:
        res_ = capacity_variational(E, spec, dom)
        assert res_.converged and res_.lower <= res_.value
        assert (res_.value - res_.lower) / res_.value <= 1e-8
        tight = capacity_variational(E, spec, dom, tol=0.0, max_iter=30)
        assert tight.lower <= tight.value
        assert res_.lower <= tight.value


_CENTRES = [None, (-0.25, 0.0), (0.0, 0.25), (0.2, -0.2)]


def swapped_ball(dom, r, centre, swap):
    """B(centre, r), with its first two lattice axes swapped when `swap`."""
    E = ball_mask(dom, r, centre)
    return SetMask(dom, np.swapaxes(E.mask, 0, 1)) if swap else E


@settings(max_examples=10, deadline=None)
@given(history=st.lists(st.tuples(st.floats(0.1, 0.4), st.sampled_from(_CENTRES), st.booleans()),
                        max_size=3),
       target=st.tuples(st.floats(0.1, 0.4), st.sampled_from(_CENTRES), st.booleans()),
       twin_at=st.none() | st.integers(0, 3))
def test_cached_value_does_not_depend_on_history(history, target, twin_at):
    # the history may hold the target's swap, which the cache serves it from
    dom = build_domain(2, 1.0, 32)
    if twin_at is not None:
        r, centre, swap = target
        history = history[:twin_at] + [(r, centre, not swap)] + history[twin_at:]
    cache = CapacityCache(power(2), dom)
    for args in history:
        cache.capacity(swapped_ball(dom, *args))
    seen = cache.capacity(swapped_ball(dom, *target)).value
    fresh = CapacityCache(power(2), dom).capacity(swapped_ball(dom, *target)).value
    assert np.float64(seen).tobytes() == np.float64(fresh).tobytes()


@pytest.fixture(scope="module")
def swap_lattices():
    return {2: build_domain(2, 1.0, 32), 3: build_domain(3, 1.0, 32)}


@settings(max_examples=10, deadline=None)
@given(n=st.sampled_from([2, 3]), kind=st.sampled_from(["ball", "level"]),
       centre=st.tuples(*[st.floats(-0.7, 0.7)] * 3), r=st.floats(0.05, 0.95),
       spec=st.sampled_from([power(2), power_log(2, 1)]))
def test_a_mask_and_its_swap_share_one_solve(swap_lattices, n, kind, centre, r, spec):
    # a ball at a random centre or a level set of random_smooth, and its
    # swap: one solve, in either lookup order, serves both
    dom = swap_lattices[n]
    M = SetMask(dom, marked_nodes(dom, kind, centre, r, "random_smooth"))
    T = SetMask(dom, np.swapaxes(M.mask, 0, 1))
    pairs = []
    for order in ((M, T), (T, M)):
        cache = CapacityCache(spec, dom)
        got = [cache.capacity(E) for E in order]
        assert (cache.lookups, cache.hits, cache.solves) == (2, 1, 1)
        pairs.append(got if order[0] is M else got[::-1])
    direct = capacity_variational(M, spec, dom)
    for a, b in pairs + [(pairs[0][0], pairs[1][0])]:
        for x, y in ((a.value, b.value), (a.lower, b.lower)):
            assert same_bits(np.float64(x), np.float64(y))
        assert (a.converged, a.iterations) == (b.converged, b.iterations)
    for a, b in pairs:
        assert a is b and a.minimizer is None  # twins share one certificate
        # cap(M) = cap(T): a value solved through either lies in M's own bracket
        assert direct.lower * (1.0 - 1e-12) <= a.value <= direct.value * (1.0 + 1e-12)
