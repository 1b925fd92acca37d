import math
import tracemalloc

import numpy as np
import pytest

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
    from_callable,
    gradient,
    gradient_magnitude,
    integrate,
    power,
    power_log,
    riesz_capacity_variational,
)
from orlicap.capacity import _RATIO_FLOOR, _EnergyWorkspace
from orlicap.grid import GridFunction, SetMask
from orlicap.young import eval_phi, eval_phi_prime


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
    recomputed = integrate(eval_phi(spec, gradient_magnitude(u)), disc64)
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
    assert riesz_capacity_variational(empty, power(2), disc64).value == 0.0


def test_riesz_monotone_and_feasible(disc64):
    spec = power(2)
    small = riesz_capacity_variational(ball_mask(disc64, 0.1), spec)
    big = riesz_capacity_variational(ball_mask(disc64, 0.3), spec)
    assert small.converged and big.converged
    assert small.value <= big.value
    assert np.all(small.minimizer.values >= 0.0)


def test_riesz_node_cap():
    dom = build_domain(2, 1.0, 128)
    with pytest.raises(ConfigurationError):
        riesz_capacity_variational(ball_mask(dom, 0.6), power(2), dom)


def test_riesz_comparable_band(disc64):
    spec = power(2)
    ratios = []
    for r in (0.1, 0.2, 0.3, 0.4):
        rz = riesz_capacity_variational(ball_mask(disc64, r), spec).value
        cv = capacity_variational(ball_mask(disc64, r), spec).value
        ratios.append(rz / cv)
    assert max(ratios) / min(ratios) <= 6.0


def test_nonconvergence_is_flagged(disc64):
    res = capacity_variational(ball_mask(disc64, 0.25), power(2), disc64,
                               max_iter=3)
    assert not res.converged
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


def reference_energy_grad(vals, domain, spec):
    h = domain.h
    diffs = [np.diff(vals, axis=a, append=0.0) / h for a in range(domain.n)]
    g = np.sqrt(sum(d * d for d in diffs))
    energy = float(np.sum(domain.weights * eval_phi(spec, g)))
    gt = np.maximum(g, _RATIO_FLOOR)
    ratio = eval_phi_prime(spec, gt) / gt
    grad = np.zeros_like(vals)
    for a, d in enumerate(diffs):
        flux = domain.weights * ratio * d
        grad -= np.diff(flux, axis=a, prepend=0.0) / h
    return energy, grad


def reference_gradient(vals, domain):
    return np.stack([np.diff(vals, axis=a, append=0.0) / domain.h
                     for a in range(domain.n)])


KERNEL_SPECS = [power(2), power_log(2, 1), exp_log(2, 0.5)]


# 48 nodes give h = 1/24, where dividing by h rounds; 64 and 32 give powers of 2
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
        e_ref, g_ref = reference_energy_grad(v, lattice, spec)
        assert work.energy(v) == reference_energy(v, lattice, spec)
        e, g = work.grad(v, with_energy=True)
        assert e == e_ref
        assert np.array_equal(g, g_ref)
        assert np.array_equal(work.grad(v), g_ref)
        assert np.array_equal(gradient(GridFunction(lattice, v)),
                              reference_gradient(v, lattice))


@pytest.mark.parametrize("spec", [power(2), power_log(2, 1)], ids=lambda s: s.family)
def test_workspace_allocates_no_lattice_array(spec):
    lattice = build_domain(3, 1.0, 32)
    v = np.random.default_rng(5).uniform(0.0, 1.0, lattice.shape)
    v[lattice.boundary_band] = 0.0
    work = _EnergyWorkspace(lattice, spec)

    def evaluate():
        work.energy(v)
        work.grad(v)
        work.grad(v, with_energy=True)

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
