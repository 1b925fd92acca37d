import math

import numpy as np
import pytest

from orlicap import (
    GridFunction,
    build_domain,
    from_callable,
    integrate,
    luxemburg_norm,
    modular,
    power,
    power_log,
)
from orlicap.young import eval_phi, exp_log

FAMILIES = [power(2), power(3), power_log(2, 1), exp_log(2, 0.5)]


@pytest.fixture(scope="module")
def disc():
    return build_domain(2, 1.0, 128)


def tent(domain, r=0.5):
    return from_callable(domain, lambda x: np.maximum(
        0.0, 1.0 - np.sqrt(np.sum(x ** 2, axis=0)) / r))


def plateau(domain, r=0.3, height=1.0):
    return from_callable(domain, lambda x: height * (
        np.sqrt(np.sum(x ** 2, axis=0)) <= r))


def test_modular_of_zero(disc):
    assert modular(GridFunction(disc, np.zeros(disc.shape)), power(2)) == 0.0


def test_modular_plateau_piecewise_constant(disc):
    c = 0.7
    u = plateau(disc, 0.3, c)
    m = integrate((u.values != 0) * 1.0, disc)
    for spec in FAMILIES:
        assert modular(u, spec) == pytest.approx(m * eval_phi(spec, c), rel=1e-12)


def test_modular_tent_against_radial_quadrature(disc):
    # 1-D radial quadrature at 1e6 points; closed form pi r^2 / 6
    r = 0.5
    rho = np.linspace(0.0, r, 1_000_001)
    oracle = np.trapezoid((1 - rho / r) ** 2 * 2 * math.pi * rho, rho)
    assert oracle == pytest.approx(math.pi * r ** 2 / 6, rel=1e-10)
    assert modular(tent(disc, r), power(2)) == pytest.approx(oracle, rel=0.03)


def test_luxemburg_zero(disc):
    assert luxemburg_norm(GridFunction(disc, np.zeros(disc.shape)), power(2)) == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_luxemburg_power_is_lp_norm(disc, p):
    rng = np.random.default_rng(5)
    vals = np.where(disc.radius < 0.6, rng.uniform(-1, 2, disc.shape), 0.0)
    u = GridFunction(disc, vals)
    lp = integrate(np.abs(vals) ** p, disc) ** (1.0 / p)
    assert luxemburg_norm(u, power(p)) == pytest.approx(lp, rel=1e-8)


def phi_inverse(spec, y):
    """Phi^-1(y) for y > 0, by bisection on a doubling bracket."""
    lo, hi = 0.0, 1.0
    while eval_phi(spec, hi) < y:
        hi *= 2.0
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if eval_phi(spec, mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_luxemburg_plateau_closed_form(disc):
    u = plateau(disc, 0.3, 1.0)
    m = integrate((u.values != 0) * 1.0, disc)
    for spec in FAMILIES:
        expected = 1.0 / phi_inverse(spec, 1.0 / m)
        assert luxemburg_norm(u, spec) == pytest.approx(expected, rel=1e-8)


def test_luxemburg_tent_self_consistent(disc):
    spec = power_log(2, 1)
    u = tent(disc, 0.5)
    s = luxemburg_norm(u, spec)
    scaled = GridFunction(disc, u.values / s)
    assert modular(scaled, spec) == pytest.approx(1.0, abs=1e-8)
    # the map s -> modular(u/s) is strictly decreasing across a bracket
    ss = np.geomspace(s / 10, s * 10, 10)
    mods = [modular(GridFunction(disc, u.values / x), spec) for x in ss]
    assert all(a > b for a, b in zip(mods, mods[1:]))


@pytest.mark.parametrize("lam", [0.1, 2.0, 17.0])
def test_luxemburg_homogeneity(disc, lam):
    spec = power_log(2, 1)
    u = tent(disc, 0.5)
    base = luxemburg_norm(u, spec)
    scaled = luxemburg_norm(GridFunction(disc, lam * u.values), spec)
    assert scaled == pytest.approx(lam * base, rel=1e-7)


def test_luxemburg_monotone(disc):
    spec = power_log(2, 1)
    rng = np.random.default_rng(9)
    small = np.where(disc.radius < 0.6, rng.uniform(0, 1, disc.shape), 0.0)
    big = small * rng.uniform(1.0, 2.0, disc.shape)
    assert (luxemburg_norm(GridFunction(disc, small), spec)
            <= luxemburg_norm(GridFunction(disc, big), spec))


def test_unit_modular_law(disc):
    rng = np.random.default_rng(21)
    for spec in FAMILIES:
        for _ in range(5):
            vals = np.where(disc.radius < 0.7, rng.uniform(-3, 3, disc.shape), 0.0)
            u = GridFunction(disc, vals)
            s = luxemburg_norm(u, spec)
            assert modular(GridFunction(disc, vals / s), spec) == pytest.approx(
                1.0, abs=1e-7)

