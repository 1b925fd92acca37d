import math

import numpy as np
import pytest

from orlicap import (
    CapacityCache,
    GridFunction,
    build_domain,
    from_callable,
    power,
    power_log,
)
from orlicap.averages import (
    average_trace,
    capacitary_average,
    default_centers,
    grid_lipschitz,
    snap_to_node,
)
from orlicap.strongtype import TestFunctionSpec, build_test_function, derived_psi


@pytest.fixture(scope="module")
def disc():
    return build_domain(2, 1.0, 128)


@pytest.fixture(scope="module")
def t2(disc):
    return CapacityCache(power(2), disc)


PSI = derived_psi(power(2))


def test_snap_to_node(disc):
    x = snap_to_node(disc, (0.201, -0.199))
    assert np.all(np.isin(x, disc.axes[0]))
    assert np.linalg.norm(x - np.array([0.201, -0.199])) < disc.h


def test_constant_function_has_zero_average(disc, t2):
    u = GridFunction(disc, np.where(disc.radius < 0.6, 0.0, 0.0))
    for r in (0.25, 0.125):
        assert capacitary_average(u, (0.1, 0.0), r, power(2), PSI, t2) == 0.0


def test_locally_constant_function(disc, t2):
    # plateau: constant near its center, so small balls see no oscillation
    u = build_test_function(TestFunctionSpec("plateau", r_in=0.2, r_out=0.5), disc)
    assert capacitary_average(u, (0.0, 0.0), 0.0625, power(2), PSI, t2) == 0.0


def test_lipschitz_upper_bound(disc, t2):
    # all level sets above the oscillation are empty, so the average is
    # bounded by Psi of (Lipschitz constant * radius) once L r is dyadic
    u = build_test_function(TestFunctionSpec("tent", r=0.5), disc)
    L = grid_lipschitz(u)
    assert L == pytest.approx(2.0, rel=1e-3)
    for x0 in ((0.2, 0.0), (0.0, 0.0), (-0.2, 0.1)):
        for r in (0.25, 0.125, 0.0625):
            avg = capacitary_average(u, x0, r, power(2), PSI, t2)
            assert avg <= float(PSI(L * r)) * 1.1


def test_oscillation_bound(disc, t2):
    # levels above the oscillation are empty, so the dyadic sum is at most
    # Psi evaluated at the dyadic ceiling of the oscillation (and at most
    # Psi(osc) itself when the oscillation sits at a dyadic endpoint)
    u = build_test_function(TestFunctionSpec("tent", r=0.5), disc)
    from orlicap.averages import _nearest_node
    from orlicap.grid import ball_mask
    for x0 in ((0.2, 0.0), (0.15, 0.15), (0.0, 0.0)):
        for r in (0.25, 0.125, 0.0625):
            index, xs = _nearest_node(disc, x0)
            u0 = u.values[index]
            osc = float(np.abs(u.values - u0)[ball_mask(disc, r, xs).mask].max())
            avg = capacitary_average(u, x0, r, power(2), PSI, t2)
            ceil = 2.0 ** math.ceil(math.log2(osc))
            assert avg <= float(PSI(ceil)) + 1e-9


def test_average_invariant_under_constant_shift(disc, t2):
    # only values inside B(x0, r) enter, so adding a constant there leaves
    # u - u(x0) untouched
    u = build_test_function(TestFunctionSpec("bump", sigma=0.2), disc)
    x0, r = (0.1, 0.1), 0.125
    base = capacitary_average(u, x0, r, power(2), PSI, t2)
    node = snap_to_node(disc, x0)
    grids = np.meshgrid(*disc.axes, indexing="ij")
    dist = np.sqrt(sum((g - c) ** 2 for g, c in zip(grids, node)))
    shifted = GridFunction(disc, u.values + 0.37 * (dist <= r + disc.h))
    assert capacitary_average(shifted, x0, r, power(2), PSI, t2) == base


def test_average_rejects_ball_outside(disc, t2):
    u = GridFunction(disc, np.zeros(disc.shape))
    with pytest.raises(ValueError):
        capacitary_average(u, (0.8, 0.0), 0.25, power(2), PSI, t2)


def test_trace_zero_function(disc, t2):
    tr = average_trace(GridFunction(disc, np.zeros(disc.shape)), (0.1, 0.0), power(2), PSI,
                       j_max=2, cache=t2)
    assert all(v == 0.0 for v in tr.values)
    assert tr.passed


def test_trace_bump_center(disc, t2):
    tr = average_trace(
        build_test_function(TestFunctionSpec("bump", sigma=0.2), disc),
        (0.0, 0.0), power(2), PSI, j_max=2, cache=t2)
    assert tr.passed and not tr.truncated
    assert len(tr.values) == 3
    assert tr.final < 0.05


def test_trace_tent_apex(disc, t2):
    # gradient discontinuity at the apex: still Lipschitz, still passes
    tr = average_trace(
        build_test_function(TestFunctionSpec("tent", r=0.5), disc),
        (0.0, 0.0), power(2), PSI, j_max=2, cache=t2)
    assert tr.passed
    assert all(a >= b for a, b in zip(tr.values, tr.values[1:]))


def test_trace_truncates_small_radii(disc, t2):
    tr = average_trace(
        build_test_function(TestFunctionSpec("tent", r=0.5), disc),
        (0.1, 0.0), power(2), PSI, j_max=6, cache=t2)
    assert tr.truncated
    assert min(tr.radii) >= 4 * disc.h


class RecordingCache(CapacityCache):
    """A cache that keeps every mask it is asked for."""

    def __init__(self, spec, domain):
        super().__init__(spec, domain)
        self.requested = []

    def capacity(self, mask):
        self.requested.append(mask.mask.copy())
        return super().capacity(mask)


def test_cache_solves_each_axis_swap_orbit_once():
    # the default centres are symmetric under (a, b) -> (b, a) and tent is
    # radial, so transposed centres ask for transposed masks
    dom = build_domain(2, 1.0, 48)
    u = build_test_function(TestFunctionSpec("tent", r=0.5), dom)
    cache = RecordingCache(power(2), dom)
    for center in default_centers(dom):
        average_trace(u, center, power(2), PSI, j_max=0, cache=cache)
    masks = {m.tobytes() for m in cache.requested}
    orbits = {frozenset((m.tobytes(), np.swapaxes(m, 0, 1).tobytes())) for m in cache.requested}
    assert len(orbits) < len(masks)
    assert cache.lookups == len(cache.requested)
    assert cache.solves == len(orbits) == cache.lookups - cache.hits
    assert cache.iterations > cache.solves


def test_default_centers_shape(disc):
    centers = default_centers(disc)
    assert len(centers) == 9
    assert all(len(c) == 2 for c in centers)


def test_average_trace_rejects_a_cache_for_another_phi_or_domain():
    dom = build_domain(2, 1.0, 32)
    u = build_test_function(TestFunctionSpec("tent"), dom)
    for cache in (CapacityCache(power_log(2, 1), dom),
                  CapacityCache(power(2), build_domain(2, 1.0, 32))):
        with pytest.raises(ValueError, match="cache does not match"):
            average_trace(u, (0, 0), power(2), PSI, j_max=0, cache=cache)
