import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicap import (
    CapacityCache,
    GridFunction,
    build_domain,
    capacity_ball_radial,
    capacity_variational,
    eval_phi,
    exp_log,
    level_mask,
    power,
    power_log,
    truncation_H,
)
from orlicap.errors import ConfigurationError, NumericalError
from orlicap.strongtype import (
    SHAPES,
    TAIL_OCTAVES,
    TestFunctionSpec,
    build_test_function,
    derived_psi,
    dyadic_darboux_sums,
    dyadic_levels,
    explicit_psi,
    lhs_dyadic,
    rhs_energy,
    verify_strong_type,
)


@pytest.fixture(scope="module")
def disc():
    return build_domain(2, 1.0, 96)


@pytest.fixture(scope="module")
def t2_cache(disc):
    return CapacityCache(power(2), disc)


def test_truncation_values():
    assert truncation_H(0.25) == 0.0
    assert truncation_H(0.75) == 0.5
    assert truncation_H(3.0) == 1.0
    ts = np.linspace(-1, 2, 301)
    hs = truncation_H(ts)
    slopes = np.diff(hs) / np.diff(ts)
    assert np.all((slopes >= 0) & (slopes <= 2 + 1e-12))


def test_default_suite_has_five_shapes(disc, default_suite):
    assert len(default_suite) == 5
    for fn in default_suite:
        u = build_test_function(fn, disc)
        assert u.max_abs() > 0


def test_unknown_shape_is_rejected():
    with pytest.raises(ConfigurationError, match="unknown test-function shape 'nope'"):
        TestFunctionSpec("nope")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["amplitude", "r", "sigma", "r_in", "r_out"])
def test_non_finite_test_function_parameters_rejected(key, bad):
    with pytest.raises(ConfigurationError, match="must be finite"):
        TestFunctionSpec("tent", **{key: bad})


# each once built a zero function, or a plateau that is the disc's
# indicator, under a divide-by-zero warning
@pytest.mark.parametrize("shape, params", [
    ("tent", {"r": 0.0}), ("tent", {"r": -0.5}), ("bump", {"sigma": 0.0}),
    ("bump", {"sigma": -0.2}), ("plateau", {"r_in": 0.5, "r_out": 0.5}),
    ("plateau", {"r_in": 0.5, "r_out": 0.2})], ids=str)
def test_degenerate_test_function_shapes_rejected(shape, params):
    with pytest.raises(ConfigurationError, match="r > 0, sigma > 0 and r_in < r_out"):
        TestFunctionSpec(shape, **params)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shape_table_drives_tag_and_build(disc, shape):
    spec = TestFunctionSpec(shape)
    assert spec.tag.startswith(shape)
    u = build_test_function(spec, disc)
    doubled = TestFunctionSpec(shape, amplitude=2.0)
    assert doubled.tag == "2*" + spec.tag
    assert np.array_equal(build_test_function(doubled, disc).values, 2.0 * u.values)


@pytest.mark.parametrize("peak, top, bottom", [(1.0, 0, -TAIL_OCTAVES),
                                               (3.0, 2, 1 - TAIL_OCTAVES),
                                               (0.3, -1, -2 - TAIL_OCTAVES)])
def test_dyadic_levels_run_from_the_peak_down(peak, top, bottom):
    psi = derived_psi(power(2))
    levels = list(dyadic_levels(peak, psi))
    assert [k for k, _ in levels] == list(range(top, bottom - 1, -1))
    for k, wgt in levels:
        assert wgt == psi.weight(2.0 ** k, 2.0 ** (k + 1))


def test_lhs_of_zero(disc, t2_cache):
    zero = GridFunction(disc, np.zeros(disc.shape))
    rep = lhs_dyadic(zero, power(2), derived_psi(power(2)), t2_cache)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.k_emp == 0.0


def test_truncated_function_collapses_levels(disc, t2_cache):
    # u = lam * H(v) peaks at exactly lam, so every level at or above lam
    # is empty
    v = build_test_function(TestFunctionSpec("tent", r=0.5, amplitude=2.0), disc)
    lam = 1.0
    u = GridFunction(disc, lam * truncation_H(v.values))
    assert u.max_abs() == lam
    rep = lhs_dyadic(u, power(2), derived_psi(power(2)), t2_cache)
    for row in rep.levels:
        if row.level >= lam:
            assert row.nodes == 0 and row.capacity == 0.0


def test_rhs_zero(disc):
    assert rhs_energy(GridFunction(disc, np.zeros(disc.shape)), power(2)) == 0.0


def test_rhs_tent_energy(disc):
    u = build_test_function(TestFunctionSpec("tent", r=0.5), disc)
    assert rhs_energy(u, power(2)) == pytest.approx(math.pi, rel=0.05)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("lam", [0.3, 2.0, 11.0])
def test_rhs_scales_exactly_for_powers(disc, p, lam):
    u = build_test_function(TestFunctionSpec("bump", sigma=0.2), disc)
    base = rhs_energy(u, power(p))
    scaled = rhs_energy(GridFunction(disc, lam * u.values), power(p))
    assert scaled == pytest.approx(lam ** p * base, rel=1e-12)


def divided_first_rhs(u, spec):
    """sum w Phi(|grad u|) with each forward difference divided by h before
    it is squared, the order the energy kernel does not use."""
    dom = u.domain
    g = [np.diff(u.values, axis=a, append=0.0) / dom.h for a in range(dom.n)]
    return float(np.sum(eval_phi(spec, np.sqrt(np.sum(np.square(g), axis=0))) * dom.weights))


@pytest.mark.parametrize("spec", [power(2), power_log(2, 1), exp_log(2, 0.5)],
                         ids=lambda s: s.family)
@pytest.mark.parametrize("resolution", [64, 96, 128])
def test_rhs_equals_the_divided_first_energy(resolution, spec, default_suite):
    # where h is a power of 2 the two orders round alike; at h = 1/48 they may not
    dom = build_domain(2, 1.0, resolution)
    for fn_spec in default_suite:
        for lam in (0.25, 1.0, 8.0):
            u = build_test_function(replace(fn_spec, amplitude=lam), dom)
            got, expected = rhs_energy(u, spec), divided_first_rhs(u, spec)
            if resolution == 96:
                assert got == pytest.approx(expected, rel=4e-16, abs=0.0)
            else:
                assert got == expected


@pytest.mark.parametrize("n,resolution", [(2, 64), (3, 32)])
def test_rhs_energy_ignores_the_memory_layout(n, resolution):
    dom = build_domain(n, 1.0, resolution)
    vals = np.random.default_rng(2).standard_normal(dom.shape)
    vals[dom.boundary_band] = 0.0
    spec = power_log(2, 1)
    expected = rhs_energy(GridFunction(dom, vals), spec)
    transposed_view = np.ascontiguousarray(vals.T).T
    for layout in (np.asfortranarray(vals), transposed_view):
        assert not layout.flags.c_contiguous
        got = rhs_energy(GridFunction(dom, layout), spec)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def test_tent_lhs_against_radial_oracle():
    # oracle: same dyadic weights, capacities from the independent 1-D
    # radial solver (levels of the tent are concentric balls); the grid
    # sum must land within 15% of it.  A fine Riemann lower sum of the
    # underlying integral sits below both.
    dom = build_domain(2, 1.0, 128)
    spec = power(2)
    psi = derived_psi(spec)
    u = build_test_function(TestFunctionSpec("tent", r=0.5), dom)
    rep = lhs_dyadic(u, spec, psi, CapacityCache(spec, dom))

    def cap_oracle(t):
        rr = 0.5 * (1.0 - t)
        return capacity_ball_radial(rr, spec, 1.0, 2) if rr > 0 else 0.0

    oracle = 0.0
    for k in range(rep.k_max, rep.k_min - 1, -1):
        oracle += cap_oracle(2.0 ** k) * psi.weight(2.0 ** k, 2.0 ** (k + 1))
    assert rep.lhs == pytest.approx(oracle, rel=0.15)

    ts = np.linspace(1e-4, 1.0, 401)
    caps = np.array([cap_oracle(t) for t in ts])
    lower_riemann = float(np.sum(caps[1:] * np.diff(ts ** 2)))
    assert lower_riemann <= rep.lhs


def test_level_capacities_monotone(disc, t2_cache):
    u = build_test_function(TestFunctionSpec("two_peak"), disc)
    rep = lhs_dyadic(u, power(2), derived_psi(power(2)), t2_cache)
    caps = [row.capacity for row in rep.levels]
    for lo, hi in zip(caps, caps[1:]):
        assert hi <= lo + 2e-6


def test_dyadic_darboux_sandwich(disc, t2_cache):
    spec = power(2)
    psi = derived_psi(spec)
    u = build_test_function(TestFunctionSpec("tent", r=0.5), disc)
    rep = lhs_dyadic(u, spec, psi, t2_cache)
    lower, upper = dyadic_darboux_sums(u, spec, psi, t2_cache)
    tol = 1e-6 * max(upper, 1.0)
    assert lower <= rep.lhs + tol
    assert rep.lhs <= upper + tol
    assert lower < rep.lhs  # the inf within each octave is genuinely smaller


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exponent", [600, 1023])
def test_darboux_sums_refuse_weights_past_the_float_range(exponent):
    # Psi(2^(k+1)) - Psi(2^k) overflows at the top octaves: refused, as
    # lhs_dyadic refuses it, before numpy warns or a level is solved
    dom = build_domain(2, 1.0, 32)
    u = build_test_function(TestFunctionSpec("tent", amplitude=2.0 ** exponent), dom)
    cache = CapacityCache(power(2), dom)
    with pytest.raises(NumericalError, match=r"a weight of .* is not finite"):
        dyadic_darboux_sums(u, power(2), derived_psi(power(2)), cache)
    assert cache.lookups == 0


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(sorted(SHAPES)),
       spec=st.sampled_from([power(2), power(3), power_log(2, 1)]),
       level=st.floats(0.02, 0.98), octaves=st.floats(0.0, 1.0))
def test_capacity_is_monotone_on_nested_level_sets(shape, spec, level, octaves):
    # the solver's monotonicity, which the exact Darboux sums no longer
    # sample: A = {|u| > t} lies inside B = {|u| > t 2^-octaves}
    dom = build_domain(2, 1.0, 64)
    u = build_test_function(TestFunctionSpec(shape, seed=7), dom)
    a = capacity_variational(level_mask(u, level), spec, dom)
    b = capacity_variational(level_mask(u, level * 2.0 ** -octaves), spec, dom)
    assert a.value <= (1.0 + 1e-6) * b.value
    assert a.lower <= b.value


def test_lhs_rhs_vanish_only_at_zero(disc, t2_cache):
    psi = derived_psi(power(2))
    u = build_test_function(TestFunctionSpec("bump", sigma=0.15), disc)
    rep = lhs_dyadic(u, power(2), psi, t2_cache)
    assert rep.lhs > 0 and rep.rhs > 0


def test_homogeneous_pair_k_emp_invariant(disc):
    spec = power(2)
    reports, verdict = verify_strong_type(
        [TestFunctionSpec("tent", r=0.5)], spec, derived_psi(spec), disc,
        lambdas=[2.0 ** j for j in (-4, -2, 0, 2, 4)])
    ks = [r.k_emp for r in reports]
    assert max(ks) / min(ks) <= 1.1
    assert verdict.stable and verdict.conditions_ok and verdict.all_converged


def test_admissible_pair_verdict(disc):
    spec = power_log(2, 1)
    reports, verdict = verify_strong_type(
        [TestFunctionSpec("tent", r=0.5)], spec, derived_psi(spec), disc)
    assert math.isfinite(verdict.max_k_emp)
    assert verdict.stable
    assert verdict.conditions_ok


def test_pairing_violation_shows_lambda_growth(disc):
    # Psi carrying the same log factor as Phi: k_emp climbs monotonically
    # as the amplitude shrinks, unlike the admissible companion weight
    spec = power_log(2, 1)
    reports, verdict = verify_strong_type(
        [TestFunctionSpec("tent", r=0.5)], spec, explicit_psi(spec), disc)
    assert not verdict.conditions_ok
    ks = [r.k_emp for r in reports]  # ordered along increasing lambda
    toward_zero = ks[:4]
    assert all(a > b for a, b in zip(toward_zero, toward_zero[1:]))
    assert not verdict.stable


def test_psi_must_increase():
    from orlicap.errors import ConfigurationError
    from orlicap.strongtype import _verify_increasing
    with pytest.raises(ConfigurationError):
        _verify_increasing(lambda t: -np.asarray(t, float), "neg")


def test_darboux_sums_reject_a_cache_for_another_phi_or_domain():
    dom = build_domain(2, 1.0, 32)
    u = build_test_function(TestFunctionSpec("tent"), dom)
    psi = derived_psi(power(2))
    for cache in (CapacityCache(power_log(2, 1), dom),
                  CapacityCache(power(2), build_domain(2, 1.0, 32))):
        with pytest.raises(ValueError, match="cache does not match"):
            dyadic_darboux_sums(u, power(2), psi, cache)
