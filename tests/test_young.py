import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicap import (
    ConfigurationError,
    check_delta2,
    check_delta2_plus,
    check_pairing,
    check_submultiplicative_f,
    custom_table,
    derive_psi,
    eval_phi,
    eval_phi_prime,
    exp_log,
    exp_loglog,
    factored,
    power,
    power_log,
)
from orlicap.young import (E_E, GRID, ConditionReport, FactoredPair, YoungSpec,
                           _INVERSE_RTOL, _decade_maxima, _growing, _on_grid,
                           _ratio_report, load_table_csv, phi_prime_inverse)

ALL_BUILTIN = [
    power(2),
    power(3.5),
    power_log(2, 1),
    power_log(1.5, 0.5),
    exp_log(2, 0.5),
    exp_loglog(2, 1, 0.0),
    exp_loglog(3, 1.5, 0.5),
]


def test_eval_phi_power():
    assert eval_phi(power(2), 3.0) == 9.0


def test_eval_phi_power_log_at_zero():
    assert eval_phi(power_log(2, 1), 0.0) == 0.0


def test_eval_phi_power_log_at_one():
    # cross-checked against quadrature of a finite-difference density:
    # quad gives 1.3132616870 +- 6e-13 (FD bias ~5e-10)
    assert eval_phi(power_log(2, 1), 1.0) == pytest.approx(1.3132616875182228, rel=1e-12)


def test_eval_phi_rejects_negative():
    with pytest.raises(ValueError):
        eval_phi(power(2), -1.0)


def test_bad_exponent_rejected():
    with pytest.raises(ConfigurationError):
        power(1.0)
    with pytest.raises(ConfigurationError):
        power(0.5)


def test_exp_loglog_parameter_ranges():
    with pytest.raises(ConfigurationError):
        exp_loglog(2, 1.5)  # theta > p - 1
    with pytest.raises(ConfigurationError):
        exp_loglog(2, 1, 1.2)  # gamma out of [0,1)
    with pytest.raises(ConfigurationError):
        exp_loglog(2, 1, 0.5, c0=2.0)  # below e^e


# each of these passed the range checks, which a NaN or an infinity can satisfy
@pytest.mark.parametrize("family, key, bad", [
    ("power", "p", math.inf), ("power_log", "theta", math.nan), ("power_log", "theta", math.inf),
    ("exp_loglog", "c0", math.nan), ("exp_loglog", "c0", math.inf), ("power", "gamma", math.nan)])
def test_non_finite_parameters_rejected(family, key, bad):
    with pytest.raises(ConfigurationError, match="must be finite"):
        YoungSpec(family, **{key: bad})


@pytest.mark.parametrize("spec,t,expected", [
    (power(2), 3.0, 6.0),
    (power(3), 1.0, 3.0),
    (power_log(2, 1), 1.0, 2 * math.log(math.e + 1) + 1 / (math.e + 1)),
])
def test_eval_phi_prime_closed_forms(spec, t, expected):
    assert eval_phi_prime(spec, t) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("spec", ALL_BUILTIN)
def test_eval_phi_prime_matches_finite_differences(spec):
    for t in (0.3, 1.0, 7.0, 120.0):
        h = 1e-6 * max(t, 1.0)
        fd = (eval_phi(spec, t + h) - eval_phi(spec, t - h)) / (2 * h)
        assert eval_phi_prime(spec, t) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("spec", ALL_BUILTIN)
def test_young_limits(spec):
    # Phi(t)/t -> 0 as t -> 0 and t/Phi(t) -> 0 as t -> inf, monotonically
    # along a geometric grid
    t = np.geomspace(1e-9, 1e-2, 40)
    small = eval_phi(spec, t) / t
    assert np.all(np.diff(small) > 0) and small[0] < 1e-4
    t = np.geomspace(1e3, 1e9, 40)
    large = t / eval_phi(spec, t)
    assert np.all(np.diff(large) < 0) and large[-1] < 1e-3


@pytest.mark.parametrize("spec", ALL_BUILTIN)
def test_strictly_increasing(spec):
    t = np.geomspace(1e-9, 1e9, 400)
    assert np.all(np.diff(eval_phi(spec, t)) > 0)


@pytest.mark.parametrize("spec", ALL_BUILTIN)
def test_convexity_midpoint_random_triples(spec):
    rng = np.random.default_rng(42)
    a = rng.uniform(0.0, 1e6, size=10_000)
    b = rng.uniform(0.0, 1e6, size=10_000)
    mid = eval_phi(spec, (a + b) / 2)
    avg = (eval_phi(spec, a) + eval_phi(spec, b)) / 2
    assert np.all(mid <= avg * (1 + 1e-10) + 1e-12)


@given(st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_convexity_midpoint_hypothesis(a, b):
    spec = power_log(2, 1)
    mid = eval_phi(spec, (a + b) / 2)
    avg = (eval_phi(spec, a) + eval_phi(spec, b)) / 2
    assert mid <= avg * (1 + 1e-10) + 1e-12


# ---------------------------------------------------------------------------
# doubling
# ---------------------------------------------------------------------------

def test_delta2_power_exact():
    rep = check_delta2(power(2))
    assert rep.passed
    assert rep.c_emp == pytest.approx(4.0, abs=1e-12)


def test_delta2_exponential_fails():
    # e^t - 1 sampled on a wide table; the ratio grows like e^t
    t = np.geomspace(1e-8, 600, 4000)
    spec = custom_table(np.column_stack([t, np.expm1(t)]))
    rep = check_delta2(spec)
    assert not rep.passed
    assert rep.growing
    assert rep.truncated  # the grid top overflows the table and is shrunk


def test_delta2_power_log_bounded_by_8():
    # grid search of 4*log(e+2t)/log(e+t): sup ~ 4.9811 at t ~ 4.18
    rep = check_delta2(power_log(2, 1))
    assert rep.passed
    assert rep.c_emp <= 8.0
    assert rep.c_emp == pytest.approx(4.9811, rel=1e-3)


# ---------------------------------------------------------------------------
# delta2+
# ---------------------------------------------------------------------------

def test_delta2_plus_reference_family():
    rep = check_delta2_plus(exp_loglog(2, 1, 0.0, E_E))
    assert rep.passed
    assert rep.details["elasticity_gap"] > 0
    assert rep.details["squaring_max"] < math.inf


def test_delta2_plus_pure_power():
    rep = check_delta2_plus(power(2))
    assert rep.passed
    assert rep.c_emp == pytest.approx(0.0, abs=1e-15)


def test_delta2_plus_linear_factor_fails():
    # phi(t) = t has elasticity identically 1: never decays toward zero
    pair = FactoredPair(
        f_part=lambda t: np.asarray(t, float) ** 2,
        phi_part=lambda t: np.asarray(t, float),
        psi_part=lambda t: 1.0 / np.asarray(t, float),
        phi_part_prime=lambda t: np.ones_like(np.asarray(t, float)),
        p=2.0)
    rep = check_delta2_plus(pair)
    assert not rep.passed
    assert not rep.details["elasticity_tail_ok"]


def test_delta2_plus_needs_factorization():
    t = np.geomspace(1e-8, 10, 200)
    spec = custom_table(np.column_stack([t, t ** 2]))
    with pytest.raises(ConfigurationError):
        check_delta2_plus(spec)


@pytest.mark.parametrize("spec", ALL_BUILTIN)
def test_delta2_plus_implies_delta2(spec):
    if check_delta2_plus(spec).passed:
        assert check_delta2(spec).passed


# ---------------------------------------------------------------------------
# submultiplicativity and pairing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.5, 5.9])
def test_submultiplicative_power_is_exact(p):
    rep = check_submultiplicative_f(lambda t: t ** p)
    assert rep.passed
    assert abs(rep.c_emp - 1.0) <= 1e-12


def test_submultiplicative_at_unit_point():
    rep = check_submultiplicative_f(lambda t: t ** 2 * np.ones_like(t))
    assert abs(rep.c_emp - 1.0) <= 1e-12


def test_submultiplicative_power_log_reports_finite_max():
    rep = check_submultiplicative_f(lambda t: t ** 2 * np.log(np.e + t))
    assert math.isfinite(rep.c_emp)
    # the product ratio creeps up like log(t)/2 along the diagonal
    assert rep.growing


def test_pairing_trivial():
    one = lambda t: np.ones_like(np.asarray(t, float))
    rep = check_pairing(one, one)
    assert rep.passed
    assert rep.c_emp == pytest.approx(1.0, abs=1e-12)


def test_pairing_log_with_derived_partner():
    phi_part = lambda t: np.log(np.e + np.asarray(t, float))
    rep = check_pairing(phi_part, derive_psi(phi_part))
    assert rep.passed
    assert rep.c_emp <= 2.0


def test_pairing_log_log_fails():
    lg = lambda t: np.log(np.e + np.asarray(t, float))
    rep = check_pairing(lg, lg)
    assert not rep.passed
    assert rep.growing


# ---------------------------------------------------------------------------
# derived psi
# ---------------------------------------------------------------------------

def test_derive_psi_constant():
    one = lambda t: np.ones_like(np.asarray(t, float))
    psi = derive_psi(one)
    assert np.allclose(psi(np.array([0.1, 1.0, 10.0])), 1.0)


def test_derive_psi_power_log_closed_form():
    theta = 1.0
    phi_part = lambda t: np.log(np.e + np.asarray(t, float)) ** theta
    psi = derive_psi(phi_part)
    t = np.geomspace(1e-6, 1e6, 50)
    assert np.allclose(psi(t), np.log(np.e + 1.0 / t) ** (-theta), rtol=1e-13)


def test_derive_psi_exp_log_closed_form():
    theta = 0.5
    phi_part = lambda t: np.exp(np.log(np.e + np.asarray(t, float)) ** theta)
    psi = derive_psi(phi_part)
    t = np.geomspace(1e-6, 1e6, 50)
    assert np.allclose(psi(t), np.exp(-np.log(np.e + 1.0 / t) ** theta), rtol=1e-13)


def test_derive_psi_rejects_vanishing():
    psi = derive_psi(lambda t: np.asarray(t, float) - 1.0)
    with pytest.raises(ValueError):
        psi(np.array([0.5, 2.0]))


SAVU_FAMILIES = [
    power_log(2, 1),
    power_log(3, 0.5),
    exp_log(2, 0.5),
    exp_loglog(2, 0.0, 0.5),
    exp_loglog(2, 1.0, 0.0),
]


@pytest.mark.parametrize("spec", SAVU_FAMILIES)
def test_derived_pair_passes_pairing(spec):
    pair = factored(spec)
    rep = check_pairing(pair.phi_part, pair.psi_part)
    assert rep.passed
    assert math.isfinite(rep.c_emp)


@pytest.mark.parametrize("spec", ALL_BUILTIN)
def test_factored_reassembles(spec):
    pair = factored(spec)
    t = np.geomspace(1e-8, 1e8, 200)
    assert np.allclose(pair.f_part(t) * pair.phi_part(t), eval_phi(spec, t),
                       rtol=1e-12)
    psi_vals = pair.f_part(t) * pair.psi_part(t)
    assert np.all(np.diff(psi_vals) > 0)


def test_custom_table_validation():
    with pytest.raises(ConfigurationError):
        custom_table([(0.0, 0.0)])
    with pytest.raises(ConfigurationError):
        custom_table([(1.0, 1.0), (0.5, 2.0)])
    with pytest.raises(ConfigurationError):
        custom_table([(0.5, 2.0), (1.0, 1.0)])


@pytest.mark.parametrize("knot", [(math.nan, 5.0), (2.0, math.nan), (math.inf, 5.0),
                                  (2.0, math.inf)])
def test_custom_table_rejects_non_finite_knots(knot):
    with pytest.raises(ConfigurationError, match="knots must be finite"):
        custom_table([(0.5, 0.25), (1.0, 1.0), knot])


# a zero value at t > 0 once passed, and its log-linear interpolant took log(0):
# Phi' was NaN below the second knot and Phi was 0 up to it
def test_custom_table_refuses_a_zero_value_at_positive_t():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="positive at t > 0"):
            custom_table([(1.0, 0.0), (2.0, 4.0), (3.0, 9.0)])
        spec = custom_table([(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)])  # (0, 0) stays valid
        t = np.array([0.5, 1.0, 1.5])
        assert np.all(eval_phi(spec, t) > 0) and np.all(np.isfinite(eval_phi_prime(spec, t)))


# an empty CSV once let numpy's "input contained no data" warning through, and
# then raised an error that named neither the file nor the empty input
@pytest.mark.parametrize("text, message", [
    ("", "holds no data"),
    ("\n  \n\n", "holds no data"),
    ("# t, phi\n", "holds no data"),
    ("1,1,1\n2,4,8\n", "must have exactly two columns"),
], ids=["zero-byte", "blank", "comment-only", "three-columns"])
def test_table_csv_without_two_columns_of_data_names_the_file(tmp_path, text, message):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=message) as exc:
            load_table_csv(path)
    assert str(path) in str(exc.value)


def test_custom_table_that_is_not_convex_is_refused():
    # from (0, 0) its secant slopes are 1, 3 and 1: they fall at t = 2
    with pytest.raises(ConfigurationError, match=r"not convex: .* falls at the knot t = 2\.0"):
        custom_table([(1.0, 1.0), (2.0, 4.0), (3.0, 5.0)])
    with pytest.raises(ConfigurationError, match="0 at t = 0"):
        custom_table([(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)])


def test_custom_table_interpolates():
    t = np.geomspace(1e-3, 1e3, 600)
    spec = custom_table(np.column_stack([t, t ** 2]))
    assert eval_phi(spec, 2.0) == pytest.approx(4.0, rel=1e-3)
    assert eval_phi(spec, 0.0) == 0.0
    assert eval_phi(spec, 1e6) == math.inf


def test_report_is_deterministic():
    a = check_delta2(power_log(2, 1))
    b = check_delta2(power_log(2, 1))
    assert a.c_emp == b.c_emp and a.worst_point == b.worst_point


# ---------------------------------------------------------------------------
# evaluation into caller-supplied buffers
# ---------------------------------------------------------------------------

def reference_phi(spec, arr):
    """The allocating formulas that `eval_phi` must reproduce bit for bit."""
    p, th, ga = spec.p, spec.theta, spec.gamma
    if spec.family == "power":
        return arr ** p
    if spec.family == "power_log":
        return arr ** p * np.log(np.e + arr) ** th
    if spec.family == "exp_log":
        return arr ** p * np.exp(np.log(np.e + arr) ** th)
    if spec.family == "exp_loglog":
        m = np.log(spec.c0 + arr)
        return arr ** p * m ** th * np.exp(np.log(m) ** ga)
    b, D, S, P, k, r = table_piece(spec, arr)
    out = P[k] + r * (D[k] + S[k] * r / 2)
    out[arr > b[-1]] = np.inf
    return out


def table_piece(spec, arr):
    """A table's convex C1 interpolant: Phi' linear through (0, 0) and each
    knot interval's (midpoint, secant slope), on along its last piece to the
    last knot, and Phi its integral, at the breakpoints b (0, the midpoints,
    the last knot); with the slope S of Phi' on the piece from each b_k
    (0 past the last knot), the piece k of each entry and its offset r."""
    ts, vs = (np.array(k) for k in zip(*spec.table))
    if ts[0] > 0:
        ts, vs = np.r_[0.0, ts], np.r_[0.0, vs]
    mid = (ts[:-1] + ts[1:]) / 2
    b = np.r_[0.0, mid, ts[-1]]
    D = np.r_[0.0, np.diff(vs) / np.diff(ts)]
    S = np.diff(D) / np.diff(b[:-1])
    D = np.r_[D, D[-1] + S[-1] * (ts[-1] - mid[-1])]
    S = np.r_[S, S[-1], 0.0]
    P = np.r_[0.0, np.cumsum(np.diff(b) * (D[:-1] + D[1:]) / 2)]
    k = np.searchsorted(b, arr, side="right") - 1
    return b, D, S, P, k, arr - b[k]


def reference_phi_prime(spec, arr):
    """The allocating formulas that `eval_phi_prime` must reproduce bit for bit."""
    p, th, ga = spec.p, spec.theta, spec.gamma
    if spec.family == "power":
        out = p * arr ** (p - 1.0)
    elif spec.family == "power_log":
        L = np.log(np.e + arr)
        out = arr ** (p - 1.0) * L ** (th - 1.0) * (p * L + th * arr / (np.e + arr))
    elif spec.family == "exp_log":
        L = np.log(np.e + arr)
        out = (np.exp(L ** th) * arr ** (p - 1.0)
               * (p + th * arr * L ** (th - 1.0) / (np.e + arr)))
    elif spec.family == "exp_loglog":
        m = np.log(spec.c0 + arr)
        g = np.log(m)
        extra = th / ((spec.c0 + arr) * m)
        if ga > 0:
            extra = extra + ga * g ** (ga - 1.0) / ((spec.c0 + arr) * m)
        out = arr ** (p - 1.0) * m ** th * np.exp(g ** ga) * (p + arr * extra)
    else:
        b, D, S, _, k, r = table_piece(spec, arr)
        out = D[k] + S[k] * r
        out[arr > b[-1]] = np.inf
    return np.where(arr == 0.0, 0.0, out)


_KNOTS = np.geomspace(1e-8, 10, 200)

# power(2) and power_log(2, 1) reach the exponent-1 and exponent-0 shortcuts
# (t^1, L^1, L^0); the others take np.power throughout
EVAL_SPECS = [
    power(2),
    power(3.5),
    power_log(2, 1),
    power_log(3, 2),
    power_log(2, 0.5),
    exp_log(2, 0.5),
    exp_loglog(2, 1, 0.0),
    exp_loglog(3, 1.5, 0.5),
    custom_table(np.column_stack([_KNOTS, _KNOTS ** 2])),
]


@pytest.mark.parametrize("evaluate,reference", [(eval_phi, reference_phi),
                                                (eval_phi_prime, reference_phi_prime)],
                         ids=["phi", "phi_prime"])
@pytest.mark.parametrize("spec", EVAL_SPECS, ids=lambda s: s.tag)
def test_eval_into_out_is_bit_identical(spec, evaluate, reference):
    rng = np.random.default_rng(3)
    t = np.concatenate([[0.0, 1e-12, 1.0, 10.0], np.geomspace(1e-12, 1e6, 400),
                        rng.uniform(0.0, 60.0, 400)]).reshape(12, 67)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = reference(spec, t)
    fresh = evaluate(spec, t)
    out = np.full_like(t, np.nan)
    into = evaluate(spec, t, out=out, scratch=np.full((2,) + t.shape, np.nan))
    assert into is out
    for got in (fresh, into):
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("evaluate", [eval_phi, eval_phi_prime], ids=["phi", "phi_prime"])
@pytest.mark.parametrize("spec", [power(2), power_log(2, 1)], ids=lambda s: s.tag)
def test_eval_out_api(spec, evaluate):
    t = np.array([0.0, 0.5, 2.0])
    out = np.empty(3)
    assert evaluate(spec, t, out=out) is out
    with pytest.raises(ValueError):
        evaluate(spec, np.array([1.0, -1e-300, 2.0]), out=out)
    with pytest.raises(ValueError):
        evaluate(spec, -1.0)
    value = evaluate(spec, 2.0)
    assert type(value) is float and value == out[2]
    # NaN is not negative: it propagates, as it did before
    assert np.isnan(evaluate(spec, np.array([np.nan, 1.0]))[0])
    assert evaluate(spec, np.empty(0)).shape == (0,)


# exponent 2 goes through np.square, and power_log's theta * t factor is
# skipped at theta = 1; the inputs include 0, a t whose square underflows to
# a subnormal, inf and NaN
SHORTCUT_SPECS = [
    power(2),
    power(3),
    power_log(2, 1),
    power_log(3, 1),
    exp_loglog(3, 2, 0.5),
]


@pytest.mark.parametrize("evaluate,reference", [(eval_phi, reference_phi),
                                                (eval_phi_prime, reference_phi_prime)],
                         ids=["phi", "phi_prime"])
@pytest.mark.parametrize("spec", SHORTCUT_SPECS, ids=lambda s: s.tag)
def test_square_and_unit_shortcuts_are_bit_identical(spec, evaluate, reference):
    t = np.concatenate([[0.0, 1e-160, 5e-324, np.inf, np.nan, 1.0],
                        np.geomspace(1e-200, 1e200, 300)])
    with np.errstate(all="ignore"):
        expected = reference(spec, t)
        got = evaluate(spec, t)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


# ---------------------------------------------------------------------------
# decade maxima against a loop over the decades
# ---------------------------------------------------------------------------

def decade_maxima_loop(t, values):
    """Max of `values` over each decade of t that holds a point, in
    increasing-decade order."""
    dec = np.floor(np.log10(t)).astype(int)
    return np.array([values[dec == d].max() for d in range(dec.min(), dec.max() + 1)
                     if np.any(dec == d)])


def test_decade_maxima_equal_the_loop_over_decades():
    rng = np.random.default_rng(4)
    values = rng.standard_normal(GRID.size)
    values[[3, 200, 201, 640]] = -math.inf
    values[[70, 900]] = math.nan
    values[GRID >= 1e6] = -math.inf  # whole decades without a finite value
    kept = rng.random(GRID.size) < 0.3  # a filtered GRID, as check_delta2 passes
    kept[GRID < 1e-5] = False           # with the first decades dropped
    for t, v in ((GRID, values), (GRID[kept], values[kept])):
        got, expected = _decade_maxima(t, v), decade_maxima_loop(t, v)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    maxima = _decade_maxima(GRID, values)
    assert len(maxima) == 17 and math.isnan(maxima[1])  # decades 1e-8 .. 1e8
    assert np.array_equal(maxima[-3:], [-math.inf] * 3)


# ---------------------------------------------------------------------------
# row-blocked ratio search against the whole-grid one
# ---------------------------------------------------------------------------

def dense_ratio_report(condition, num, den, ceiling):
    """The 2-D ratio search on the whole grid at once: the reference for the
    row-blocked `_ratio_report`."""
    pts = GRID
    s, t = pts[:, None], pts[None, :]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        numer = num(s, t)
        denom = den(s, t)
        ratio = numer / denom
    bad = (denom == 0) & (numer > 0)
    if np.any(bad):
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return ConditionReport(condition, math.inf, (float(pts[i]), float(pts[j])),
                               False, True, False, details={"denominator_vanishes": True})
    ok = np.isfinite(ratio)
    truncated = bool(np.any(~ok))
    ratio = np.where(ok, ratio, -np.inf)
    i, j = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
    c_emp = float(ratio[i, j])
    growing = (_growing(decade_maxima_loop(pts, ratio.max(axis=0)))
               or _growing(decade_maxima_loop(pts, ratio.max(axis=1))))
    return ConditionReport(condition, c_emp, (float(pts[i]), float(pts[j])),
                           (not growing) and c_emp <= ceiling, growing, truncated)


def pointwise(a, b):
    """The numerator a(s) b(t), evaluated at every point of the grid."""
    return lambda s, t: a(s + 0 * t) * b(t + 0 * s)


def ratio_cases(spec):
    """Each check's numerator factors (a, b) and its denominator."""
    pair = factored(spec)
    return [("submultiplicative_f", (pair.f_part, pair.f_part),
             lambda s, t: pair.f_part(s * t)),
            ("pairing", (pair.phi_part, pair.psi_part), lambda s, t: pair.phi_part(s * t))]


@pytest.mark.parametrize("spec", [power(2), power_log(2, 1), power_log(3, 1),
                                  exp_loglog(3, 2, 0.5)], ids=lambda s: s.tag)
def test_blocked_ratio_report_equals_the_dense_one(spec):
    for condition, (a, b), den in ratio_cases(spec):
        assert (repr(_ratio_report(condition, _on_grid(a, b), den, 2.0))
                == repr(dense_ratio_report(condition, pointwise(a, b), den, 2.0)))


@pytest.mark.parametrize("spec", [power_log(2, 1), power(3), exp_log(2, 0.5)],
                         ids=lambda s: s.tag)
def test_checks_with_factors_evaluated_once_equal_the_dense_search(spec):
    # check_submultiplicative_f and check_pairing evaluate f, phi and psi on
    # GRID once; the dense search evaluates them at every point
    pair = factored(spec)
    for (condition, (a, b), den), report in zip(ratio_cases(spec), (
            check_submultiplicative_f(pair.f_part, 2.0),
            check_pairing(pair.phi_part, pair.psi_part, 2.0))):
        assert repr(report) == repr(dense_ratio_report(condition, pointwise(a, b), den, 2.0))


def identity(t):
    return t


def test_blocked_ratio_report_flags_equal_the_dense_ones():
    overflow = ((np.exp, identity), lambda s, t: s + t)   # exp(s) t is inf past s ~ 710
    vanishes = ((identity, identity), lambda s, t: np.where(s * t > 50.0, 0.0, s * t))
    ties = ((np.ones_like, np.ones_like), lambda s, t: np.ones_like(s * t))
    reports = []
    for (a, b), den in (overflow, vanishes, ties):
        reports.append(_ratio_report("pairing", _on_grid(a, b), den, math.inf))
        assert repr(reports[-1]) == repr(dense_ratio_report("pairing", pointwise(a, b), den,
                                                            math.inf))
    assert reports[0].truncated
    assert reports[1].details["denominator_vanishes"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_growing_compares_non_finite_maxima_without_a_warning():
    inf = math.inf
    assert not _growing([-inf, -inf, 1.0, 2.0])   # equal infinities do not increase
    assert not _growing([inf, inf, inf])
    assert not _growing([-inf, 1.0, 2.0])         # a tail from -inf gains no finite share
    assert _growing([-inf, -inf, 1.0, 2.0, 4.0])
    assert _growing([1.0, 2.0, inf])
    # whole decades of GRID where exp(s) t overflows: two -inf decade maxima
    report = _ratio_report("pairing", _on_grid(np.exp, identity), lambda s, t: s + t, math.inf)
    assert report.truncated and not report.growing


# ---------------------------------------------------------------------------
# inverse of the density Phi'
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [power_log(2, 1), power_log(3, 1), power_log(1.5, 0.5),
                                  exp_loglog(3, 2, 0.5)], ids=lambda s: s.tag)
def test_phi_prime_inverse_brackets_the_root(spec):
    rng = np.random.default_rng(0)
    y = np.concatenate([[0.0, 1e-12, 1e6], 10.0 ** rng.uniform(-4, 4, 500)])
    t_lo, t_hi = phi_prime_inverse(spec, y)
    assert t_lo[0] == t_hi[0] == 0.0
    assert np.all(eval_phi_prime(spec, t_lo) <= y)
    assert np.all(eval_phi_prime(spec, t_hi) >= y)
    assert np.all(t_hi[1:] <= t_lo[1:] * math.exp(_INVERSE_RTOL))
    # warm-started from the last roots, for nearby values, and from a
    # start that is no root at all
    y2 = y * (1.0 + 1e-3 * rng.standard_normal(y.size))
    for start in (0.5 * (t_lo + t_hi), np.full(y.size, 1e3)):
        lo2, hi2 = phi_prime_inverse(spec, y2, start)
        assert np.all(eval_phi_prime(spec, lo2) <= y2)
        assert np.all(eval_phi_prime(spec, hi2) >= y2)
        assert np.all(hi2[1:] <= lo2[1:] * math.exp(_INVERSE_RTOL))


def rounding_hull(t_lo, t_hi):
    """`power`'s closed-form ends widened by its rounding: 16 eps relative
    (a few roundings of t, of y / p and of Phi'), and one unit in the last
    place for a root below the smallest normal double."""
    eps = np.finfo(float).eps
    return np.nextafter(t_lo * (1.0 - 16 * eps), 0.0), np.nextafter(t_hi * (1.0 + 16 * eps), np.inf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec", [s for s in ALL_BUILTIN if s.family != "power"]
                         + [power_log(3, 1), exp_loglog(3, 2, 0.5), power(1.5), power(2),
                            power(3)], ids=lambda s: s.tag)
def test_phi_prime_inverse_over_the_float_range(spec):
    # roots from below 1e-150 to above 1e150, and for power_log(1.5, 0.5)
    # and power(1.5) below the smallest double and above the largest
    y = np.concatenate([[0.0], 10.0 ** np.linspace(-300, 300, 241)])
    t_lo, t_hi = phi_prime_inverse(spec, y)
    with np.errstate(over="ignore"):  # a root near the largest double
        starts = (None, 0.5 * (t_lo + t_hi) * (1.0 + 1e-6), np.full(y.size, 1e3))
    for t0 in starts:
        t_lo, t_hi = phi_prime_inverse(spec, y, t0)
        assert t_lo[0] == t_hi[0] == 0.0
        assert np.all((0.0 <= t_lo) & (t_lo <= t_hi))
        assert np.all(t_lo < np.inf) and np.all(t_hi[1:] > 0.0)
        finite = np.isfinite(t_hi)
        # power's ends are its closed form, exact up to rounding
        lo, hi = rounding_hull(t_lo, t_hi) if spec.family == "power" else (t_lo, t_hi)
        assert np.all(eval_phi_prime(spec, lo) <= y)
        assert np.all(eval_phi_prime(spec, hi[finite]) >= y[finite])  # Phi'(inf) is NaN
        # t_lo = 0 and t_hi = inf only where the root under- or overflows:
        # past the smallest and the largest positive double
        assert np.all(eval_phi_prime(spec, 5e-324) >= y[1:][t_lo[1:] == 0.0])
        assert np.all(eval_phi_prime(spec, np.finfo(float).max) < y[~finite])
        # the width, or adjacent doubles in log t where one ulp of it is wider
        lo, hi = (t[(t_lo >= np.finfo(float).tiny) & finite] for t in (t_lo, t_hi))
        adjacent = np.log(hi) - np.log(lo) <= np.spacing(np.abs(np.log(lo)))
        assert np.all((hi <= lo * math.exp(_INVERSE_RTOL)) | adjacent)


@pytest.mark.parametrize("spec,most", [(power_log(2, 1), 20), (exp_log(2, 0.5), 20),
                                       (power_log(1.5, 0.5), 50)],
                         ids=["power_log(2,1)", "exp_log(2,0.5)", "power_log(1.5,0.5)"])
def test_phi_prime_inverse_closes_at_the_ends_of_the_float_range(spec, most, monkeypatch):
    # at y = 1e-300 and 1e300 one ulp of log t exceeds the width, and the
    # roots of power_log(1.5, 0.5) leave the float range; each bracket still
    # closes, after a few Phi' passes rather than all the rounds
    passes = []
    monkeypatch.setattr("orlicap.young.eval_phi_prime",
                        lambda *a, **k: passes.append(1) or eval_phi_prime(*a, **k))
    phi_prime_inverse(spec, np.array([1e-300, 1e300]))
    assert 0 < len(passes) < most


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_phi_prime_inverse_of_a_table_is_its_closed_form(monkeypatch):
    # a table's Phi' is piecewise linear, so each root is one linear solve,
    # checked by one Phi' pass: the contract holds on y over 24 decades and
    # on y in (1.0e-3, 1.45e-3), about Phi' at the first knot; above Phi' at
    # the last knot the root is that knot, and the bracket [t_N, inf]
    knots = np.geomspace(1e-6, 1e6, 400)
    spec = custom_table(np.column_stack([knots, knots ** 1.5]))
    rng = np.random.default_rng(0)
    first = 10.0 ** rng.uniform(-4, 4, 8192)
    first = first[(1.0e-3 < first) & (first < 1.45e-3)]
    y = np.concatenate([[0.0], 10.0 ** rng.uniform(-12, 12, 2000), first])
    top = y > eval_phi_prime(spec, 1e6)
    assert first.size >= 10 and 0 < top.sum() < y.size
    passes = []
    monkeypatch.setattr("orlicap.young.eval_phi_prime",
                        lambda *a, **k: passes.append(1) or eval_phi_prime(*a, **k))
    t_lo, t_hi = phi_prime_inverse(spec, y)
    assert 0 < len(passes) <= 2
    assert t_lo[0] == t_hi[0] == 0.0
    assert np.all(t_lo[top] == 1e6) and np.all(t_hi[top] == np.inf)
    lo, hi, y = t_lo[~top], t_hi[~top], y[~top]
    assert np.all(eval_phi_prime(spec, lo) <= y) and np.all(eval_phi_prime(spec, hi) >= y)
    assert np.all(hi[1:] <= lo[1:] * math.exp(_INVERSE_RTOL))


def test_phi_prime_inverse_power_is_the_closed_form():
    y = np.array([0.0, 0.5, 3.0, 1e8])
    t_lo, t_hi = phi_prime_inverse(power(3), y)
    assert np.array_equal(t_lo, t_hi)
    np.testing.assert_allclose(3.0 * t_lo ** 2, y, rtol=1e-15)


def test_conjugate_bound_from_the_bracket_is_above_the_sup():
    # Phi*(y) = sup_t (y t - Phi(t)); y t_hi - Phi(t_lo) bounds it above
    spec = power_log(2, 1)
    y = np.array([0.3, 2.0, 50.0])
    t_lo, t_hi = phi_prime_inverse(spec, y)
    bound = y * t_hi - eval_phi(spec, t_lo)
    t = np.geomspace(1e-6, 1e3, 200001)
    sup = np.max(y[:, None] * t[None, :] - eval_phi(spec, t)[None, :], axis=1)
    assert np.all(sup <= bound)
    np.testing.assert_allclose(bound, sup, rtol=1e-8)
