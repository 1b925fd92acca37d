"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
and measured constants.  The full suite is property-based against
independent numerical oracles (closed forms, the 1-D radial reduction,
fine quadrature) and takes on the order of ten minutes at the default
resolutions.
"""

import math
import time

import numpy as np
import pytest

from orlicap import (
    CapacityCache,
    GridFunction,
    ball_capacity_estimate,
    ball_mask,
    build_domain,
    capacity_ball_radial,
    capacity_variational,
    check_delta2,
    check_delta2_plus,
    check_submultiplicative_f,
    custom_table,
    exp_log,
    exp_loglog,
    integrate,
    luxemburg_norm,
    modular,
    power,
    power_log,
    riesz_capacity_variational,
)
from orlicap.averages import average_trace, default_centers, grid_lipschitz
from orlicap.cli import main as cli_main
from orlicap.strongtype import (
    TestFunctionSpec,
    build_test_function,
    derived_psi,
    lhs_dyadic,
    verify_strong_type,
)
from orlicap.young import E_E, FactoredPair
from strongtype_reference import dyadic_darboux_sums


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def dom128():
    return build_domain(2, 1.0, 128)


@pytest.fixture(scope="module")
def t2_cache_128(dom128):
    return CapacityCache(power(2), dom128)


def test_criterion_1_condenser_oracle(dom128, t2_cache_128):
    t0 = time.time()
    val2 = t2_cache_128.capacity(ball_mask(dom128, 0.25)).value
    dt2 = time.time() - t0
    exact2 = 2.0 * math.pi / math.log(4.0)
    err2 = abs(val2 - exact2) / exact2

    dom3 = build_domain(3, 1.0, 48)
    val3 = capacity_variational(ball_mask(dom3, 0.25), power(2), dom3).value
    exact3 = 4.0 * math.pi / (1.0 / 0.25 - 1.0)
    err3 = abs(val3 - exact3) / exact3

    ok = err2 <= 0.05 and dt2 <= 60.0 and err3 <= 0.08
    report(1, "condenser oracle", ok,
           f"2-D {val2:.4f} vs {exact2:.4f} err {err2:.2%} in {dt2:.1f}s; "
           f"3-D {val3:.4f} vs {exact3:.4f} err {err3:.2%}")


def test_criterion_2_ball_estimate_band(dom128):
    t0 = time.time()
    bands = {}
    for theta in (0.0, 0.5, 1.0):
        spec = power(2) if theta == 0.0 else power_log(2, theta)
        ratios = []
        for k in range(2, 7):
            r = 2.0 ** (-k)
            cap = capacity_variational(ball_mask(dom128, r), spec, dom128).value
            est = ball_capacity_estimate(r, spec, dom128.R, dom128.n).estimate
            ratios.append(cap / est)
        bands[theta] = (min(ratios), max(ratios))
    elapsed = time.time() - t0
    ok = all(hi / lo <= 4.0 for lo, hi in bands.values()) and elapsed <= 900
    detail = "; ".join(f"theta={th:g}: [{lo:.2f},{hi:.2f}] band {hi / lo:.2f}"
                       for th, (lo, hi) in bands.items())
    report(2, "ball-estimate band", ok, f"{detail}; {elapsed:.0f}s")


def test_criterion_3_strong_type_stability(dom128, t2_cache_128, default_suite):
    t0 = time.time()
    spec2 = power(2)
    _, verdict2 = verify_strong_type(default_suite, spec2, derived_psi(spec2),
                                     dom128, cache=t2_cache_128)
    spreads = {}
    for tag, info in verdict2.per_function.items():
        ks = [k for k in info["k_emp"] if math.isfinite(k)]
        spreads[tag] = max(ks) / min(ks)
    homog_ok = all(s <= 1.10 for s in spreads.values())

    spec_log = power_log(2, 1)
    psi_log = derived_psi(spec_log)
    maxes = {}
    for res in (96, 128):
        dom = dom128 if res == 128 else build_domain(2, 1.0, res)
        _, verdict = verify_strong_type(default_suite, spec_log, psi_log, dom)
        maxes[res] = verdict.max_k_emp
    repro = abs(maxes[96] - maxes[128]) / maxes[128]
    elapsed = time.time() - t0
    ok = (homog_ok and all(math.isfinite(m) for m in maxes.values())
          and repro <= 0.05 and elapsed <= 1800)
    report(3, "strong-type stability", ok,
           f"homogeneous spread max {max(spreads.values()):.4f} (<=1.10); "
           f"log pair max k_emp 96->{maxes[96]:.4f} 128->{maxes[128]:.4f} "
           f"dev {repro:.2%}; {elapsed:.0f}s")


def test_criterion_4_dyadic_sandwich(dom128, t2_cache_128, default_suite):
    spec = power(2)
    psi = derived_psi(spec)
    worst = 0.0
    ok = True
    for fn in default_suite:
        u = build_test_function(fn, dom128)
        rep = lhs_dyadic(u, spec, psi, t2_cache_128)
        lower, upper = dyadic_darboux_sums(u, spec, psi, t2_cache_128)
        tol = 1e-6 * max(upper, 1.0)
        ok &= (lower <= rep.lhs + tol) and (rep.lhs <= upper + tol)
        worst = max(worst, abs(rep.lhs - upper) / max(upper, 1e-300))
    report(4, "dyadic sandwich", ok,
           f"lhs within [lower, upper] Darboux sums for all 5 functions; "
           f"worst |lhs-upper|/upper {worst:.2e}")


def test_criterion_5_luxemburg_correctness(dom128):
    rng = np.random.default_rng(2024)
    families = [power(2), power(3), power_log(2, 1), exp_log(2, 0.5)]
    worst_mod = 0.0
    for spec in families:
        for _ in range(5):
            vals = np.where(dom128.radius < 0.7,
                            rng.uniform(-3.0, 3.0, dom128.shape), 0.0)
            u = GridFunction(dom128, vals)
            s = luxemburg_norm(u, spec)
            m = modular(GridFunction(dom128, vals / s), spec)
            worst_mod = max(worst_mod, abs(m - 1.0))
    worst_lp = 0.0
    for p in (1.5, 2.0, 3.0, 4.0):
        vals = np.where(dom128.radius < 0.6,
                        rng.uniform(0.0, 2.0, dom128.shape), 0.0)
        u = GridFunction(dom128, vals)
        lp = integrate(np.abs(vals) ** p, dom128) ** (1.0 / p)
        worst_lp = max(worst_lp, abs(luxemburg_norm(u, power(p)) - lp) / lp)
    ok = worst_mod <= 1e-7 and worst_lp <= 1e-8
    report(5, "Luxemburg correctness", ok,
           f"unit-modular dev {worst_mod:.2e} over 20 functions x 4 families; "
           f"L^p agreement {worst_lp:.2e}")


def test_criterion_6_condition_checkers():
    # families whose parameters keep them inside the strengthened growth
    # class (the exp-log family belongs only at theta = 0: its squaring
    # ratio exp((2^theta - 1) (ln t)^theta) is unbounded for theta > 0)
    families = {
        "reference exp_loglog": exp_loglog(2, 1, 0.0, E_E),
        "power_log(2,0.5)": power_log(2, 0.5),
        "power_log(2,1)": power_log(2, 1),
        "power_log(2,2)": power_log(2, 2),
        "exp_log(2,0)": exp_log(2, 0.0),
        "exp_loglog(2,0,0.5)": exp_loglog(2, 0.0, 0.5),
        "exp_loglog(2,0,0.8)": exp_loglog(2, 0.0, 0.8),
    }
    passes = {name: check_delta2_plus(spec).passed for name, spec in families.items()}

    t = np.geomspace(1e-8, 600, 4000)
    exp_fail = not check_delta2(
        custom_table(np.column_stack([t, np.expm1(t)]))).passed
    linear_pair = FactoredPair(
        f_part=lambda s: np.asarray(s, float) ** 2,
        phi_part=lambda s: np.asarray(s, float),
        psi_part=lambda s: 1.0 / np.asarray(s, float),
        phi_part_prime=lambda s: np.ones_like(np.asarray(s, float)),
        p=2.0)
    linear_fail = not check_delta2_plus(linear_pair).passed
    squaring_rep = check_delta2_plus(exp_log(2, 0.5))
    squaring_fail = (not squaring_rep.passed
                     and not squaring_rep.details["squaring_bounded"])

    sub_dev = max(abs(check_submultiplicative_f(lambda s, p=p: s ** p).c_emp - 1.0)
                  for p in (1.5, 2.0, 3.0, 4.5))
    ok = (all(passes.values()) and exp_fail and linear_fail and squaring_fail
          and sub_dev <= 1e-12)
    report(6, "condition checkers", ok,
           f"delta2+ passes: {sum(passes.values())}/{len(passes)}; "
           f"exponential rejected: {exp_fail}; linear factor rejected: "
           f"{linear_fail}; unbounded squaring rejected: {squaring_fail}; "
           f"submultiplicative dev {sub_dev:.1e}")


def test_criterion_7_riesz_equivalence():
    t0 = time.time()
    dom = build_domain(2, 1.0, 64)
    spec = power(2)
    ratios = []
    for r in (0.1, 0.2, 0.3, 0.4):
        rz = riesz_capacity_variational(ball_mask(dom, r), spec, dom)
        cv = capacity_variational(ball_mask(dom, r), spec, dom)
        assert rz.converged and cv.converged
        ratios.append(rz.value / cv.value)
    band = max(ratios) / min(ratios)
    elapsed = time.time() - t0
    ok = band <= 6.0 and elapsed <= 600
    report(7, "Riesz equivalence band", ok,
           f"ratios {['%.4f' % x for x in ratios]}, max/min {band:.2f}; "
           f"{elapsed:.0f}s")


def test_criterion_8_capacitary_averages(dom128, t2_cache_128):
    spec = power(2)
    psi = derived_psi(spec)
    ok = True
    worst_final = 0.0
    worst_env = 0.0
    for fn in (TestFunctionSpec("bump", sigma=0.2), TestFunctionSpec("tent", r=0.5)):
        u = build_test_function(fn, dom128)
        L = grid_lipschitz(u)
        for center in default_centers(dom128):
            tr = average_trace(u, center, spec, psi, j_max=2, r0=0.25,
                               epsilon=0.05, cache=t2_cache_128)
            tail = tr.values[-3:]
            non_inc = all(a >= b - 1e-9 for a, b in zip(tail, tail[1:]))
            ok &= non_inc and tr.final < 0.05
            worst_final = max(worst_final, tr.final)
            for r, v in zip(tr.radii, tr.values):
                env = float(psi(L * r))
                ok &= v <= 1.10 * env
                if env > 0:
                    worst_env = max(worst_env, v / env)
    report(8, "capacitary averages", ok,
           f"18 traces non-increasing, worst final {worst_final:.4f} (<0.05), "
           f"worst value/envelope {worst_env:.3f} (<=1.10)")


def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("""
[young]
family = power
p = 2.0

[domain]
n = 2
r = 1.0
resolution = 64

[strong-type]
functions = tent,bump
lambda_min_exp = -1
lambda_max_exp = 1
""", encoding="utf-8")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["strong-type", "--config", str(cfg),
                         "--out", str(out), "--seed", "3"])
        assert code == 0
        outs.append(out)
    same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
               for f in ("manifest.json", "strongtype.csv", "strongtype.json"))
    report(9, "determinism", same,
           "two runs with identical config+seed produced byte-identical "
           "manifest, CSV, and JSON")
