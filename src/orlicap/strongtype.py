"""Both sides of the capacitary strong-type inequality on test functions.

The left-hand side is evaluated the way the underlying argument builds it:
levels 2^k, per-level capacities, and weights Psi(2^(k+1)) - Psi(2^k).
The empirical constant of a report is k_emp = lhs / rhs; a suite verdict
tracks whether the worst constant stays finite and stable across an
amplitude sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from .capacity import CapacityCache, _EnergyWorkspace, cache_for
from .errors import ConfigurationError, NumericalError
from .grid import GridDomain, GridFunction, from_callable, level_mask
from .young import (
    FactoredPair,
    YoungSpec,
    _growing,
    check_pairing,
    check_submultiplicative_f,
    eval_phi,
    factored,
)

TAIL_OCTAVES = 20  # dyadic levels resolved below the peak before the tail bound


# ---------------------------------------------------------------------------
# Psi weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiSpec:
    """Increasing weight Psi on (0, inf), derived from a factorization or
    explicit as another Young family."""

    fn: Callable
    tag: str

    def __call__(self, t):
        return self.fn(t)

    def weight(self, a: float, b: float) -> float:
        return float(self.fn(b) - self.fn(a))


def _verify_increasing(fn: Callable, tag: str) -> None:
    t = np.geomspace(1e-9, 1e9, 601)
    v = np.asarray(fn(t), dtype=float)
    if not np.all(np.isfinite(v)):
        raise ConfigurationError(f"psi {tag} is not finite on the test grid")
    if np.any(np.diff(v) < 0) or v[-1] <= v[0]:
        raise ConfigurationError(f"psi {tag} is not increasing")


def derived_psi(phi_spec: YoungSpec) -> PsiSpec:
    """Psi = f * (1/phi(1/t)) from the canonical factorization."""
    pair = factored(phi_spec)

    def fn(t):
        arr = np.asarray(t, dtype=float)
        return pair.f_part(arr) * pair.psi_part(arr)

    psi = PsiSpec(fn, f"derived[{phi_spec.tag}]")
    _verify_increasing(fn, psi.tag)
    return psi


def psi_factor(psi: PsiSpec, pair: FactoredPair) -> Callable:
    """psi_part with Psi = f * psi_part, for the f of Phi's factorization
    `pair`: the weight that the pairing condition checks against phi_part."""
    def psi_part(t):
        return np.asarray(psi(t), dtype=float) / pair.f_part(np.asarray(t, dtype=float))
    return psi_part


def explicit_psi(psi_spec: YoungSpec) -> PsiSpec:
    fn = lambda t: eval_phi(psi_spec, np.asarray(t, dtype=float))
    psi = PsiSpec(fn, psi_spec.tag)
    _verify_increasing(fn, psi.tag)
    return psi


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

def _mollifier(dist, radius):
    s2 = np.clip((dist / radius) ** 2, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.exp(1.0 - 1.0 / np.maximum(1.0 - s2, 1e-300))
    return np.where(s2 < 1.0, vals, 0.0)


def _distance(stack, center):
    return np.sqrt(np.sum((stack - center.reshape(-1, *([1] * (stack.ndim - 1)))) ** 2, axis=0))


def _two_peak(spec, stack, dist):
    c1 = np.zeros(len(stack)); c1[0] = -0.35
    c2 = np.zeros(len(stack)); c2[0] = 0.35
    return np.maximum(np.maximum(0.0, 1.0 - _distance(stack, c1) / 0.25),
                      0.5 * np.maximum(0.0, 1.0 - _distance(stack, c2) / 0.2))


def _random_smooth(spec, stack, dist):
    rng = np.random.default_rng(spec.seed)
    m = 6
    centers = rng.uniform(-0.4, 0.4, size=(m, len(stack)))
    amps = rng.uniform(0.3, 1.0, size=m)
    sigmas = rng.uniform(0.1, 0.25, size=m)
    vals = np.zeros(dist.shape)
    for j in range(m):
        vals += amps[j] * np.exp(-_distance(stack, centers[j]) ** 2 / (2.0 * sigmas[j] ** 2))
    vals *= _mollifier(dist, 0.75)
    peak = vals.max()
    if peak > 0:
        vals /= peak
    return vals


# shape -> (tag at amplitude 1, profile(spec, (n, ...) coordinate stack, |x|))
SHAPES = {
    "tent": (lambda s: f"tent(r={s.r:g})",
             lambda s, x, d: np.maximum(0.0, 1.0 - d / s.r)),
    "bump": (lambda s: f"bump(sigma={s.sigma:g})",
             lambda s, x, d: _mollifier(d, 3.0 * s.sigma)),
    "plateau": (lambda s: f"plateau({s.r_in:g},{s.r_out:g})",
                lambda s, x, d: np.clip((s.r_out - d) / (s.r_out - s.r_in), 0.0, 1.0)),
    "two_peak": (lambda s: "two_peak", _two_peak),
    "random_smooth": (lambda s: f"random_smooth(seed={s.seed})", _random_smooth),
}


@dataclass(frozen=True)
class TestFunctionSpec:
    __test__ = False  # "test function" in the variational sense, not pytest's

    shape: str  # a key of SHAPES
    amplitude: float = 1.0
    r: float = 0.5
    sigma: float = 0.2
    r_in: float = 0.2
    r_out: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ConfigurationError(f"unknown test-function shape {self.shape!r}")
        params = (self.amplitude, self.r, self.sigma, self.r_in, self.r_out)
        if not all(map(math.isfinite, params)):
            raise ConfigurationError("test-function parameters must be finite")
        if not (self.r > 0 and self.sigma > 0 and self.r_in < self.r_out):  # else 0/0 shapes
            raise ConfigurationError(
                f"test functions need r > 0, sigma > 0 and r_in < r_out; got r = {self.r!r}, "
                f"sigma = {self.sigma!r}, r_in = {self.r_in!r}, r_out = {self.r_out!r}")
        if self.seed < 0:  # numpy's generator refuses a negative seed
            raise ConfigurationError(f"test functions need seed >= 0, got seed = {self.seed!r}")

    @property
    def tag(self) -> str:
        core = SHAPES[self.shape][0](self)
        return core if self.amplitude == 1.0 else f"{self.amplitude:g}*{core}"


def build_test_function(fn_spec: TestFunctionSpec, domain: GridDomain) -> GridFunction:
    profile = SHAPES[fn_spec.shape][1]

    def sample(stack):
        dist = np.sqrt(np.sum(stack ** 2, axis=0))
        return fn_spec.amplitude * profile(fn_spec, stack, dist)

    u = from_callable(domain, sample)
    support = np.abs(u.values) > 0
    if np.any(support & (domain.radius >= domain.mark_radius)):
        raise ConfigurationError(
            f"{fn_spec.tag} is not compactly supported inside B(0, R - 2h)")
    return u


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class LevelRow:
    k: int
    level: float
    capacity: float
    psi_weight: float
    lhs_partial: float
    nodes: int
    converged: bool


@dataclass
class StrongTypeReport:
    tag: str
    amplitude: float
    lhs: float
    rhs: float
    k_emp: float
    k_min: int
    k_max: int
    levels: List[LevelRow]
    converged: bool
    tail_bound: Optional[float] = None  # of the levels below k_min; verify_strong_type sets it

    def summary(self) -> dict:
        return {"tag": self.tag, "lambda": self.amplitude, "lhs": self.lhs,
                "rhs": self.rhs, "k_emp": self.k_emp,
                "tail_bound": self.tail_bound, "converged": self.converged}


def rhs_energy(u: GridFunction, phi_spec: YoungSpec) -> float:
    """Gradient energy sum w Phi(|D+ u|), the right-hand side of the
    inequality: the functional each level's capacity minimizes, at u."""
    return _EnergyWorkspace(u.domain, phi_spec).energy(np.ascontiguousarray(u.values))


def dyadic_levels(peak: float, psi: PsiSpec):
    """Yield (k, Psi(2^(k+1)) - Psi(2^k)) for k from ceil(log2 peak) down
    to floor(log2 peak) - TAIL_OCTAVES: the levels every dyadic sum over
    {|u| > 2^k} resolves for a function with max |u| = peak > 0."""
    top = math.log2(peak)
    for k in range(math.ceil(top), math.floor(top) - TAIL_OCTAVES - 1, -1):
        level = 2.0 ** k
        yield k, psi.weight(level, 2.0 * level)  # 2^(k+1), or inf past the float range


def lhs_dyadic(u: GridFunction, phi_spec: YoungSpec, psi: PsiSpec,
               cache: CapacityCache = None) -> StrongTypeReport:
    """Dyadic level-set sum approximating the capacitary integral.

    Levels come from dyadic_levels, k_max = ceil(log2 max|u|) down to
    k_min; `verify_strong_type` covers the neglected lower levels with the
    reported tail bound, so they are never silently dropped.
    NumericalError when the rhs is not finite and positive, or a level's
    weight or the sum is not finite (an amplitude near the float range's
    edges).
    """
    domain = u.domain
    cache = cache_for(phi_spec, domain, cache)

    peak = u.max_abs()
    # an amplitude near the float range's edges over- or underflows here,
    # and is refused below, before any solve
    with np.errstate(all="ignore"):
        rhs = rhs_energy(u, phi_spec)
        levels = list(dyadic_levels(peak, psi)) if peak > 0.0 else []
    if peak == 0.0:
        return StrongTypeReport(tag="zero", amplitude=1.0, lhs=0.0, rhs=rhs,
                                k_emp=0.0, k_min=0, k_max=0, levels=[],
                                tail_bound=0.0, converged=True)
    # finite weights hold finite Psi values at every 2^k, Psi(2^(k_min+1)) included
    if not (0.0 < rhs < math.inf and all(math.isfinite(wgt) for _, wgt in levels)):
        raise NumericalError(f"max |u| = {peak!r}: the energy {rhs!r} or a weight of "
                             f"{psi.tag} is not finite and positive")

    rows = []
    lhs = 0.0
    all_conv = True
    for k, wgt in levels:
        lvl = 2.0 ** k
        mask = level_mask(u, lvl)
        res = cache.capacity(mask)
        lhs += res.value * wgt
        all_conv &= res.converged
        rows.append(LevelRow(k=k, level=lvl, capacity=res.value,
                             psi_weight=wgt, lhs_partial=res.value * wgt,
                             nodes=mask.count, converged=res.converged))
    if not math.isfinite(lhs):
        raise NumericalError(f"max |u| = {peak!r}: the dyadic sum {lhs!r} is not finite")
    rows.reverse()
    k_min, k_max = rows[0].k, rows[-1].k
    k_emp = lhs / rhs
    return StrongTypeReport(tag="", amplitude=1.0, lhs=lhs, rhs=rhs,
                            k_emp=k_emp, k_min=k_min, k_max=k_max,
                            levels=rows, converged=all_conv)


DEFAULT_LAMBDAS = tuple(2.0 ** j for j in range(-4, 5))


@dataclass
class SuiteVerdict:
    max_k_emp: float
    stable: bool
    all_converged: bool
    conditions_ok: bool
    per_function: dict = field(default_factory=dict)


def verify_strong_type(suite: Sequence[TestFunctionSpec], phi_spec: YoungSpec,
                       psi: PsiSpec, domain: GridDomain,
                       lambdas: Sequence[float] = DEFAULT_LAMBDAS,
                       cache: CapacityCache = None):
    """Run the amplitude sweep over a suite and assemble the verdict.

    The structural conditions on (f, phi, psi) are checked and reported;
    a failing pair is still swept (that failure mode is worth measuring),
    the verdict just records that the hypotheses did not hold.
    """
    pair = factored(phi_spec)
    sub_rep = check_submultiplicative_f(pair.f_part)
    pair_rep = check_pairing(pair.phi_part, psi_factor(psi, pair))
    conditions_ok = sub_rep.passed and pair_rep.passed

    cache = cache_for(phi_spec, domain, cache)
    reports = []
    per_function = {}
    for fn_spec in suite:
        ks = []
        for lam in lambdas:
            u = build_test_function(replace(fn_spec, amplitude=lam), domain)
            rep = lhs_dyadic(u, phi_spec, psi, cache)
            if rep.levels:  # the levels below k_min: cap(support) Psi(2^(k_min+1))
                with np.errstate(all="ignore"):  # an amplitude near the float range's edges
                    psi_tail = float(psi(2.0 ** (rep.k_min + 1)))
                support = level_mask(u, u.max_abs() * 1e-15)
                rep.tail_bound = cache.capacity(support).value * psi_tail
            rep.tag = fn_spec.tag
            rep.amplitude = lam
            reports.append(rep)
            ks.append(rep.k_emp)
        finite = [k for k in ks if math.isfinite(k)]
        per_function[fn_spec.tag] = {
            "k_emp": ks,
            "max": max(finite) if finite else math.inf,
            "growing": _growing(ks, rel=0.02) or not all(map(math.isfinite, ks)),
        }
    max_k = max(info["max"] for info in per_function.values())
    stable = not any(info["growing"] for info in per_function.values())
    all_conv = all(r.converged for r in reports)
    verdict = SuiteVerdict(max_k_emp=max_k, stable=stable,
                           all_converged=all_conv,
                           conditions_ok=conditions_ok,
                           per_function=per_function)
    return reports, verdict
