"""Young-function families, factorizations, and structural-condition checkers.

The built-in families all factor as f(t) * phi_part(t) with f(t) = t^p:

    power       t^p
    power_log   t^p * log(e+t)^theta
    exp_log     t^p * exp(log(e+t)^theta)
    exp_loglog  t^p * log(c0+t)^theta * exp(loglog(c0+t)^gamma)

A companion weight is derived as psi_part(t) = 1 / phi_part(1/t), so that
Psi(t) = f(t) * psi_part(t).  Condition checkers sample one geometric grid
(`GRID`) and report the empirical constant plus a bounded/growing verdict
for the trend at the grid ends (a supremum over (0, inf) is not
computable; the conditions are asymptotic, so monotone growth toward a
grid end is the numerical signature of failure).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError

E_E = math.exp(math.e)  # smallest admissible additive constant for exp_loglog

FAMILIES = ("power", "power_log", "exp_log", "exp_loglog", "custom_table")


@dataclass(frozen=True)
class YoungSpec:
    """Parametric Young function.  Use the module constructors below."""

    family: str
    p: float = 2.0
    theta: float = 0.0
    gamma: float = 0.0
    c0: float = E_E
    table: Optional[tuple] = None  # ((t, Phi(t)), ...) for custom_table

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown family {self.family!r}")
        if not all(map(math.isfinite, (self.p, self.theta, self.gamma, self.c0))):
            raise ConfigurationError("p, theta, gamma and c0 must be finite")
        if self.family == "custom_table":
            if not self.table or len(self.table) < 2:
                raise ConfigurationError("custom_table needs at least 2 knots")
            ts = np.array([k[0] for k in self.table], dtype=float)
            vs = np.array([k[1] for k in self.table], dtype=float)
            if not (np.isfinite(ts).all() and np.isfinite(vs).all()):
                raise ConfigurationError("table knots must be finite")
            if np.any(ts < 0) or np.any(vs < 0):
                raise ConfigurationError("table knots must be nonnegative")
            if np.any(vs[ts > 0] == 0):
                raise ConfigurationError("table values must be positive at t > 0")
            if np.any(np.diff(ts) <= 0):
                raise ConfigurationError("table abscissae must be strictly increasing")
            if np.any(np.diff(vs) <= 0):
                raise ConfigurationError("table values must be strictly increasing")
            return
        if not self.p > 1.0:
            raise ConfigurationError(f"exponent p must exceed 1, got {self.p}")
        if self.theta < 0:
            raise ConfigurationError("theta must be nonnegative")
        if self.family == "exp_log" and not (0.0 <= self.theta < 1.0):
            raise ConfigurationError("exp_log requires theta in [0, 1)")
        if self.family == "exp_loglog":
            if not (0.0 <= self.theta <= self.p - 1.0):
                raise ConfigurationError("exp_loglog requires theta in [0, p-1]")
            if not (0.0 <= self.gamma < 1.0):
                raise ConfigurationError("exp_loglog requires gamma in [0, 1)")
            if self.c0 < E_E:
                raise ConfigurationError(f"c0 must be at least e^e ~ {E_E:.4f}")

    @property
    def tag(self) -> str:
        if self.family == "power":
            return f"power(p={self.p:g})"
        if self.family == "power_log":
            return f"power_log(p={self.p:g},theta={self.theta:g})"
        if self.family == "exp_log":
            return f"exp_log(p={self.p:g},theta={self.theta:g})"
        if self.family == "exp_loglog":
            return (f"exp_loglog(p={self.p:g},theta={self.theta:g},"
                    f"gamma={self.gamma:g},c0={self.c0:g})")
        return f"custom_table({len(self.table)} knots)"


def power(p: float) -> YoungSpec:
    return YoungSpec("power", p=p)


def power_log(p: float, theta: float) -> YoungSpec:
    return YoungSpec("power_log", p=p, theta=theta)


def exp_log(p: float, theta: float) -> YoungSpec:
    return YoungSpec("exp_log", p=p, theta=theta)


def exp_loglog(p: float, theta: float = 0.0, gamma: float = 0.0,
               c0: float = E_E) -> YoungSpec:
    return YoungSpec("exp_loglog", p=p, theta=theta, gamma=gamma, c0=c0)


def custom_table(points) -> YoungSpec:
    return YoungSpec("custom_table", table=tuple((float(t), float(v)) for t, v in points))


def load_table_csv(path) -> YoungSpec:
    """Read a (t, Phi(t)) CSV with monotone t into a custom_table spec."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        rows = [line for line in fh if line.split("#")[0].strip()]  # not blank or a comment
    if not rows:  # numpy would warn and return an empty array
        raise ConfigurationError(f"table CSV {path} holds no data")
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:  # a cell that is not a number, e.g. a header row
        raise ConfigurationError(f"table CSV {path}: {exc}") from exc
    if data.shape[1] != 2:
        raise ConfigurationError(f"table CSV {path} must have exactly two columns")
    return custom_table(data)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _knots(spec: YoungSpec):
    """Table abscissae, values, log values and log slopes, without a knot at
    t = 0; built once per spec and read-only."""
    ts = np.array([k[0] for k in spec.table])
    vs = np.array([k[1] for k in spec.table])
    if ts[0] == 0.0:
        ts, vs = ts[1:], vs[1:]
    log_vs = np.log(vs)
    slopes = np.diff(log_vs) / np.diff(ts)
    for arr in (ts, vs, log_vs, slopes):
        arr.flags.writeable = False
    return ts, vs, log_vs, slopes


def _table_eval(spec: YoungSpec, t: np.ndarray, out: np.ndarray,
                tmp: np.ndarray) -> np.ndarray:
    """Log-linear interpolation between knots; +inf beyond the table.

    Values below the first knot scale linearly through (0, 0) so that the
    interpolant is still a function vanishing at zero.
    """
    ts, vs, log_vs, _ = _knots(spec)
    np.exp(np.interp(t, ts, log_vs), out=out)
    below = np.divide(np.multiply(vs[0], t, out=tmp), ts[0], out=tmp)
    np.copyto(out, below, where=t < ts[0])
    np.copyto(out, np.inf, where=t > ts[-1])
    return out


def _table_prime(spec: YoungSpec, t: np.ndarray, out: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
    ts, vs, _, slopes = _knots(spec)
    idx = np.searchsorted(ts, t, side="right")
    idx -= 1
    # mode="clip" clamps idx to the slopes' range and, unlike the default
    # mode, writes into `out` without an intermediate copy
    slope = np.take(slopes, idx, out=scratch[1], mode="clip")
    del idx  # before _table_eval allocates np.interp's result
    np.multiply(_table_eval(spec, t, out, scratch[0]), slope, out=out)
    np.copyto(out, vs[0] / ts[0], where=t < ts[0])
    np.copyto(out, np.inf, where=t > ts[-1])
    return out


def _power(x: np.ndarray, e: float, out: np.ndarray):
    """x ** e bit for bit, written into `out`; x itself when e == 1 and None
    (an exact factor 1) when e == 0, so those two cost no pass.  At e == 2
    np.square gives the same bits as np.power in less time."""
    if e == 1.0:
        return x
    if e == 0.0:
        return None
    if e == 2.0:
        return np.square(x, out=out)
    return np.power(x, e, out=out)


def _times(a: np.ndarray, b, out: np.ndarray) -> np.ndarray:
    """a * b written into `out`, or a itself when b is None (an exact 1)."""
    return a if b is None else np.multiply(a, b, out=out)


def _argument(t, message: str):
    """t as a float array of at least one dimension, whether t was a scalar,
    and its smallest entry (NaN if it holds one, 0 if it is empty).

    Raises ValueError with `message` on a negative entry; the reduction
    makes no temporary array.
    """
    arr = np.asarray(t, dtype=float)
    lo = arr.min() if arr.size else 0.0
    if lo < 0:
        raise ValueError(message)
    return np.atleast_1d(arr), arr.ndim == 0, lo


def _buffers(spec: YoungSpec, arr: np.ndarray, out, scratch):
    """The caller's `out` and `scratch`, or new arrays where they are None
    (no scratch for the power family, which needs none)."""
    if out is None:
        out = np.empty_like(arr)
    if scratch is None and spec.family != "power":
        scratch = np.empty((2,) + arr.shape)
    return out, scratch


def eval_phi(spec: YoungSpec, t, *, out: np.ndarray = None, scratch=None):
    """Value of the Young function at t >= 0 (scalar or array).

    `out`, if given, is an array shaped like t that shares no memory with
    it; the value is written there and `out` is returned.  `scratch`, if
    given, is a pair of further such arrays that the families other than
    `power` overwrite with intermediates.  Left as None, each is allocated,
    so a scalar t gives a float and an array t a new array.  The result is
    the same bit for bit with or without them.
    """
    arr, scalar, _ = _argument(t, "Young functions are evaluated on t >= 0")
    out, scratch = _buffers(spec, arr, out, scratch)
    p, th, ga = spec.p, spec.theta, spec.gamma
    with np.errstate(over="ignore"):  # p > 1, so _power(arr, p, out) fills out
        if spec.family == "power":
            _power(arr, p, out)
        elif spec.family == "power_log":
            L = np.log(np.add(np.e, arr, out=scratch[0]), out=scratch[0])
            _times(_power(arr, p, out), _power(L, th, L), out)
        elif spec.family == "exp_log":
            L = np.log(np.add(np.e, arr, out=scratch[0]), out=scratch[0])
            np.multiply(_power(arr, p, out),
                        np.exp(np.power(L, th, out=L), out=L), out=out)
        elif spec.family == "exp_loglog":
            m = np.log(np.add(spec.c0, arr, out=scratch[0]), out=scratch[0])
            _times(_power(arr, p, out), _power(m, th, scratch[1]), out)
            g = np.log(m, out=m)
            out *= np.exp(np.power(g, ga, out=g), out=g)
        else:
            _table_eval(spec, arr, out, scratch[0])
    return float(out[0]) if scalar else out


def eval_phi_prime(spec: YoungSpec, t, *, out: np.ndarray = None, scratch=None):
    """Closed-form derivative (the density of the Young function).

    `out` and `scratch` are as for `eval_phi`, and so is the result.
    """
    arr, scalar, lo = _argument(t, "the density is evaluated on t >= 0")
    out, scratch = _buffers(spec, arr, out, scratch)
    p, th, ga = spec.p, spec.theta, spec.gamma
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.family == "power":
            np.multiply(p, _power(arr, p - 1.0, out), out=out)
        elif spec.family == "power_log":
            # t^(p-1) * L^(th-1) * (p L + th t / (e + t)), L = log(e + t);
            # the last factor goes into out first
            s1, s2 = scratch
            D = np.add(np.e, arr, out=s1)
            theta_t = arr if th == 1.0 else np.multiply(th, arr, out=out)  # 1 t == t
            np.divide(theta_t, D, out=out)
            L = np.log(D, out=s1)
            np.add(np.multiply(p, L, out=s2), out, out=out)
            out *= _times(_power(arr, p - 1.0, s2), _power(L, th - 1.0, L), s2)
        elif spec.family == "exp_log":
            # exp(L^th) * t^(p-1) * (p + th t L^(th-1) / (e + t))
            s1, s2 = scratch
            L = np.log(np.add(np.e, arr, out=s1), out=s1)
            np.multiply(np.multiply(th, arr, out=out), np.power(L, th - 1.0, out=s2),
                        out=out)
            np.divide(out, np.add(np.e, arr, out=s2), out=out)
            np.add(p, out, out=out)
            E = np.exp(np.power(L, th, out=L), out=L)
            out *= np.multiply(E, _power(arr, p - 1.0, s2), out=E)
        elif spec.family == "exp_loglog":
            # t^(p-1) * m^th * exp(g^ga) * (p + t * extra), m = log(c0 + t),
            # g = log(m); the first three factors go into out first
            s1, s2 = scratch
            m = np.log(np.add(spec.c0, arr, out=s1), out=s1)
            head = _times(_power(arr, p - 1.0, out), _power(m, th, s2), out)
            np.multiply(head, np.exp(np.power(np.log(m, out=s2), ga, out=s2), out=s2),
                        out=out)
            B = np.multiply(np.add(spec.c0, arr, out=s2), m, out=s2)  # (c0 + t) m
            if ga > 0:
                g = np.log(m, out=s1)
                term = np.divide(np.multiply(ga, np.power(g, ga - 1.0, out=g), out=g),
                                 B, out=g)
                extra = np.add(np.divide(th, B, out=B), term, out=B)
            else:
                extra = np.divide(th, B, out=B)
            out *= np.add(p, np.multiply(arr, extra, out=extra), out=extra)
        else:
            _table_prime(spec, arr, out, scratch)
    if not lo > 0:
        np.copyto(out, 0.0, where=arr == 0.0)
    return float(out[0]) if scalar else out


_INVERSE_RTOL = 1e-13    # width of the brackets of phi_prime_inverse, in log t
_INVERSE_ROUNDS = 100    # evaluation rounds of phi_prime_inverse before it gives up


def phi_prime_inverse(spec: YoungSpec, y: np.ndarray, t0: np.ndarray = None):
    """Bracket [t_lo, t_hi] of the root t of Phi'(t) = y, for a 1-D array y >= 0.

    Phi'(t_lo) <= y <= Phi'(t_hi) as evaluated by `eval_phi_prime`, and
    t_hi <= t_lo * exp(_INVERSE_RTOL) unless `_INVERSE_ROUNDS` rounds run
    out; y = 0 gives t_lo = t_hi = 0.  For `power` both ends are the closed
    form (y/p)^(1/(p-1)), exact up to rounding.  Otherwise secant steps on
    F(u) = log(Phi'(e^u) / y) start from u = log t0 (a previous root; where
    it is not positive, from the closed form of `power(p)`), each pushed a
    quarter of the width past the root it predicts so that the iterates
    close in from both sides; a step that leaves the bracket found so far
    bisects it.

    By convexity the conjugate Phi*(y) = y t - Phi(t) at the root lies
    below y * t_hi - Phi(t_lo), an upper bound that stays rigorous for
    any bracket.
    """
    y = np.asarray(y, dtype=float)
    p = spec.p
    with np.errstate(divide="ignore", over="ignore"):
        guess = np.power(y / p, 1.0 / (p - 1.0))
    if spec.family == "power":
        return guess, guess.copy()
    if t0 is not None:
        guess = np.where(t0 > 0, t0, guess)
    t_lo, t_hi = np.zeros_like(y), np.zeros_like(y)
    pos = np.flatnonzero(y > 0)
    lo, hi = np.full(pos.size, -np.inf), np.full(pos.size, np.inf)
    k = np.arange(pos.size)  # entries of pos still open
    u = np.log(guess[pos])
    f_prev = u_prev = None
    slope = np.full(pos.size, p - 1.0)  # dF/du; p - 1 for power(p)
    for _ in range(_INVERSE_ROUNDS):
        t = np.exp(u)
        d = eval_phi_prime(spec, t)
        yk = y[pos[k]]
        below, above = d <= yk, d >= yk
        lo[k[below]], t_lo[pos[k[below]]] = u[below], t[below]
        hi[k[above]], t_hi[pos[k[above]]] = u[above], t[above]
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.log(d / yk)
        f[np.isnan(f)] = np.inf  # Phi' at an overflowed t = inf
        if f_prev is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                secant = (f - f_prev) / (u - u_prev)
            use = (np.abs(u - u_prev) > 1e-8) & (secant > 0) & np.isfinite(secant)
            slope[k[use]] = secant[use]
        keep = hi[k] - lo[k] > _INVERSE_RTOL
        k, u, f = k[keep], u[keep], f[keep]
        if k.size == 0:
            break
        step = np.clip(-f / slope[k], -8.0, 8.0)
        step += np.where(f < 0, 0.25, -0.25) * _INVERSE_RTOL
        u_prev, f_prev, u = u, f, u + step
        a, b = lo[k], hi[k]
        outside = ~((u > a) & (u < b))
        u[outside] = np.where(np.isfinite(a + b), 0.5 * (a + b), u)[outside]
    return t_lo, t_hi


# ---------------------------------------------------------------------------
# Factorization Phi = f * phi_part, Psi = f * psi_part
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactoredPair:
    """Factor handles; all vectorized over positive arguments."""

    f_part: Callable
    phi_part: Callable
    psi_part: Callable
    phi_part_prime: Callable
    p: float  # f_part(t) = t^p


def derive_psi(phi_part: Callable) -> Callable:
    """Companion weight t -> 1 / phi_part(1/t), defined for t > 0."""

    def psi(t):
        arr = np.asarray(t, dtype=float)
        if np.any(arr <= 0):
            raise ValueError("derived psi is defined for t > 0")
        vals = phi_part(1.0 / arr)
        if np.any(vals <= 0):
            raise ValueError("phi_part vanishes; cannot invert")
        return 1.0 / vals

    return psi


def factored(spec: YoungSpec) -> FactoredPair:
    """Canonical factorization t^p * phi_part for the built-in families."""
    if spec.family == "custom_table":
        raise ConfigurationError("custom tables carry no canonical factorization")
    p, th, ga, c0 = spec.p, spec.theta, spec.gamma, spec.c0

    def f_part(t):
        return np.asarray(t, dtype=float) ** p

    if spec.family == "power":
        phi_part = lambda t: np.ones_like(np.asarray(t, dtype=float))
        phi_prime = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    elif spec.family == "power_log":
        phi_part = lambda t: np.log(np.e + np.asarray(t, dtype=float)) ** th
        phi_prime = lambda t: (th * np.log(np.e + np.asarray(t, dtype=float)) ** (th - 1.0)
                               / (np.e + np.asarray(t, dtype=float)))
    elif spec.family == "exp_log":
        def phi_part(t):
            return np.exp(np.log(np.e + np.asarray(t, dtype=float)) ** th)

        def phi_prime(t):
            arr = np.asarray(t, dtype=float)
            L = np.log(np.e + arr)
            return np.exp(L ** th) * th * L ** (th - 1.0) / (np.e + arr)
    else:  # exp_loglog
        def phi_part(t):
            m = np.log(c0 + np.asarray(t, dtype=float))
            return m ** th * np.exp(np.log(m) ** ga)

        def phi_prime(t):
            arr = np.asarray(t, dtype=float)
            m = np.log(c0 + arr)
            g = np.log(m)
            coef = th + (ga * g ** (ga - 1.0) if ga > 0 else 0.0)
            return m ** th * np.exp(g ** ga) * coef / ((c0 + arr) * m)

    return FactoredPair(f_part=f_part, phi_part=phi_part,
                        psi_part=derive_psi(phi_part),
                        phi_part_prime=phi_prime, p=p)


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------

# the checkers' geometric sample grid: 1e-8 to 1e8, 64 points per decade
GRID = np.geomspace(1e-8, 1e8, 16 * 64 + 1)
GRID.flags.writeable = False
_GROWTH_TAIL = 3  # values toward a sequence end that _growing reads
_RATIO_ROWS = 64  # values of s per block of a 2-D ratio search


@dataclass
class ConditionReport:
    condition: str
    c_emp: float
    worst_point: tuple
    passed: bool
    growing: bool
    truncated: bool = False
    details: dict = field(default_factory=dict)


def _decade_maxima(t: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Max of `values` per decade of an increasing t, in increasing-decade
    order: one reduction over each run of equal floor(log10 t)."""
    starts = np.flatnonzero(np.diff(np.floor(np.log10(t)), prepend=-np.inf))
    return np.maximum.reduceat(values, starts)


def _growing(values, rel: float = 0.10) -> bool:
    """Detect unbounded growth at either end of a sequence.

    A sequence converging to a finite limit is also monotone, so strict
    increase alone is not evidence of divergence; require the last
    `_GROWTH_TAIL` values toward an end to increase strictly and gain more
    than `rel` in total.  On the 16-decade `GRID` the per-decade maxima of
    genuinely divergent ratios (exponential, power-law, even logarithmic)
    gain upwards of 35% over three decades, while saturating bounded ratios
    stay under ~5%.  Along a strong-type amplitude sweep, k_emp of an
    admissible weight peaks inside and decays toward both ends, while a
    pairing violation gains ~5-10% over the final octaves (rel = 0.02).

    Values are compared, never subtracted, so two equal infinities (the -inf
    maxima of decades with no finite ratio) do not increase.
    """
    v = np.asarray(values, dtype=float)
    if len(v) < _GROWTH_TAIL:
        return False
    for end in (v[-_GROWTH_TAIL:], v[:_GROWTH_TAIL][::-1]):
        if np.all(end[1:] > end[:-1]) and end[-1] > (1.0 + rel) * end[0] > 0:
            return True
    return False


def check_delta2(spec: YoungSpec, ceiling: float = math.inf) -> ConditionReport:
    """Doubling ratio Phi(2t)/Phi(t) over `GRID`."""
    t = GRID
    with np.errstate(over="ignore", invalid="ignore"):
        lo = eval_phi(spec, t)
        hi = eval_phi(spec, 2.0 * t)
        ratio = hi / lo
    ok = np.isfinite(ratio) & (lo > 0)
    truncated = bool(np.any(~ok))
    t, ratio = t[ok], ratio[ok]
    if len(t) == 0:
        return ConditionReport("delta2", math.inf, (math.nan, math.nan), False, True, True)
    i = int(np.argmax(ratio))
    growing = _growing(_decade_maxima(t, ratio))
    c_emp = float(ratio[i])
    passed = (not growing) and c_emp <= ceiling
    return ConditionReport("delta2", c_emp, (float(t[i]), float(2 * t[i])),
                           passed, growing, truncated)


def check_delta2_plus(spec_or_pair) -> ConditionReport:
    """Growth conditions on the factor phi of Phi(t) = t^p * phi(t).

    Four sub-criteria: bounded elasticity t*phi'/phi with a gap below p,
    bounded phi', two-sided bound on phi(t^2)/phi(t), and an elasticity
    tail that decreases toward zero at the top of the grid.
    """
    if isinstance(spec_or_pair, YoungSpec):
        pair = factored(spec_or_pair)
    else:
        pair = spec_or_pair
    t = GRID
    phi = np.asarray(pair.phi_part(t), dtype=float)
    phip = np.asarray(pair.phi_part_prime(t), dtype=float)
    if np.any(phi <= 0):
        raise ConfigurationError("phi factor must be positive")

    elas = t * phip / phi
    sq_ratio = np.asarray(pair.phi_part(t ** 2), dtype=float) / phi

    elas_sup = float(elas.max())
    gap = pair.p - elas_sup
    tail3 = _decade_maxima(t, elas)[-3:]
    tail_ok = bool(np.all(np.diff(tail3) <= 1e-12 + 1e-9 * np.abs(tail3[:-1]))
                   and (elas_sup <= 1e-12 or tail3[-1] <= 0.9 * elas_sup))

    phip_bounded = not _growing(_decade_maxima(t, phip))
    sq_bounded = (not _growing(_decade_maxima(t, sq_ratio))
                  and not _growing(_decade_maxima(t, -sq_ratio)) and sq_ratio.min() > 0)

    passed = (gap > 0) and phip_bounded and sq_bounded and tail_ok
    growing = not (phip_bounded and sq_bounded)
    i = int(np.argmax(elas))
    return ConditionReport(
        "delta2_plus", elas_sup, (float(t[i]), float(t[i])), passed, growing, False,
        details={
            "elasticity_sup": elas_sup,
            "elasticity_gap": gap,
            "elasticity_tail": [float(v) for v in tail3],
            "elasticity_tail_ok": tail_ok,
            "phi_prime_sup": float(phip.max()),
            "phi_prime_bounded": phip_bounded,
            "squaring_max": float(sq_ratio.max()),
            "squaring_min": float(sq_ratio.min()),
            "squaring_bounded": sq_bounded,
        })


def _ratio_report(condition: str, num, den: Callable,
                  ceiling: float) -> ConditionReport:
    """Search of `GRID` x `GRID` for sup a(s) b(t)/den(s,t).

    `num` is the pair of arrays (a, b) on `GRID`, so that the numerator's
    factors are evaluated once.  Sweeps _RATIO_ROWS values of s at a time,
    carrying the column and row maxima, the first (row-major) strict
    maximum and the flags, so that no array of the whole grid is held.
    Non-finite ratios count as -inf and set `truncated`; the first point
    where the denominator vanishes under a positive numerator makes the
    report fail with c_emp = inf.
    """
    pts = GRID
    t = pts[None, :]
    col_max = np.full(pts.size, -np.inf)
    row_max = np.empty(pts.size)
    c_emp, i, j = -np.inf, 0, 0
    truncated, vanishes = False, None
    for r0 in range(0, pts.size, _RATIO_ROWS):
        s = pts[r0:r0 + _RATIO_ROWS, None]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            numer = num[0][r0:r0 + len(s), None] * num[1]
            denom = den(s, t)
            ratio = numer / denom
        if vanishes is not None:
            continue  # evaluated still, so that num and den raise as on the whole grid
        bad = (denom == 0) & (numer > 0)
        if np.any(bad):
            bi, bj = np.unravel_index(int(np.argmax(bad)), bad.shape)
            vanishes = (r0 + bi, bj)
            continue
        ok = np.isfinite(ratio)
        truncated |= not ok.all()
        ratio = np.where(ok, ratio, -np.inf)
        bi, bj = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
        if ratio[bi, bj] > c_emp:
            c_emp, i, j = float(ratio[bi, bj]), r0 + bi, bj
        np.maximum(col_max, ratio.max(axis=0), out=col_max)
        row_max[r0:r0 + len(s)] = ratio.max(axis=1)
    if vanishes is not None:
        i, j = vanishes
        return ConditionReport(condition, math.inf, (float(pts[i]), float(pts[j])),
                               False, True, False, details={"denominator_vanishes": True})
    # trend along each axis: decade maxima of max over the other variable
    growing = _growing(_decade_maxima(pts, col_max)) or _growing(_decade_maxima(pts, row_max))
    passed = (not growing) and c_emp <= ceiling
    return ConditionReport(condition, c_emp, (float(pts[i]), float(pts[j])),
                           passed, growing, truncated)


def _on_grid(*fns: Callable) -> list:
    """Each function's values on `GRID`, with the errors the ratio search
    ignores."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return [np.broadcast_to(fn(GRID), GRID.shape) for fn in fns]


def check_submultiplicative_f(f: Callable, ceiling: float = math.inf) -> ConditionReport:
    """sup f(s) f(t) / f(st) over `GRID` x `GRID`."""
    return _ratio_report("submultiplicative_f", _on_grid(f) * 2,
                         lambda s, t: f(s * t), ceiling)


def check_pairing(phi_part: Callable, psi_part: Callable,
                  ceiling: float = math.inf) -> ConditionReport:
    """sup phi(s) psi(t) / phi(st) over `GRID` x `GRID`."""
    return _ratio_report("pairing", _on_grid(phi_part, psi_part),
                         lambda s, t: phi_part(s * t), ceiling)
