"""One benchmark run of one workload, in a fresh process.

Started by `run.py`, which sets PYTHONPATH to the checkout's `src` and the
BLAS thread count.  Prints one JSON object (the raw record of the run) as
the last line of standard output; `run.py` turns it into the result line.

Workloads (every generated input comes from the seed):

strong-type-2d  CLI `strong-type`, power_log(2,1), derived Psi, 2-D 128^2,
                the five default test functions (random_smooth seeded by
                the workload seed), lambda = 2^-4..2^4.  The paper's
                headline sweep: nested level sets, heavy cache reuse and
                warm starts along nested chains on 16k-node arrays.
averages-2d     CLI `averages`, power_log(2,1), 2-D 64^2, tent and bump,
                9 centres, j_max = 2, centre spacing drawn from [0.15, 0.3].
                Same capacity and cache layers, but many distinct
                ball-restricted masks, warm starts from unrelated centres
                and small arrays, where per-iteration Python overhead
                outweighs array arithmetic.
ball-3d         Cold `capacity_variational` ball solves at 3-D 48^3, no
                cache, {power(2), power_log(2,1)} x 2 radii in
                [0.15, 0.375].  The energy and gradient kernel on
                110k-node arrays; bypasses cache, level sets and CLI.
riesz-2d        `riesz_capacity_variational` on 4 balls at 2-D 64^2,
                power(2), radii in [0.1, 0.4].  The only workload that
                reaches the dense-kernel augmented-Lagrangian path.

Radii are drawn one per equal slice of their range (stratified), so every
run covers the whole range and the total solve time, which grows with the
radii, varies less with the seed.  Neighbouring radii may mark the same
nodes, so capacities are checked to be monotone (non-decreasing within the
solver tolerance), not strictly increasing.

Set-up is everything before the first capacity call: for the CLI
workloads, `main` up to that call; for the solver workloads, the condition
check the solver requires, the lattice, the ball masks and (ball-3d) the
oracles.  An operation is one CLI run, or one solve of a solver workload;
it fails when its check fails or it raises, never crashing the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Stat, Tracer, rebind, unbind

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = (3, 400)   # before and again after the operations, set-up runs
SETUP_BUDGET_S = 0.5    # 3 to 400 times, stopping once the runs add up to this
BALL_ORACLE_TOL = 0.08  # acceptance criterion 1's 3-D bound
REFERENCE_RTOL = 1e-6   # solver-tolerance gate for recorded outputs
MAX_OPS = 100           # bounds a run whose operations fail at once

SIZES = {
    "full": {"st_res": 128, "st_functions": "tent,bump,plateau,two_peak,random_smooth",
             "st_lambda": (-4, 4), "av_res": 64, "av_functions": "tent,bump",
             "av_j_max": 2, "ball_res": 48, "riesz_res": 64},
    "toy": {"st_res": 48, "st_functions": "tent,random_smooth",
            "st_lambda": (-2, 2), "av_res": 48, "av_functions": "tent",
            "av_j_max": 1, "ball_res": 32, "riesz_res": 32},
}


def import_checkout():
    """Import orlicap from this checkout's src/, or refuse to run."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import orlicap
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import orlicap from {src}: {exc}")
    where = Path(orlicap.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"perfbench: imported orlicap from {where}, "
                         f"outside the checkout {ROOT}")
    return orlicap


orlicap = import_checkout()
import numpy as np                       # noqa: E402  (after the import guard)
import orlicap.averages                  # noqa: E402
import orlicap.capacity                  # noqa: E402
import orlicap.cli                       # noqa: E402
import orlicap.grid                      # noqa: E402
import orlicap.strongtype                # noqa: E402
import orlicap.young                     # noqa: E402
from orlicap.young import power, power_log  # noqa: E402


def stratified(rng: random.Random, lo: float, hi: float, k: int) -> list:
    """One value drawn from each of k equal slices of [lo, hi]."""
    step = (hi - lo) / k
    return [round(lo + step * (i + rng.random()), 6) for i in range(k)]


def require(report) -> None:
    if not report.passed:
        raise RuntimeError(f"{report.condition} fails: {report.details}")


def monotone(smaller: float, larger: float) -> bool:
    """Capacity of a larger ball is no smaller, within the solver tolerance."""
    return larger >= smaller * (1.0 - REFERENCE_RTOL)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class OpResult:
    """Outcome of one timed operation: attempted/failed sub-operations,
    the failed checks, and the outputs compared against the reference."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.failed = 0
        self.outputs = {}
        self.extra = {}

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class _FirstCapacityCall(Exception):
    pass


def _stop(*args, **kwargs):
    raise _FirstCapacityCall


class CliWorkload:
    """A CLI scenario.  Set-up is everything `main` does before its first
    capacity call, measured by stopping `main` at that call."""

    setup_in_op = True
    sub_ops = 1

    def __init__(self, scenario, ini, out_dir, seed):
        self.scenario = scenario
        self.out_dir = out_dir
        self.seed = seed
        self.config = out_dir / f"{scenario}.ini"
        self.config.write_text(ini, encoding="utf-8")
        self.n_ops = 0

    def argv(self, out):
        return [self.scenario, "--config", str(self.config), "--out", str(out),
                "--seed", str(self.seed)]

    def setup(self):
        cap = orlicap.capacity
        stops = [(f, rebind(f, _stop)) for f in
                 (cap.capacity_variational, cap.riesz_capacity_variational)]
        method = cap.CapacityCache.__dict__["capacity"]
        cap.CapacityCache.capacity = _stop
        out = self.out_dir / "setup"
        try:
            t0 = time.perf_counter()
            try:
                orlicap.cli.main(self.argv(out))
            except _FirstCapacityCall:
                pass
            else:
                raise RuntimeError(f"{self.scenario} made no capacity call")
            dt = time.perf_counter() - t0
        finally:
            cap.CapacityCache.capacity = method
            for f, changed in stops:
                unbind(changed, f)
        shutil.rmtree(out, ignore_errors=True)
        return None, dt

    def op(self, state):
        self.n_ops += 1
        out = self.out_dir / f"op{self.n_ops}"
        rc = orlicap.cli.main(self.argv(out))
        return rc, out

    def check(self, state, raw) -> OpResult:
        rc, out = raw
        res = OpResult()
        ok = res.check(rc == 0, f"exit code {rc}")
        if ok:
            ok = self.check_outputs(out, res)
        res.count(ok)
        if out.exists():
            res.extra["output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
            shutil.rmtree(out)
        return res


class StrongType(CliWorkload):
    def __init__(self, seed, size, out_dir):
        p = SIZES[size]
        lo, hi = p["st_lambda"]
        ini = (f"[young]\nfamily = power_log\np = 2.0\ntheta = 1.0\n"
               f"[psi]\nmode = derived\n"
               f"[domain]\nn = 2\nr = 1.0\nresolution = {p['st_res']}\n"
               f"[strong-type]\nfunctions = {p['st_functions']}\n"
               f"lambda_min_exp = {lo}\nlambda_max_exp = {hi}\n")
        super().__init__("strong-type", ini, out_dir, seed)
        self.inputs = {"random_smooth_seed": seed}
        self.lattice = (2, p["st_res"])

    def check_outputs(self, out, res) -> bool:
        verdict = json.loads((out / "strongtype.json").read_text())["verdict"]
        max_k = float(verdict["max_k_emp"])  # the CLI writes inf/nan as strings
        res.outputs = {"max_k_emp": max_k,
                       **{f"max[{tag}]": float(info["max"])
                          for tag, info in verdict["per_function"].items()}}
        return all([res.check(verdict["stable"], "verdict not stable"),
                    res.check(verdict["all_converged"], "not all converged"),
                    res.check(math.isfinite(max_k), f"max_k_emp {max_k}")])


class Averages(CliWorkload):
    def __init__(self, seed, size, out_dir):
        p = SIZES[size]
        spacing = round(random.Random(seed).uniform(0.15, 0.3), 6)
        ini = (f"[young]\nfamily = power_log\np = 2.0\ntheta = 1.0\n"
               f"[domain]\nn = 2\nr = 1.0\nresolution = {p['av_res']}\n"
               f"[averages]\nfunctions = {p['av_functions']}\n"
               f"j_max = {p['av_j_max']}\ncenter_spacing = {spacing}\n")
        super().__init__("averages", ini, out_dir, seed)
        self.inputs = {"center_spacing": spacing}
        self.lattice = (2, p["av_res"])

    def check_outputs(self, out, res) -> bool:
        # `all_passed` also asks final < epsilon, which the two radii a 64^2
        # lattice resolves do not reach for centre spacings >= 0.2; the
        # seed-independent invariant is decay along the radii.
        traces = {}
        for line in (out / "traces.csv").read_text().splitlines()[1:]:
            tag, x0, r, avg = line.split(",")
            res.outputs[f"{tag}@{x0}@r={r}"] = float(avg)
            traces.setdefault((tag, x0), []).append(float(avg))
        res.extra["all_passed"] = json.loads((out / "verdict.json").read_text())["all_passed"]
        ok = True
        for (tag, x0), vals in traces.items():
            slack = 1e-9 + 1e-6 * max(map(abs, vals))
            ok &= res.check(all(map(math.isfinite, vals)), f"{tag}@{x0}: {vals}")
            ok &= res.check(all(b <= a + slack for a, b in zip(vals, vals[1:])),
                            f"{tag}@{x0}: averages increase along the radii {vals}")
        return ok


class BallSolves:
    """Cold variational ball solves against the closed form / radial oracle.

    Every radius in [r_lo, r_hi) marks the same nodes (r_lo: outermost
    marked node, r_hi: innermost unmarked one), so the oracle of a lattice
    ball is the interval [oracle(r_lo), oracle(r_hi)], and the error is the
    distance to it.  Against oracle(r) alone the error swings with where r
    falls between node shells (10.9% at r = 0.1768 for power(2) at 48^3,
    where the interval gives 6.9%).
    """

    setup_in_op = False
    sub_ops = 4

    def __init__(self, seed, size, out_dir):
        self.res = SIZES[size]["ball_res"]
        self.radii = stratified(random.Random(seed), 0.15, 0.375, 2)
        self.specs = [power(2.0), power_log(2.0, 1.0)]
        self.inputs = {"radii": self.radii}
        self.lattice = (3, self.res)

    @staticmethod
    def oracle(spec, r, dom):
        if spec.family == "power":  # p = 2 condenser in 3-D: 4 pi / (1/r - 1/R)
            return 4.0 * math.pi / (1.0 / r - 1.0 / dom.R)
        return orlicap.capacity.capacity_ball_radial(r, spec, dom.R, dom.n)

    def setup(self):
        t0 = time.perf_counter()
        for spec in self.specs:  # the condition the variational solve requires
            require(orlicap.young.check_delta2(spec))
        dom = orlicap.grid.build_domain(3, 1.0, self.res)
        masks = [orlicap.grid.ball_mask(dom, r) for r in self.radii]
        oracles = {}
        for spec in self.specs:
            for r, m in zip(self.radii, masks):
                r_lo = float(dom.radius[m.mask].max())
                r_hi = float(dom.radius[~m.mask].min())
                oracles[spec.tag, r] = (self.oracle(spec, r_lo, dom),
                                        self.oracle(spec, r_hi, dom))
        return (dom, masks, oracles), time.perf_counter() - t0

    def op(self, state):
        dom, masks, _ = state
        return [[orlicap.capacity.capacity_variational(m, spec, dom) for m in masks]
                for spec in self.specs]

    def check(self, state, raw) -> OpResult:
        _, _, oracles = state
        res = OpResult()
        worst = 0.0
        for spec, row in zip(self.specs, raw):
            prev = 0.0
            for r, sol in zip(self.radii, row):
                name = f"{spec.tag} r={r:g}"
                lo, hi = oracles[spec.tag, r]
                err = 0.0 if lo <= sol.value <= hi else min(rel_err(sol.value, lo),
                                                             rel_err(sol.value, hi))
                worst = max(worst, err)
                res.outputs[name] = sol.value
                res.count(all([
                    res.check(sol.converged, f"{name}: not converged"),
                    res.check(math.isfinite(sol.value), f"{name}: {sol.value}"),
                    res.check(err <= BALL_ORACLE_TOL,
                              f"{name}: {err:.3%} from the oracle interval [{lo:.6g}, {hi:.6g}]"),
                    res.check(monotone(prev, sol.value), f"{name}: decreases in r"),
                ]))
                prev = sol.value
        res.extra["oracle_rel_err"] = worst
        return res


class RieszSolves:
    """Riesz capacities of 4 balls through the dense-kernel path."""

    setup_in_op = False
    sub_ops = 4

    def __init__(self, seed, size, out_dir):
        self.res = SIZES[size]["riesz_res"]
        self.radii = stratified(random.Random(seed), 0.1, 0.4, 4)
        self.spec = power(2.0)
        self.inputs = {"radii": self.radii}
        self.lattice = (2, self.res)

    def setup(self):
        t0 = time.perf_counter()
        require(orlicap.young.check_delta2_plus(self.spec))  # required by the Riesz solve
        dom = orlicap.grid.build_domain(2, 1.0, self.res)
        masks = [orlicap.grid.ball_mask(dom, r) for r in self.radii]
        return (dom, masks), time.perf_counter() - t0

    def op(self, state):
        dom, masks = state
        return [orlicap.capacity.riesz_capacity_variational(m, self.spec, dom)
                for m in masks]

    def check(self, state, raw) -> OpResult:
        res = OpResult()
        prev = 0.0
        for r, sol in zip(self.radii, raw):
            name = f"r={r:g}"
            res.outputs[name] = sol.value
            res.count(all([
                res.check(sol.converged, f"{name}: not converged"),
                res.check(math.isfinite(sol.value), f"{name}: {sol.value}"),
                res.check(monotone(prev, sol.value), f"{name}: decreases in r"),
            ]))
            prev = sol.value
        return res


WORKLOADS = {
    "strong-type-2d": StrongType,
    "averages-2d": Averages,
    "ball-3d": BallSolves,
    "riesz-2d": RieszSolves,
}


# ---------------------------------------------------------------------------
# Tracing: wrappers and per-layer metrics
# ---------------------------------------------------------------------------

def install_tracer(tracer: Tracer) -> None:
    """Wrap each layer's public functions at the names callers use."""
    stats = tracer.stats
    cap, grid, young = orlicap.capacity, orlicap.grid, orlicap.young
    st, av, cli = orlicap.strongtype, orlicap.averages, orlicap.cli

    def on_variational(s, args, kwargs, result, _):
        E = args[0]
        s.samples["iterations"].append(result.iterations)
        s.extra["node_iterations"] += result.iterations * E.mask.size
        s.extra["unconverged"] += not result.converged
        s.extra["warm"] += kwargs.get("warm_start") is not None

    def on_riesz(s, args, kwargs, result, _):
        E = args[0]
        s.extra["inner_iterations"] += result.iterations
        if not E.is_empty():  # the dense N_E x N_in float64 matrix it builds
            s.extra["kernel_bytes"] += 8 * E.count * int(E.domain.inside.sum())

    def on_eval(s, args, kwargs, result, _):
        s.extra["elements"] += np.size(args[1])

    def solves_so_far():
        return stats["capacity.variational"].calls

    def on_lookup(s, args, kwargs, result, solves_before):
        s.extra["hits"] += solves_so_far() == solves_before

    tracer.wrap_function("capacity.variational", cap.capacity_variational, on_variational)
    tracer.wrap_function("capacity.riesz", cap.riesz_capacity_variational, on_riesz)
    tracer.wrap_function("capacity.radial", cap.capacity_ball_radial)
    tracer.wrap_method("capacity.cache", cap.CapacityCache, "capacity", on_lookup,
                       before=solves_so_far)
    tracer.wrap_function("young.eval_phi", young.eval_phi, on_eval)
    tracer.wrap_function("young.eval_phi_prime", young.eval_phi_prime, on_eval)
    for fn in (young.check_delta2, young.check_delta2_plus,
               young.check_submultiplicative_f, young.check_pairing):
        tracer.wrap_function(f"young.{fn.__name__}", fn, group="young.conditions")
    tracer.wrap_function("grid.build_domain", grid.build_domain)
    tracer.wrap_function("grid.level_mask", grid.level_mask)
    tracer.wrap_function("grid.ball_mask", grid.ball_mask)
    tracer.wrap_method("grid.mask_key", grid.SetMask, "key")
    tracer.wrap_function("strongtype.build_test_function", st.build_test_function)
    tracer.wrap_function("strongtype.lhs_dyadic", st.lhs_dyadic)
    tracer.wrap_function("strongtype.rhs_energy", st.rhs_energy)
    tracer.wrap_function("strongtype.verify_strong_type", st.verify_strong_type)
    tracer.wrap_function("averages.capacitary_average", av.capacitary_average)
    tracer.wrap_function("averages.average_trace", av.average_trace)
    tracer.wrap_function("cli.load_config", cli.load_config)
    tracer.wrap_function("cli.run", cli.run)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(stats: dict, op_wall: float, output_bytes: int) -> dict:
    """Per-layer metrics of one traced unit (set-up where separate, then one
    operation).  A layer the workload does not reach reads 0."""
    empty = Stat()

    def get(name):
        return stats.get(name, empty)

    m = {}
    var = get("capacity.variational")
    iters = var.samples.get("iterations", [])
    total_iters = sum(iters)
    m["capacity.variational.solves"] = var.calls
    m["capacity.variational.iterations"] = total_iters
    m["capacity.variational.iters_p50"] = statistics.median(iters) if iters else 0
    m["capacity.variational.iters_max"] = max(iters, default=0)
    m["capacity.variational.self_s"] = var.self
    m["capacity.variational.ms_per_iter"] = _ratio(var.total, total_iters, 1e3)
    m["capacity.variational.ns_per_node_iter"] = _ratio(
        var.total, var.extra["node_iterations"], 1e9)
    m["capacity.variational.unconverged"] = int(var.extra["unconverged"])
    m["capacity.variational.warm_share"] = _ratio(var.extra["warm"], var.calls)
    m["capacity.variational.wall_share"] = _ratio(var.total, op_wall)
    cache = get("capacity.cache")
    m["capacity.cache.lookups"] = cache.calls
    m["capacity.cache.hits"] = int(cache.extra["hits"])
    m["capacity.cache.hit_ratio"] = _ratio(cache.extra["hits"], cache.calls)
    for name in ("eval_phi", "eval_phi_prime"):
        s = get(f"young.{name}")
        m[f"young.{name}.calls"] = s.calls
        m[f"young.{name}.elements"] = int(s.extra["elements"])
        m[f"young.{name}.self_s"] = s.self
        m[f"young.{name}.ns_per_element"] = _ratio(s.self, s.extra["elements"], 1e9)
    for name in ("mask_key", "level_mask"):
        s = get(f"grid.{name}")
        m[f"grid.{name}.calls"] = s.calls
        m[f"grid.{name}.self_s"] = s.self
    m["grid.ball_mask.self_s"] = get("grid.ball_mask").self
    rz = get("capacity.riesz")
    m["capacity.riesz.solves"] = rz.calls
    m["capacity.riesz.inner_iterations"] = int(rz.extra["inner_iterations"])
    m["capacity.riesz.self_s"] = rz.self
    m["capacity.riesz.ms_per_inner_iter"] = _ratio(rz.total, rz.extra["inner_iterations"], 1e3)
    m["capacity.riesz.kernel_bytes_computed"] = int(rz.extra["kernel_bytes"])
    m["capacity.radial.calls"] = get("capacity.radial").calls
    m["capacity.radial.self_s"] = get("capacity.radial").self
    m["grid.build_domain_s"] = get("grid.build_domain").total
    m["young.conditions_s"] = get("young.conditions").total
    m["strongtype.build_test_function_s"] = get("strongtype.build_test_function").total
    m["strongtype.lhs_dyadic.calls"] = get("strongtype.lhs_dyadic").calls
    m["strongtype.lhs_dyadic.self_s"] = get("strongtype.lhs_dyadic").self
    m["strongtype.rhs_energy_s"] = get("strongtype.rhs_energy").total
    m["strongtype.verify_strong_type_s"] = get("strongtype.verify_strong_type").total
    m["averages.capacitary_average.calls"] = get("averages.capacitary_average").calls
    m["averages.capacitary_average.self_s"] = get("averages.capacitary_average").self
    m["averages.average_trace.calls"] = get("averages.average_trace").calls
    m["cli.load_config_s"] = get("cli.load_config").total
    m["cli.run_self_s"] = get("cli.run").self
    m["cli.output_bytes"] = output_bytes
    return m


# counts that must repeat exactly for one seed and size
DETERMINISTIC = ("capacity.variational.solves", "capacity.variational.iterations",
                 "capacity.cache.lookups", "capacity.cache.hits",
                 "capacity.riesz.solves", "capacity.riesz.inner_iterations")


# ---------------------------------------------------------------------------
# Measurement loop
# ---------------------------------------------------------------------------

def compare_reference(res: OpResult, ref: dict) -> None:
    """Outputs recorded for this seed and size must agree within the solver
    tolerance; any difference fails every sub-operation of the op."""
    bad = [f"{key} = {res.outputs.get(key)!r}, reference {want!r}"
           for key, want in ref.get("outputs", {}).items()
           if key not in res.outputs
           or not (res.outputs[key] == want or rel_err(res.outputs[key], want) <= REFERENCE_RTOL)]
    if bad:
        res.failures += bad
        res.failed = res.attempted


def run(args) -> dict:
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def raised(workload, exc: Exception) -> OpResult:
    """An operation that raised counts as every sub-operation failed."""
    res = OpResult()
    res.failures.append("raised " + "".join(traceback.format_exception_only(exc)).strip())
    for _ in range(workload.sub_ops):
        res.count(False)
    return res


def timed_op(workload, state):
    t0 = time.perf_counter()
    try:
        raw = workload.op(state)
    except Exception as exc:
        return raised(workload, exc), time.perf_counter() - t0
    wall = time.perf_counter() - t0
    return workload.check(state, raw), wall


def traced_op(workload, state, tracer: Tracer):
    """One traced unit: the workload's set-up (unless the operation already
    does it) and one operation, with every layer wrapped."""
    install_tracer(tracer)
    res = None
    t0 = time.perf_counter()
    try:
        if not workload.setup_in_op:
            state, _ = workload.setup()
            t0 = time.perf_counter()
        raw = workload.op(state)
        wall = time.perf_counter() - t0
    except Exception as exc:
        res, wall = raised(workload, exc), time.perf_counter() - t0
    finally:
        tracer.restore()
    if res is None:
        res = workload.check(state, raw)
    layers = layer_metrics(tracer.take(), wall, res.extra.get("output_bytes", 0))
    return res, wall, layers


def time_setups(workload, times: list):
    """Run the set-up SETUP_REPS times within SETUP_BUDGET_S, appending each
    duration to `times`; returns the last set-up's state."""
    lo, hi = SETUP_REPS
    spent = 0.0
    for i in range(hi):
        state, dt = workload.setup()
        times.append(dt)
        spent += dt
        if i + 1 >= lo and spent >= SETUP_BUDGET_S:
            break
    return state


def paired_op(workload, state, tracer: Tracer, ref: dict, traced_first: bool):
    """One untraced and one traced operation; the traced one's counts are
    checked against the reference and its outputs against the untraced ones."""
    op = {}
    if traced_first:  # alternate, so that neither side always pays first-call costs
        traced, op["traced_wall_s"], op["layers"] = traced_op(workload, state, tracer)
        res, op["wall_s"] = timed_op(workload, state)
    else:
        res, op["wall_s"] = timed_op(workload, state)
        traced, op["traced_wall_s"], op["layers"] = traced_op(workload, state, tracer)
    op["counts"] = {k: op["layers"][k] for k in DETERMINISTIC}
    for key, want in ref.get("counts", {}).items():
        if key.startswith("capacity.riesz.") and ref.get("blas_threads") != blas_threads():
            continue  # the dense matvec sums in an order set by the BLAS threads
        if op["counts"][key] != want:
            traced.failures.append(f"{key} = {op['counts'][key]}, "
                                   f"reference {want} (solve-order dependence?)")
            traced.failed = traced.attempted
    if traced.outputs != res.outputs:
        traced.failures.append("traced outputs differ from untraced ones")
        traced.failed = traced.attempted
    res.attempted += traced.attempted
    res.failed += traced.failed
    res.failures += traced.failures
    return op, res


def _run(args, out_dir: Path) -> dict:
    workload = WORKLOADS[args.workload](args.seed, args.size, out_dir)
    refs = json.loads(Path(args.reference).read_text()) if args.reference else {}
    ref = refs.get(f"{args.workload}/{args.size}/seed{args.seed}", {})
    n, nodes_per_axis = workload.lattice
    record = {"inputs": workload.inputs, "ops": [], "setup_s": [],
              # one float64 lattice array, computed from the size, not measured
              "lattice_array_bytes": 8 * nodes_per_axis ** n}

    if args.trace:
        state, _ = workload.setup()
    else:
        state = time_setups(workload, record["setup_s"])

    tracer = Tracer()
    start = time.perf_counter()
    while True:
        if args.trace:
            op, res = paired_op(workload, state, tracer, ref, len(record["ops"]) % 2 == 1)
        else:
            op = {}
            res, op["wall_s"] = timed_op(workload, state)
        compare_reference(res, ref)
        op.update(attempted=res.attempted, failed=res.failed,
                  failures=res.failures, outputs=res.outputs, extra=res.extra)
        record["ops"].append(op)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(record["ops"]) > args.seconds or len(record["ops"]) >= MAX_OPS:
            break
    if not args.trace:  # a second batch, so the median spans the run's duration
        time_setups(workload, record["setup_s"])

    if args.trace:
        counts = [o["counts"] for o in record["ops"]]
        record["counts_repeat"] = all(c == counts[0] for c in counts)
        if not record["counts_repeat"]:
            last = record["ops"][-1]
            last["failures"].append(f"deterministic counts differ between ops: {counts}")
            last["failed"] = last["attempted"]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["env"] = environment()
    return record


def blas_threads():
    value = os.environ.get("OPENBLAS_NUM_THREADS", "")
    return int(value) if value.isdigit() else None


def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "orlicap_file": str(Path(orlicap.__file__).resolve().relative_to(ROOT)),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--reference", default=None)
    args = ap.parse_args()
    record = run(args)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
