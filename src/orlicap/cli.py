"""Batch front end: INI config in, CSV/JSON artifacts out.

One scenario per invocation; every run writes a manifest echoing the fully
resolved configuration so outputs are reproducible byte for byte from the
config and seed alone (no timestamps, sorted keys, fixed float formatting).

Exit codes: 0 ok, 2 config error, 3 numerical non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .averages import average_trace, default_centers, grid_lipschitz, smallest_radius
from .capacity import (
    CapacityCache,
    ball_capacity_estimate,
    capacity_ball_radial,
    capacity_variational,
    riesz_capacity_variational,
)
from .errors import ConfigurationError, NumericalError
from .grid import GridDomain, ball_mask, build_domain, check_ball_inside, save_csv
from .norms import luxemburg_norm, modular
from .strongtype import (
    TestFunctionSpec,
    build_test_function,
    derived_psi,
    explicit_psi,
    psi_factor,
    verify_strong_type,
)
from .young import (
    YoungSpec,
    check_delta2,
    check_delta2_plus,
    check_pairing,
    check_submultiplicative_f,
    factored,
    load_table_csv,
)

_YOUNG_KEYS = {"family": str, "p": float, "theta": float, "gamma": float,
               "c0": float, "table": str}

SCHEMA = {
    "young": _YOUNG_KEYS,
    "psi": {"mode": str, **_YOUNG_KEYS},
    "domain": {"n": int, "r": float, "resolution": int},
    "run": {"scenario": str, "seed": int},
    "check-conditions": {"ceiling": float},
    "norm": {"shape": str, "amplitude": float, "tent_r": float, "sigma": float,
             "r_in": float, "r_out": float},
    "capacity": {"r": float, "method": str, "radial_oracle": bool,
                 "estimate": bool, "write_minimizer": bool},
    "strong-type": {"functions": str, "lambda_min_exp": int,
                    "lambda_max_exp": int},
    "averages": {"functions": str, "j_max": int, "r0": float,
                 "epsilon": float, "center_spacing": float},
}

DEFAULTS = {
    "young": {"family": "power", "p": 2.0, "theta": 0.0, "gamma": 0.0,
              "c0": None, "table": None},
    "psi": {"mode": "derived"},
    "domain": {"n": 2, "r": 1.0, "resolution": 128},
    "run": {"scenario": None, "seed": 0},
    "check-conditions": {"ceiling": math.inf},
    "norm": {"shape": "tent", "amplitude": 1.0, "tent_r": 0.5, "sigma": 0.2,
             "r_in": 0.2, "r_out": 0.5},
    "capacity": {"r": 0.25, "method": "variational", "radial_oracle": True,
                 "estimate": False, "write_minimizer": False},
    "strong-type": {"functions": "tent,bump,plateau,two_peak,random_smooth",
                    "lambda_min_exp": -4, "lambda_max_exp": 4},
    "averages": {"functions": "tent,bump", "j_max": 2, "r0": 0.25,
                 "epsilon": 0.05, "center_spacing": 0.2},
}


def _coerce(raw: str, typ, section: str, key: str):
    try:
        if typ is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        return typ(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"[{section}] {key} = {raw!r}: not a {typ.__name__}") from exc


def load_config(path: Path) -> dict:
    """Parse and validate an INI config into a nested dict with defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config: {exc}") from exc

    if not parser.sections():
        raise ConfigurationError("config file defines no sections")

    cfg = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        cfg[section] = {}
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigurationError(f"unknown key {key!r} in [{section}]")
            cfg[section][key] = _coerce(raw, SCHEMA[section][key], section, key)

    resolved = {}
    for section, defaults in DEFAULTS.items():
        resolved[section] = dict(defaults)
        resolved[section].update(cfg.get(section, {}))
    return resolved


def _young_from(section: dict, base_dir: Path) -> YoungSpec:
    family = section.get("family", "power")
    if family == "custom_table":
        table = section.get("table")
        if not table:
            raise ConfigurationError("custom_table needs a table CSV path")
        return load_table_csv(base_dir / table)
    return YoungSpec(family, **{k: section[k] for k in ("p", "theta", "gamma", "c0")
                                if section.get(k) is not None})


def _domain(config: dict) -> GridDomain:
    d = config["domain"]
    return build_domain(d["n"], d["r"], d["resolution"])


def _require_table_range(spec: YoungSpec, dom: GridDomain) -> None:
    """Reject a custom_table that ends below 1/h before a variational solve.

    The indicator of any nonempty mask, where a cold solve starts, has a
    lattice gradient of at least 1/h, so such a table cannot hold it.
    """
    if spec.family == "custom_table" and spec.table[-1][0] < 1.0 / dom.h:
        raise ConfigurationError(
            f"{spec.tag}: the last knot {spec.table[-1][0]!r} lies below "
            f"1/h = {1.0 / dom.h!r}, the smallest lattice gradient a capacity "
            "solve starts from")


def _psi_from(cfg: dict, phi_spec: YoungSpec, base_dir: Path):
    section = dict(cfg["psi"])
    mode = section.pop("mode", "derived")
    if mode == "derived":
        return derived_psi(phi_spec)
    if mode == "explicit":
        defaults_only = all(section.get(k) is None for k in _YOUNG_KEYS)
        if defaults_only:
            raise ConfigurationError("explicit psi needs its own family record")
        return explicit_psi(_young_from(section, base_dir))
    raise ConfigurationError(f"psi mode must be derived or explicit, got {mode!r}")


def _json_dump(obj, path: Path) -> None:
    def clean(x):
        if isinstance(x, dict):
            return {k: clean(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [clean(v) for v in x]
        if isinstance(x, (np.floating, np.integer, np.bool_)):
            x = x.item()
        if isinstance(x, float):
            if math.isinf(x):
                return "inf" if x > 0 else "-inf"
            if math.isnan(x):
                return "nan"
        return x

    path.write_text(json.dumps(clean(obj), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _parse_functions(names: str, seed: int):
    # the seed only reaches random_smooth
    specs = [TestFunctionSpec(name.strip(), seed=seed)
             for name in names.split(",") if name.strip()]
    if not specs:
        raise ConfigurationError("no test functions requested")
    return specs


def _check_conditions(config, phi_spec, base_dir, out_dir) -> int:
    ceiling = config["check-conditions"]["ceiling"]
    if math.isnan(ceiling):
        raise ConfigurationError("[check-conditions] ceiling = nan: no constant lies below it "
                                 "(inf, the default, sets no ceiling)")
    pair = factored(phi_spec)
    psi = _psi_from(config, phi_spec, base_dir)
    reports = {
        "delta2": check_delta2(phi_spec, ceiling=ceiling),
        "delta2_plus": check_delta2_plus(phi_spec),
        "submultiplicative_f": check_submultiplicative_f(pair.f_part, ceiling=ceiling),
        "pairing": check_pairing(pair.phi_part, psi_factor(psi, pair), ceiling=ceiling),
    }
    payload = {name: dataclasses.asdict(rep) for name, rep in reports.items()}
    payload["all_passed"] = all(rep.passed for rep in reports.values())
    _json_dump(payload, out_dir / "conditions.json")
    return 0


def _norm(config, phi_spec, base_dir, out_dir) -> int:
    dom = _domain(config)
    params = config["norm"]
    fn_spec = TestFunctionSpec(params["shape"], amplitude=params["amplitude"],
                               r=params["tent_r"], sigma=params["sigma"],
                               r_in=params["r_in"], r_out=params["r_out"])
    u = build_test_function(fn_spec, dom)
    _json_dump({"function": fn_spec.tag, "modular": modular(u, phi_spec),
                "luxemburg_norm": luxemburg_norm(u, phi_spec)},
               out_dir / "norm.json")
    return 0


def _capacity(config, phi_spec, base_dir, out_dir) -> int:
    dom = _domain(config)
    params = config["capacity"]
    check_ball_inside(dom, np.zeros(dom.n), params["r"])
    E = ball_mask(dom, params["r"])
    if E.is_empty():
        raise ConfigurationError(f"B(0, {params['r']}) marks no lattice node: the nearest "
                                 f"lies at radius {float(dom.radius.min())!r}")
    solve = {"variational": capacity_variational,
             "riesz": riesz_capacity_variational}.get(params["method"])
    if solve is None:
        raise ConfigurationError(f"unknown capacity method {params['method']!r}")
    # the oracle and the estimate refuse a bad config before the solve
    payload = {"set": f"ball(r={params['r']:g})"}
    if params["radial_oracle"] and solve is capacity_variational:
        if phi_spec.family == "custom_table":
            raise ConfigurationError(f"{phi_spec.tag}: the radial oracle needs a convex Phi, "
                                     "and a table's interpolant is not; set radial_oracle = false")
        payload["radial_oracle"] = capacity_ball_radial(params["r"], phi_spec, dom.R, dom.n)
    if params["estimate"]:
        est = ball_capacity_estimate(params["r"], phi_spec, dom.R, dom.n)
        payload["ball_estimate"] = {"F": est.F_value, "estimate": est.estimate}
    if solve is capacity_variational:
        _require_table_range(phi_spec, dom)
    res = solve(E, phi_spec, dom)
    payload.update(res.summary())
    _json_dump(payload, out_dir / "capacity.json")
    if params["write_minimizer"]:
        save_csv(res.minimizer, out_dir / "minimizer.csv")
    return 0 if res.converged else 3


def _strong_type(config, phi_spec, base_dir, out_dir) -> int:
    dom = _domain(config)
    _require_table_range(phi_spec, dom)
    psi = _psi_from(config, phi_spec, base_dir)
    params = config["strong-type"]
    suite = _parse_functions(params["functions"], config["run"]["seed"])
    lo, hi = params["lambda_min_exp"], params["lambda_max_exp"]
    if lo > hi:
        raise ConfigurationError(f"lambda_min_exp = {lo} exceeds lambda_max_exp = {hi}: "
                                 "the amplitude sweep is empty")
    # 2^e is a normal float for min_exp - 1 <= e <= max_exp - 1, that is -1022..1023
    if lo < sys.float_info.min_exp - 1 or hi > sys.float_info.max_exp - 1:
        raise ConfigurationError(f"lambda_min_exp = {lo}, lambda_max_exp = {hi}: each "
                                 "amplitude 2^e needs -1022 <= e <= 1023")
    reports, verdict = verify_strong_type(suite, phi_spec, psi, dom,
                                          lambdas=[2.0 ** j for j in range(lo, hi + 1)])
    with open(out_dir / "strongtype.csv", "w", encoding="utf-8") as fh:
        fh.write("tag,lambda,k,level_capacity,psi_weight,lhs_partial\n")
        for rep in reports:
            for row in rep.levels:
                fh.write(f"{rep.tag},{rep.amplitude:.12g},{row.k},"
                         f"{row.capacity:.12g},{row.psi_weight:.12g},"
                         f"{row.lhs_partial:.12g}\n")
    _json_dump({"reports": [rep.summary() for rep in reports], "verdict": vars(verdict)},
               out_dir / "strongtype.json")
    return 0 if verdict.all_converged else 3


def _averages(config, phi_spec, base_dir, out_dir) -> int:
    dom = _domain(config)
    _require_table_range(phi_spec, dom)
    psi = _psi_from(config, phi_spec, base_dir)
    params = config["averages"]
    if not params["epsilon"] > 0:  # also nan, which no average falls below
        raise ConfigurationError(f"[averages] epsilon = {params['epsilon']!r}: need epsilon > 0")
    suite = _parse_functions(params["functions"], config["run"]["seed"])
    if params["j_max"] < 0 or not params["r0"] >= smallest_radius(dom):
        raise ConfigurationError(
            f"no radius r0 * 2^-j with 0 <= j <= j_max = {params['j_max']} reaches "
            f"4h = {smallest_radius(dom)!r}, the smallest the lattice resolves: the sweep is empty")
    if not math.isfinite(params["center_spacing"]):
        raise ConfigurationError(f"[averages] center_spacing = {params['center_spacing']!r}: "
                                 "need a finite spacing")
    centers = default_centers(dom, params["center_spacing"])
    for center in centers:
        check_ball_inside(dom, center, params["r0"])
    cache = CapacityCache(phi_spec, dom)
    traces = []
    rows = []
    for fn_spec in suite:
        u = build_test_function(fn_spec, dom)
        L = grid_lipschitz(u)
        for center in centers:
            tr = average_trace(u, center, phi_spec, psi,
                               j_max=params["j_max"], r0=params["r0"],
                               epsilon=params["epsilon"], cache=cache)
            traces.append({
                "function": fn_spec.tag,
                "center": list(tr.center),
                "final": tr.final,
                "passed": tr.passed,
                "truncated": tr.truncated,
                "lipschitz": L,
            })
            for r, v in zip(tr.radii, tr.values):
                rows.append((fn_spec.tag, tr.center, r, v))
    with open(out_dir / "traces.csv", "w", encoding="utf-8") as fh:
        fh.write("tag,x0,r,average\n")
        for tag, center, r, v in rows:
            loc = "(" + " ".join(f"{c:.6g}" for c in center) + ")"
            fh.write(f"{tag},{loc},{r:.12g},{v:.12g}\n")
    _json_dump({"traces": traces,
                "all_passed": all(t["passed"] for t in traces)},
               out_dir / "verdict.json")
    return 0


# scenario name -> runner(config, Phi, config directory, output directory) -> exit code
SCENARIOS = {"check-conditions": _check_conditions, "norm": _norm, "capacity": _capacity,
             "strong-type": _strong_type, "averages": _averages}


def run(config: dict, scenario: str, out_dir: Path, base_dir: Path) -> int:
    """Execute one scenario; returns the process exit code."""
    if scenario not in SCENARIOS:
        raise ConfigurationError(f"unknown scenario {scenario!r}")
    phi_spec = _young_from(config["young"], base_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"version": __version__, "scenario": scenario, "config": config}
    _json_dump(manifest, out_dir / "manifest.json")
    return SCENARIOS[scenario](config, phi_spec, base_dir, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orlicap",
        description="Capacitary strong-type inequality workbench")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, type=Path)
        sp.add_argument("--out", required=True, type=Path)
        sp.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        declared = config["run"]["scenario"]
        if declared is not None and declared != args.scenario:
            raise ConfigurationError(
                f"config declares scenario {declared!r} but {args.scenario!r} was invoked")
        config["run"]["scenario"] = args.scenario
        if args.seed is not None:
            config["run"]["seed"] = args.seed
        return run(config, args.scenario, args.out, args.config.parent)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
