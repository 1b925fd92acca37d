"""Batch front end: INI config in, CSV/JSON artifacts out.

One scenario per invocation; every run writes a manifest echoing the fully
resolved configuration so outputs are reproducible byte for byte from the
config and seed alone (no timestamps, sorted keys, fixed float formatting).

Each config key's type, default and admissible values are one entry of
`SCHEMA`, which `load_config` checks; checks that need the domain or two
keys stay in the scenario runners.  A runner returns its outputs, and `run`
writes them once the scenario has finished, so an error writes nothing.

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
from .grid import GridDomain, GridFunction, ball_mask, build_domain, check_ball_inside, save_csv
from .norms import luxemburg_norm, modular
from .strongtype import (
    SHAPES,
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

# key -> (type, default in [young]); [psi] takes the same keys with no default
_YOUNG_KEYS = {"family": (str, "power"), "p": (float, 2.0), "theta": (float, 0.0),
               "gamma": (float, 0.0), "c0": (float, None), "table": (str, None)}

_ABSENT = object()  # no default: the key stays out of the resolved config unless given

# section -> key -> (type, default[, admissible, what it needs]): all that a config
# may hold, which `load_config` checks before a scenario runs
SCHEMA = {
    "young": _YOUNG_KEYS,
    "psi": {"mode": (str, "derived", lambda v: v in ("derived", "explicit"),
                     "need derived or explicit"),
            **{key: (typ, _ABSENT) for key, (typ, _) in _YOUNG_KEYS.items()}},
    "domain": {"n": (int, 2), "r": (float, 1.0), "resolution": (int, 128)},
    "run": {"scenario": (str, None), "seed": (int, 0, lambda v: v >= 0, "need seed >= 0")},
    "check-conditions": {"ceiling": (float, math.inf, lambda v: not math.isnan(v),
                                     "no constant lies below it (inf, the default, "
                                     "sets no ceiling)")},
    "norm": {"shape": (str, "tent"), "amplitude": (float, 1.0), "tent_r": (float, 0.5),
             "sigma": (float, 0.2), "r_in": (float, 0.2), "r_out": (float, 0.5)},
    "capacity": {"r": (float, 0.25),
                 "method": (str, "variational", lambda v: v in ("variational", "riesz"),
                            "need variational or riesz"),
                 "radial_oracle": (bool, True), "estimate": (bool, False),
                 "write_minimizer": (bool, False)},
    "strong-type": {"functions": (str, ",".join(SHAPES)),
                    "lambda_min_exp": (int, -4), "lambda_max_exp": (int, 4)},
    "averages": {"functions": (str, "tent,bump"), "j_max": (int, 2), "r0": (float, 0.25),
                 # nan is not > 0: no average falls below it
                 "epsilon": (float, 0.05, lambda v: v > 0, "need epsilon > 0"),
                 "center_spacing": (float, 0.2, math.isfinite, "need a finite spacing")},
}


def _coerce(raw: str, entry: tuple, section: str, key: str):
    typ, _, *check = entry
    try:
        value = (configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
                 if typ is bool else typ(raw))
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"[{section}] {key} = {raw!r}: not a {typ.__name__}") from exc
    if check and not check[0](value):
        raise ConfigurationError(f"[{section}] {key} = {raw!r}: {check[1]}")
    return value


def load_config(path: Path) -> dict:
    """Parse and validate an INI config into a nested dict with defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
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

    return {section: {key: entry[1] for key, entry in keys.items() if entry[1] is not _ABSENT}
            | cfg.get(section, {}) for section, keys in SCHEMA.items()}


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
    section = cfg["psi"]
    if section["mode"] == "derived":
        return derived_psi(phi_spec)
    if all(section.get(k) is None for k in _YOUNG_KEYS):
        raise ConfigurationError("explicit psi needs its own family record")
    return explicit_psi(_young_from(section, base_dir))


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


def _check_conditions(config, phi_spec, base_dir):
    ceiling = config["check-conditions"]["ceiling"]
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
    return 0, {"conditions.json": payload}


def _norm(config, phi_spec, base_dir):
    dom = _domain(config)
    params = config["norm"]
    fn_spec = TestFunctionSpec(params["shape"], amplitude=params["amplitude"],
                               r=params["tent_r"], sigma=params["sigma"],
                               r_in=params["r_in"], r_out=params["r_out"],
                               seed=config["run"]["seed"])
    u = build_test_function(fn_spec, dom)
    return 0, {"norm.json": {"function": fn_spec.tag, "modular": modular(u, phi_spec),
                             "luxemburg_norm": luxemburg_norm(u, phi_spec)}}


def _capacity(config, phi_spec, base_dir):
    dom = _domain(config)
    params = config["capacity"]
    check_ball_inside(dom, np.zeros(dom.n), params["r"])
    E = ball_mask(dom, params["r"])
    if E.is_empty():
        raise ConfigurationError(f"B(0, {params['r']}) marks no lattice node: the nearest "
                                 f"lies at radius {float(dom.radius.min())!r}")
    solve = {"variational": capacity_variational,
             "riesz": riesz_capacity_variational}[params["method"]]
    if solve is capacity_variational:
        _require_table_range(phi_spec, dom)
    # the oracle and the estimate refuse a bad config before the solve
    payload = {"set": f"ball(r={params['r']:g})"}
    if params["radial_oracle"] and solve is capacity_variational:
        payload["radial_oracle"] = capacity_ball_radial(params["r"], phi_spec, dom.R, dom.n)
    if params["estimate"]:
        est = ball_capacity_estimate(params["r"], phi_spec, dom.R, dom.n)
        payload["ball_estimate"] = {"F": est.F_value, "estimate": est.estimate}
    res = solve(E, phi_spec, dom)
    payload.update(res.summary())
    minimizer = {"minimizer.csv": res.minimizer} if params["write_minimizer"] else {}
    return (0 if res.converged else 3), {"capacity.json": payload, **minimizer}


def _strong_type(config, phi_spec, base_dir):
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
    csv = "tag,lambda,k,level_capacity,psi_weight,lhs_partial\n" + "".join(
        f"{rep.tag},{rep.amplitude:.12g},{row.k},{row.capacity:.12g},"
        f"{row.psi_weight:.12g},{row.lhs_partial:.12g}\n"
        for rep in reports for row in rep.levels)
    summary = {"reports": [rep.summary() for rep in reports], "verdict": vars(verdict)}
    return (0 if verdict.all_converged else 3), {"strongtype.csv": csv, "strongtype.json": summary}


def _averages(config, phi_spec, base_dir):
    dom = _domain(config)
    _require_table_range(phi_spec, dom)
    psi = _psi_from(config, phi_spec, base_dir)
    params = config["averages"]
    suite = _parse_functions(params["functions"], config["run"]["seed"])
    if params["j_max"] < 0 or not params["r0"] >= smallest_radius(dom):
        raise ConfigurationError(
            f"no radius r0 * 2^-j with 0 <= j <= j_max = {params['j_max']} reaches "
            f"4h = {smallest_radius(dom)!r}, the smallest the lattice resolves: the sweep is empty")
    centers = default_centers(dom, params["center_spacing"])
    for center in centers:
        check_ball_inside(dom, center, params["r0"])
    cache = CapacityCache(phi_spec, dom)
    traces = []
    csv = ["tag,x0,r,average\n"]
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
            loc = "(" + " ".join(f"{c:.6g}" for c in tr.center) + ")"
            csv.extend(f"{fn_spec.tag},{loc},{r:.12g},{v:.12g}\n"
                       for r, v in zip(tr.radii, tr.values))
    return 0, {"traces.csv": "".join(csv),
               "verdict.json": {"traces": traces,
                                "all_passed": all(t["passed"] for t in traces)}}


# scenario name -> runner(config, Phi, config directory) -> (exit code, {file name: a JSON
# dict, CSV text or a GridFunction})
SCENARIOS = {"check-conditions": _check_conditions, "norm": _norm, "capacity": _capacity,
             "strong-type": _strong_type, "averages": _averages}


def run(config: dict, scenario: str, out_dir: Path, base_dir: Path) -> int:
    """Execute one scenario, then write its outputs; returns the process exit code."""
    if scenario not in SCENARIOS:
        raise ConfigurationError(f"unknown scenario {scenario!r}")
    phi_spec = _young_from(config["young"], base_dir)
    code, outputs = SCENARIOS[scenario](config, phi_spec, base_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"version": __version__, "scenario": scenario, "config": config}
    for name, payload in {"manifest.json": manifest, **outputs}.items():
        if isinstance(payload, GridFunction):
            save_csv(payload, out_dir / name)
        elif isinstance(payload, str):
            (out_dir / name).write_text(payload, encoding="utf-8")
        else:
            _json_dump(payload, out_dir / name)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orlicap",
        description="Capacitary strong-type inequality workbench")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, type=Path)
        sp.add_argument("--out", required=True, type=Path)
        sp.add_argument("--seed")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        declared = config["run"]["scenario"]
        if declared is not None and declared != args.scenario:
            raise ConfigurationError(
                f"config declares scenario {declared!r} but {args.scenario!r} was invoked")
        config["run"]["scenario"] = args.scenario
        if args.seed is not None:
            config["run"]["seed"] = _coerce(args.seed, SCHEMA["run"]["seed"], "run", "seed")
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
