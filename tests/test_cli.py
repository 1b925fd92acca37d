import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from orlicap.cli import SCENARIOS, load_config, main
from orlicap.errors import ConfigurationError


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


BASE = """
[young]
family = power
p = 2.0

[domain]
n = 2
r = 1.0
resolution = 64
"""


def test_empty_config_is_rejected(tmp_path):
    cfg = write(tmp_path, "")
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_unknown_section_rejected(tmp_path):
    cfg = write(tmp_path, BASE + "\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigurationError):
        load_config(cfg)


def test_unknown_key_rejected(tmp_path):
    cfg = write(tmp_path, BASE + "\n[capacity]\nradius = 0.25\n")
    with pytest.raises(ConfigurationError):
        load_config(cfg)


def test_bad_value_type_rejected(tmp_path):
    cfg = write(tmp_path, BASE.replace("resolution = 64", "resolution = tiny"))
    with pytest.raises(ConfigurationError):
        load_config(cfg)


def test_scenario_mismatch(tmp_path):
    cfg = write(tmp_path, BASE + "\n[run]\nscenario = norm\n")
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_defaults_are_resolved(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    assert cfg["capacity"]["r"] == 0.25
    assert cfg["run"]["seed"] == 0
    assert cfg["averages"]["r0"] == 0.25
    assert cfg["psi"] == {"mode": "derived"}  # its family keys have no default
    # the default sweep is every shape, in the order the manifests record
    assert cfg["strong-type"]["functions"] == "tent,bump,plateau,two_peak,random_smooth"


def test_check_conditions_scenario(tmp_path):
    cfg = write(tmp_path, """
[young]
family = power_log
p = 2.0
theta = 1.0
""")
    out = tmp_path / "out"
    assert main(["check-conditions", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "conditions.json").read_text())
    assert payload["all_passed"] is True
    assert set(payload) >= {"delta2", "delta2_plus", "submultiplicative_f", "pairing"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "check-conditions"
    assert manifest["config"]["young"]["family"] == "power_log"


def test_capacity_scenario_matches_condenser(tmp_path):
    cfg = write(tmp_path, BASE + "\n[capacity]\nr = 0.25\n")
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "capacity.json").read_text())
    exact = 2 * math.pi / math.log(4)
    assert abs(payload["value"] - exact) / exact < 0.05
    assert payload["converged"] is True
    assert abs(payload["radial_oracle"] - exact) / exact < 0.005


def test_riesz_capacity_writes_its_bracket(tmp_path):
    cfg = write(tmp_path, BASE + "\n[capacity]\nr = 0.25\nmethod = riesz\n")
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "capacity.json").read_text())
    assert payload["converged"] is True
    assert payload["method"] == "riesz-dual"
    assert 0.0 < payload["lower"] <= payload["value"]
    assert payload["value"] - payload["lower"] <= 1e-8 * payload["value"]


def test_riesz_capacity_of_more_than_4096_nodes_exits_0(tmp_path):
    # B(0.6) at 128^2 marks 4,628 nodes; power(2) solves it in one active-set
    # solve, with a bracket at rounding level
    text = BASE.replace("resolution = 64", "resolution = 128")
    cfg = write(tmp_path, text + "\n[capacity]\nr = 0.6\nmethod = riesz\n")
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "capacity.json").read_text())
    assert payload["converged"] is True and payload["iterations"] == 1
    assert 0.0 < payload["lower"] <= payload["value"]
    assert payload["value"] - payload["lower"] <= 1e-12 * payload["value"]


def test_riesz_working_set_over_the_cap_exits_2(tmp_path, monkeypatch):
    # the power(2) working set's rows are the one dense array left; past
    # their cap the run is a config error, and nothing is written
    monkeypatch.setattr("orlicap.capacity._MAX_CONSTRAINT_NODES", 8)
    cfg = write(tmp_path, BASE + "\n[capacity]\nr = 0.25\nmethod = riesz\n")
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_capacity_json_carries_the_certified_bracket(tmp_path):
    cfg = write(tmp_path, BASE + "\n[capacity]\nr = 0.25\n")
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "capacity.json").read_text())
    # the solve stops once no step lowers the energy in floating point, so
    # the gap is bounded by that resolution rather than by tol * value
    assert 0.0 < payload["lower"] <= payload["value"]
    assert payload["value"] - payload["lower"] <= 1e-6 * payload["value"]


def test_threads_is_no_longer_accepted(tmp_path):
    cfg = write(tmp_path, BASE + "\n[run]\nthreads = 2\n[capacity]\nr = 0.2\n")
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    cfg = write(tmp_path, BASE + "\n[capacity]\nr = 0.2\n")
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--config", str(cfg), "--out", str(out), "--threads", "2"])
    assert exc.value.code == 2


def test_norm_random_smooth_follows_the_run_seed(tmp_path):
    cfg = write(tmp_path, SMALL + "\n[norm]\nshape = random_smooth\n")
    payloads = []
    for seed, name in (("1", "a"), ("2", "b"), ("2", "c")):
        out = tmp_path / name
        assert main(["norm", "--config", str(cfg), "--out", str(out), "--seed", seed]) == 0
        payloads.append((out / "norm.json").read_bytes())
    first, second = (json.loads(p) for p in payloads[:2])
    assert (first["function"], second["function"]) == ("random_smooth(seed=1)",
                                                        "random_smooth(seed=2)")
    assert first["modular"] != second["modular"]
    assert payloads[1] == payloads[2]


def test_norm_scenario(tmp_path):
    cfg = write(tmp_path, BASE + "\n[norm]\nshape = tent\ntent_r = 0.5\n")
    out = tmp_path / "out"
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "norm.json").read_text())
    assert payload["modular"] > 0 and payload["luxemburg_norm"] > 0


def test_strong_type_scenario_small(tmp_path):
    cfg = write(tmp_path, BASE + """
[strong-type]
functions = tent
lambda_min_exp = -1
lambda_max_exp = 1
""")
    out = tmp_path / "out"
    assert main(["strong-type", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "strongtype.json").read_text())
    assert payload["verdict"]["stable"] is True
    ks = [rep["k_emp"] for rep in payload["reports"]]
    assert max(ks) / min(ks) < 1.1
    lines = (out / "strongtype.csv").read_text().splitlines()
    assert lines[0] == "tag,lambda,k,level_capacity,psi_weight,lhs_partial"
    assert len(lines) > 3


def test_averages_scenario_small(tmp_path):
    cfg = write(tmp_path, BASE + """
[averages]
functions = tent
j_max = 1
""")
    out = tmp_path / "out"
    assert main(["averages", "--config", str(cfg), "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert len(verdict["traces"]) == 9
    lines = (out / "traces.csv").read_text().splitlines()
    assert lines[0] == "tag,x0,r,average"


def test_reruns_are_byte_identical(tmp_path):
    cfg = write(tmp_path, BASE + "\n[capacity]\nr = 0.2\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["capacity", "--config", str(cfg), "--out", str(out1), "--seed", "5"]) == 0
    assert main(["capacity", "--config", str(cfg), "--out", str(out2), "--seed", "5"]) == 0
    for name in ("manifest.json", "capacity.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_flag_lands_in_manifest(tmp_path):
    cfg = write(tmp_path, BASE + "\n[capacity]\nr = 0.2\n")
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["run"]["seed"] == 9


def test_missing_config_gives_io_error(tmp_path):
    out = tmp_path / "out"
    code = main(["capacity", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(out)])
    assert code == 4


def test_explicit_psi_round_trip(tmp_path):
    cfg = write(tmp_path, """
[young]
family = power_log
p = 2.0
theta = 1.0

[psi]
mode = explicit
family = power_log
p = 2.0
theta = 1.0

[domain]
n = 2
r = 1.0
resolution = 64

[strong-type]
functions = tent
lambda_min_exp = 0
lambda_max_exp = 1
""")
    out = tmp_path / "out"
    assert main(["strong-type", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "strongtype.json").read_text())
    assert payload["verdict"]["conditions_ok"] is False  # log against log


def table_config(tmp_path, t_last):
    """Capacity config at 64^2 (1/h = 32) for Phi = t^2 tabulated up to t_last."""
    t = np.geomspace(1e-8, t_last, 200)
    np.savetxt(tmp_path / "table.csv", np.column_stack([t, t ** 2]), delimiter=",")
    return write(tmp_path, BASE.replace("family = power\np = 2.0",
                                        "family = custom_table\ntable = table.csv")
                 + "\n[capacity]\nr = 0.25\nradial_oracle = false\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_capacity_energy_exits_3(tmp_path):
    # the table ends at 40: past 1/h = 32, so the config passes, but below the
    # indicator's largest lattice gradient sqrt(2)/h = 45.25
    cfg = table_config(tmp_path, 40)
    out = tmp_path / "out"
    code = main(["capacity", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    assert not out.exists()


def test_table_short_of_one_over_h_exits_2(tmp_path, capsys):
    # a table that ends at 10 < 1/h = 32 cannot hold any solve's first iterate
    cfg = table_config(tmp_path, 10)
    out = tmp_path / "out"
    code = main(["capacity", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "below 1/h = 32.0" in capsys.readouterr().err
    assert not out.exists()


def test_table_with_the_radial_oracle_exits_2_before_any_solve(tmp_path, capsys, monkeypatch):
    # the table reaches past every lattice gradient, so only the oracle refuses it
    cfg = table_config(tmp_path, 1e3)
    cfg.write_text(cfg.read_text().replace("radial_oracle = false", "radial_oracle = true"))
    monkeypatch.setattr("orlicap.cli.capacity_variational",
                        lambda *args: pytest.fail("solved before refusing the table"))
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 2
    assert "set radial_oracle = false" in capsys.readouterr().err
    assert not out.exists()


SMALL = BASE.replace("resolution = 64", "resolution = 32")  # h = 1/16, R - 2h = 0.875


@pytest.mark.parametrize("young, r, message", [
    ("family = power\np = 2.0", "0.6", "0 < r < R/2"),
    ("family = power\np = 3.0", "0.25", "must equal the dimension 2"),
], ids=["radius", "exponent"])
def test_estimate_config_errors_exit_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                                        young, r, message):
    cfg = write(tmp_path, SMALL.replace("family = power\np = 2.0", young)
                + f"[capacity]\nr = {r}\nestimate = true\n")
    monkeypatch.setattr("orlicap.cli.capacity_variational",
                        lambda *args: pytest.fail("solved before refusing the estimate"))
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, section", [
    ("capacity", "[capacity]\nr = 0.99\n"),
    ("averages", "[averages]\nfunctions = tent\nr0 = 0.9\n"),
], ids=["capacity", "averages"])
def test_ball_reaching_the_boundary_band_exits_2(tmp_path, capsys, scenario, section):
    cfg = write(tmp_path, SMALL + section)
    out = tmp_path / "out"
    assert main([scenario, "--config", str(cfg), "--out", str(out)]) == 2
    assert "does not fit inside B(0, R - 2h)" in capsys.readouterr().err
    assert not out.exists()


def test_ball_marking_no_node_exits_2(tmp_path, capsys):
    # at 32^2 the nearest node lies h sqrt(2) / 2 = 0.044 from the centre
    cfg = write(tmp_path, SMALL + "[capacity]\nr = 0.01\n")
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 2
    assert "marks no lattice node" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, section", [
    ("strong-type", "[strong-type]\nfunctions = tent\nlambda_min_exp = 2\nlambda_max_exp = 1\n"),
    ("averages", "[averages]\nfunctions = tent\nj_max = -1\n"),
    ("averages", "[averages]\nfunctions = tent\nr0 = 0.2\n"),  # 4h = 0.25
], ids=["lambda-exps", "j_max", "r0-below-4h"])
def test_empty_sweep_exits_2(tmp_path, capsys, scenario, section):
    cfg = write(tmp_path, SMALL + section)
    out = tmp_path / "out"
    assert main([scenario, "--config", str(cfg), "--out", str(out)]) == 2
    assert "empty" in capsys.readouterr().err
    assert not out.exists()


# each of these once crashed with OverflowError (2^1024), or wrote nan and inf
# (2^600) or a zero amplitude (2^-1100) to strongtype.json with exit 0
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exponent, code, message", [
    (1024, 2, "lambda_min_exp = 1024, lambda_max_exp = 1024"),
    (600, 3, "the energy inf"),
    (-1100, 2, "lambda_min_exp = -1100, lambda_max_exp = -1100"),
    (1023, 3, "the energy inf"),
    (-1022, 3, "the energy 0.0"),  # underflows
])
def test_amplitudes_at_the_float_range_edges_exit_2_or_3(tmp_path, capsys, exponent, code,
                                                          message):
    cfg = write(tmp_path, SMALL + f"[strong-type]\nfunctions = tent\nlambda_min_exp = {exponent}\n"
                f"lambda_max_exp = {exponent}\n")
    out = tmp_path / "out"
    assert main(["strong-type", "--config", str(cfg), "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_unknown_norm_shape_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, SMALL + "\n[norm]\nshape = nope\n")
    out = tmp_path / "out"
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown test-function shape 'nope'" in capsys.readouterr().err
    assert not out.exists()


def test_degenerate_norm_shape_exits_2(tmp_path, capsys):
    # tent_r = 0 once wrote a zero function under a divide-by-zero warning
    cfg = write(tmp_path, SMALL + "\n[norm]\nshape = tent\ntent_r = 0\n")
    out = tmp_path / "out"
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 2
    assert "need r > 0" in capsys.readouterr().err
    assert not out.exists()


def nan_table(tmp_path):
    t = np.geomspace(1e-3, 1e3, 50)
    vals = t ** 2
    vals[25] = math.nan
    np.savetxt(tmp_path / "table.csv", np.column_stack([t, vals]), delimiter=",")
    return "family = custom_table\ntable = table.csv"


# each of these once ran to a silent NaN in norm.json, or crashed
@pytest.mark.parametrize("scenario, edit", [
    ("norm", lambda tmp: "family = power_log\np = 2.0\ntheta = nan"),
    ("norm", nan_table),
    ("norm", lambda tmp: "family = power\np = inf"),
    ("norm", lambda tmp: "family = power\np = 2.0\n[domain]\nr = nan"),
    ("norm", lambda tmp: "family = power\np = 2.0\n[domain]\nr = inf"),
    ("norm", lambda tmp: "family = power\np = 2.0\n[norm]\namplitude = nan"),
    ("averages", lambda tmp: "family = power\np = 2.0\n[averages]\nfunctions = tent\nr0 = nan"),
    # these two ran to a wrong verdict with exit 0: every check failed
    ("check-conditions",
     lambda tmp: "family = power\np = 2.0\n[check-conditions]\nceiling = nan"),
    ("averages",
     lambda tmp: "family = power\np = 2.0\n[averages]\nfunctions = tent\nepsilon = nan"),
    # these two exited 2 naming a ball that does not fit, not the spacing
    ("averages", lambda tmp: "family = power\np = 2.0\n[averages]\nfunctions = tent\n"
                             "center_spacing = nan"),
    ("averages", lambda tmp: "family = power\np = 2.0\n[averages]\nfunctions = tent\n"
                             "center_spacing = inf"),
], ids=["theta-nan", "table-nan-knot", "p-inf", "r-nan", "r-inf", "amplitude-nan", "r0-nan",
        "ceiling-nan", "epsilon-nan", "center_spacing-nan", "center_spacing-inf"])
def test_non_finite_input_exits_2(tmp_path, capsys, scenario, edit):
    text = edit(tmp_path)
    cfg = write(tmp_path, "[young]\n" + text + "\n")
    out = tmp_path / "out"
    assert main([scenario, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    if "center_spacing" in text:
        assert "[averages] center_spacing" in err
    assert not out.exists()


# each of these once exited 2 only after manifest.json was written
@pytest.mark.parametrize("scenario, text, message", [
    ("check-conditions", "[check-conditions]\nceiling = nan\n", "[check-conditions] ceiling"),
    ("averages", "[averages]\nepsilon = -1\n", "[averages] epsilon"),
    ("averages", "[averages]\nepsilon = 0\n", "[averages] epsilon"),
    ("averages", "[averages]\ncenter_spacing = inf\n", "[averages] center_spacing"),
    ("capacity", "[capacity]\nmethod = exact\n", "[capacity] method"),
    ("strong-type", "[psi]\nmode = implicit\n", "[psi] mode"),
], ids=["ceiling-nan", "epsilon-negative", "epsilon-zero", "center_spacing-inf",
        "method-unknown", "psi-mode-unknown"])
def test_a_bad_value_exits_2_before_anything_is_written(tmp_path, capsys, scenario, text,
                                                         message):
    cfg = write(tmp_path, SMALL + text)
    out = tmp_path / "out"
    assert main([scenario, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


# each of these once crashed with numpy's ValueError; the runner loads an
# explicit psi, and that one once exited 2 after writing manifest.json
@pytest.mark.parametrize("csv, cell, record", [("t,phi\n1,1\n2,4\n", "'t'", "young"),
                                               ("1,1\n2,x\n3,9\n", "'x'", "young"),
                                               ("t,psi\n1,1\n2,4\n", "'t'", "psi")],
                         ids=["header-row", "stray-cell", "psi-header-row"])
def test_table_csv_that_is_not_all_numbers_exits_2(tmp_path, capsys, csv, cell, record):
    (tmp_path / "table.csv").write_text(csv, encoding="utf-8")
    table = "family = custom_table\ntable = table.csv"
    cfg = write(tmp_path, SMALL.replace("family = power\np = 2.0", table) if record == "young"
                else SMALL + f"[psi]\nmode = explicit\n{table}\n")
    out = tmp_path / "out"
    assert main(["check-conditions", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "table.csv" in err and cell in err
    assert not out.exists()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # a Latin-1 byte once ended in a UnicodeDecodeError traceback
    cfg = tmp_path / "run.ini"
    cfg.write_bytes((SMALL + "; caf\xe9\n[norm]\nshape = tent\n").encode("latin-1"))
    out = tmp_path / "out"
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_table_with_a_zero_value_at_positive_t_exits_2(tmp_path, capsys):
    # this table once gave a NaN Phi' and a modular of 0.0 with exit 0
    (tmp_path / "table.csv").write_text("1,0\n2,4\n3,9\n", encoding="utf-8")
    cfg = write(tmp_path, SMALL.replace("family = power\np = 2.0",
                                        "family = custom_table\ntable = table.csv")
                + "[norm]\nshape = tent\n")
    out = tmp_path / "out"
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 2
    assert "positive at t > 0" in capsys.readouterr().err
    assert not out.exists()


def test_out_below_a_regular_file_exits_4(tmp_path, capsys):
    # the output directory is created only after the scenario has run
    (tmp_path / "file").write_text("", encoding="utf-8")
    cfg = write(tmp_path, SMALL + "[norm]\nshape = tent\n")
    assert main(["norm", "--config", str(cfg), "--out", str(tmp_path / "file" / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "Traceback" not in err


# numpy's generator refuses a negative seed: this once crashed with a traceback in
# strong-type and averages, and capacity and check-conditions recorded it with exit 0
@pytest.mark.parametrize("scenario, how", [pytest.param(scenario, how, id=f"{scenario}-{how}")
                                           for scenario in SCENARIOS for how in ("flag", "key")])
def test_negative_seed_exits_2(tmp_path, capsys, scenario, how):
    cfg = write(tmp_path, SMALL + ("[run]\nseed = -1\n" if how == "key" else ""))
    out = tmp_path / "out"
    flag = ["--seed", "-1"] if how == "flag" else []
    assert main([scenario, "--config", str(cfg), "--out", str(out), *flag]) == 2
    assert "need seed >= 0" in capsys.readouterr().err
    assert not out.exists()


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(args, cwd, **env):
    """A fresh interpreter that imports orlicap from this checkout, with
    `env` set before numpy loads."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300, env=dict(os.environ, PYTHONPATH=path, **env))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at 128^2 a BLAS dot of the ~12,000 free values runs on two threads
    # and adds in another order, so the solve's reductions avoid BLAS;
    # power_log takes the nonlinear solve, power(2) the linear one, and the
    # Riesz solve of power_log spectral projected gradient on FFT potentials
    strong = "[strong-type]\nfunctions = tent\nlambda_min_exp = 0\nlambda_max_exp = 0\n"
    riesz = "[capacity]\nr = 0.3\nmethod = riesz\n"
    for family, scenario, section, files in [
            ("power_log\ntheta = 1.0", "strong-type", strong, "strongtype.csv strongtype.json"),
            ("power", "strong-type", strong, "strongtype.csv strongtype.json"),
            ("power_log\ntheta = 1.0", "capacity", riesz, "capacity.json")]:
        write(tmp_path, BASE.replace("resolution = 64", "resolution = 128").replace(
            "family = power\n", f"family = {family}\n") + section)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{scenario}-{family.split()[0]}-{threads}"
            run_fresh(["-m", "orlicap.cli", scenario, "--config", "run.ini",
                       "--out", str(out)], tmp_path, OPENBLAS_NUM_THREADS=threads)
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outputs[0]) == sorted(["manifest.json", *files.split()])
        assert outputs[0] == outputs[1]


def test_solves_load_neither_scipy_integrate_nor_sparse_linalg(tmp_path):
    # each costs about 10-20 MB of a run's peak memory, and no run needs
    # either: the ball estimate integrates with numpy
    write(tmp_path, SMALL + "[strong-type]\nfunctions = tent\nlambda_min_exp = 0\n"
          "lambda_max_exp = 0\n[averages]\nfunctions = tent\nj_max = 0\n"
          "[capacity]\nmethod = riesz\n")
    write(tmp_path, SMALL + "[capacity]\nestimate = true\n", "estimate.ini")
    loaded = run_fresh(["-c", textwrap.dedent("""
        import sys
        from orlicap.cli import main

        def heavy():
            return sorted(m for m in sys.modules
                          if m.startswith(("scipy.integrate", "scipy.sparse.linalg")))

        for scenario in ("strong-type", "averages", "capacity"):
            assert main([scenario, "--config", "run.ini", "--out", scenario]) == 0
        print(heavy())
        assert main(["capacity", "--config", "estimate.ini", "--out", "estimate"]) == 0
        print(heavy())
        """)], tmp_path).splitlines()
    assert loaded == ["[]", "[]"]
    # F(r) = log(R / r) for power(2) in 2-D, and the estimate is 1 / F
    estimate = json.loads((tmp_path / "estimate" / "capacity.json").read_text())["ball_estimate"]
    assert estimate["estimate"] == pytest.approx(1.0 / math.log(4.0), rel=1e-8)
