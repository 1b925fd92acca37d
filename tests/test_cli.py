import json
import math

import numpy as np
import pytest

from orlicap.cli import load_config, main
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


def test_defaults_are_resolved(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    assert cfg["capacity"]["r"] == 0.25
    assert cfg["run"]["seed"] == 0
    assert cfg["averages"]["r0"] == 0.25


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


def test_riesz_capacity_over_the_node_cap_exits_2(tmp_path):
    text = BASE.replace("resolution = 64", "resolution = 128")
    cfg = write(tmp_path, text + "\n[capacity]\nr = 0.6\nmethod = riesz\n")
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 2
    assert not (out / "capacity.json").exists()


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
    assert not (out / "capacity.json").exists()


def test_table_short_of_one_over_h_exits_2(tmp_path, capsys):
    # a table that ends at 10 < 1/h = 32 cannot hold any solve's first iterate
    cfg = table_config(tmp_path, 10)
    out = tmp_path / "out"
    code = main(["capacity", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "below 1/h = 32.0" in capsys.readouterr().err
    assert not (out / "capacity.json").exists()


def test_table_with_the_radial_oracle_exits_2_before_any_solve(tmp_path, capsys, monkeypatch):
    # the table reaches past every lattice gradient, so only the oracle refuses it
    cfg = table_config(tmp_path, 1e3)
    cfg.write_text(cfg.read_text().replace("radial_oracle = false", "radial_oracle = true"))
    monkeypatch.setattr("orlicap.cli.capacity_variational",
                        lambda *args: pytest.fail("solved before refusing the table"))
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 2
    assert "set radial_oracle = false" in capsys.readouterr().err
    assert not (out / "capacity.json").exists()


SMALL = BASE.replace("resolution = 64", "resolution = 32")  # h = 1/16, R - 2h = 0.875


@pytest.mark.parametrize("scenario, section, output", [
    ("capacity", "[capacity]\nr = 0.99\n", "capacity.json"),
    ("averages", "[averages]\nfunctions = tent\nr0 = 0.9\n", "verdict.json"),
], ids=["capacity", "averages"])
def test_ball_reaching_the_boundary_band_exits_2(tmp_path, capsys, scenario, section, output):
    cfg = write(tmp_path, SMALL + section)
    out = tmp_path / "out"
    assert main([scenario, "--config", str(cfg), "--out", str(out)]) == 2
    assert "does not fit inside B(0, R - 2h)" in capsys.readouterr().err
    assert not (out / output).exists()


def test_ball_marking_no_node_exits_2(tmp_path, capsys):
    # at 32^2 the nearest node lies h sqrt(2) / 2 = 0.044 from the centre
    cfg = write(tmp_path, SMALL + "[capacity]\nr = 0.01\n")
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 2
    assert "marks no lattice node" in capsys.readouterr().err
    assert not (out / "capacity.json").exists()


@pytest.mark.parametrize("scenario, section, output", [
    ("strong-type", "[strong-type]\nfunctions = tent\nlambda_min_exp = 2\nlambda_max_exp = 1\n",
     "strongtype.json"),
    ("averages", "[averages]\nfunctions = tent\nj_max = -1\n", "verdict.json"),
    ("averages", "[averages]\nfunctions = tent\nr0 = 0.2\n", "verdict.json"),  # 4h = 0.25
], ids=["lambda-exps", "j_max", "r0-below-4h"])
def test_empty_sweep_exits_2(tmp_path, capsys, scenario, section, output):
    cfg = write(tmp_path, SMALL + section)
    out = tmp_path / "out"
    assert main([scenario, "--config", str(cfg), "--out", str(out)]) == 2
    assert "empty" in capsys.readouterr().err
    assert not (out / output).exists()


def test_unknown_norm_shape_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, SMALL + "\n[norm]\nshape = nope\n")
    out = tmp_path / "out"
    assert main(["norm", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown test-function shape 'nope'" in capsys.readouterr().err
    assert not (out / "norm.json").exists()
