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
    assert main(["capacity", "--config", str(cfg), "--out", str(out), "--seed", "9",
                 "--threads", "2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["run"]["seed"] == 9
    assert manifest["config"]["run"]["threads"] == 2


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_capacity_energy_exits_3(tmp_path):
    # Phi = t^2 tabulated only up to t = 10, below the lattice gradients
    t = np.geomspace(1e-8, 10, 200)
    np.savetxt(tmp_path / "table.csv", np.column_stack([t, t ** 2]), delimiter=",")
    cfg = write(tmp_path, BASE.replace("family = power\np = 2.0",
                                       "family = custom_table\ntable = table.csv")
                + "\n[capacity]\nr = 0.25\nradial_oracle = false\n")
    out = tmp_path / "out"
    code = main(["capacity", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    assert not (out / "capacity.json").exists()
