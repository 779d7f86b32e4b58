import io
import json
import subprocess
import sys
from contextlib import redirect_stdout

import pytest
from conftest import REPO_ROOT, fixture_path

from stackycones.cli import main

FOOTBALL = str(fixture_path("football"))
P2 = str(fixture_path("p2"))


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run_cli(*argv, "--json")
    return code, json.loads(out)


def test_validate_ok_exit_zero():
    code, out = run_cli("validate", FOOTBALL)
    assert code == 0
    assert "validation: PASS" in out


def test_validate_bad_fan_exit_two(tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({
        "name": "half", "rank": 1,
        "rays": [{"beta_free": [1]}, {"beta_free": [-1]}],
        "max_cones": [[0]]}))
    code, out = run_cli("validate", str(path))
    assert code == 2
    assert "check complete: FAIL" in out


def test_compute_command_on_invalid_fan_exits_two(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({
        "rank": 1, "rays": [{"beta_free": [1]}, {"beta_free": [-1]}],
        "max_cones": [[0]]}))
    code, _ = run_cli("box", str(path))
    assert code == 2


def test_parse_error_exit_64(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    code, _ = run_cli("validate", str(path))
    assert code == 64


def test_missing_file_exit_64():
    code, _ = run_cli("verify", "no/such/file.json")
    assert code == 64


def test_unknown_command_exit_64():
    assert main(["frobnicate", FOOTBALL]) == 64


def test_missing_argument_exit_64():
    assert main(["class-of-1ps", FOOTBALL]) == 64


def test_verify_football():
    code, out = run_cli("verify", FOOTBALL)
    assert code == 0
    assert "PEff_orb extremal rays: (0, 1), (1, -1)" in out
    assert "theorem verification: PASS" in out


def test_box_p2_summary_line():
    code, out = run_cli("box", P2)
    assert code == 0
    assert "Box = {0}; no twisted sectors" in out


def test_class_of_1ps_football():
    code, out = run_cli("class-of-1ps", FOOTBALL, "--b=-3")
    assert code == 0
    assert "class = 3*v[rho1] + v[Y0]" in out
    assert "decomposition = Xi[Y0] + 1*Xi[rho1]" in out


def test_class_of_1ps_untwisted():
    code, out = run_cli("class-of-1ps", FOOTBALL, "--b=5")
    assert code == 0
    assert "class = 5*v[rho0]" in out
    assert "sector = untwisted" in out
    assert "decomposition = 5*Xi[rho0]" in out


def test_class_of_1ps_bad_b_exit_64():
    code, _ = run_cli("class-of-1ps", FOOTBALL, "--b=1,2,3")
    assert code == 64
    code, _ = run_cli("class-of-1ps", FOOTBALL, "--b=x")
    assert code == 64


def test_class_of_1ps_torsion_part():
    code, out = run_cli("class-of-1ps", str(fixture_path("gerby-p1")), "--b=0;1")
    assert code == 0
    assert "class = v[Y0]" in out


def test_json_rationals_are_strings():
    code, doc = run_json("xi", FOOTBALL)
    assert code == 0
    assert doc["dual_basis_ok"] is True
    entry = doc["xi_star"][1][1]
    assert entry == {"num": "1", "den": "2"}


def test_json_verify_schema():
    code, doc = run_json("verify", FOOTBALL)
    assert code == 0
    assert doc["equal"] is True
    assert doc["separating"] is None
    assert doc["mov_generators"] == [[1, 0], [1, 1]]
    assert doc["corollary_extremal_rays"] == [[0, 1], [1, -1]]


def test_json_box_schema():
    code, doc = run_json("box", FOOTBALL)
    assert code == 0
    assert doc["twisted_count"] == 1
    first = doc["box"][0]
    assert first["rig"] == [-1]
    assert first["coeffs"] == [
        {"ray": 1, "label": "rho1", "value": {"num": "1", "den": "2"}}]
    assert first["label"] == "Y0"
    assert doc["box"][1]["untwisted"] is True


def test_json_ns_schema():
    code, doc = run_json("ns", FOOTBALL)
    assert code == 0
    assert doc["dim_ns_orb"] == 2
    assert doc["curve_basis"] == [[1, 1, 0], [0, 0, 1]]
    assert doc["ray_classes"][1]["E_stacky"][0] == {"num": "1", "den": "2"}


def test_json_class_of_1ps_schema():
    code, doc = run_json("class-of-1ps", FOOTBALL, "--b=-3")
    assert code == 0
    assert doc["sector"]["label"] == "Y0"
    assert doc["decomposition"]["ray_multiplicities"] == [0, 1]
    assert doc["class_vector"][1] == {"num": "3", "den": "1"}


def test_rays_and_sectors_and_mov_and_peff_run_everywhere():
    for name in ("p1", "hirzebruch-f1", "p1xfootball", "p2-c2", "gerby-p1"):
        for command in ("rays", "sectors", "ns", "xi", "mov", "peff"):
            code, out = run_cli(command, str(fixture_path(name)))
            assert code == 0, (name, command, out)


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "stackycones", "verify", FOOTBALL],
        capture_output=True, text=True, cwd=REPO_ROOT / "src")
    assert proc.returncode == 0
    assert "theorem verification: PASS" in proc.stdout
