import io
import json
import subprocess
import sys
import tempfile
import tracemalloc
from math import prod
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from conftest import (FIXTURE_NAMES, REPO_ROOT, _count_calls, fixture_fan,
                      fixture_path)
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from stackycones import boxes, cli, cones, linalg, neron_severi, orbcones
from stackycones.cli import main

FOOTBALL = str(fixture_path("football"))
P2 = str(fixture_path("p2"))
COMMANDS = ("validate", "rays", "box", "sectors", "ns", "xi", "mov", "peff",
            "verify", "class-of-1ps")


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
    for command in COMMANDS[1:]:   # every command but validate
        for json_flag in ([], ["--json"]):
            argv = [command, str(path), *json_flag] + ["--b=1"] * (command == "class-of-1ps")
            code, out = run_cli(*argv)
            assert code == 2, argv
            assert out == "", argv
            assert capsys.readouterr().err == \
                "error: fan 'half' fails validation: complete\n", argv


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


def test_class_of_1ps_bad_b_exit_64(capsys):
    code, out = run_cli("class-of-1ps", FOOTBALL, "--b=1,2,3")
    assert code == 64
    assert out == ""
    code, out = run_cli("class-of-1ps", FOOTBALL, "--b=x")
    assert code == 64
    assert out == ""
    # an empty field is an error, not a skipped coordinate
    for path, b in ((P2, "1,,1"), (FOOTBALL, "-3,"), (FOOTBALL, ",-3")):
        capsys.readouterr()
        code, out = run_cli("class-of-1ps", path, f"--b={b}")
        assert code == 64, b
        assert out == ""
        assert capsys.readouterr().err.startswith("error: "), b
    code, out = run_cli("class-of-1ps", str(fixture_path("gerby-p1")), "--b=1;0;0")
    assert (code, out) == (64, "")
    assert capsys.readouterr().err == "error: expected at most one ';' in --b\n"


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


# DD runs per command on a valid fan, as at the time each stage was first
# shared: validation makes none, Mov one, PEff's extremal rays a second,
# and verify a third inside the containment check
STAGE_DD_RUNS = {"ns": 0, "xi": 0, "mov": 1, "peff": 2, "verify": 3, "class-of-1ps": 0}


@pytest.mark.parametrize("command", sorted(STAGE_DD_RUNS))
def test_each_stage_is_built_once_per_command(monkeypatch, dd_runs, command):
    stages = {name: _count_calls(monkeypatch, module, name)
              for module, name in ((boxes, "twisted_sectors"),
                                   (neron_severi, "build_spaces"),
                                   (orbcones, "build_xi"))}
    for fixture in FIXTURE_NAMES:
        for calls in (dd_runs, *stages.values()):
            calls.clear()
        extra = ["--b=" + ",".join(["1"] * fixture_fan(fixture).dim)] \
            if command == "class-of-1ps" else []
        code, _ = run_cli(command, str(fixture_path(fixture)), *extra)
        assert code == 0, (command, fixture)
        for name, calls in stages.items():
            assert len(calls) <= 1, (command, fixture, name)
        assert len(dd_runs) == STAGE_DD_RUNS[command], (command, fixture)


# the views each command builds: the rational views of XiSystem, xi_star for
# the restricted functionals of mov, peff and verify and both for xi's
# output, and the dense curve basis of AmbientSpaces for ns's output
VIEWS_BUILT = {"ns": ["curve_basis"], "xi": ["xi", "xi_star"], "mov": ["xi_star"],
               "peff": ["xi_star"], "verify": ["xi_star"]}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_builds_only_the_views_it_reads(monkeypatch, command):
    built = []
    for cls, name in ((orbcones.XiSystem, "xi"), (orbcones.XiSystem, "xi_star"),
                      (neron_severi.AmbientSpaces, "curve_basis")):
        view = vars(cls)[name]
        monkeypatch.setattr(view, "func", lambda obj, name=name, func=view.func:
                            built.append(name) or func(obj))
    for fixture in FIXTURE_NAMES:
        extra = ["--b=" + ",".join(["1"] * fixture_fan(fixture).dim)] \
            if command == "class-of-1ps" else []
        for json_flag in ([], ["--json"]):
            built.clear()
            code, _ = run_cli(command, str(fixture_path(fixture)), *extra, *json_flag)
            assert code == 0, (command, fixture)
            assert sorted(built) == VIEWS_BUILT.get(command, []), (command, fixture)


TEXT_HELPERS, JSON_HELPERS = ("_fmt_vec", "_fmt_coeffs"), (
    "_int_vec_json", "_rat_vec_json", "fraction_json")


def test_each_command_renders_only_the_printed_form(monkeypatch):
    # text output builds no JSON body and --json builds no text lines
    called = []
    for name in TEXT_HELPERS + JSON_HELPERS:
        monkeypatch.setattr(cli, name, lambda *args, name=name, real=getattr(cli, name):
                            called.append(name) or real(*args))
    used = set()
    for command in COMMANDS:
        for fixture in FIXTURE_NAMES:
            extra = ["--b=" + ",".join(["1"] * fixture_fan(fixture).dim)] \
                if command == "class-of-1ps" else []
            for json_flag, other in (([], JSON_HELPERS), (["--json"], TEXT_HELPERS)):
                called.clear()
                code, _ = run_cli(command, str(fixture_path(fixture)), *extra, *json_flag)
                assert code == 0, (command, fixture)
                assert not set(called) & set(other), (command, fixture, json_flag)
                used |= set(called)
    assert used == set(TEXT_HELPERS + JSON_HELPERS)


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_builds_each_chart_once(monkeypatch, command):
    # validate, the box walk, point location and q read one chart table per
    # fan: one integer elimination per maximal cone, whatever the command
    charts = _count_calls(monkeypatch, linalg, "cone_inverse")
    for fixture in FIXTURE_NAMES:
        fan = fixture_fan(fixture)
        extra = ["--b=" + ",".join(["-1"] * fan.dim)] if command == "class-of-1ps" else []
        charts.clear()
        code, _ = run_cli(command, str(fixture_path(fixture)), *extra)
        assert code == 0, (command, fixture)
        assert len(charts) == len(fan.max_cones), (command, fixture)


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "stackycones", "verify", FOOTBALL],
        capture_output=True, text=True, cwd=REPO_ROOT / "src")
    assert proc.returncode == 0
    assert "theorem verification: PASS" in proc.stdout


# Valid fans whose box is too large to enumerate: a torsion group of order
# 10^8, and a ray whose two cones have |det| 10^6 (up to 2 * 10^6 + 1 box
# elements).  Each runs in a child process under an address-space cap, so
# a missing guard fails the test instead of exhausting memory.
HOSTILE_FANS = {
    "big-torsion": {
        "rank": 1, "torsion": [100000000],
        "rays": [{"beta_free": [1], "beta_torsion": [1]}, {"beta_free": [-1]}],
        "max_cones": [[0], [1]]},
    "far-ray": {
        "rank": 2,
        "rays": [{"beta_free": [1, 0]}, {"beta_free": [0, 1]},
                 {"beta_free": [-1000000, -1000000]}],
        "max_cones": [[0, 1], [1, 2], [2, 0]]},
}

_HOSTILE_CHILD = """
import io, json, resource, sys, time
from contextlib import redirect_stderr, redirect_stdout
cap = 800 * 2 ** 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from stackycones.cli import main
results = {}
for command in sys.argv[2:]:
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([command, sys.argv[1]])
    results[command] = (code, err.getvalue(), time.perf_counter() - start)
print(json.dumps(results))
"""


def _run_capped(path, *commands):
    """{command: (exit code, stderr, seconds)} of CLI calls on one fan file,
    made in a child process under the address-space cap."""
    proc = subprocess.run([sys.executable, "-c", _HOSTILE_CHILD, str(path), *commands],
                          capture_output=True, text=True, cwd=REPO_ROOT / "src",
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", sorted(HOSTILE_FANS))
def test_fan_too_large_to_enumerate_exits_two(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, **HOSTILE_FANS[name]}))
    results = _run_capped(path, "validate", "box", "sectors", "verify")
    code, err, seconds = results["validate"]
    assert code == 0 and err == ""
    for command in ("box", "sectors", "verify"):
        code, err, seconds = results[command]
        assert code == 2, (command, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
        assert "too large to enumerate" in err
        assert seconds < 1.0, (command, seconds)


def test_refusing_the_far_ray_fan_keeps_memory_small(tmp_path):
    # the walk checks the room as each coset joins the group, so the refusal
    # holds about a room's worth (10^5) of elements, a 13 MB tracemalloc
    # peak, not the 10^6 of the far ray's cones
    path = tmp_path / "far-ray.json"
    path.write_text(json.dumps({"name": "far-ray", **HOSTILE_FANS["far-ray"]}))
    err = io.StringIO()
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["box", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "too large to enumerate" in err.getvalue()
    assert peak < 32 * 2 ** 20, peak


def _torsion_line(tmp_path, order):
    """The rank-1 fan of P^1 with torsion Z/order: one untwisted and
    order - 1 twisted sectors, so n + t = order + 1."""
    path = tmp_path / f"torsion{order}.json"
    path.write_text(json.dumps({
        "name": f"torsion{order}", "rank": 1, "torsion": [order],
        "rays": [{"beta_free": [1]}, {"beta_free": [-1]}],
        "max_cones": [[0], [1]]}))
    return path


def test_closed_pipe_exits_quietly(tmp_path):
    # `stackycones xi torsion300.json | head -1`: the reader leaves after the
    # first of about 550 kB, far past a 64 KiB pipe buffer, so the child is
    # still printing; it keeps its exit code and writes nothing to stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "stackycones", "xi", str(_torsion_line(tmp_path, 300))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=REPO_ROOT / "src")
    assert proc.stdout.readline() == b"fan: torsion300\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_class_spaces_too_large_exit_two(tmp_path):
    # n + t = 2001 would need O((n + t)^2) entries for the class spaces
    results = _run_capped(_torsion_line(tmp_path, 2000),
                          "box", "sectors", "ns", "xi", "verify")
    for command in ("box", "sectors"):
        assert results[command][:2] == [0, ""], command
    for command in ("ns", "xi", "verify"):
        code, err, seconds = results[command]
        assert code == 2, (command, err)
        assert err == ("error: fan 'torsion2000' is too large for the class "
                       "spaces: n + t = 2001 ray and sector coordinates "
                       "(limit 500)\n")
        assert seconds < 1.0, (command, seconds)


def test_class_spaces_below_the_limit_run(tmp_path):
    results = _run_capped(_torsion_line(tmp_path, 250), "ns", "xi")
    assert results["ns"][:2] == results["xi"][:2] == [0, ""]


def test_cone_too_large_to_dualize_exits_two(tmp_path, monkeypatch, capsys):
    # rays (5), (-4) with torsion Z/3 x Z/4 (t = 95): Mov's DD run gets its
    # n + t = 97 functionals, dual(Mov)'s its 1,824 rays; under a limit of
    # 1,000 only the second run refuses, before its first insertion
    path = tmp_path / "t95.json"
    path.write_text(json.dumps({
        "name": "t95", "rank": 1, "torsion": [3, 4],
        "rays": [{"beta_free": [5], "beta_torsion": [1, 1]}, {"beta_free": [-4]}],
        "max_cones": [[0], [1]]}))
    monkeypatch.setattr(cones, "DD_CONSTRAINT_LIMIT", 1000)
    assert main(["mov", str(path)]) == 0
    assert capsys.readouterr().err == ""
    for command in ("peff", "verify"):
        assert main([command, str(path)]) == 2, command
        out, err = capsys.readouterr()
        assert out == "", command
        assert err == ("error: cone too large to dualize: 1824 distinct "
                       "constraints (limit 1000)\n"), command


@st.composite
def random_fan_documents(draw):
    """Small fan documents, mostly invalid: rank 0-3, at most 6 rays with
    entries in [-5, 5], at most one torsion factor, and cones that may
    repeat, leave out or overrun ray indices or have the wrong length."""
    rank = draw(st.integers(0, 3))
    torsion = draw(st.lists(st.integers(2, 4), max_size=1))
    n = draw(st.integers(0, 6))
    entries = st.integers(-5, 5)
    rays = []
    for _ in range(n):
        ray = {"beta_free": draw(st.lists(entries, min_size=rank, max_size=rank))}
        if torsion and draw(st.booleans()):
            ray["beta_torsion"] = draw(st.lists(entries, min_size=1, max_size=1))
        rays.append(ray)
    cone = st.lists(st.integers(-1, n), max_size=rank + 1)
    return {"name": "fuzz", "rank": rank, "torsion": torsion, "rays": rays,
            "max_cones": draw(st.lists(cone, max_size=2 ** rank + 2))}


def projective_space(d):
    """Rays and maximal cones of P^d: e_1, ..., e_d, -(e_1 + ... + e_d), and
    every d of them (for d = 0, no rays and one zero-dimensional cone).
    Every maximal cone is unimodular."""
    rays = [[int(i == j) for j in range(d)] for i in range(d)] + ([[-1] * d] if d else [])
    cones = [[i for i in range(len(rays)) if i != k] for k in range(len(rays))]
    return rays, cones or [[]]


@st.composite
def valid_fan_documents(draw):
    """Projective spaces with every ray image scaled by 1-3 and at most one
    torsion factor, kept to at most 16 box elements so that verify stays
    fast; these documents reach every command past validation."""
    rank = draw(st.integers(0, 3))
    rays, cones = projective_space(rank)
    torsion = draw(st.lists(st.integers(2, 4), max_size=1))
    scales = [draw(st.integers(1, 3)) for _ in rays]
    box = sum(prod(scales[i] for i in cone) for cone in cones) * prod(torsion)
    assume(box <= 16)
    docs = [{"beta_free": [c * x for x in ray],
             "beta_torsion": draw(st.lists(st.integers(-5, 5), min_size=len(torsion),
                                           max_size=len(torsion)))}
            for c, ray in zip(scales, rays)]
    return {"name": "fuzz", "rank": rank, "torsion": torsion, "rays": docs,
            "max_cones": cones}


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(doc=st.one_of(random_fan_documents(), valid_fan_documents()),
       free=st.lists(st.integers(-5, 5), max_size=3), fit_rank=st.booleans(),
       torsion=st.none() | st.integers(-5, 5))
def test_cli_fuzz_never_raises(doc, free, fit_rank, torsion):
    if fit_rank:
        free = (free + [0] * 3)[:doc["rank"]]
    b = ",".join(map(str, free)) + ("" if torsion is None else f";{torsion}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fan.json"
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            argv = [command, str(path)]
            if command == "class-of-1ps":
                argv.append(f"--b={b}")
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3, 64), (command, doc, code)


def test_verify_mismatch_exits_three(drop_last_dual_of_mov_ray):
    code, out = run_cli("verify", FOOTBALL)
    assert code == 3
    assert out.splitlines()[-1] == ("theorem verification: FAIL (separating "
                                    "vector (1, 0) on side corollary_only)")
    code, doc = run_json("verify", FOOTBALL)
    assert code == 3
    assert doc["equal"] is False
    assert doc["separating"] == {"side": "corollary_only", "vector": [1, 0]}


def test_smooth_fan_with_huge_rays_runs(tmp_path):
    # every cone of the Hirzebruch surface F_N is unimodular, so its box is
    # {0} for any N; the size guard counts box elements, not the rays' size
    path = tmp_path / "f.json"
    path.write_text(json.dumps({
        "name": "F_1e9", "rank": 2,
        "rays": [{"beta_free": [1, 0]}, {"beta_free": [0, 1]},
                 {"beta_free": [-1, 10 ** 9]}, {"beta_free": [0, -1]}],
        "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
    for command in ("box", "sectors", "peff", "verify"):
        code, out = run_cli(command, str(path))
        assert code == 0, (command, out)
    assert out.splitlines()[-1] == "theorem verification: PASS (cones equal)"
