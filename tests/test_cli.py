import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from refdiff import cli, errors
from refdiff._csv import write_csv
from refdiff.gallery import make_example


PRESETS = Path(__file__).resolve().parents[1] / "presets"


def run(args):
    return cli.main(args)


def test_check_domain_gps(tmp_path):
    out = tmp_path / "geo.json"
    code = run(["check-domain", "--preset", "gps", "--J", "2",
                "--alpha", "1/2,1/2", "--output", str(out)])
    assert code == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["passed"]
    assert payload["failing_strata"] == [[0, 1, 2]]
    assert payload["_meta"].startswith("config=")


def test_verify_bar_exit_codes(tmp_path):
    out = tmp_path / "bar.json"
    ok = run(["verify-bar", "--preset", "halfline", "--b", "-1",
              "--sigma", "1", "--density", "exp", "--theta", "2",
              "--output", str(out)])
    assert ok == cli.EXIT_OK
    bad = run(["verify-bar", "--preset", "halfline", "--b", "-1",
               "--sigma", "1", "--density", "exp", "--theta", "1",
               "--output", str(tmp_path / "bar1.json")])
    assert bad == cli.EXIT_VERDICT


def test_verify_bar_disk_verdicts_are_bools(tmp_path):
    out = tmp_path / "bar.json"
    code = run(["verify-bar", "--config", str(PRESETS / "disk.json"),
                "--output", str(out)])
    assert code == cli.EXIT_OK
    with open(out) as fh:
        verdicts = json.load(fh)["verdicts"]
    assert set(verdicts) == {"interior", "faces", "edges"}
    assert all(v is True for v in verdicts.values())


def test_usage_errors(tmp_path):
    assert run(["verify-bar"]) == cli.EXIT_USAGE
    assert run(["check-domain", "--preset", "nosuch"]) == cli.EXIT_USAGE
    assert run(["verify-bar", "--preset", "wedge",
                "--density", "closed-form"]) == cli.EXIT_USAGE


def test_simulate_artifact_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code = run(["simulate", "--preset", "halfline", "--x0", "0.5",
                    "--T", "1.0", "--dt", "0.01", "--seed", "3",
                    "--output", str(out)])
        assert code == cli.EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    run(["simulate", "--preset", "halfline", "--x0", "0.5", "--T", "1.0",
         "--dt", "0.01", "--seed", "4", "--output", str(c)])
    assert a.read_bytes() != c.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.startswith("# config=") and "seed=3" in header


def test_simulate_disk_config_reproducible(tmp_path):
    # the disk's curved boundary takes the general Euler walk
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code = run(["simulate", "--config", str(PRESETS / "disk.json"),
                    "--output", str(out)])
        assert code == cli.EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[1] == "t,x0,x1,push0" and len(lines) == 2 + 10001


def test_simulate_stride_keeps_every_kth_row(tmp_path):
    full, strided = tmp_path / "full.csv", tmp_path / "strided.csv"
    args = ["simulate", "--preset", "orthant", "--J", "2", "--x0", "0.5,0.5",
            "--T", "0.5", "--dt", "0.01"]
    assert run(args + ["--output", str(full)]) == cli.EXIT_OK
    assert run(args + ["--stride", "3", "--output", str(strided)]) == cli.EXIT_OK
    rows = full.read_text().splitlines()
    got = strided.read_text().splitlines()
    assert got[1] == rows[1] == "t,x0,x1,push0,push1"
    assert got[2:] == rows[2::3]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "halfline", "b": "-1", "sigma": "1",
                               "density": "exp", "theta": "1"}))
    out = tmp_path / "bar.json"
    # the flag overrides the config's failing rate
    code = run(["verify-bar", "--config", str(cfg), "--theta", "2",
                "--output", str(out)])
    assert code == cli.EXIT_OK


def test_report_roundup(tmp_path):
    good = tmp_path / "good.json"
    run(["verify-bar", "--preset", "halfline", "--density", "exp",
         "--theta", "2", "--output", str(good)])
    assert run(["report", "--inputs", str(good)]) == cli.EXIT_OK
    bad = tmp_path / "bad.json"
    run(["verify-bar", "--preset", "halfline", "--density", "exp",
         "--theta", "1", "--output", str(bad)])
    assert run(["report", "--inputs", str(good), str(bad)]) == cli.EXIT_VERDICT


def test_weak_check(tmp_path):
    out = tmp_path / "weak.csv"
    code = run(["weak-check", "--preset", "halfline", "--density", "exp",
                "--theta", "2", "--grid", "512", "--output", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1] == "function,value,error"
    assert len(lines) > 3


def _csv_row_loop(cols, rows, header_meta):
    # per-value reference for the block writer
    lines = [f"# {header_meta}", ",".join(cols)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                       for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_csv_writer_matches_row_loop(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((5000, 3)) * 10.0 ** rng.integers(-300, 300, (5000, 3))
    data[0] = [1.0 / 3.0, -0.0, 2.0 ** 0.5]
    out = tmp_path / "a.csv"
    write_csv(out, ["t", "x0", "push0"], data, "config=abc seed=1")
    assert out.read_text() == _csv_row_loop(["t", "x0", "push0"],
                                            data.tolist(), "config=abc seed=1")
    rows = [(f"f{k}", float(v), float(e)) for k, (v, e) in enumerate(data[:7, :2])]
    write_csv(out, ["function", "value", "error"], rows, "m")
    assert out.read_text() == _csv_row_loop(["function", "value", "error"],
                                            rows, "m")


_CORNER_TRAP = {"dimension": 2, "pieces": [
    {"kind": "half-space", "normal": [1.0, 0.0], "offset": 0.0,
     "gamma": [1.0, -2.0]},
    {"kind": "half-space", "normal": [0.0, 1.0], "offset": 0.0,
     "gamma": [-2.0, 1.0]}]}


def test_simulate_failed_projections_exit_numeric(tmp_path, capsys):
    # N Gamma^T = [[1, -2], [-2, 1]] is not a P-matrix, and the drift runs
    # into the corner, where the projection fails; the corner is declared
    # singular, so the system passes the well-posedness check at load
    system = tmp_path / "trap.json"
    system.write_text(json.dumps(dict(_CORNER_TRAP, V=[
        {"x": [0.0, 0.0], "v": [0.6, 0.8], "r": 1.0, "alpha": 0.5,
         "c1": 0.5, "c2": 2.0}])))
    out = tmp_path / "trap.csv"
    code = run(["simulate", "--system-file", str(system), "--b=-1,-1",
                "--sigma", "0.1", "--x0", "0.05,0.05", "--T", "0.2",
                "--dt", "0.01", "--output", str(out)])
    assert code == cli.EXIT_NUMERIC
    assert len(out.read_text().splitlines()) == 2 + 21
    # stderr names the first failed step and the point it started from
    rows = np.loadtxt(out, delimiter=",", skiprows=2)
    err = capsys.readouterr().err
    step = int(err.split("numeric failure: step ")[1].split()[0])
    assert f"from the point {rows[step, 1:3].tolist()}" in err
    assert np.array_equal(rows[step, 1:3], rows[step + 1, 1:3])


@pytest.mark.parametrize("preset", ["gps3", "wedge_alpha1"])
def test_simulate_through_a_singular_vertex_exits_numeric(tmp_path, capsys,
                                                          preset):
    # both presets reach faces whose N Gamma^T block is singular, where the
    # projection must fail: not escape as "Singular matrix" (exit 2) on the
    # wedge, nor write pushing of order 1e13 on gps3
    out = tmp_path / "t.csv"
    code = run(["simulate", "--config", str(PRESETS / f"{preset}.json"),
                "--T", "1", "--output", str(out)])
    assert code == cli.EXIT_NUMERIC
    assert "failed every projection retry" in capsys.readouterr().err
    cols = out.read_text().splitlines()[1].split(",")
    rows = np.loadtxt(out, delimiter=",", skiprows=2)
    push = rows[:, [k for k, c in enumerate(cols) if c.startswith("push")]]
    assert 0.0 < push.max() < 10.0


@pytest.mark.parametrize("args, name", [
    (["--preset", "halfline", "--dt", "0"], "dt"),
    (["--preset", "halfline", "--dt", "-0.01"], "dt"),
    (["--preset", "halfline", "--T", "-1"], "T"),
    (["--preset", "orthant", "--J", "2", "--T", "-1"], "T")])
def test_simulate_bad_step_or_horizon_exits_usage(tmp_path, capsys, args,
                                                   name):
    # a zero step used to escape as ZeroDivisionError (exit 1, the verdict
    # code), and a negative horizon on the orthant wrote a 0-step path
    out = tmp_path / "t.csv"
    assert run(["simulate"] + args + ["--output", str(out)]) == cli.EXIT_USAGE
    assert f"{name} must be" in capsys.readouterr().err
    assert not out.exists()


def test_system_file_with_ill_posed_reflection_exits_usage(tmp_path, capsys):
    # the same corner, undeclared: rejected before any simulation
    system = tmp_path / "trap.json"
    system.write_text(json.dumps(_CORNER_TRAP))
    out = tmp_path / "trap.csv"
    code = run(["simulate", "--system-file", str(system), "--b=-1,-1",
                "--sigma", "0.1", "--output", str(out)])
    assert code == cli.EXIT_USAGE
    assert "faces [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_solve_box_broadcasts_one_bound(tmp_path, capsys):
    args = ["solve", "--preset", "orthant", "--grid", "12", "--n-steps", "6",
            "--n-interior", "6"]
    outs = []
    for k, box in enumerate(("4", "4,4")):
        out = tmp_path / f"m{k}.csv"
        code = run(args + ["--box", box, "--output", str(out),
                           "--report-output", str(tmp_path / f"s{k}.json")])
        assert code == cli.EXIT_OK
        outs.append(out.read_text().split("\n", 1)[1])    # below the header
    assert outs[0] == outs[1]
    capsys.readouterr()
    code = run(args + ["--box", "4,4,4", "--output", str(tmp_path / "m.csv"),
                       "--report-output", str(tmp_path / "s.json")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "box" in err and "J = 2" in err


def test_solve_gps3_default_grid_follows_dimension(tmp_path):
    # the default per-axis grid keeps the 2D point count: 16^3 points in 3D
    out, rep = tmp_path / "m.csv", tmp_path / "s.json"
    code = run(["solve", "--config", str(PRESETS / "gps3.json"),
                "--output", str(out), "--report-output", str(rep)])
    assert code == cli.EXIT_OK
    assert json.loads(rep.read_text())["feasible"]
    assert cli._grid({}, 64, 3) == 16 and cli._grid({}, 256, 3) == 40
    assert cli._grid({}, 64, 1) == cli._grid({}, 64, 2) == 64
    assert cli._grid({"grid": 20}, 64, 3) == 20


def test_check_domain_disk_passes(tmp_path):
    # the curved branch of check_completely_s: sampled boundary strata
    out = tmp_path / "geo.json"
    assert run(["check-domain", "--preset", "disk", "--output", str(out)]) == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["passed"] and payload["boundary_fully_certified"]


def test_make_tests_disk_is_reproducible(tmp_path):
    # the curved stratum lattice and projections of a bounded smooth domain
    texts = []
    for k in range(2):
        out = tmp_path / f"family{k}.json"
        code = run(["make-tests", "--preset", "disk", "--N", "0.5", "--eps", "0.3",
                    "--output", str(out)])
        assert code == cli.EXIT_OK
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert any(b["kind"] == "boundary" for b in json.loads(texts[0])["bumps"])


@pytest.mark.parametrize("exc", [
    errors.NoConvergence, errors.QPFailure, errors.SamplingFailure,
    errors.LPFailure, errors.ZeroMass, errors.DivergentMass, errors.NotInU,
    errors.NotInH])
def test_numeric_failures_exit_numeric(exc, monkeypatch, capsys):
    def fails(cfg):
        raise exc("at x = [0.0]")

    monkeypatch.setitem(cli.COMMANDS, "report", fails)
    assert run(["report"]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric failure: at x = [0.0]\n"


def test_a_key_the_preset_does_not_read_is_a_usage_error(tmp_path, capsys):
    # the wedge has no drift key, and the disk and the orthant no sigma: such
    # a key is named, not dropped
    for args, key in [(["--preset", "wedge", "--b=-3,-0.1"], "'wedge' does not read 'b'"),
                      (["--preset", "disk", "--sigma", "2"], "'disk' does not read 'sigma'"),
                      (["--preset", "orthant", "--J", "2", "--sigma", "2"],
                       "'orthant' does not read 'sigma'")]:
        assert run(["check-domain", *args, "--output", str(tmp_path / "out")]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: preset {key}\n"
    # every shipped config reads all the preset keys it sets
    for path in sorted(PRESETS.glob("*.json")):
        cli._build_system(json.loads(path.read_text()))


def test_missing_closed_form_is_a_usage_error(tmp_path, capsys):
    for cmd in ("verify-bar", "weak-check"):
        code = run([cmd, "--preset", "cusp", "--output", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: no closed-form stationary density for 'cusp'\n"


def test_import_leaves_scipy_unloaded(tmp_path):
    # the certificate LPs, the cover family's pair search and the 3-D cone
    # hulls use no scipy, and nnls is imported where it is used: start-up,
    # every gallery preset and its completely-S sweep, make-tests and
    # check-domain on the 3-D and wedge presets, the J = 3 orthant's cover
    # family, 3-D cones with one, two and planar generators, and a 2D
    # orthant simulation load no scipy module
    src = str(Path(__file__).resolve().parents[1] / "src")
    presets = Path(__file__).resolve().parents[1] / "presets"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    script = f"""
import sys, refdiff, refdiff.cli, refdiff.cones

def unloaded(step):
    loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))
    assert not loaded, (step, loaded[:5])

unloaded('import')
for name, params in [("halfline", {{}}), ("orthant", {{"J": 2}}), ("orthant", {{"J": 3}}),
                     ("gps", {{"J": 2}}), ("gps", {{"J": 3}}), ("wedge", {{}}),
                     ("disk", {{}}), ("cusp", {{}})]:
    d = refdiff.make_example(name, **params).domain
    refdiff.check_completely_s(d)
    unloaded(name)
for preset in ("gps3", "wedge_alpha1"):
    for cmd in ("make-tests", "check-domain"):
        assert refdiff.cli.main([cmd, "--config", {str(presets)!r} + "/" + preset + ".json",
                                 "--output", {str(tmp_path / "out.json")!r}]) == 0
        unloaded(cmd + " " + preset)
s = refdiff.make_example("orthant", J=3)
refdiff.assemble_cover_family(s.domain, s.coefficients, N=0.5, eps=0.3)
unloaded('orthant J=3 cover family')
for gens in ([[1.0, 2.0, 0.5]], [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
             [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0], [0.2, 1.0, 1.2]]):
    refdiff.cones.PolyCone(gens).project_info([[0.5, -1.0, 2.0], [-1.0, -1.0, -1.0]])
    unloaded(f'{{len(gens)}}-generator 3-D cone')
assert refdiff.cli.main(["simulate", "--preset", "orthant", "--J", "2", "--x0", "0.5,0.5",
                         "--T", "0.5", "--dt", "0.01", "--output", {str(tmp_path / "t.csv")!r}]) == 0
unloaded('simulate')
"""
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def _ladder_params(cfg):
    """make_example's parameters from a config: the per-preset ladder that
    cli._PRESET_PARAMS replaced."""
    name, params = cfg["preset"], {}
    if name == "halfline":
        if "b" in cfg:
            params["b"] = cli._num_list(cfg["b"])[0]
        if "sigma" in cfg:
            params["sigma"] = cli._num_list(cfg["sigma"])[0]
    elif name == "orthant":
        params["J"] = int(cfg.get("J", 2))
        if "b" in cfg:
            params["b"] = cli._num_list(cfg["b"])
    elif name == "gps":
        params["J"] = int(cfg.get("J", 2))
        if "alpha" in cfg:
            params["alphabar"] = cli._num_list(cfg["alpha"])
        if "b" in cfg:
            params["b"] = cli._num_list(cfg["b"])
    elif name == "wedge":
        for key in ("zeta", "theta1", "theta2"):
            if key in cfg:
                params[key] = cli._num(cfg[key])
    elif name == "disk":
        if "radius" in cfg:
            params["radius"] = cli._num(cfg["radius"])
        if "b" in cfg:
            params["b"] = cli._num_list(cfg["b"])
    elif name == "cusp":
        for key in ("beta", "theta1", "theta2"):
            if key in cfg:
                params[key] = cli._num(cfg[key])
    return params


@pytest.mark.parametrize("preset, keys", [
    ("halfline", {"b": "-2", "sigma": "1.5"}),
    ("orthant", {"J": 3, "b": "-1,-0.5"}),
    ("gps", {"J": 3, "alpha": "1/4,3/4", "b": "-1,-2"}),
    ("wedge", {"zeta": "1.2", "theta1": "0.3", "theta2": "-0.2"}),
    ("disk", {"radius": "2", "b": "0.5,0"}),
    ("cusp", {"beta": "3", "theta1": "-0.1", "theta2": "0"})])
def test_preset_table_matches_the_ladder(preset, keys):
    for extra in [{}] + [{k: v} for k, v in keys.items()]:
        cfg = {"preset": preset, "seed": 0, **extra}
        got = cli._build_system(cfg)
        want = make_example(preset, **_ladder_params(cfg))
        assert got.params == want.params
        assert got.domain.dumps() == want.domain.dumps()
