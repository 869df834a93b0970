import json
from pathlib import Path

import numpy as np
import pytest

from refdiff import cli
from refdiff._csv import write_csv


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


def test_simulate_failed_projections_exit_numeric(tmp_path):
    # N Gamma^T = [[1, -2], [-2, 1]] is not a P-matrix, and the drift runs
    # into the corner, where the projection fails
    system = tmp_path / "trap.json"
    system.write_text(json.dumps({"dimension": 2, "pieces": [
        {"kind": "half-space", "normal": [1.0, 0.0], "offset": 0.0,
         "gamma": [1.0, -2.0]},
        {"kind": "half-space", "normal": [0.0, 1.0], "offset": 0.0,
         "gamma": [-2.0, 1.0]}]}))
    out = tmp_path / "trap.csv"
    code = run(["simulate", "--system-file", str(system), "--b=-1,-1",
                "--sigma", "0.1", "--x0", "0.05,0.05", "--T", "0.2",
                "--dt", "0.01", "--output", str(out)])
    assert code == cli.EXIT_NUMERIC
    assert len(out.read_text().splitlines()) == 2 + 21
