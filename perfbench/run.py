"""refdiff benchmark: one workload per call, closed loop, one client.

    python3 perfbench/run.py --workload {solve,certify,trajectory,montecarlo}
                             --seed N --seconds S --trace {0,1}

Run from the root of a refdiff checkout.  The workload runs in a fresh
interpreter that executes its fixed job list once per pass, one job at a
time, for about S seconds, and checks every job against its oracle.  Set-up
(import plus the workload's example systems) is timed in three fresh
interpreters and reported as the median.  BLAS runs one thread.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (``wall_s`` is the median pass); with
``--trace 1`` they are the per-layer ones from a run that alternates
untraced and traced passes.  The line before it is the machine and run block.
Artifacts go to a per-run directory under ``.bench_runs/`` that is deleted at
the end; a traced run leaves its spans in ``.bench_runs/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve", "certify", "trajectory", "montecarlo")
BLAS_THREADS = 1
SETUP_SAMPLES = 3           # fresh interpreters timed for setup_s, the worker included
DEADLINE_S = 170            # the whole run, set-up included


def _blas_version():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():    # a plain checkout: no commit to report
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "refdiff").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_block(args):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
        "blas_threads": BLAS_THREADS,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, jobs one at a time",
    }


def _worker(args, rundir, deadline, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--rundir", str(rundir), *extra]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test: only the jobs marked smoke, one set-up sample")
    ap.add_argument("--wrong-density", action="store_true",
                    help="self-test: treat the 1.5x-rate halfline density as correct")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    for need in (ROOT / "src" / "refdiff" / "__init__.py", ROOT / "presets"):
        if not need.exists():
            print(f"perfbench: {need.relative_to(ROOT)} not found; run from a refdiff checkout",
                  file=sys.stderr)
            return 2

    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    extra = [f for f, on in (("--smoke", args.smoke), ("--wrong-density", args.wrong_density))
             if on]
    try:
        setups = []
        probes = 0 if args.trace else 1 if args.smoke else SETUP_SAMPLES - 1
        for _ in range(probes):
            probe = _worker(args, rundir, deadline, "--setup-only", *extra)
            if probe.returncode != 0:
                print(f"perfbench: set-up probe exited {probe.returncode}", file=sys.stderr)
                return 1
            setups.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
        proc = _worker(args, rundir, deadline, *extra)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads((rundir / "result.json").read_text())
        if args.trace:
            shutil.move(str(rundir / "spans.json"), str(runs / f"spans-{args.workload}.json"))
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {DEADLINE_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    setups.append(res["setup_s"])
    attempted, failed = res["attempted"], res["failed"]
    print(f"[{args.workload}] job_fail_frac={failed / attempted:.4f} "
          f"({failed} of {attempted} jobs), passes={len(res['walls']) + len(res['traced_walls'])}")
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import per_layer_units

        metrics = {name: {"value": res["layer"][name], "unit": unit}
                   for name, (unit, _) in per_layer_units().items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "job_pass_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    print("machine: " + json.dumps(machine_block(args)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
