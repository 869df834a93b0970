"""One workload in a fresh interpreter: set up, run passes of its job list
for the measuring window, check every job, and write the figures as JSON.

Run by ``run.py``; not meant to be called by hand.  ``--setup-only`` stops
once set-up is done, so ``run.py`` can time set-up in several fresh
interpreters.
"""

import time

T_START = time.perf_counter()    # set-up is timed from here, before any import

import argparse
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

PRESETS = Path(__file__).resolve().parent.parent / "presets"

# make_example arguments of each workload's systems; set-up builds them and
# runs the closed-form density's first-use adjoint check where one exists
SETUP_SYSTEMS = {
    "solve": [("halfline", {"b": -1.0, "sigma": 1.0}), ("disk", {})],
    "certify": [("gps", {"J": 3}), ("wedge", {}), ("halfline", {"b": -1.0, "sigma": 1.0}),
                ("disk", {}), ("orthant", {"J": 2, "b": [-1.0, -0.5]})],
    "trajectory": [("halfline", {"b": -1.0, "sigma": 1.0}),
                   ("orthant", {"J": 2, "b": [-1.0, -0.5]})],
    "montecarlo": [("halfline", {"b": -1.0, "sigma": 1.0}),
                   ("orthant", {"J": 2, "b": [-1.0, -0.5]})],
}


def set_up(workload):
    import refdiff
    from refdiff.errors import NoClosedForm

    for name, params in SETUP_SYSTEMS[workload]:
        system = refdiff.make_example(name, **params)
        try:
            refdiff.closed_form_density(system)
        except NoClosedForm:
            pass


def run_pass(index, workload, jobs, ctx, tracer):
    """Run every job once; returns (wall seconds, failures, artifact bytes)."""
    ctx.workdir.mkdir(parents=True)
    failed = 0
    t0 = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = f"{index}:{job.name}"
        t_job = time.perf_counter()
        try:
            ok, detail = job.run(ctx)
        except Exception as exc:    # a job that raises is a failed job; keep going
            traceback.print_exc()
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        failed += not ok
        print(f"[{workload} pass {index}{' traced' if tracer else ''}] {job.name} "
              f"({time.perf_counter() - t_job:.2f} s): {'PASS' if ok else 'FAIL'} - {detail}",
              flush=True)
    wall = time.perf_counter() - t0
    size = sum(p.stat().st_size for p in ctx.workdir.rglob("*") if p.is_file())
    shutil.rmtree(ctx.workdir)
    return wall, failed, size


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(SETUP_SYSTEMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--wrong-density", action="store_true")
    args = ap.parse_args()
    rundir = Path(args.rundir)

    tracer = None
    if args.trace:
        import refdiff
        import refdiff.cli  # noqa: F401  (wrapped by the tracer)
        from tracer import Tracer

        tracer = Tracer()
        tracer.job = "setup"
        tracer.install()
    set_up(args.workload)
    setup_s = time.perf_counter() - T_START
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import jobs as joblib

    jobs = [j for j in joblib.WORKLOADS[args.workload] if j.smoke or not args.smoke]
    rate = joblib.WRONG_RATE if args.wrong_density else joblib.HALFLINE_RATE
    walls, traced_walls, sizes = [], [], []
    attempted = failed = 0
    t_window = time.perf_counter()
    index = 0
    while True:
        # a traced run alternates untraced and traced passes, so the tracing
        # overhead is measured against passes of the same process
        traced = tracer is not None and index % 2 == 1
        ctx = joblib.Context(args.seed, rundir / f"pass-{index}", PRESETS, rate)
        if traced:
            tracer.install()
        try:
            wall, nfail, size = run_pass(index, args.workload, jobs, ctx,
                                         tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        (traced_walls if traced else walls).append(wall)
        if index == 0:
            # later passes reuse the allocator's grown heap and can raise the
            # high-water mark, so the peak is read once, after one pass
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sizes.append(size)
        attempted += len(jobs)
        failed += nfail
        index += 1
        elapsed = time.perf_counter() - t_window
        done = tracer is None or traced_walls
        if done and elapsed + statistics.median(walls + traced_walls) > args.seconds:
            break

    result = {
        "setup_s": setup_s,
        "walls": walls,
        "traced_walls": traced_walls,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "artifact_bytes": statistics.median(sizes),
    }
    if tracer is not None:
        from tracer import layer_metrics

        layer = layer_metrics(tracer.spans, len(traced_walls))
        layer["cli.artifact_bytes"] = result["artifact_bytes"]
        layer["trace.overhead_frac"] = (statistics.median(traced_walls)
                                        / statistics.median(walls) - 1.0)
        result["layer"] = layer
        with open(rundir / "spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "counts"],
                       "spans": tracer.spans}, fh)
    with open(rundir / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
