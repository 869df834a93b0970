"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A reduced-size smoke run (only the jobs marked ``smoke``) of every
   workload, untraced and traced, must print the result line with every
   metric ``BENCHMARK.json`` names, each with its unit, and pass its checks.
2. The certify smoke run fed the 1.5x-rate halfline density as the correct
   one must fail jobs (``job_fail_frac`` > 0): the checks are live.
3. A directory holding only ``BENCHMARK.json`` and the benchmark's files must
   make ``run.py`` exit non-zero without a result line.

Exits 0 when all hold, 1 otherwise.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(lines):
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    return res


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in bench["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, err = run("--workload", w["name"], "--seed", "3", "--seconds", "1",
                                   "--trace", str(trace), "--smoke")
            tag = f"{w['name']} trace={trace}"
            if code != 0:
                problems.append(f"{tag}: exit {code}: {err[-500:]}")
                continue
            res = result_of(lines)
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{tag}: checks failed: {res}")
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units "
                                f"{[(k, got[k], want[k]) for k in want if k in got and got[k] != want[k]]}")
            bad = [k for k, v in res["metrics"].items() if not isinstance(v["value"], (int, float))]
            if bad:
                problems.append(f"{tag}: non-numeric values {bad}")
            print(f"ok: {tag}, {len(got)} metrics", flush=True)

    code, lines, err = run("--workload", "certify", "--seed", "3", "--seconds", "1",
                           "--trace", "0", "--smoke", "--wrong-density")
    res = result_of(lines) if code == 0 else None
    if res is None or res["failed"] == 0 or res["correct"]:
        problems.append(f"wrong density was not caught: exit {code}, {res}")
    else:
        print(f"ok: wrong density fails {res['failed']} of {res['attempted']} jobs")

    bare = ROOT / ".bench_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, err = run("--workload", "solve", "--seed", "0", "--seconds", "1",
                           "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append(f"bare directory: exit {code}, output {lines[-1:]}")
    else:
        print(f"ok: bare directory exits {code} without a result")

    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
