"""Spans around calls into refdiff's layers, installed from the benchmark's files.

A wrapper replaces a layer function under every name a refdiff module binds
it to (``refdiff.cli.solve_stationary`` as well as
``refdiff.solver.solve_stationary``), or the method on its class.  Each call
appends a span ``[name, start, end, parent, job, counts]`` to an in-memory
list; ``counts`` holds what the call did (points, steps, iterations),
read from its arguments or result.  Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np


def _len_result(args, kwargs, out):
    return {"points": len(out)}


def _simulate_counts(args, kwargs, out):
    return {"steps": out.n_steps, "events": len(out.events)}


def _kernel_counts(args, kwargs, out):
    return {"steps": len(out[0]) - 1}


def _solve_counts(args, kwargs, out):
    return {"iterations": out.iterations, "accepted": len(out.trace) - 1}


def _family_counts(args, kwargs, out):
    return {"size": len(out)}


def _constraint_counts(args, kwargs, out):
    M, types = out
    return {"eq": types.count("eq"), "ineq": types.count("ineq"),
            "grid_points": M.shape[1]}


def _cover_counts(args, kwargs, out):
    return {"bumps": len(out.bumps)}


# (module, attribute or Class.method, span name, counter)
TARGETS = [
    ("refdiff.cli", "main", "cli.main", None),
    ("refdiff.gallery", "make_example", "gallery.make_example", None),
    ("refdiff.gallery", "closed_form_density", "gallery.closed_form_density", None),
    ("refdiff.domain", "active_set", "domain.active_set", None),
    ("refdiff.domain", "check_completely_s", "domain.check_completely_s", None),
    ("refdiff.domain", "check_singular_certificate", "domain.check_singular_certificate", None),
    ("refdiff.coefficients", "Density.value_batch", "coefficients.value_batch", _len_result),
    ("refdiff.operators", "apply_generator_batch", "operators.apply_generator_batch", _len_result),
    ("refdiff.operators", "integrate_density", "operators.integrate_density", None),
    ("refdiff.operators", "weak_residual", "operators.weak_residual", None),
    ("refdiff.operators", "verify_bar", "operators.verify_bar", None),
    ("refdiff.solver", "solve_stationary", "solver.solve_stationary", _solve_counts),
    ("refdiff.solver", "default_family", "solver.default_family", _family_counts),
    ("refdiff.solver", "build_constraints", "solver.build_constraints", _constraint_counts),
    ("refdiff.solver", "project_simplex", "solver.project_simplex", None),
    ("refdiff.solver", "density_grid_measure", "solver.density_grid_measure", None),
    ("refdiff.testfunctions", "assemble_cover_family", "testfunctions.assemble_cover_family", _cover_counts),
    ("refdiff.testfunctions", "CoverFamily.precompute", "testfunctions.precompute", None),
    ("refdiff.testfunctions", "FamilyEvaluation.member_arrays", "testfunctions.member_arrays", None),
    ("refdiff.simulate", "simulate_path", "simulate.simulate_path", _simulate_counts),
    ("refdiff.simulate", "submartingale_estimate", "simulate.submartingale_estimate", None),
    ("refdiff.simulate", "resolvent_sample_batch", "simulate.resolvent_sample_batch", None),
    ("refdiff._kernels", "halfline_bridge_walk", "kernels.halfline_bridge_walk", _kernel_counts),
    ("refdiff._kernels", "constrained_walk", "kernels.constrained_walk", _kernel_counts),
]


class Tracer:
    """In-memory span recorder; ``install`` wraps the targets, ``uninstall``
    puts the original functions back."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "refdiff" or k.startswith("refdiff."))]
        for modname, attr, name, count in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, count))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, count)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

class _Spans:
    """Aggregates over the spans of one phase (set-up or the traced passes)."""

    def __init__(self, spans, keep):
        n = len(spans)
        child = np.zeros(n)
        outer = np.ones(n, dtype=bool)
        for i, (name, t0, t1, parent, job, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                p = parent
                while p >= 0:               # nested call of the same layer
                    if spans[p][0] == name:
                        outer[i] = False
                        break
                    p = spans[p][3]
        self.by_name = {}
        for i, s in enumerate(spans):
            if keep(s[4]):
                self.by_name.setdefault(s[0], []).append(
                    (s[2] - s[1], s[2] - s[1] - child[i], outer[i], s[5] or {}))

    def calls(self, name):
        return len(self.by_name.get(name, ()))

    def busy(self, name):
        return sum(d for d, _, o, _ in self.by_name.get(name, ()) if o)

    def self_time(self, name):
        return sum(s for _, s, _, _ in self.by_name.get(name, ()))

    def count(self, name, key):
        return sum(c.get(key, 0) for _, _, _, c in self.by_name.get(name, ()))

    def pct(self, name, q):
        d = [x for x, _, _, _ in self.by_name.get(name, ())]
        return float(np.percentile(d, q)) if d else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


# name -> (unit, better, function of (aggregates over passes, number of passes))
def _layer_table():
    k = "kernels."
    sim, sol = "simulate.simulate_path", "solver.solve_stationary"
    return {
        "solver.solve_stationary.busy_s": ("s", "lower", lambda a, n: a.busy(sol) / n),
        "solver.solve_stationary.self_s": ("s", "lower", lambda a, n: a.self_time(sol) / n),
        "solver.iterations": ("count", "lower", lambda a, n: a.count(sol, "iterations") / n),
        "solver.ms_per_iter": ("ms", "lower", lambda a, n: 1e3 * _ratio(a.busy(sol), a.count(sol, "iterations"))),
        "solver.project_simplex.calls": ("count", "lower", lambda a, n: a.calls("solver.project_simplex") / n),
        "solver.accepted_per_projection": ("ratio", "higher", lambda a, n: _ratio(a.count(sol, "accepted"), a.calls("solver.project_simplex"))),
        "solver.default_family.busy_s": ("s", "lower", lambda a, n: a.busy("solver.default_family") / n),
        "solver.family_size": ("count", "lower", lambda a, n: a.count("solver.default_family", "size") / n),
        "solver.build_constraints.busy_s": ("s", "lower", lambda a, n: a.busy("solver.build_constraints") / n),
        "solver.rows_eq": ("count", "lower", lambda a, n: a.count("solver.build_constraints", "eq") / n),
        "solver.rows_ineq": ("count", "lower", lambda a, n: a.count("solver.build_constraints", "ineq") / n),
        "solver.grid_points": ("count", "lower", lambda a, n: a.count("solver.build_constraints", "grid_points") / n),
        "domain.active_set.calls": ("count", "lower", lambda a, n: a.calls("domain.active_set") / n),
        "domain.active_set.busy_s": ("s", "lower", lambda a, n: a.busy("domain.active_set") / n),
        "solver.density_grid_measure.calls": ("count", "lower", lambda a, n: a.calls("solver.density_grid_measure") / n),
        "operators.integrate_density.calls": ("count", "lower", lambda a, n: a.calls("operators.integrate_density") / n),
        "operators.integrate_density.busy_s": ("s", "lower", lambda a, n: a.busy("operators.integrate_density") / n),
        "operators.weak_residual.calls": ("count", "lower", lambda a, n: a.calls("operators.weak_residual") / n),
        "operators.weak_residual.busy_s": ("s", "lower", lambda a, n: a.busy("operators.weak_residual") / n),
        "operators.weak_residual.self_s": ("s", "lower", lambda a, n: a.self_time("operators.weak_residual") / n),
        "operators.verify_bar.busy_s": ("s", "lower", lambda a, n: a.busy("operators.verify_bar") / n),
        "coefficients.value_batch.calls": ("count", "lower", lambda a, n: a.calls("coefficients.value_batch") / n),
        "coefficients.value_batch.points": ("count", "lower", lambda a, n: a.count("coefficients.value_batch", "points") / n),
        "coefficients.value_batch.busy_s": ("s", "lower", lambda a, n: a.busy("coefficients.value_batch") / n),
        "coefficients.value_batch.us_per_point": ("us", "lower", lambda a, n: 1e6 * _ratio(a.busy("coefficients.value_batch"), a.count("coefficients.value_batch", "points"))),
        "operators.apply_generator_batch.points": ("count", "lower", lambda a, n: a.count("operators.apply_generator_batch", "points") / n),
        "operators.apply_generator_batch.busy_s": ("s", "lower", lambda a, n: a.busy("operators.apply_generator_batch") / n),
        "testfunctions.assemble_cover_family.busy_s": ("s", "lower", lambda a, n: a.busy("testfunctions.assemble_cover_family") / n),
        "testfunctions.bumps": ("count", "lower", lambda a, n: a.count("testfunctions.assemble_cover_family", "bumps") / n),
        "testfunctions.precompute.busy_s": ("s", "lower", lambda a, n: a.busy("testfunctions.precompute") / n),
        "testfunctions.member_arrays.calls": ("count", "lower", lambda a, n: a.calls("testfunctions.member_arrays") / n),
        "testfunctions.member_arrays.busy_s": ("s", "lower", lambda a, n: a.busy("testfunctions.member_arrays") / n),
        "testfunctions.member_arrays.p50_ms": ("ms", "lower", lambda a, n: 1e3 * a.pct("testfunctions.member_arrays", 50)),
        "domain.check_completely_s.busy_s": ("s", "lower", lambda a, n: a.busy("domain.check_completely_s") / n),
        "domain.check_singular_certificate.busy_s": ("s", "lower", lambda a, n: a.busy("domain.check_singular_certificate") / n),
        "simulate.simulate_path.calls": ("count", "lower", lambda a, n: a.calls(sim) / n),
        "simulate.simulate_path.busy_s": ("s", "lower", lambda a, n: a.busy(sim) / n),
        "simulate.simulate_path.self_s": ("s", "lower", lambda a, n: a.self_time(sim) / n),
        "simulate.simulate_path.p50_us": ("us", "lower", lambda a, n: 1e6 * a.pct(sim, 50)),
        "simulate.simulate_path.p99_us": ("us", "lower", lambda a, n: 1e6 * a.pct(sim, 99)),
        "simulate.steps": ("count", "lower", lambda a, n: a.count(sim, "steps") / n),
        "simulate.us_per_step": ("us", "lower", lambda a, n: 1e6 * _ratio(a.busy(sim), a.count(sim, "steps"))),
        "simulate.events": ("count", "lower", lambda a, n: a.count(sim, "events") / n),
        "simulate.submartingale_estimate.busy_s": ("s", "lower", lambda a, n: a.busy("simulate.submartingale_estimate") / n),
        "simulate.resolvent_sample_batch.busy_s": ("s", "lower", lambda a, n: a.busy("simulate.resolvent_sample_batch") / n),
        k + "halfline_bridge_walk.calls": ("count", "lower", lambda a, n: a.calls(k + "halfline_bridge_walk") / n),
        k + "halfline_bridge_walk.busy_s": ("s", "lower", lambda a, n: a.busy(k + "halfline_bridge_walk") / n),
        k + "constrained_walk.calls": ("count", "lower", lambda a, n: a.calls(k + "constrained_walk") / n),
        k + "constrained_walk.busy_s": ("s", "lower", lambda a, n: a.busy(k + "constrained_walk") / n),
        k + "ns_per_step": ("ns", "lower", lambda a, n: 1e9 * _ratio(
            a.busy(k + "halfline_bridge_walk") + a.busy(k + "constrained_walk"),
            a.count(k + "halfline_bridge_walk", "steps") + a.count(k + "constrained_walk", "steps"))),
        k + "share_of_simulate": ("ratio", "lower", lambda a, n: _ratio(
            a.busy(k + "halfline_bridge_walk") + a.busy(k + "constrained_walk"), a.busy(sim))),
        "cli.main.self_s": ("s", "lower", lambda a, n: a.self_time("cli.main") / n),
    }


LAYER_TABLE = _layer_table()

# Metrics not read off the pass spans; the worker fills these in.
EXTRA_LAYER = {
    "cli.artifact_bytes": ("bytes", "lower"),
    "gallery.closed_form_density.busy_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def per_layer_units():
    """name -> (unit, better) for every per-layer metric, in report order."""
    out = {name: spec[:2] for name, spec in LAYER_TABLE.items()}
    out.update(EXTRA_LAYER)
    return out


def layer_metrics(spans, passes):
    """Per-pass layer metrics from the spans of ``passes`` traced passes.

    Set-up spans (job ``"setup"``) count only towards
    ``gallery.closed_form_density.busy_s``: the first-use adjoint check is
    what the set-up pays, and later calls hit its cache."""
    in_pass = _Spans(spans, lambda job: job != "setup")
    at_setup = _Spans(spans, lambda job: job == "setup")
    out = {name: fn(in_pass, passes) for name, (_, _, fn) in LAYER_TABLE.items()}
    cfd = "gallery.closed_form_density"
    out[cfd + ".busy_s"] = at_setup.busy(cfd) + in_pass.busy(cfd) / passes
    return out
