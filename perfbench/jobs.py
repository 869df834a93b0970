"""Job lists of the four benchmark workloads and the oracle each job is checked against.

Every job drives refdiff through its public surface: ``refdiff.cli.main`` for
what the command line exposes, public library functions for the rest.  All
names are looked up on their module at call time, so the traced run's
wrappers see every call.  Oracles and tolerances are those of
``tests/test_acceptance.py``; where a job size differs from the acceptance
test, the comment on the job says why.

A job returns ``(ok, detail)``: ``ok`` is the verdict against its oracle,
``detail`` prints the oracle values.  The oracle values are not metrics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import refdiff as rd
from refdiff import cli
from refdiff import domain as dom
from refdiff.coefficients import Density
from refdiff.testfunctions import TestFunction

HALFLINE_RATE = 2.0        # stationary rate 2|b|/sigma^2 for b=-1, sigma=1
WRONG_RATE = 1.5 * HALFLINE_RATE


@dataclass
class Context:
    """What a job may use: the workload seed, a directory for its artifacts,
    the checkout's preset directory, and the halfline rate it treats as
    correct (the self-test swaps in the 1.5x rate to show the checks bite)."""

    seed: int
    workdir: Path
    presets: Path
    rate: float = HALFLINE_RATE
    l1_1d: float = math.nan         # set by the 1D solve, read by the refined one

    def config(self, name: str, base: str | None = None, **fields) -> str:
        """Write a job config (a preset plus overrides and the seed)."""
        cfg = {}
        if base is not None:
            cfg.update(json.loads((self.presets / base).read_text()))
        cfg.update(fields)
        cfg["seed"] = self.seed
        path = self.workdir / f"{name}.config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def out(self, name: str) -> str:
        return str(self.workdir / name)


@dataclass
class Job:
    name: str
    run: Callable[[Context], tuple]
    smoke: bool = False     # kept in the reduced-size self-test run


# ---------------------------------------------------------------------------
# Shared oracle helpers (as in tests/test_acceptance.py)
# ---------------------------------------------------------------------------

def _ks_vs_exp(xs, rate):
    xs = np.sort(np.asarray(xs, dtype=float))
    n = len(xs)
    cdf = 1.0 - np.exp(-rate * xs)
    hi = np.max(np.abs(cdf - np.arange(1, n + 1) / n))
    lo = np.max(np.abs(cdf - np.arange(n) / n))
    return float(max(hi, lo))


def _exp_density(theta):
    return Density(lambda x: theta * np.exp(-theta * float(x[0])),
                   grad=lambda x: np.array([-theta ** 2 * np.exp(-theta * float(x[0]))]),
                   hess=lambda x: np.array([[theta ** 3 * np.exp(-theta * float(x[0]))]]))


def _compact_slope(dim, scale, R):
    """f(x) = scale * x0 (1 - x0/R)^3 on 0 < x0 < R: slope ``scale`` on the
    face x0 = 0 and no dependence on the other coordinates."""
    e0 = np.zeros(dim)
    e0[0] = 1.0

    def value(Y):
        x = Y[:, 0]
        out = scale * x * (1 - x / R) ** 3
        out[(x >= R) | (x <= 0)] = 0.0
        return out

    def gradient(Y):
        x = Y[:, 0]
        g = scale * ((1 - x / R) ** 3 - 3 * x / R * (1 - x / R) ** 2)
        g[x >= R] = 0.0
        return g[:, None] * e0

    def hessian(Y):
        x = Y[:, 0]
        h = scale * (-6 / R * (1 - x / R) ** 2 + 6 * x / R ** 2 * (1 - x / R))
        h[x >= R] = 0.0
        return h[:, None, None] * np.outer(e0, e0)

    f = TestFunction(dim, value, gradient, hessian, center=np.zeros(dim),
                     support_radius=R if dim == 1 else np.inf)
    f.claims_negated_in_class = scale >= 0
    f.claims_in_class = scale <= 0
    return f


def _load_csv(path):
    with open(path) as fh:
        fh.readline()                       # '# config=... seed=...'
        cols = fh.readline().strip().split(",")
    return cols, np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def _halfline_l1(points, weights):
    target = HALFLINE_RATE * np.exp(-HALFLINE_RATE * points[:, 0])
    target /= target.sum()
    return float(np.abs(weights - target).sum())


# ---------------------------------------------------------------------------
# solve: criterion 07's three stationary-measure solves
# ---------------------------------------------------------------------------

def _halfline_family(ctx):
    hs = rd.make_example("halfline", b=-1.0, sigma=1.0)
    fam = rd.default_family(hs.domain, hs.coefficients, n_interior=17,
                            n_boundary=0, n_steps=27, box=([0.0], [5.0]),
                            min_feature=0.05, widen=2.0, seed=ctx.seed)
    return hs, fam


def job_solve_1d(ctx):
    hs, fam = _halfline_family(ctx)
    grid = rd.interior_grid(hs.domain, 200, box=([0.0], [5.0]))
    res = rd.solve_stationary(hs.domain, hs.coefficients, grid_points=grid,
                              family=fam, tolerance=2e-5, seed=ctx.seed)
    l1 = _halfline_l1(grid, res.measure.weights)
    ctx.l1_1d = l1
    ok = l1 <= 0.05 and len(fam) >= 40
    return ok, f"1D L1={l1:.4f} (<=0.05), {len(fam)} fns (>=40)"


def job_solve_refined(ctx):
    hs, fam = _halfline_family(ctx)
    grid = rd.interior_grid(hs.domain, 400, box=([0.0], [5.0]))
    res = rd.solve_stationary(hs.domain, hs.coefficients, grid_points=grid,
                              family=fam, tolerance=2e-5, seed=ctx.seed)
    l1 = _halfline_l1(grid, res.measure.weights)
    limit = ctx.l1_1d + 0.01
    return l1 <= limit, f"refined L1={l1:.4f} (<= 1D L1 + 0.01 = {limit:.4f})"


def job_solve_disk(ctx):
    # criterion 07's disk family on a 36x54 polar grid (1894 points) instead
    # of 48x72 (3399 points, about 47 s with one BLAS thread), so a pass fits
    # the run.  The smoother is still the dense O(n^2) matrix.
    disk = rd.make_example("disk")
    pts = rd.solver.polar_grid(36, 54)
    fam = rd.default_family(disk.domain, disk.coefficients, n_interior=0,
                            n_boundary=0, n_steps=18, min_feature=1.0,
                            seed=ctx.seed)
    res = rd.solve_stationary(disk.domain, disk.coefficients, grid_points=pts,
                              family=fam, tolerance=2e-5, max_iter=40000,
                              seed=ctx.seed)
    target = np.linalg.norm(pts, axis=1)
    target /= target.sum()
    l1 = float(np.abs(res.measure.weights - target).sum())
    return l1 <= 0.05, f"disk L1={l1:.4f} (<=0.05), {len(pts)} points"


# ---------------------------------------------------------------------------
# certify: geometry certificates, families, adjoint and weak-form checks
# ---------------------------------------------------------------------------

def _check_domain(ctx, preset, expect_failing):
    out = ctx.out(f"check-domain-{preset}.json")
    code = cli.main(["check-domain", "--config", ctx.config(f"cd-{preset}", f"{preset}.json"),
                     "--output", out])
    payload = json.loads(Path(out).read_text())
    certs = [c["passed"] for c in payload["singular_certificates"]]
    ok = (code == cli.EXIT_OK and payload["passed"]
          and payload["failing_strata"] == expect_failing and certs and all(certs))
    return ok, (f"exit={code}, failing strata={payload['failing_strata']} "
                f"(== {expect_failing}), certificates={certs}")


def job_check_domain_gps3(ctx):
    # criterion 08: the gps3 boundary fails completely-S only at the origin,
    # where all four faces meet (the CLI passes only if every failing
    # stratum runs through a declared singular point)
    return _check_domain(ctx, "gps3", [[0, 1, 2, 3]])


def job_check_domain_wedge(ctx):
    # criterion 08: the alpha=1 wedge fails only at its vertex (faces 0, 1)
    return _check_domain(ctx, "wedge_alpha1", [[0, 1]])


def _make_tests(ctx, preset):
    out = ctx.out(f"family-{preset}.json")
    code = cli.main(["make-tests", "--config", ctx.config(f"mt-{preset}", f"{preset}.json"),
                     "--output", out])
    man = json.loads(Path(out).read_text())
    ok = (code == cli.EXIT_OK and len(man["bumps"]) > 0 and len(man["centers"]) > 0
          and math.isfinite(man["C"]) and man["C"] > 0)
    return ok, f"exit={code}, {len(man['bumps'])} bumps, {len(man['centers'])} centers, C={man['C']:.6g}"


def job_make_tests_gps3(ctx):
    return _make_tests(ctx, "gps3")


def job_make_tests_wedge(ctx):
    return _make_tests(ctx, "wedge_alpha1")


def job_cover_sweep_wedge(ctx):
    """Criterion 05's member sweep on the alpha=1 wedge (N=1, eps=0.25)."""
    system = rd.make_example("wedge")
    N, eps, seed = 1.0, 0.25, ctx.seed
    fam = rd.assemble_cover_family(system.domain, system.coefficients,
                                   N=N, eps=eps, seed=seed)
    B = dom.sample_boundary(system.domain, 10000, seed=seed + 1)
    B = B[np.linalg.norm(B, axis=1) <= N + 2 * eps]
    V = dom.sample_closure(system.domain, 3000, seed=seed + 2)
    V = V[np.linalg.norm(V, axis=1) <= N + 2 * eps]
    pts = np.vstack([B, V])
    ev = fam.precompute(pts, system.coefficients)
    active, gammas = [], {}
    for y in B:
        act = rd.active_set(system.domain, y, tol=1e-7 * (1 + np.linalg.norm(y)))
        active.append(act)
        for i in act:
            gammas.setdefault(i, system.domain.pieces[i].gamma(y))
    centers = [z for z in fam.centers if np.linalg.norm(z) <= N]
    worst_inner, worst_zero, min_far, sup_lf = -np.inf, 0.0, np.inf, 0.0
    for z in centers:
        v, g, lf = ev.member_arrays(z)
        sup_lf = max(sup_lf, float(np.max(np.abs(lf))))
        dists = np.linalg.norm(pts - z, axis=1)
        near = dists <= eps / 2.0
        if near.any():
            worst_zero = max(worst_zero, float(np.max(np.abs(v[near]))))
        far = dists > 3.0 * eps
        if far.any():
            min_far = min(min_far, float(np.min(v[far])))
        for j, act in enumerate(active):
            for i in act:
                worst_inner = max(worst_inner, float(g[j] @ gammas[i]))
    ok = (worst_inner <= 1e-10 and worst_zero == 0.0 and min_far > 0.5
          and sup_lf <= fam.C)
    return ok, (f"inner={worst_inner:.1e} zero={worst_zero} far_min={min_far:.2f} "
                f"supLf={sup_lf:.0f}<=C={fam.C:.0f} ({len(centers)} members)")


def _verify_bar(ctx, name, preset, **fields):
    out = ctx.out(f"bar-{name}.json")
    code = cli.main(["verify-bar", "--config", ctx.config(f"vb-{name}", preset, **fields),
                     "--output", out])
    return code, json.loads(Path(out).read_text())


def _worst(rep, keys=("face_residuals", "edge_residuals")):
    return max([rep["interior_residual"]] + [v for k in keys for v in rep[k].values()])


def job_verify_bar_halfline(ctx):
    # criterion 02: the analytic exponential density satisfies the adjoint
    # relationship to 1e-8
    code, rep = _verify_bar(ctx, "halfline", "halfline.json", density="exp",
                            theta=str(ctx.rate))
    worst = _worst(rep)
    ok = code == cli.EXIT_OK and rep["passed"] and worst <= 1e-8
    return ok, f"exit={code}, analytic={worst:.2e} (<=1e-8)"


def job_verify_bar_disk(ctx):
    code, rep = _verify_bar(ctx, "disk", "disk.json")
    worst = _worst(rep, ("face_residuals",))
    ok = code == cli.EXIT_OK and rep["passed"] and worst <= 1e-10
    return ok, f"exit={code}, disk={worst:.2e} (<=1e-10)"


def job_verify_bar_wrong_rate(ctx):
    # criterion 02: the rate-1 density must be rejected (a pass here means
    # the verifier said no)
    code, rep = _verify_bar(ctx, "wrong", "halfline.json", density="exp", theta="1")
    ok = (code == cli.EXIT_VERDICT and not rep["passed"]
          and rep["interior_residual"] >= 0.1)
    return ok, (f"exit={code} (== 1), wrong-rate interior="
                f"{rep['interior_residual']:.3f} (>=0.1)")


def job_weak_check_halfline(ctx):
    # criterion 03's rule on the CLI weak check: value <= 3 error for every
    # family member
    out = ctx.out("weak-halfline.csv")
    code = cli.main(["weak-check", "--config",
                     ctx.config("wc-halfline", "halfline.json", density="exp",
                                theta=str(ctx.rate)),
                     "--output", out])
    rows = np.loadtxt(out, delimiter=",", skiprows=2, usecols=(1, 2), ndmin=2)
    excess = float(np.max(rows[:, 0] - 3.0 * rows[:, 1]))
    ok = code == cli.EXIT_OK and excess <= 0.0 and len(rows) > 0
    return ok, f"exit={code}, {len(rows)} fns worst excess={excess:.2e} (<=0)"


def job_weak_check_orthant(ctx):
    # criterion 03's orthant case: refined error bars on a 160x160 measure.
    # Each residual rebuilds the refined measure (about 1.7 s), so one family
    # member, drawn with the workload seed, is checked per pass.
    o2 = rd.make_example("orthant", J=2, b=[-1.0, -0.5])
    p = rd.closed_form_density(o2)
    pi = rd.density_grid_measure(o2.domain, p, 160, box=([0.0, 0.0], [6.0, 10.0]))
    fam = rd.default_family(o2.domain, o2.coefficients, box=([0.0, 0.0], [4.5, 8.0]),
                            n_interior=30, n_boundary=0, n_steps=30,
                            min_feature=0.2, widen=1.2, seed=ctx.seed)
    fam = [f for f in fam if f.claims_negated_in_class]
    k = int(np.random.default_rng(ctx.seed).integers(len(fam)))
    wr = rd.weak_residual(o2.coefficients, fam[k], pi)
    excess = wr.value - 3.0 * wr.error
    ok = len(fam) >= 40 and excess <= 0.0
    return ok, f"orthant {len(fam)} fns (>=40), member {k} excess={excess:.2e} (<=0)"



def job_detect_wrong_rate(ctx):
    # criterion 04: some family member detects the 1.5x-rate density
    hs = rd.make_example("halfline", b=-1.0, sigma=1.0)
    pi_bad = rd.density_grid_measure(hs.domain, _exp_density(WRONG_RATE), 4096,
                                     box=([0.0], [8.0]))
    fam = rd.default_family(hs.domain, hs.coefficients, box=([0.0], [8.0]),
                            n_interior=18, n_boundary=0, n_steps=26,
                            min_feature=0.05, widen=2.0, seed=ctx.seed)
    fam = [f for f in fam if f.claims_negated_in_class]
    best = max(wr.value - 5.0 * wr.error for wr in
               (rd.weak_residual(hs.coefficients, f, pi_bad) for f in fam))
    return best > 0.0, f"max(value - 5 err) = {best:.3e} (> 0)"


# ---------------------------------------------------------------------------
# trajectory: one long path per geometry, written as the CLI artifact
# ---------------------------------------------------------------------------

def job_trajectory_halfline(ctx):
    # criterion 01's KS <= 0.02 against Exp(2).  The bridge step is exact in
    # law for any dt, so dt=0.1 keeps the preset's law; T=20000 (200k steps)
    # makes the tolerance hold on every seed (at T=2000 it fails on about one
    # seed in ten).
    out = ctx.out("trajectory-halfline.csv")
    code = cli.main(["simulate", "--config",
                     ctx.config("sim-halfline", "halfline.json", T="20000", dt="0.1"),
                     "--output", out])
    cols, data = _load_csv(out)
    x = data[:, cols.index("x0")]
    ks = _ks_vs_exp(x[int(0.1 * len(x)):], HALFLINE_RATE)
    ok = code == cli.EXIT_OK and len(x) == 200001 and ks <= 0.02
    return ok, f"exit={code}, {len(x) - 1} steps, KS={ks:.4f} (<=0.02)"


def job_trajectory_orthant(ctx):
    # The acceptance suite has no oracle for a 2D walk.  The check is the
    # projection's contract: states in the closed orthant, cumulative pushing
    # nondecreasing, and pushing only on the face it reflects from.
    out = ctx.out("trajectory-orthant.csv")
    code = cli.main(["simulate", "--config",
                     ctx.config("sim-orthant", preset="orthant", J=2, b="-1,-0.5",
                                x0="0.5,0.5", T="100", dt="0.001"),
                     "--output", out])
    cols, data = _load_csv(out)
    X = data[:, [cols.index("x0"), cols.index("x1")]]
    P = data[:, [cols.index("push0"), cols.index("push1")]]
    dP = np.diff(P, axis=0)
    pushed = dP > 0
    inside = float(X.min())
    off_face = float(np.max(np.where(pushed, X[1:], 0.0)))
    ok = (code == cli.EXIT_OK and len(X) == 100001 and inside >= -1e-12
          and float(dP.min()) >= 0.0 and off_face <= 1e-12 and pushed.any())
    return ok, (f"exit={code}, {len(X) - 1} steps, min state={inside:.1e} (>=-1e-12), "
                f"pushed steps={int(pushed.sum())}, max state while pushed={off_face:.1e}")


# ---------------------------------------------------------------------------
# montecarlo: many short paths, no artifacts
# ---------------------------------------------------------------------------

CHECKPOINTS = [0.0, 0.25, 0.5, 0.75, 1.0]


def job_submartingale_halfline(ctx):
    # criterion 10's rule (all step margins >= 0 at 2 sigma) for its f'(0)=+1
    # slope.  Its two exact martingales (zero boundary slope) are left out:
    # their margins have mean ~0, so the 2-sigma rule fails on some seeds
    # whatever the program does.
    hs = rd.make_example("halfline", b=-1.0, sigma=1.0)
    curve = rd.submartingale_estimate(
        hs.domain, hs.coefficients, _compact_slope(1, 1.0, 2.0), [0.5],
        n_paths=1000, T=1.0, dt=1e-3, checkpoints=CHECKPOINTS, seed=ctx.seed,
        check_membership=True)
    return (curve.consistent_nondecreasing,
            f"margins min={curve.step_margins.min():.4f} (>=0), n=1000 paths")


def job_resolvent_halfline(ctx):
    # criterion 09: KS(resolvent output, Exp(2)) <= 0.03 over 5000 draws
    hs = rd.make_example("halfline", b=-1.0, sigma=1.0)
    ys = np.random.default_rng(ctx.seed).exponential(1.0 / HALFLINE_RATE, size=(5000, 1))
    out = rd.resolvent_sample_batch(hs.domain, hs.coefficients, ys, lam=0.5,
                                    dt=1e-3, seed=ctx.seed + 1)
    ks = _ks_vs_exp(out[:, 0], HALFLINE_RATE)
    return ks <= 0.03, f"KS={ks:.4f} (<=0.03), 5000 draws"


def job_submartingale_orthant(ctx):
    # criterion 10's rule on the 2D orthant for a slope in x0 (f = +1 slope
    # on face 0, flat along face 1): 100 constrained-walk paths
    o2 = rd.make_example("orthant", J=2, b=[-1.0, -0.5])
    curve = rd.submartingale_estimate(
        o2.domain, o2.coefficients, _compact_slope(2, 1.0, 2.0), [0.5, 0.5],
        n_paths=100, T=1.0, dt=1e-3, checkpoints=CHECKPOINTS, seed=ctx.seed,
        check_membership=True)
    return (curve.consistent_nondecreasing,
            f"margins min={curve.step_margins.min():.4f} (>=0), n=100 paths")


WORKLOADS = {
    "solve": [
        Job("solve-halfline-200", job_solve_1d, smoke=True),
        Job("solve-halfline-400", job_solve_refined),
        Job("solve-disk-36x54", job_solve_disk),
    ],
    "certify": [
        Job("check-domain-gps3", job_check_domain_gps3),
        Job("check-domain-wedge", job_check_domain_wedge),
        Job("make-tests-gps3", job_make_tests_gps3),
        Job("make-tests-wedge", job_make_tests_wedge),
        Job("cover-sweep-wedge", job_cover_sweep_wedge),
        Job("verify-bar-halfline", job_verify_bar_halfline, smoke=True),
        Job("verify-bar-disk", job_verify_bar_disk),
        Job("verify-bar-wrong-rate", job_verify_bar_wrong_rate, smoke=True),
        Job("weak-check-halfline", job_weak_check_halfline, smoke=True),
        Job("weak-check-orthant", job_weak_check_orthant),
        Job("detect-1.5x-rate", job_detect_wrong_rate),
    ],
    "trajectory": [
        Job("simulate-halfline", job_trajectory_halfline),
        Job("simulate-orthant", job_trajectory_orthant, smoke=True),
    ],
    "montecarlo": [
        Job("submartingale-halfline", job_submartingale_halfline),
        Job("resolvent-halfline", job_resolvent_halfline, smoke=True),
        Job("submartingale-orthant", job_submartingale_orthant),
    ],
}
