import tracemalloc

import numpy as np
import pytest

import refdiff as rd
from refdiff import domain as dom
from refdiff import solver
from refdiff.errors import SamplingFailure
from refdiff.operators import apply_generator_batch
from refdiff.solver import (_SMOOTHER_BLOCK, GridMeasure,
                            _smoothed_gradient_map, build_constraints,
                            coordinate_step, default_family,
                            density_grid_measure, interior_grid, polar_grid,
                            project_simplex, residual_report, solve_stationary)
from refdiff.testfunctions import TestFunction


@pytest.fixture(scope="module")
def halfline():
    return rd.make_example("halfline")


@pytest.fixture(scope="module")
def grid_1d(halfline):
    return interior_grid(halfline.domain, 200, box=([0.0], [5.0]))


def test_interior_grid_excludes_shell(halfline):
    g = interior_grid(halfline.domain, 100, box=([0.0], [5.0]))
    spacing = 5.0 / 100
    assert np.min(g) >= spacing / 2
    assert len(g) == 99 or len(g) == 100


def test_project_simplex():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.standard_normal(20) * rng.uniform(0.1, 5)
        w = project_simplex(v)
        assert np.all(w >= 0)
        assert np.isclose(w.sum(), 1.0, atol=1e-12)
        # projection property: no direction in the simplex improves distance
        u = project_simplex(rng.standard_normal(20))
        assert np.dot(v - w, u - w) <= 1e-9


def test_grid_measure_invariants():
    with pytest.raises(ValueError):
        GridMeasure(np.zeros((3, 1)), np.array([0.5, 0.6, 0.2]))
    with pytest.raises(ValueError):
        GridMeasure(np.zeros((2, 1)), np.array([0.5, -0.1]))


def test_build_constraints_delegation(halfline, grid_1d):
    f = rd.interior_bump(halfline.domain, [2.0], 0.25)
    M, types = build_constraints(halfline.domain, halfline.coefficients,
                                 grid_1d, [f])
    assert types == ["eq"]
    ref = apply_generator_batch(halfline.coefficients, f, grid_1d)
    assert np.allclose(M[0], ref)
    # row vanishes off the support
    off = np.abs(grid_1d[:, 0] - 2.0) > 0.6
    assert np.all(M[0][off] == 0.0)


def test_build_constraints_types(halfline, grid_1d):
    eq_step = coordinate_step(halfline.domain, 0, 1.0, 0.3)
    crossing = coordinate_step(halfline.domain, 0, 0.05, 0.2)
    crossing.claims_negated_in_class = True
    M, types = build_constraints(halfline.domain, halfline.coefficients,
                                 grid_1d, [eq_step, crossing])
    assert types == ["eq", "ineq"]


def test_build_constraints_one_boundary_frame(halfline, grid_1d, monkeypatch):
    fam = default_family(halfline.domain, halfline.coefficients, n_interior=17,
                         n_boundary=0, n_steps=27, box=([0.0], [5.0]),
                         min_feature=0.05, widen=2.0)[:40]
    assert len(fam) == 40
    B = dom.sample_boundary(halfline.domain, 400, seed=0)
    single_point = []
    active_set = dom.active_set
    monkeypatch.setattr(dom, "active_set",
                        lambda *a, **k: single_point.append(a) or active_set(*a, **k))
    on_sample = [0] * len(fam)
    for k, f in enumerate(fam):
        def counted(y, k=k, gradient=f.gradient):
            on_sample[k] += np.array_equal(y, B)
            return gradient(y)
        f.gradient = counted
    M, types = build_constraints(halfline.domain, halfline.coefficients,
                                 grid_1d, fam)
    assert single_point == []
    assert on_sample == [1] * len(fam)
    assert M.shape == (40, len(grid_1d)) and len(types) == 40


def test_build_constraints_sampling_errors(halfline, grid_1d, monkeypatch):
    step = coordinate_step(halfline.domain, 0, 0.05, 0.2)

    def fails(exc):
        def sample_boundary(*a, **k):
            raise exc
        return sample_boundary

    # an unsampleable boundary gives no boundary rows to check ...
    monkeypatch.setattr(dom, "sample_boundary", fails(SamplingFailure("empty")))
    _, types = build_constraints(halfline.domain, halfline.coefficients,
                                 grid_1d, [step])
    assert types == ["eq"]
    # ... but any other sampling fault propagates
    monkeypatch.setattr(dom, "sample_boundary", fails(ValueError("broken")))
    with pytest.raises(ValueError, match="broken"):
        build_constraints(halfline.domain, halfline.coefficients, grid_1d, [step])


def test_gps2_cli_family_rows_follow_the_claims():
    # the family of `solve --preset gps --J 2`: a row is 'eq' exactly when
    # its member claims both sides of the class, and every member claims at
    # least its negated side
    gps = rd.make_example("gps", J=2)
    grid = interior_grid(gps.domain, 64)
    lo, hi = grid.min(axis=0), grid.max(axis=0)
    fam = default_family(gps.domain, gps.coefficients, n_interior=16,
                         n_steps=24, box=(lo, hi),
                         min_feature=2 * float(np.max(hi - lo)) / 64)
    assert any(f.info["kind"] == "singular-ramp" for f in fam)
    _, types = build_constraints(gps.domain, gps.coefficients, grid[:5], fam)
    assert {"eq", "ineq"} <= set(types)
    for f, t in zip(fam, types):
        assert f.claims_negated_in_class
        assert (t == "eq") == (f.claims_in_class and f.claims_negated_in_class), f.info


def test_default_family_boundary_members_claim_their_negated_side():
    # boundary bumps enter the family negated: a row for int L f >= 0
    o = rd.make_example("orthant", J=2, b=[-1.0, -0.5])
    box = ([0.0, 0.0], [4.0, 4.0])
    fam = default_family(o.domain, o.coefficients, n_interior=9, n_boundary=4,
                         n_steps=8, box=box, min_feature=0)
    bumps = [f for f in fam if f.info["kind"] == "boundary"]
    assert len(bumps) == 8
    _, types = build_constraints(o.domain, o.coefficients,
                                 interior_grid(o.domain, 100, box=box), bumps)
    assert types == ["ineq"] * 8
    for f in bumps:
        assert f.claims_negated_in_class and not f.claims_in_class
        assert rd.check_admissible(-f, o.domain).passed
        # the negated, normalised plateau value at the bump's centre
        assert f(f.center) == -abs(f.info["scaled"])


def test_default_family_propagates_untyped_faults(halfline, monkeypatch):
    # only the package's typed construction failures skip a family member
    def broken(*a, **k):
        raise TypeError("broken")

    monkeypatch.setattr(solver, "boundary_bump", broken)
    with pytest.raises(TypeError, match="broken"):
        default_family(halfline.domain, halfline.coefficients, n_interior=4, n_steps=4)


def test_orthant_family_evaluates_jets_only_where_members_move(monkeypatch):
    # criterion 03's orthant family: normalising its 44 members on the
    # 65,280-point probe and classifying its steps on the 400-point frame
    # took jets on 2,883,520 rows; with each member's jet run only on the
    # rows where it may move, the first measurement was 402,236
    o2 = rd.make_example("orthant", J=2, b=[-1.0, -0.5])
    rows = []
    jet = TestFunction.jet

    def counted(self, y):
        rows.append(len(np.atleast_2d(y)))
        return jet(self, y)

    monkeypatch.setattr(TestFunction, "jet", counted)
    fam = default_family(o2.domain, o2.coefficients, box=([0.0, 0.0], [4.5, 8.0]),
                         n_interior=30, n_boundary=0, n_steps=30, min_feature=0.2,
                         widen=1.2)
    assert len(fam) == 44
    assert sum(rows) <= 402_236


def test_solve_degenerate_empty_family(halfline, grid_1d):
    res = solve_stationary(halfline.domain, halfline.coefficients,
                           grid_points=grid_1d, family=[])
    n = len(grid_1d)
    assert np.allclose(res.measure.weights, 1.0 / n)
    assert res.objective == 0.0
    assert res.feasible


def test_solve_recovers_exponential(halfline, grid_1d):
    fam = default_family(halfline.domain, halfline.coefficients,
                         n_interior=16, n_boundary=0, n_steps=26,
                         box=([0.0], [5.0]), min_feature=0.05, widen=2.0)
    res = solve_stationary(halfline.domain, halfline.coefficients,
                           grid_points=grid_1d, family=fam, tolerance=2e-5)
    target = 2 * np.exp(-2 * grid_1d[:, 0])
    target /= target.sum()
    l1 = np.abs(res.measure.weights - target).sum()
    assert l1 <= 0.05
    assert res.feasible
    # simplex constraints hold exactly after renormalization
    assert np.isclose(res.measure.weights.sum(), 1.0, atol=1e-12)
    assert np.all(res.measure.weights >= 0)
    # objective trace is nonincreasing
    assert np.all(np.diff(res.trace) <= 1e-15)


def test_solve_scale_invariance(halfline, grid_1d):
    fam = default_family(halfline.domain, halfline.coefficients,
                         n_interior=10, n_boundary=0, n_steps=14,
                         box=([0.0], [5.0]), min_feature=0.05, widen=2.0,
                         normalize=False)
    res1 = solve_stationary(halfline.domain, halfline.coefficients,
                            grid_points=grid_1d, family=fam,
                            tolerance=1e-30, max_iter=2000)
    fam2 = [f.scaled(2.0) for f in fam]
    res2 = solve_stationary(halfline.domain, halfline.coefficients,
                            grid_points=grid_1d, family=fam2,
                            tolerance=1e-30, max_iter=2000)
    assert np.isclose(res2.objective, 4.0 * res1.objective,
                      rtol=1e-6, atol=1e-18)
    assert np.max(np.abs(res1.measure.weights - res2.measure.weights)) <= 1e-8


def test_residual_report(halfline, grid_1d):
    p = rd.closed_form_density(halfline)
    pi = density_grid_measure(halfline.domain, p, 2048, box=([0.0], [8.0]))
    holdout = default_family(halfline.domain, halfline.coefficients,
                             n_interior=6, n_boundary=0, n_steps=8,
                             box=([0.0], [5.0]), min_feature=0.05)
    holdout = [f for f in holdout if f.claims_negated_in_class]
    rep = residual_report(halfline.coefficients, pi, holdout)
    assert len(rep["entries"]) == len(holdout)
    wr_err = max(e["error"] for e in rep["entries"])
    assert rep["max_violation"] <= 3 * wr_err + 1e-9


def test_residual_report_perturbation_monotone(halfline, grid_1d):
    p = rd.closed_form_density(halfline)
    pi = density_grid_measure(halfline.domain, p, 2048, box=([0.0], [8.0]))
    holdout = [f for f in default_family(
        halfline.domain, halfline.coefficients, n_interior=6, n_boundary=0,
        n_steps=10, box=([0.0], [6.0]), min_feature=0.05)
        if f.claims_negated_in_class]
    viols = []
    for scale in (1.0, 1.25, 1.5):
        q = 2.0 * scale
        dens = np.exp(-q * pi.points[:, 0])
        w = dens / dens.sum()
        m = GridMeasure(pi.points, w)
        rep = residual_report(halfline.coefficients, m, holdout)
        viols.append(rep["max_violation"])
    assert viols[0] <= viols[1] <= viols[2]


def test_empty_holdout(halfline, grid_1d):
    p = rd.closed_form_density(halfline)
    pi = density_grid_measure(halfline.domain, p, 512, box=([0.0], [8.0]))
    rep = residual_report(halfline.coefficients, pi, [])
    assert rep["entries"] == []


def test_polar_grid():
    pts = polar_grid(8, 16)
    assert np.max(np.linalg.norm(pts, axis=1)) < 1.0
    assert len(pts) <= 8 * 16


def _polar_grid_loop(n_radial, n_angular, radius=1.0, center=(0.0, 0.0)):
    """The list-comprehension polar grid that the meshgrid form replaces."""
    radii = (np.arange(n_radial) + 0.5) * radius / n_radial
    angles = np.linspace(0.0, 2.0 * np.pi, n_angular, endpoint=False)
    pts = np.array([[r * np.cos(a), r * np.sin(a)] for r in radii for a in angles])
    pts = pts[np.linalg.norm(pts, axis=1) < radius * (1.0 - 0.5 / n_radial)]
    return pts + np.asarray(center, dtype=float)


@pytest.mark.parametrize("shape", [(8, 16), (36, 54), (48, 72)])
def test_polar_grid_matches_loop(shape):
    assert np.array_equal(polar_grid(*shape), _polar_grid_loop(*shape))
    assert np.array_equal(polar_grid(*shape, radius=2.0, center=(0.5, -1.0)),
                          _polar_grid_loop(*shape, radius=2.0, center=(0.5, -1.0)))


def test_density_grid_measure_carries_doubled_grid():
    o = rd.make_example("orthant", J=2, b=[-1.0, -0.5])
    p = rd.closed_form_density(o)
    box = ([0.0, 0.0], [6.0, 10.0])
    pi = density_grid_measure(o.domain, p, [20, 30], box=box)
    twin = density_grid_measure(o.domain, p, [40, 60], box=box)
    assert pi.meta["per_axis"] == [20, 30] and pi.fine.meta["per_axis"] == [40, 60]
    assert np.array_equal(pi.fine.points, twin.points)
    assert np.array_equal(pi.fine.weights, twin.weights)
    assert pi.fine.tail_mass == twin.tail_mass and pi.fine.fine is None
    assert twin.fine is not None and pi.tail_mass > 0.0


# ---------------------------------------------------------------------------
# Row-space preconditioning against the dense n x n smoother
# ---------------------------------------------------------------------------

def _smoothing_kernel(points, width):
    """The dense n x n Gaussian smoother that the row-block map replaces."""
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    K = np.exp(-0.5 * d2 / width ** 2)
    return K / float(K.sum(axis=1).mean())


def _dense_reference_solve(grid_points, M, types, tolerance, max_iter=10000,
                           smoothing=2.5):
    """solve_stationary's iteration with the dense smoother: d = P (2 M^T pos)."""
    eq = np.array([t == "eq" for t in types])
    n = len(grid_points)
    w = np.full(n, 1.0 / n)
    nn = np.sort(np.linalg.norm(grid_points - grid_points[n // 2], axis=1))
    h_typ = nn[1]
    span = float(np.max(np.ptp(grid_points, axis=0)))
    phase_widths = []
    wm = span / 6.0
    while wm > smoothing * h_typ * 0.9:
        phase_widths.append(wm)
        wm /= 2.0
    phase_widths.append(None)

    def objective(wv):
        r = M @ wv
        pos = np.where(eq, r, np.maximum(r, 0.0))
        return float(np.dot(pos, pos)), pos

    obj, pos = objective(w)
    trace = [obj]
    step = 1.0 / (np.linalg.norm(M, ord=2) ** 2 + 1e-12)
    stop_at = max(min(tolerance, 0.05 * obj), 1e-15)
    for wm in phase_widths:
        if obj <= stop_at:
            break
        P = _smoothing_kernel(grid_points, wm) if wm is not None else None
        for _ in range(max_iter // len(phase_widths)):
            g = 2.0 * (M.T @ pos)
            d = P @ g if P is not None else g
            t = step * 8.0
            for _ in range(60):
                w_new = project_simplex(w - t * d)
                obj_new, pos_new = objective(w_new)
                if obj_new <= obj:
                    break
                t *= 0.5
            else:
                break
            gain = obj - obj_new
            w, obj, pos = w_new, obj_new, pos_new
            trace.append(obj)
            if gain < 1e-16 * max(obj, 1e-8) or obj <= tolerance:
                break
    return w / w.sum(), np.array(trace)


@pytest.fixture(scope="module")
def disk():
    return rd.make_example("disk")


@pytest.fixture(scope="module")
def disk_family(disk):
    # criterion 07's disk family
    return default_family(disk.domain, disk.coefficients, n_interior=0,
                          n_boundary=0, n_steps=18, min_feature=1.0)


@pytest.mark.parametrize("points", [
    polar_grid(8, 16),                          # less than one block
    polar_grid(36, 54)[:_SMOOTHER_BLOCK],       # exactly one block
    polar_grid(36, 54),                         # not a multiple of the block
], ids=["sub-block", "one-block", "ragged"])
def test_smoothed_gradient_map_matches_dense(disk, disk_family, points):
    M, _ = build_constraints(disk.domain, disk.coefficients, points,
                             disk_family)
    for width in (1.0 / 3.0, 0.05):
        ref = 2.0 * _smoothing_kernel(points, width) @ M.T
        G = _smoothed_gradient_map(points, width, M)
        assert G.shape == (len(points), len(disk_family))
        assert np.max(np.abs(G - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_solve_memory_is_order_nk(disk, disk_family):
    pts = polar_grid(48, 72)
    n = len(pts)
    assert n == 3399
    tracemalloc.start()
    try:
        solve_stationary(disk.domain, disk.coefficients, grid_points=pts,
                         family=disk_family, tolerance=2e-5, max_iter=400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # half of one n x n float64 array
    assert peak < 0.5 * n * n * 8


def test_solve_path_matches_dense_smoother(disk, disk_family):
    pts = polar_grid(12, 18)
    res = solve_stationary(disk.domain, disk.coefficients, grid_points=pts,
                           family=disk_family, tolerance=2e-5, seed=0)
    M, types = build_constraints(disk.domain, disk.coefficients, pts,
                                 disk_family, seed=0)
    w_ref, trace_ref = _dense_reference_solve(pts, M, types, tolerance=2e-5)
    # the two paths may stop a phase one step apart where a step gains
    # nothing to rounding, but they end at the same measure
    assert np.abs(res.measure.weights - w_ref).sum() <= 1e-10
    assert np.isclose(res.objective, trace_ref[-1], rtol=1e-10, atol=0.0)
    assert np.all(np.diff(res.trace) <= 0.0)
