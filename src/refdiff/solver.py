"""Discrete stationary measures from the weak-form inequality criterion.

A candidate stationary law is a simplex-constrained weight vector on an
interior grid.  Test functions whose negation is admissible contribute
inequality rows sum_j w_j (L f)(x_j) <= 0; functions admissible with both
signs contribute equality rows.  The solver minimizes the squared equality
residuals plus squared positive parts of inequality residuals by projected
gradient with Armijo line search on the probability simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import domain as dom
from ._csv import write_csv
from .coefficients import CoefficientField, Density
from .errors import ChartMissing, NotInH, SamplingFailure
from .operators import apply_generator_batch, weak_residual
from .testfunctions import TestFunction, interior_bump, boundary_bump, \
    singular_ramp, check_admissible


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

@dataclass
class GridMeasure:
    """Nonnegative weights on interior grid points summing to one.

    fine, when set, is the same discretization at doubled resolution; weak
    residuals use it for their two-resolution error estimate.
    """

    points: np.ndarray
    weights: np.ndarray
    residuals: Optional[np.ndarray] = None
    objective: Optional[float] = None
    meta: dict = field(default_factory=dict)
    error_kind: str = "grid"
    tail_mass: float = 0.0
    fine: Optional["GridMeasure"] = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < -1e-12):
            raise ValueError("weights must be nonnegative")
        s = float(self.weights.sum())
        if abs(s - 1.0) > 1e-8:
            raise ValueError(f"weights must sum to one, got {s}")

    def to_csv(self, path, header_meta: str = ""):
        cols = [f"x{k}" for k in range(self.points.shape[1])] + ["w"]
        write_csv(path, cols, np.column_stack([self.points, self.weights]),
                  header_meta)


def interior_grid(domain: dom.DomainSpec, per_axis, box=None) -> np.ndarray:
    """Regular grid over box (default bbox) clipped to the open domain,
    excluding a boundary shell of half a grid spacing."""
    lo, hi = domain.bbox if box is None else (np.asarray(box[0], float),
                                              np.asarray(box[1], float))
    J = domain.dimension
    if np.isscalar(per_axis):
        per_axis = [int(per_axis)] * J
    axes = [l + (np.arange(n) + 0.5) * (h - l) / n
            for n, l, h in zip(per_axis, lo, hi)]
    spacing = float(np.max([(h - l) / n for n, l, h in zip(per_axis, lo, hi)]))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = domain.piece_values_batch(pts)
    keep = np.min(vals, axis=1) >= spacing / 2.0
    return pts[keep]


def polar_grid(n_radial: int, n_angular: int, radius: float = 1.0,
               center=(0.0, 0.0)) -> np.ndarray:
    """Radial-angular grid on a disk, excluding a half-ring boundary shell."""
    center = np.asarray(center, dtype=float)
    radii = (np.arange(n_radial) + 0.5) * radius / n_radial
    angles = np.linspace(0.0, 2.0 * np.pi, n_angular, endpoint=False)
    r, a = np.meshgrid(radii, angles, indexing="ij")
    pts = np.stack([(r * np.cos(a)).ravel(), (r * np.sin(a)).ravel()], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) < radius * (1.0 - 0.5 / n_radial)]
    return pts + center


def density_grid_measure(domain: dom.DomainSpec, p: Density, per_axis,
                         box=None) -> GridMeasure:
    """Discretize a density on an interior grid (weights = p * cell, normalized).

    The measure carries its doubled-resolution discretization (fine) and a
    tail-mass estimate for weak-residual error bars.
    """
    from .operators import integrate_density

    if np.isscalar(per_axis):
        per_axis = [int(per_axis)] * domain.dimension
    full_mass, _ = integrate_density(p, domain)
    fine = _grid_measure(domain, p, [2 * n for n in per_axis], box, full_mass)
    return _grid_measure(domain, p, per_axis, box, full_mass, fine)


def _grid_measure(domain, p, per_axis, box, full_mass, fine=None) -> GridMeasure:
    pts = interior_grid(domain, per_axis, box=box)
    vals = np.maximum(p.value_batch(pts), 0.0)
    total = float(vals.sum())
    if total <= 0:
        raise ValueError("density vanishes on the grid")
    lo, hi = domain.bbox if box is None else box
    cell = float(np.prod([(h - l) / n for n, l, h in zip(per_axis, lo, hi)]))
    raw_mass = total * cell
    tail = max(0.0, 1.0 - raw_mass / full_mass) if full_mass > 0 else 0.0
    return GridMeasure(pts, vals / total, meta={"per_axis": per_axis},
                       tail_mass=tail, fine=fine)


# ---------------------------------------------------------------------------
# Default test family
# ---------------------------------------------------------------------------

def coordinate_step(domain: dom.DomainSpec, axis: int, center: float,
                    width: float) -> TestFunction:
    """Monotone plateau step S((x_k - c)/w): 0 below, 1 above, C^2.

    Constant plus compactly-supported, so it belongs to the admissible class
    whenever its gradient passes the boundary sign condition; against any
    stationary law it pins the probability flux through the level set.
    """
    from .profiles import rising_cutoff

    prof = rising_cutoff(center - width, center + width)
    J = domain.dimension
    e = np.zeros(J)
    e[axis] = 1.0

    def value(Y):
        return prof.value(Y[:, axis])

    def gradient(Y):
        return prof.d1(Y[:, axis])[:, None] * e[None, :]

    def hessian(Y):
        return prof.d2(Y[:, axis])[:, None, None] * np.outer(e, e)[None, :, :]

    ctr = np.zeros(J)
    ctr[axis] = center
    return TestFunction(J, value, gradient, hessian, center=ctr,
                        support_radius=np.inf, constant_outside=1.0,
                        info={"kind": "step", "axis": axis, "center": center,
                              "width": width})


def radial_step(domain: dom.DomainSpec, center, c: float, width: float) -> TestFunction:
    """Monotone plateau step in the distance from a center point."""
    from .profiles import rising_cutoff

    prof = rising_cutoff(c - width, c + width)
    center = np.asarray(center, dtype=float)
    J = domain.dimension

    def value(Y):
        return prof.value(np.linalg.norm(Y - center, axis=1))

    def gradient(Y):
        D = Y - center
        rr = np.maximum(np.linalg.norm(D, axis=1), 1e-300)
        return (prof.d1(rr) / rr)[:, None] * D

    def hessian(Y):
        D = Y - center
        rr = np.maximum(np.linalg.norm(D, axis=1), 1e-300)
        u = D / rr[:, None]
        uu = np.einsum("ni,nj->nij", u, u)
        eye = np.eye(J)[None, :, :]
        return (prof.d2(rr)[:, None, None] * uu
                + (prof.d1(rr) / rr)[:, None, None] * (eye - uu))

    return TestFunction(J, value, gradient, hessian, center=center,
                        support_radius=np.inf, constant_outside=1.0,
                        info={"kind": "radial-step", "c": c, "width": width})


def default_family(domain: dom.DomainSpec, coef: CoefficientField,
                   n_interior: int = 30, n_boundary: int = 8,
                   n_steps: int = 8, box=None, widen: float = 1.8,
                   min_feature: float = 0.0, normalize: bool = True,
                   seed: int = 0):
    """Interior bumps on a coarse lattice, plateau steps along each
    coordinate, boundary bumps per face, and ramps at singular points.

    Every returned function has its negation in the admissible class;
    functions whose boundary gradient vanishes identically (interior bumps,
    steps clear of the boundary sign condition) are two-sided and become
    equality rows.  The plateau steps carry the flux information that
    compactly supported bumps cannot see.
    """
    J = domain.dimension
    lo, hi = domain.bbox if box is None else (np.asarray(box[0], float),
                                              np.asarray(box[1], float))
    funcs = []
    per_axis = max(2, int(round(n_interior ** (1.0 / J))))
    axes = [l + (np.arange(per_axis) + 0.5) * (h - l) / per_axis
            for l, h in zip(lo, hi)]
    spacing = float(np.max([(h - l) / per_axis for l, h in zip(lo, hi)]))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    rad_full = widen * spacing
    for x, d in zip(pts, dom.distance_to_boundary(domain, pts)):
        rad = min(rad_full, 0.9 * d)
        if rad < 0.45 * rad_full:
            continue    # heavily clamped bumps produce noisy rows; steps
            # and boundary bumps cover the shell
        funcs.append(interior_bump(domain, x, rad ** 2))

    try:
        B = dom.sample_boundary(domain, 300, seed=seed)
    except SamplingFailure:
        B = np.empty((0, J))
    frame = dom.boundary_frame(domain, B)

    def classify(f):
        inner = frame.inner(f)
        lo_s, hi_s = (inner.min(), inner.max()) if len(inner) else (0.0, 0.0)
        if max(abs(lo_s), abs(hi_s)) <= 1e-9:
            f.claims_in_class = f.claims_negated_in_class = True
            return f
        if lo_s >= -1e-9:
            f.claims_negated_in_class = True
            return f
        if hi_s <= 1e-9:
            g = -f
            g.claims_negated_in_class = True
            return g
        return None

    smooth_only = all(p.kind == "smooth" for p in domain.pieces)
    if not smooth_only:
        # geometric ladder of overlapping flux steps per axis: fine near the
        # low edge, coarse far out, rises covering the box and its upper edge
        n_axis_steps = max(1, n_steps // J)
        for axis in range(J):
            span = hi[axis] - lo[axis]
            w_min = span / 100.0
            w_max = span / 8.0
            overlap = 0.55
            for _ in range(30):
                cw = []
                c = lo[axis] + w_min
                while c < hi[axis] + w_max:
                    wd = min(max(0.6 * (c - lo[axis]), w_min), w_max)
                    cw.append((c, wd))
                    c += overlap * wd
                if len(cw) <= n_axis_steps:
                    break
                overlap *= 1.12
            for c, wd in cw:
                f = classify(coordinate_step(domain, axis, float(c), float(wd)))
                if f is not None:
                    funcs.append(f)

    # bounded domains additionally get radial flux steps
    if domain.bounded:
        ctr = 0.5 * (lo + hi)
        rmax = 0.5 * float(np.min(hi - lo))
        for c in np.linspace(0.08 * rmax, 0.9 * rmax, max(4, n_steps)):
            wd = 0.085 * rmax
            f = classify(radial_step(domain, ctr, float(c), wd))
            if f is not None:
                funcs.append(f)

    for i in range(len(domain.pieces) if n_boundary > 0 else 0):
        try:
            bpts, _ = dom.boundary_quadrature(domain, i, n_boundary)
        except ChartMissing:
            continue
        for x in bpts[:: max(1, len(bpts) // max(n_boundary, 1))]:
            try:
                active = dom.active_set(domain, x, tol=1e-8 * (1 + np.linalg.norm(x)))
                if len(active) != 1:
                    continue
                f = boundary_bump(domain, x, min(widen * spacing, 1.0))
                band = f.info["lam"] / 24.0 * f.info["r"]
                if band < min_feature:
                    continue    # generator values too sharp for the grid
                funcs.append(-f)
            except Exception:
                continue
    for sp in domain.singular_points:
        try:
            eps_r = 0.05
            f, _ = singular_ramp(domain, sp, delta=eps_r ** 2 / 8, eps=eps_r)
            funcs.append(f)
        except Exception:
            continue
    if normalize:
        probe = interior_grid(domain, min(400, 4 ** (8 // J)),
                              box=(lo, hi))
        out = []
        for f in funcs:
            scale = float(np.max(np.abs(apply_generator_batch(coef, f, probe))))
            out.append(f.scaled(1.0 / scale) if scale > 1e-12 else f)
        funcs = out
    return funcs


# ---------------------------------------------------------------------------
# Constraint assembly and solve
# ---------------------------------------------------------------------------

def build_constraints(domain: dom.DomainSpec, coef: CoefficientField,
                      grid_points, family: Sequence[TestFunction],
                      eq_tol: float = 1e-9, seed: int = 0):
    """Rows M[k, j] = (L f_k)(x_j) with a type per row.

    'eq' rows have boundary-gradient inner products vanishing on sampled
    boundary points (both signs admissible); other rows must claim a
    negated-admissible function and are 'ineq' (row value must be <= 0).
    """
    grid_points = np.atleast_2d(np.asarray(grid_points, dtype=float))
    try:
        B = dom.sample_boundary(domain, 400, seed=seed)
    except SamplingFailure:
        B = np.empty((0, domain.dimension))
    frame = dom.boundary_frame(domain, B)
    rows, types = [], []
    for f in family:
        rows.append(apply_generator_batch(coef, f, grid_points))
        if np.all(np.abs(frame.inner(f)) <= eq_tol):
            types.append("eq")
        elif f.claims_negated_in_class:
            types.append("ineq")
        else:
            raise NotInH(
                f"family member {f.info} is neither two-sided nor claims a "
                "negated-admissible function")
    return np.array(rows).reshape(len(rows), len(grid_points)), types


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


@dataclass
class SolveResult:
    measure: GridMeasure
    objective: float
    trace: np.ndarray
    iterations: int
    feasible: bool


# rows of the smoother built at a time: bounds the working set of
# _smoothed_gradient_map at O(_SMOOTHER_BLOCK * n) whatever the grid size
_SMOOTHER_BLOCK = 256


def _smoothed_gradient_map(points: np.ndarray, width: float,
                           M: np.ndarray) -> np.ndarray:
    """The n x k matrix 2 P M^T for the Gaussian smoother P of one width.

    P = K / mean(row sums of K), K_ij = exp(-|x_i - x_j|^2 / (2 width^2)),
    is symmetric positive-semidefinite, which keeps the preconditioned
    direction P g a descent direction.  Since the gradient is g = 2 M^T pos,
    P g = (2 P M^T) pos.  K is built _SMOOTHER_BLOCK rows at a time and each
    block is multiplied by M^T at once, so P itself is never held."""
    n = len(points)
    out = np.empty((n, M.shape[0]))
    row_sums = np.empty(n)
    for lo in range(0, n, _SMOOTHER_BLOCK):
        block = points[lo:lo + _SMOOTHER_BLOCK]
        K = np.zeros((len(block), n))
        for j in range(points.shape[1]):
            K += np.square(block[:, j, None] - points[None, :, j])
        K *= -0.5
        K /= width ** 2
        np.exp(K, out=K)
        row_sums[lo:lo + len(block)] = K.sum(axis=1)
        out[lo:lo + len(block)] = K @ M.T
    out *= 2.0 / float(row_sums.mean())
    return out


def solve_stationary(domain: dom.DomainSpec, coef: CoefficientField,
                     grid_points=None, family=None, per_axis: int = 64,
                     tolerance: float = 1e-5, max_iter: int = 10000,
                     init: Optional[np.ndarray] = None, smoothing: float = 2.5,
                     seed: int = 0) -> SolveResult:
    """Minimize squared stationarity residuals over the probability simplex.

    minimize  sum_eq (M w)^2 + sum_ineq max(0, M w)^2
    s.t.      w >= 0, sum w = 1

    by projected gradient with Armijo backtracking on the raw objective.
    Because a finite family leaves high-frequency null directions (each row
    is locally cancellable by grid-scale dipoles), the descent direction is
    preconditioned by a Gaussian smoother P, which steers the iteration to
    the smooth representative of the minimizing set; the objective trace
    remains nonincreasing.  The widths shrink from a sixth of the grid span
    to smoothing times the typical grid spacing (coarse-to-fine
    continuation; smoothing=0 disables preconditioning), and a last phase
    runs unsmoothed.  The gradient 2 M^T pos lies in the row space of the
    k x n constraint matrix M, so each phase forms the n x k matrix
    2 P M^T once, building P in row blocks, and its direction is
    (2 P M^T) pos: O(n k) per iteration, and O(n k) memory plus one row
    block of P, never an n x n array.
    Raises nothing on a high floor; feasible is False when the converged
    objective exceeds the tolerance.
    """
    if grid_points is None:
        grid_points = interior_grid(domain, per_axis)
    grid_points = np.atleast_2d(np.asarray(grid_points, dtype=float))
    if family is None:
        family = default_family(domain, coef, seed=seed)
    M, types = build_constraints(domain, coef, grid_points, family, seed=seed)
    eq = np.array([t == "eq" for t in types])
    n = len(grid_points)
    w = np.full(n, 1.0 / n) if init is None else project_simplex(
        np.asarray(init, dtype=float))
    if len(family) == 0:
        # no constraints: every simplex point is feasible, return the init
        measure = GridMeasure(grid_points, w, residuals=np.zeros(0),
                              objective=0.0, meta={"types": []})
        return SolveResult(measure, 0.0, np.array([0.0]), 0, True)

    nn = np.sort(np.linalg.norm(
        grid_points - grid_points[len(grid_points) // 2], axis=1))
    h_typ = nn[1] if len(nn) > 1 else 1.0
    span = float(np.max(np.ptp(grid_points, axis=0)))
    phase_widths = []
    if smoothing and smoothing > 0:
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
    # stop at the discretization noise floor; driving the objective further
    # only fits grid-scale quadrature noise.  The floor must sit well below
    # the starting residuals, whatever the family scaling.
    stop_at = max(min(tolerance, 0.05 * obj), 1e-15)
    it_total = 0
    for wm in phase_widths:
        if obj <= stop_at:
            break
        G = (_smoothed_gradient_map(grid_points, wm, M) if wm is not None
             else 2.0 * M.T)
        for _ in range(max_iter // len(phase_widths)):
            it_total += 1
            d = G @ pos
            t = step * 8.0
            improved = False
            for _ in range(60):
                w_new = project_simplex(w - t * d)
                obj_new, pos_new = objective(w_new)
                if obj_new <= obj:
                    improved = True
                    break
                t *= 0.5
            if not improved:
                break
            gain = obj - obj_new
            w, obj, pos = w_new, obj_new, pos_new
            trace.append(obj)
            if gain < 1e-16 * max(obj, 1e-8):
                break
            if obj <= tolerance:
                break
    w = np.maximum(w, 0.0)
    w /= w.sum()
    measure = GridMeasure(grid_points, w, residuals=M @ w, objective=obj,
                          meta={"types": types, "iterations": it_total})
    feasible = obj <= tolerance
    return SolveResult(measure, obj, np.array(trace), it_total, feasible)


def residual_report(coef: CoefficientField, measure, holdout,
                    domain=None) -> dict:
    """Weak residuals of a measure against a holdout family."""
    entries = []
    for k, f in enumerate(holdout):
        wr = weak_residual(coef, f, measure, function_id=f"holdout-{k}")
        entries.append({"id": wr.function_id, "value": wr.value,
                        "error": wr.error})
    worst = max((e["value"] for e in entries), default=0.0)
    return {"entries": entries, "max_violation": worst}
