"""The diffusion generator, its formal adjoint, and stationarity residuals.

Two complementary stationarity checks live here: the weak-form residual
sum_j w_j (L f)(x_j) of a candidate measure against admissible test
functions, and the basic adjoint relationship (interior PDE plus face and
edge boundary conditions) for candidate densities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import domain as dom
from .coefficients import CoefficientField, Density, central_diff1
from .errors import (
    ChartMissing,
    DivergentMass,
    NotInH,
    OffEdge,
    OffFace,
    ZeroMass,
)
from .testfunctions import TestFunction


# ---------------------------------------------------------------------------
# Generator and adjoint
# ---------------------------------------------------------------------------

def apply_generator(coef: CoefficientField, f, x) -> float:
    """(L f)(x) = <b, grad f> + 1/2 trace(a hess f) at one point."""
    return float(apply_generator_batch(coef, f, x)[0])


def apply_generator_batch(coef: CoefficientField, f, X) -> np.ndarray:
    """(L f) at the rows of X.  The jet and the generator run only on the
    rows where f may move (f.moving_rows); every other row lies where f is
    locally constant and is +0.0, whatever the coefficients are there."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rows = f.moving_rows(X)
    out = np.zeros(len(X))
    if len(rows):
        Xm = X[rows]
        _, G, H = f.jet(Xm)
        out[rows] = coef.generator(Xm, G, H)
    return out


def apply_adjoint(coef: CoefficientField, p: Density, x):
    """(L* p)(x) = 1/2 sum_ij d2(a_ij p) - sum_i d(b_i p): a float at a
    point, an (n,) array on a batch."""
    X, single = dom.as_batch(x)
    out = coef.adjoint(X, p(X), p.gradient(X), p.hessian(X))
    return float(out[0]) if single else out


def normal_diffusion_divergence(coef: CoefficientField, x, n):
    """<n, sum_j d a_(.j) / dx_j> at x (the face flux correction coefficient):
    a float at a point, an (n,) array on a batch (with one normal per row)."""
    X, single = dom.as_batch(x)
    div_a = np.einsum("nkjj->nk", coef.da(X))
    out = dom.row_dot(np.asarray(n, dtype=float), div_a)
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Basic adjoint relationship
# ---------------------------------------------------------------------------

def _on_face(domain, X, i) -> np.ndarray:
    """Rows of the (n, J) batch X that lie on piece i, to 10 times the
    domain's tolerance."""
    return np.abs(domain.pieces[i].value(X)) <= 10.0 * domain.tol_at(X)


def _vec_mat(v, M):
    """Row k is v[k] @ M[k], rounded as the point product rounds it."""
    return (v[:, None, :] @ M)[:, 0]


def _oblique_flux(a, n, gam):
    """Rows of (n' a n) gamma - a n."""
    return dom.row_dot(_vec_mat(n, a), n)[:, None] * gam - (a @ n[:, :, None])[:, :, 0]


def face_residual(coef: CoefficientField, domain: dom.DomainSpec, p: Density,
                  x, i: int):
    """Face condition residual at smooth boundary points of piece i:
    -2 p <n,b> + n' a grad p + p K_i - div(p [(n'an) gamma - a n]).
    A float at a point, an (n,) array on a batch; a row off the piece
    raises OffFace."""
    X, single = dom.as_batch(x)
    off = ~_on_face(domain, X, i)
    if off.any():
        raise OffFace(f"{X[np.argmax(off)]} is not on piece {i}")
    piece = domain.pieces[i]
    n = piece.unit_normal(X)
    a = coef.a(X)
    pv = p(X)
    gp = p.gradient(X)
    t1 = -2.0 * pv * dom.row_dot(n, coef.b(X))
    t2 = dom.row_dot(_vec_mat(n, a), gp)
    t3 = pv * normal_diffusion_divergence(coef, X, n)

    if (piece.constant_reflection and coef.has_analytic_derivatives
            and p.has_analytic_derivatives):
        gam = piece.gamma(X)
        da = coef.da(X)
        div = dom.row_dot(gp, _oblique_flux(a, n, gam))
        div += pv * (np.einsum("nijk,ni,nj,nk->n", da, n, n, gam)
                     - np.einsum("nkjk,nj->n", da, n))
    else:
        def V(Y):
            return p(Y)[:, None] * _oblique_flux(coef.a(Y), piece.unit_normal(Y),
                                                 piece.gamma(Y))

        div = np.trace(central_diff1(V, X), axis1=1, axis2=2)
    out = t1 + t2 + t3 - div
    return float(out[0]) if single else out


def edge_residual(coef: CoefficientField, domain: dom.DomainSpec, p: Density,
                  x, i: int, j: int):
    """Edge condition residual at points of faces i and j (off the singular
    set): a float at a point, an (n,) array on a batch; a row off the edge
    raises OffEdge."""
    X, single = dom.as_batch(x)
    off = ~(_on_face(domain, X, i) & _on_face(domain, X, j))
    if i == j or off.any():
        raise OffEdge(f"{X[np.argmax(off)]} is not on the ({i},{j}) edge")
    a = coef.a(X)
    pi_, pj_ = domain.pieces[i], domain.pieces[j]
    ni, nj = pi_.unit_normal(X), pj_.unit_normal(X)
    term_i = dom.row_dot(nj, _oblique_flux(a, ni, pi_.gamma(X)))
    term_j = dom.row_dot(ni, _oblique_flux(a, nj, pj_.gamma(X)))
    out = p(X) * (term_i + term_j)
    return float(out[0]) if single else out


@dataclass
class BarReport:
    """Residual summary of the interior / face / edge stationarity conditions."""

    interior_residual: float
    face_residuals: dict
    edge_residuals: dict
    mass: float
    counts: dict
    tolerances: dict
    verdicts: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.verdicts:
            worst_face = max(self.face_residuals.values(), default=0.0)
            worst_edge = max(self.edge_residuals.values(), default=0.0)
            # residuals may be numpy floats; store plain bools so the JSON
            # artifact reads true/false
            self.verdicts = {
                "interior": bool(self.interior_residual <= self.tolerances["interior"]),
                "faces": bool(worst_face <= self.tolerances["face"]),
                "edges": bool(worst_edge <= self.tolerances["edge"]),
            }

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_json(self) -> dict:
        return {
            "interior_residual": self.interior_residual,
            "face_residuals": {str(k): v for k, v in self.face_residuals.items()},
            "edge_residuals": {str(k): v for k, v in self.edge_residuals.items()},
            "mass": self.mass,
            "counts": self.counts,
            "tolerances": self.tolerances,
            "verdicts": self.verdicts,
            "passed": self.passed,
        }


def _edge_points(domain: dom.DomainSpec, i: int, j: int):
    """(n, J) sample of the edge stratum of half-spaces i and j: its
    representative and 12 points per tangent direction along the edge, away
    from singular points."""
    rep = domain.strata.get((i, j))
    if rep is None:
        return np.empty((0, domain.dimension))
    _, s, Vt = np.linalg.svd(np.stack([domain.pieces[i].normal, domain.pieces[j].normal]))
    T = Vt[int(np.sum(s > 1e-10)):]
    lo, hi = domain.bbox
    span = float(np.linalg.norm(hi - lo))
    Y = (rep + np.linspace(-span, span, 12)[:, None, None] * T).reshape(-1, len(rep))
    pts = np.vstack([rep, Y[domain.on_stratum(Y, (i, j), 1e-9)]])
    near = np.zeros(len(pts), dtype=bool)
    for sp in domain.singular_points:
        d = pts - sp.x
        near |= np.sqrt(dom.row_dot(d, d)) <= 10 * domain.tol_at(pts) + 1e-12
    return pts[~near]


def verify_bar(coef: CoefficientField, domain: dom.DomainSpec, p: Density,
               interior_samples: int = 400, face_resolution: int = 64,
               seed: int = 0) -> BarReport:
    """Evaluate the three stationarity conditions of a candidate density.

    Interior: sup |L* p| over domain samples.  Faces: sup of the face
    condition over per-piece quadrature points with a single active piece.
    Edges: sup of the edge condition over pairwise strata away from the
    singular set.  Also integrates p for the normalization report.
    """
    pts0 = dom.sample_closure(domain, 64, seed=seed + 3)
    scale = max(float(np.max(p.value_batch(pts0))), 1e-12)
    b0 = coef.b(pts0)
    bscale = float(np.max(np.sqrt(dom.row_dot(b0, b0))))
    ascale = float(np.max(np.abs(coef.a(pts0))))
    analytic = coef.has_analytic_derivatives and p.has_analytic_derivatives
    base = 1e-6 if analytic else 1e-3 * scale * (1.0 + bscale + ascale)
    tolerances = {"interior": base, "face": base, "edge": base}

    X = dom.sample_closure(domain, interior_samples, seed=seed)
    interior = X[np.min(domain.piece_values(X), axis=1) > domain.tol_at(X)]
    r_int = (float(np.max(np.abs(apply_adjoint(coef, p, interior))))
             if len(interior) else 0.0)

    face_res = {}
    n_face = 0
    for i in range(len(domain.pieces)):
        try:
            pts, _ = dom.boundary_quadrature(domain, i, face_resolution)
        except ChartMissing:
            continue
        # smooth part of the boundary only: points whose sole active piece is i
        frame = dom.boundary_frame(domain, pts, rel_tol=1e-7)
        sole = np.bincount(frame.row, minlength=len(pts)) == 1
        sole[frame.row[frame.piece != i]] = False
        sole = pts[sole]
        if len(sole):
            face_res[i] = float(np.max(np.abs(face_residual(coef, domain, p, sole, i))))
            n_face += len(sole)

    edge_res = {}
    n_edge = 0
    for i, j in itertools.combinations(range(len(domain.pieces)), 2):
        if domain.pieces[i].kind != "half-space" or domain.pieces[j].kind != "half-space":
            continue
        pts = _edge_points(domain, i, j)
        on = pts[_on_face(domain, pts, i) & _on_face(domain, pts, j)]
        if len(on):
            edge_res[(i, j)] = float(np.max(np.abs(edge_residual(coef, domain, p,
                                                                 on, i, j))))
            n_edge += len(on)

    mass, _ = integrate_density(p, domain)
    return BarReport(r_int, face_res, edge_res, mass,
                     {"interior": len(interior), "face": n_face, "edge": n_edge},
                     tolerances)


# ---------------------------------------------------------------------------
# Density normalization
# ---------------------------------------------------------------------------

def _box_quadrature(p: Density, domain: dom.DomainSpec, scale: float,
                    resolution: int) -> float:
    lo, hi = domain.bbox
    ctr = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * scale
    lo2, hi2 = ctr - half, ctr + half
    pts, widths = dom.cell_centers(lo2, hi2, resolution)
    cell = float(np.prod(widths))
    inside = np.all(domain.piece_values(pts) >= 0.0, axis=1)
    if not inside.any():
        return 0.0
    return float(np.sum(p.value_batch(pts[inside]))) * cell


def integrate_density(p: Density, domain: dom.DomainSpec):
    """Integrate p over the domain; returns (mass, converged flag).

    Cell-centre quadrature with 4096, 256, 64 or 24 cells per axis in
    dimension 1, 2, 3 or more.  Bounded domains use one box; unbounded
    domains use expanding boxes and demand a decaying increment.
    """
    resolution = {1: 4096, 2: 256, 3: 64}.get(domain.dimension, 24)
    if domain.bounded:
        return _box_quadrature(p, domain, 1.0, resolution), True
    m1 = _box_quadrature(p, domain, 1.0, resolution)
    m2 = _box_quadrature(p, domain, 2.0, resolution)
    m4 = _box_quadrature(p, domain, 4.0, resolution)
    r1, r2 = m2 - m1, m4 - m2
    converged = r2 <= 0.5 * abs(r1) + 1e-9 * max(m4, 1.0)
    return m4, converged


def normalize_density(p: Density, domain: dom.DomainSpec):
    """Scale a density to unit mass; returns (normalized density, mass)."""
    mass, converged = integrate_density(p, domain)
    if not converged:
        raise DivergentMass(f"density mass does not stabilize (last {mass:.3g})")
    if mass <= 1e-300 or not np.isfinite(mass):
        raise ZeroMass(f"density mass {mass:.3g}")
    return p.rescaled(1.0 / mass), mass


# ---------------------------------------------------------------------------
# Weak-form residual
# ---------------------------------------------------------------------------

@dataclass
class WeakResidual:
    value: float
    error: float
    function_id: str = ""

    @property
    def violates(self) -> bool:
        return self.value > 3.0 * self.error


def weak_residual(coef: CoefficientField, f: TestFunction, pi,
                  function_id: str = "") -> WeakResidual:
    """sum_j w_j (L f)(x_j) for a discrete measure, with an error estimate.

    The candidate f must claim that its negation is in the admissible class.
    Empirical measures get a CLT standard error; grid measures that carry a
    fine twin get a two-resolution quadrature estimate plus tail bound.
    """
    if not f.claims_negated_in_class:
        raise NotInH("function does not claim negated class membership")

    pts = np.atleast_2d(pi.points)
    w = np.asarray(pi.weights, dtype=float)
    vals = apply_generator_batch(coef, f, pts)
    value = float(np.dot(w, vals))

    kind = getattr(pi, "error_kind", "grid")
    if kind == "empirical":
        mean = value / max(w.sum(), 1e-300)
        var = float(np.dot(w, (vals - mean) ** 2))
        n_eff = 1.0 / max(float(np.sum(w ** 2)), 1e-300)
        err = float(np.sqrt(max(var, 0.0) / n_eff))
    else:
        err = 0.0
        fine = pi.fine
        if fine is not None:
            vals_f = apply_generator_batch(coef, f, fine.points)
            # Richardson: for an O(h^2) rule the true error of the coarse sum
            # is 4/3 of the two-resolution gap; keep a ~2x safety margin for
            # non-asymptotic resolutions
            err += 2.5 * abs(value - float(np.dot(np.asarray(fine.weights),
                                                  vals_f)))
        tail = float(pi.tail_mass)
        err += tail * float(np.max(np.abs(vals), initial=0.0))
        err += 1e-8 * (1.0 + float(np.max(np.abs(vals), initial=0.0)))
    return WeakResidual(value, err, function_id)
