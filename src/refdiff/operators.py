"""The diffusion generator, its formal adjoint, and stationarity residuals.

Two complementary stationarity checks live here: the weak-form residual
sum_j w_j (L f)(x_j) of a candidate measure against admissible test
functions, and the basic adjoint relationship (interior PDE plus face and
edge boundary conditions) for candidate densities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import domain as dom
from .coefficients import CoefficientField, Density, central_diff1
from .errors import (
    ChartMissing,
    DivergentMass,
    MissingDerivatives,
    NotInH,
    OffEdge,
    OffFace,
    ZeroMass,
)
from .testfunctions import TestFunction, check_admissible


# ---------------------------------------------------------------------------
# Generator and adjoint
# ---------------------------------------------------------------------------

def apply_generator(coef: CoefficientField, f, x) -> float:
    """(L f)(x) = <b, grad f> + 1/2 trace(a hess f) at one point."""
    return float(apply_generator_batch(coef, f, x)[0])


def apply_generator_batch(coef: CoefficientField, f, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    G = f.gradient(X)
    H = f.hessian(X)
    if G.ndim == 1:
        G, H = G[None, :], H[None, :, :]
    return coef.generator(X, G, H)


def apply_adjoint(coef: CoefficientField, p: Density, x) -> float:
    """(L* p)(x) = 1/2 sum_ij d2(a_ij p) - sum_i d(b_i p)."""
    x = np.asarray(x, dtype=float)
    a = coef.a(x)
    da = coef.da(x)
    d2a = coef.d2a(x)
    b = coef.b(x)
    db = coef.db(x)
    pv = p(x)
    gp = p.gradient(x)
    Hp = p.hessian(x)
    # 1/2 sum_ij [ (d2_ij a_ij) p + 2 (d_i a_ij)(d_j p) + a_ij d2_ij p ]
    t1 = float(sum(d2a[i, j, i, j] for i in range(len(x)) for j in range(len(x))))
    t2 = float(sum(da[i, j, i] * gp[j] for i in range(len(x)) for j in range(len(x))))
    t3 = float(np.sum(a * Hp))
    adj_diff = 0.5 * (t1 * pv + 2.0 * t2 + t3)
    adj_drift = float(np.trace(db)) * pv + float(np.dot(b, gp))
    return adj_diff - adj_drift


def normal_diffusion_divergence(coef: CoefficientField, x, n) -> float:
    """<n, sum_j d a_(.j) / dx_j> at x (the face flux correction coefficient)."""
    da = coef.da(np.asarray(x, dtype=float))
    div_a = np.einsum("kjj->k", da)
    return float(np.dot(np.asarray(n, dtype=float), div_a))


# ---------------------------------------------------------------------------
# Basic adjoint relationship
# ---------------------------------------------------------------------------

def _on_face(domain, x, i, slack=10.0) -> bool:
    p = domain.pieces[i]
    return abs(p.value(np.asarray(x, dtype=float))) <= slack * domain.tol_at(x)


def face_residual(coef: CoefficientField, domain: dom.DomainSpec, p: Density,
                  x, i: int) -> float:
    """Face condition residual at a smooth boundary point of piece i:
    -2 p <n,b> + n' a grad p + p K_i - div(p [(n'an) gamma - a n])."""
    x = np.asarray(x, dtype=float)
    if not _on_face(domain, x, i):
        raise OffFace(f"{x} is not on piece {i}")
    piece = domain.pieces[i]
    n = piece.unit_normal(x)
    b = coef.b(x)
    a = coef.a(x)
    pv = p(x)
    gp = p.gradient(x)
    t1 = -2.0 * pv * float(np.dot(n, b))
    t2 = float(n @ a @ gp)
    t3 = pv * normal_diffusion_divergence(coef, x, n)

    analytic = (piece.constant_reflection
                and coef._da is not None and p.has_analytic_derivatives)
    if analytic:
        gam = piece.gamma(x)
        da = coef.da(x)
        vec = float(n @ a @ n) * gam - a @ n
        div = float(np.dot(gp, vec))
        div += pv * (float(np.einsum("ijk,i,j,k->", da, n, n, gam))
                     - float(np.einsum("kjk,j->", da, n)))
    else:
        def V(y):
            ny = piece.unit_normal(y)
            gy = piece.gamma(y)
            ay = coef.a(y)
            return p(y) * (float(ny @ ay @ ny) * gy - ay @ ny)

        div = np.trace(central_diff1(V, x))
    return t1 + t2 + t3 - div


def edge_residual(coef: CoefficientField, domain: dom.DomainSpec, p: Density,
                  x, i: int, j: int) -> float:
    """Edge condition residual at a point of faces i and j (off the singular set)."""
    x = np.asarray(x, dtype=float)
    if i == j or not (_on_face(domain, x, i) and _on_face(domain, x, j)):
        raise OffEdge(f"{x} is not on the ({i},{j}) edge")
    a = coef.a(x)
    pi_, pj_ = domain.pieces[i], domain.pieces[j]
    ni, nj = pi_.unit_normal(x), pj_.unit_normal(x)
    gi, gj = pi_.gamma(x), pj_.gamma(x)
    term_i = float(nj @ (float(ni @ a @ ni) * gi - a @ ni))
    term_j = float(ni @ (float(nj @ a @ nj) * gj - a @ nj))
    return p(x) * (term_i + term_j)


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


def _edge_points(domain: dom.DomainSpec, i: int, j: int, count: int = 12):
    """Sample points on the (i,j) edge stratum, excluding singular points."""
    rep = dom._stratum_representative(domain, {i, j})
    if rep is None:
        return []
    pts = [rep]
    pi_, pj_ = domain.pieces[i], domain.pieces[j]
    if pi_.kind == "half-space" and pj_.kind == "half-space":
        Nmat = np.stack([pi_.normal, pj_.normal])
        _, s, Vt = np.linalg.svd(Nmat)
        T = Vt[int(np.sum(s > 1e-10)):]
        if len(T):
            lo, hi = domain.bbox
            span = float(np.linalg.norm(hi - lo))
            for t in np.linspace(-span, span, count):
                for u in T:
                    y = rep + t * u
                    vals = domain.piece_values(y)
                    ok = all(abs(vals[k]) <= 1e-9 if k in (i, j) else vals[k] >= -1e-9
                             for k in range(len(vals)))
                    if ok:
                        pts.append(y)
    keep = []
    for y in pts:
        near_sing = any(np.linalg.norm(y - sp.x) <= 10 * domain.tol_at(y) + 1e-12
                        for sp in domain.singular_points)
        if not near_sing:
            keep.append(np.asarray(y, dtype=float))
    return keep


def verify_bar(coef: CoefficientField, domain: dom.DomainSpec, p: Density,
               interior_samples: int = 400, face_resolution: int = 64,
               seed: int = 0, tolerances: Optional[dict] = None) -> BarReport:
    """Evaluate the three stationarity conditions of a candidate density.

    Interior: sup |L* p| over domain samples.  Faces: sup of the face
    condition over per-piece quadrature points with a single active piece.
    Edges: sup of the edge condition over pairwise strata away from the
    singular set.  Also integrates p for the normalization report.
    """
    if tolerances is None:
        pts0 = dom.sample_closure(domain, 64, seed=seed + 3)
        scale = max(float(np.max(p.value_batch(pts0))), 1e-12)
        bscale = max(float(np.linalg.norm(coef.b(x))) for x in pts0)
        ascale = max(float(np.max(np.abs(coef.a(x)))) for x in pts0)
        analytic = coef._da is not None and p.has_analytic_derivatives
        base = 1e-6 if analytic else 1e-3 * scale * (1.0 + bscale + ascale)
        tolerances = {"interior": base, "face": base, "edge": base}

    X = dom.sample_closure(domain, interior_samples, seed=seed)
    interior = X[np.min(domain.piece_values(X), axis=1) > domain.tol_at(X)]
    r_int = max((abs(apply_adjoint(coef, p, x)) for x in interior), default=0.0)

    face_res = {}
    n_face = 0
    for i in range(len(domain.pieces)):
        try:
            pts, _ = dom.boundary_quadrature(domain, i, face_resolution)
        except ChartMissing:
            continue
        # smooth part of the boundary only: points whose sole active piece is i
        frame = dom.boundary_frame(domain, pts, rel_tol=1e-7)
        sole = [r for r, idx in frame.active_sets().items() if idx == (i,)]
        if sole:
            face_res[i] = max(abs(face_residual(coef, domain, p, pts[r], i))
                              for r in sole)
            n_face += len(sole)

    edge_res = {}
    n_edge = 0
    for i, j in itertools.combinations(range(len(domain.pieces)), 2):
        if domain.pieces[i].kind != "half-space" or domain.pieces[j].kind != "half-space":
            continue
        pts = _edge_points(domain, i, j)
        worst = None
        for x in pts:
            try:
                worst = max(worst or 0.0, abs(edge_residual(coef, domain, p, x, i, j)))
                n_edge += 1
            except OffEdge:
                continue
        if worst is not None:
            edge_res[(i, j)] = worst

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
    J = domain.dimension
    axes = [l + (np.arange(resolution) + 0.5) * (h - l) / resolution
            for l, h in zip(lo2, hi2)]
    cell = float(np.prod([(h - l) / resolution for l, h in zip(lo2, hi2)]))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    inside = np.all(domain.piece_values_batch(pts) >= 0.0, axis=1)
    if not inside.any():
        return 0.0
    return float(np.sum(p.value_batch(pts[inside]))) * cell


def integrate_density(p: Density, domain: dom.DomainSpec,
                      resolution: Optional[int] = None):
    """Integrate p over the domain; returns (mass, converged flag).

    Bounded domains use one box; unbounded domains use expanding boxes and
    demand a decaying increment.
    """
    if resolution is None:
        resolution = {1: 4096, 2: 256, 3: 64}.get(domain.dimension, 24)
    if domain.bounded:
        return _box_quadrature(p, domain, 1.0, resolution), True
    m1 = _box_quadrature(p, domain, 1.0, resolution)
    m2 = _box_quadrature(p, domain, 2.0, resolution)
    m4 = _box_quadrature(p, domain, 4.0, resolution)
    r1, r2 = m2 - m1, m4 - m2
    converged = r2 <= 0.5 * abs(r1) + 1e-9 * max(m4, 1.0)
    return m4, converged


def normalize_density(p: Density, domain: dom.DomainSpec,
                      resolution: Optional[int] = None):
    """Scale a density to unit mass; returns (normalized density, mass)."""
    mass, converged = integrate_density(p, domain, resolution)
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
                  check_membership: bool = False, domain=None,
                  function_id: str = "") -> WeakResidual:
    """sum_j w_j (L f)(x_j) for a discrete measure, with an error estimate.

    The candidate f must have its negation in the admissible class; with
    check_membership the claim is verified by sampling and a failure raises.
    Empirical measures get a CLT standard error; grid measures that carry a
    fine twin get a two-resolution quadrature estimate plus tail bound.
    """
    if check_membership:
        if domain is None:
            raise ValueError("membership check needs the domain")
        rep = check_admissible(-f, domain, tol=1e-8)
        if not rep.passed:
            raise NotInH(f"negated function fails admissibility: {rep}")
    elif not f.claims_negated_in_class:
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
