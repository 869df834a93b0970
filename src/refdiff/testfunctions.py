"""Admissible test functions: bumps, ramps, and assembled separation families.

The admissible class consists of C^2 functions that are compactly supported
up to a constant, constant near every declared singular point, and whose
gradient makes a nonpositive inner product with every reflection direction on
the boundary.  Functions here are built so that the sign condition holds
structurally (products of a one-sided cutoff slope and a certified-positive
inner product), not just numerically.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import domain as dom
from .coefficients import _diff1
from .cones import MollifiedConeDistance, PolyCone, fattened_generators
from .errors import (
    BadParameters,
    ChartMissing,
    NotInU,
    QPFailure,
    RadiusTooLarge,
    SamplingFailure,
    TooClose,
    UnboundedUnsupported,
)
from .profiles import RampProfile, cutoff, rising_cutoff, zeta_for_band


def _sup_abs_d1_d2(prof, grid):
    return float(np.max(np.abs(prof.d1(grid)))), float(np.max(np.abs(prof.d2(grid))))


# The interior and singular bumps' cutoffs and their sup |d1|, |d2| on grids
# that cover each transition, computed once for every bump's bound_triple.
_XI = cutoff(0.5, 1.0)
_XI_SUP = _sup_abs_d1_d2(_XI, np.linspace(0.4, 1.1, 201))
_ZETA = rising_cutoff(0.5, 1.0)
_ZETA_SUP = _sup_abs_d1_d2(_ZETA, np.linspace(-0.1, 2.2, 301))


def _nowhere_flat(Y):
    return np.zeros(len(Y), dtype=bool)


class TestFunction:
    """C^2 function with value/gradient/Hessian access and class metadata.

    It holds one batch callable, its jet: jet(Y) -> (value (n,), gradient
    (n, J), Hessian (n, J, J)) from one pass; every value is the jet's first
    part.  The constructor composes three separate callables value,
    gradient, hessian (a user's function) into the jet; from_jet takes the
    jet itself and, from a library constructor, its flat predicate: flat(Y)
    marks the rows that lie on a constant piece of the function's profile,
    by the comparison that picks the piece, where the jet is exactly
    (constant, 0, 0).  A function without one is flat nowhere.
    """

    __test__ = False          # not a pytest collection target

    def __init__(self, dim, value, gradient, hessian, center=None,
                 support_radius=np.inf, constant_outside=0.0,
                 claims_in_class=False, claims_negated_in_class=False,
                 bound_triple=None, info=None):
        self.dim = dim
        self._jet = lambda Y: (value(Y), gradient(Y), hessian(Y))
        self._flat = _nowhere_flat
        self.center = None if center is None else np.asarray(center, dtype=float)
        self.support_radius = float(support_radius)
        self.constant_outside = float(constant_outside)
        self.claims_in_class = claims_in_class
        self.claims_negated_in_class = claims_negated_in_class
        self.bound_triple = bound_triple
        self.info = info or {}

    @classmethod
    def from_jet(cls, dim, jet, flat=_nowhere_flat, **meta) -> "TestFunction":
        out = cls(dim, None, None, None, **meta)
        out._jet = jet
        out._flat = flat
        return out

    def moving_rows(self, Y):
        """Indices of the rows of the (n, J) batch Y where f may move: all
        but the finite rows that its flat predicate puts on a constant
        piece.  A NaN or infinite row always moves."""
        still = self._flat(Y)
        for y in Y.T:
            still &= np.isfinite(y)
        return np.flatnonzero(~still)

    def _value(self, Y):
        return self._jet(Y)[0]

    def value(self, y):
        Y, single = dom.as_batch(y, self.dim)
        out = self._value(Y)
        return float(out[0]) if single else out

    __call__ = value

    def jet(self, y):
        """(value, gradient, Hessian) from one pass, at a point or a batch."""
        Y, single = dom.as_batch(y, self.dim)
        v, G, H = self._jet(Y)
        return (float(v[0]), G[0], H[0]) if single else (v, G, H)

    def gradient(self, y):
        return self.jet(y)[1]

    def hessian(self, y):
        return self.jet(y)[2]

    def scaled(self, c: float) -> "TestFunction":
        c = float(c)

        def jet(Y):
            v, G, H = self._jet(Y)
            return c * v, c * G, c * H

        return TestFunction.from_jet(
            self.dim, jet, flat=self._flat,
            center=self.center, support_radius=self.support_radius,
            constant_outside=c * self.constant_outside,
            claims_in_class=(self.claims_in_class if c >= 0 else self.claims_negated_in_class),
            claims_negated_in_class=(self.claims_negated_in_class if c >= 0 else self.claims_in_class),
            info=dict(self.info, scaled=c))

    def __neg__(self):
        return self.scaled(-1.0)

    def check_derivatives(self, probes):
        """Central-difference consistency of gradient and Hessian at probe
        points, with steps 1e-6 (1 + |x|) and 1e-5 (1 + |x|), to relative
        tolerances 1e-5 and 1e-4."""
        P = np.atleast_2d(np.asarray(probes, dtype=float))
        _, G, H = self._jet(P)
        H_fd = _diff1(lambda X: self._jet(X)[1], P, 1e-5)
        worst_g = _relative_gap(G, _diff1(self._value, P, 1e-6))
        worst_h = _relative_gap(H, 0.5 * (H_fd + np.swapaxes(H_fd, 1, 2)))
        return {"grad_err": worst_g, "hess_err": worst_h,
                "grad_ok": worst_g <= 1e-5, "hess_ok": worst_h <= 1e-4}


def _relative_gap(A, B) -> float:
    """max over rows of max |A - B| / (1 + max |A|)."""
    axes = tuple(range(1, A.ndim))
    return float(np.max(np.max(np.abs(A - B), axis=axes) / (1.0 + np.max(np.abs(A), axis=axes))))


def combine(funcs: Sequence[TestFunction], coeffs=None) -> TestFunction:
    """Finite linear combination of test functions."""
    funcs = list(funcs)
    if not funcs:
        raise ValueError("empty combination")
    if coeffs is None:
        coeffs = np.ones(len(funcs))
    coeffs = np.asarray(coeffs, dtype=float)
    J = funcs[0].dim

    def jet(Y):
        v, G, H = np.zeros(len(Y)), np.zeros_like(Y), np.zeros((len(Y), J, J))
        for c, f in zip(coeffs, funcs):
            fv, fG, fH = f._jet(Y)
            v += c * fv
            G += c * fG
            H += c * fH
        return v, G, H

    def flat(Y):
        return np.logical_and.reduce([f._flat(Y) for f in funcs])

    centers = [f.center for f in funcs if f.center is not None]
    if centers and all(np.isfinite(f.support_radius) for f in funcs):
        center = np.mean(centers, axis=0)
        rad = max(float(np.linalg.norm(f.center - center)) + f.support_radius
                  for f in funcs if f.center is not None)
    else:
        center, rad = None, np.inf
    pos = bool(np.all(coeffs >= 0))
    neg = bool(np.all(coeffs <= 0))
    return TestFunction.from_jet(
        J, jet, flat=flat, center=center, support_radius=rad,
        constant_outside=float(np.dot(coeffs, [f.constant_outside for f in funcs])),
        claims_in_class=pos and all(f.claims_in_class for f in funcs),
        claims_negated_in_class=(neg and all(f.claims_in_class for f in funcs))
        or (pos and all(f.claims_negated_in_class for f in funcs)),
        info={"kind": "combination", "n": len(funcs)})


# ---------------------------------------------------------------------------
# Interior bumps
# ---------------------------------------------------------------------------

def interior_bump(domain: dom.DomainSpec, x, r: float) -> TestFunction:
    """Radial bump xi(|y-x|^2 / r): one on the half-radius ball, zero outside
    the radius-sqrt(r) ball, which must fit strictly inside the domain."""
    x = np.asarray(x, dtype=float)
    d = dom.distance_to_boundary(domain, x)
    if math.sqrt(r) >= d:
        raise TooClose(f"sqrt(r)={math.sqrt(r):.3g} reaches the boundary (dist {d:.3g})")
    return _radial_bump(domain.dimension, x, r)


def _radial_bump(J: int, x, r: float) -> TestFunction:
    """interior_bump's function, for a caller that knows the ball fits."""
    x = np.asarray(x, dtype=float)
    c2, c4 = 2.0 / r, 4.0 / r ** 2

    def jet(Y):
        return _radial_jet(Y - x, r, c2, c4)

    def flat(Y):
        return _XI.constant_at(_radial_arg(Y - x, r))

    rho, bounds = _radial_constants(J, np.array([r]))
    return TestFunction.from_jet(
        J, jet, flat=flat, center=x, support_radius=rho[0],
        constant_outside=0.0, claims_in_class=True, claims_negated_in_class=True,
        bound_triple=tuple(bounds[0].tolist()), info={"kind": "interior", "r": r})


def _radial_jet(D, r, c2, c4):
    """Jet of xi(|D|^2 / r) at the offsets D, given c2 = 2 / r and c4 = 4 /
    r^2: scalars for one bump, or one entry per row of D."""
    z = _radial_arg(D, r)
    d1 = _XI.d1(z)
    c2, c4 = np.reshape(c2, (-1, 1)), np.reshape(c4, (-1, 1, 1))
    t1 = d1[:, None, None] * c2[:, :, None] * np.eye(D.shape[1])[None, :, :]
    t2 = _XI.d2(z)[:, None, None] * c4 * np.einsum("ni,nj->nij", D, D)
    return _XI.value(z), d1[:, None] * c2 * D, t1 + t2


def _radial_arg(D, r):
    """xi's argument |D|^2 / r of the radial bump, per row of the offsets D."""
    return np.einsum("ij,ij->i", D, D) / r


def _radial_constants(J: int, r):
    """Support radii sqrt(r) (n,) and bound triples (n, 3) of the radial
    bumps xi(|y - x|^2 / r) in dimension J, one per entry of the array r."""
    rho = np.sqrt(r)
    sup_d1, sup_d2 = _XI_SUP
    # |grad| <= 2 ||xi'|| / rho and sum |d2| <= (4 J^2 ||xi''|| + 2 J ||xi'||) / rho^2
    return rho, np.column_stack([np.ones_like(rho), 2.0 * sup_d1 / rho,
                                 (4.0 * J * J * sup_d2 + 2.0 * J * sup_d1) / _pow2(rho)])


def _pow2(a):
    """a ** 2 per entry, rounded as C's pow(a, 2) rounds it, as Python's
    float ** 2 does (numpy's square rounds about one entry in 1000
    differently)."""
    return np.fromiter(map(math.pow, a.tolist(), itertools.repeat(2.0)), float, len(a))


# ---------------------------------------------------------------------------
# Singular-point bumps and ramps
# ---------------------------------------------------------------------------

def singular_bump(domain: dom.DomainSpec, sp: dom.SingularPoint, r: float) -> TestFunction:
    """Half-space plateau bump at a singular point.

    Along h(y) = <v, y - x> the bump equals one for h <= r (1 - kappa/2) and
    vanishes for h >= r (1 - kappa/4), with kappa = 1 - c1 the exact
    half-space value of the separation constant.  On the closed domain its
    support lies in the c2 r ball and it equals one on the c1 r ball.
    """
    if not 0.0 < r < sp.radius / sp.c2:
        raise RadiusTooLarge(f"need r in (0, {sp.radius / sp.c2:.3g}), got {r}")
    # a smaller inner-ball certificate always remains valid; borderline
    # c1 = 1 declarations are shrunk so the separation constant stays positive
    c1 = min(sp.c1, 0.75)
    kappa = 1.0 - c1
    zeta = _ZETA
    J = domain.dimension
    x, v = sp.x, sp.v
    scale = 2.0 / (kappa * r)

    def _arg(Y):
        t = (r - dom.row_dot(Y - x, v)) / r
        return (2.0 / kappa) * np.maximum(0.0, t)

    vv = np.einsum("i,j->ij", v, v)

    def jet(Y):
        t = _arg(Y)
        s1 = zeta.d1(t) * scale
        s2 = zeta.d2(t) * scale ** 2
        return zeta.value(t), -s1[:, None] * v[None, :], s2[:, None, None] * vv[None, :, :]

    sup_d1, sup_d2 = _ZETA_SUP
    A = max(1.0, 2.0 * sup_d1 / kappa,
            4.0 * sup_d2 / kappa ** 2 * float(np.sum(np.abs(v)) ** 2))
    return TestFunction.from_jet(
        J, jet, center=x, support_radius=sp.c2 * r,
        constant_outside=0.0, claims_in_class=True, claims_negated_in_class=False,
        bound_triple=(A, A / r, A / r ** 2),
        info={"kind": "singular", "r": r, "kappa": kappa,
              "plateau_radius": c1 * r, "support_in_domain_only": True})


def singular_ramp(domain: dom.DomainSpec, sp: dom.SingularPoint, delta: float,
                  eps: float, coefficients=None):
    """Monotone ramp l(h(y)) in the certificate direction of a singular point.

    Zero near the point, constant far away, with the negated function in the
    admissible class.  Returns (TestFunction, report dict); the report carries
    the certified sup / gradient / band-curvature constants.
    """
    others = [np.linalg.norm(q.x - sp.x) for q in domain.singular_points
              if q is not sp and np.linalg.norm(q.x - sp.x) > 0]
    eps0 = min([sp.radius] + [0.5 * d for d in others])
    if not np.isfinite(eps0):
        lo, hi = domain.bbox
        eps0 = float(np.linalg.norm(hi - lo))
    if 2.0 * (eps + math.sqrt(eps)) >= sp.alpha * eps0:
        raise BadParameters(
            f"eps too large: need 2(eps + sqrt(eps)) < alpha * eps0 = {sp.alpha * eps0:.3g}")
    ramp = RampProfile(delta, eps)
    J = domain.dimension
    x, v = sp.x, sp.v
    vv = np.einsum("i,j->ij", v, v)

    def jet(Y):
        h = dom.row_dot(Y - x, v)
        return (ramp.value(h), ramp.d1(h)[:, None] * v[None, :],
                ramp.d2(h)[:, None, None] * vv[None, :, :])

    f = TestFunction.from_jet(
        J, jet, center=x,
        support_radius=(eps + math.sqrt(eps)) / sp.alpha,
        constant_outside=ramp.plateau, claims_in_class=False,
        claims_negated_in_class=True,
        info={"kind": "singular-ramp", "delta": delta, "eps": eps,
              "plateau": ramp.plateau, "kappa": ramp.kappa})
    sgrid = np.linspace(-0.05, 2.5 * (eps + math.sqrt(eps)), 4001)
    report = {
        "sup_value": float(np.max(ramp.value(sgrid))),
        "sup_gradient": float(np.max(np.abs(ramp.d1(sgrid)))),
        "sup_bound": 5.0 * eps,
        "grad_bound": 2.0 * math.sqrt(eps),
        "band": (delta + 2.0 * math.sqrt(delta), eps / 2.0),
        "band_curvature_min": float(np.min(ramp.d2(
            np.linspace(delta + 2.0 * math.sqrt(delta), eps / 2.0, 1001)))),
    }
    if coefficients is not None:
        pts = dom.sample_closure(domain, 200, seed=7, center=x,
                                 radius=min(sp.radius, eps0))
        report["ellipticity_min"] = float(np.min(dom.row_dot(v @ coefficients.a(pts), v)))
    return f, report


# ---------------------------------------------------------------------------
# Boundary bumps
# ---------------------------------------------------------------------------

class StratumModel:
    """Geometry shared by all boundary bumps on one boundary stratum.

    Builds the separation certificate for the reflection hull, the fattened
    reflected cone, the mollified distance field on its band, and the scale
    constants of the bump construction.  For polyhedral domains with constant
    reflection all of this depends on the stratum only, so models are cached.
    """

    def __init__(self, domain: dom.DomainSpec, x):
        x = np.asarray(x, dtype=float)
        self.domain = domain
        self.idx = tuple(dom.active_set(domain, x))
        self.normals, self.gammas = dom.face_vectors(domain, self.idx, x)
        J = domain.dimension

        ok, weights, margin = dom.positive_normal_lp(self.normals, self.gammas, x)
        if not ok:
            raise NotInU(f"no positive normal certificate at {x} (margin {margin:.2e})")
        # the separation of the reflected hull conv(-gamma_j) from the domain
        # cone, -max over that hull of min_i <n_i, d>, is the value of the
        # matrix game N Gamma^T seen by the other player: by LP duality it
        # equals the certificate's margin
        self.separation = margin

        self.delta = min(self.separation / 2.0, 0.3)
        gens = fattened_generators(-self.gammas, self.delta)
        self.margin = self.delta / math.sqrt(J)
        self.beta = self.separation / (4.0 * float(np.max(np.linalg.norm(gens, axis=1))))
        self.cone = PolyCone(gens)

        # inward unit direction q with -q pointing into the domain: the
        # completely-S weights applied to the reflection vectors
        d_in = weights @ self.gammas
        self.q = -d_in / np.linalg.norm(d_in)
        self._q_norm = float(np.linalg.norm(d_in))

        # opening between the local domain cone and the reflected cone
        mu = self._domain_cone_gap()
        if mu <= 0:
            raise QPFailure(f"reflected cone touches the domain cone at {x}")
        self.R = 0.5
        lam = min(0.9 * mu / 3.0, 0.25, 0.9 * self._q_norm)
        for _ in range(60):
            self.lam = lam
            self.eta = lam / 2.0
            self.eps_mol = lam / 12.0
            self.mol = MollifiedConeDistance(self.cone, self.eta, 2.5 * lam,
                                             self.eps_mol)
            self.theta = self._gradient_margin()
            if self.theta is not None and self.theta > 0.25 * self.margin:
                break
            lam *= 0.5
        else:
            raise QPFailure(f"could not certify gradient margin at {x}")
        self.zeta = zeta_for_band(self.lam)
        self.anchor = self.lam * (self.R / 2.0) * self.q

    def _domain_cone_gap(self) -> float:
        W = _unit_rows(np.random.default_rng(20240517), 4096, self.domain.dimension)
        feas = np.all(W @ self.normals.T >= 0.0, axis=1)
        cand = [W[feas]] if feas.any() else []
        # structured directions: normals, gammas, and their positive sums
        extra = [self.normals.sum(axis=0), *self.normals, *self.gammas]
        E = np.array([e / np.linalg.norm(e) for e in extra
                      if np.linalg.norm(e) > 0 and np.all(self.normals @ e >= -1e-12)])
        if len(E):
            cand.append(E)
        if not cand:
            raise SamplingFailure("no directions inside the local domain cone")
        W = np.vstack(cand)
        return float(np.min(self.cone.distance(W)))

    def _gradient_margin(self) -> Optional[float]:
        """min of <grad l, gamma_j> over 600 seeded probes in the mollifier's
        band, or None when fewer than 20 probes fall in the band."""
        rng = np.random.default_rng(99)
        Z = _unit_rows(rng, 600, self.domain.dimension) * rng.uniform(0.2, 2.5, size=(600, 1))
        band = self.mol.band_mask(Z)
        if band.sum() < 20:
            return None
        return float(np.min(self.mol.jet(Z[band])[1] @ self.gammas.T))

    def r_cap(self, x):
        """Largest admissible bump radius at a stratum point (a float), or
        at each row of a batch (an (n,) array): 0.99 times the distance to
        the nearest inactive piece or singular point, each distance rounded
        as at the point alone."""
        X, single = dom.as_batch(x, self.domain.dimension)
        cap = np.full(len(X), np.inf)
        for i, p in enumerate(self.domain.pieces):
            if i in self.idx:
                continue
            if p.kind == "half-space":
                cap = np.minimum(cap, np.abs(p.value(X)))
            else:
                D = dom.project_to_piece(self.domain, i, X) - X
                cap = np.minimum(cap, np.sqrt(dom.row_dot(D, D)))
        for sp in self.domain.singular_points:
            D = sp.x - X
            cap = np.minimum(cap, np.sqrt(dom.row_dot(D, D)))
        cap = 0.99 * cap
        return float(cap[0]) if single else cap

    @functools.cached_property
    def bump_constants(self):
        """Scale-invariant plateau radius and bound triple of a unit bump.

        The bump at radius r is a function of (y - x)/r alone, so the plateau
        fraction and the (sup, sup r, sup r^2) bounds are shared by the whole
        stratum: they are read off the unit bump (x = 0, r = 1), whose
        support holds every one of the 300 ball samples.
        """
        J = self.domain.dimension
        dirs = _unit_rows(np.random.default_rng(3), 40, J)
        top = self.zeta.breaks[0]          # 5 lam/4, where zeta stops being 1
        lo_d, hi_d = 0.0, 0.6
        for _ in range(30):
            mid = 0.5 * (lo_d + hi_d)
            # all(value(U) <= top), with the stencil run only on the rows
            # whose bracket holds top
            U = mid * dirs + self.anchor
            lower, upper = self.mol.bracket(U)
            near = upper > top
            if not np.any(lower > top) and (
                    not near.any() or np.all(self.mol.value(U[near]) <= top)):
                lo_d = mid
            else:
                hi_d = mid
        plateau_unit = lo_d

        v, G, H = _boundary_jet(self, np.zeros(J), 1.0, _ball_samples(J, 300))
        sup_v = float(np.max(np.abs(v)))
        sup_g = float(np.max(np.linalg.norm(G, axis=1)))
        sup_h = float(np.max(np.sum(np.abs(H), axis=(1, 2))))
        A = 1.2 * max(1.0, sup_v, sup_g, sup_h)
        return plateau_unit, A


def _stratum_model(domain: dom.DomainSpec, x) -> StratumModel:
    if not domain.constant_reflection:
        return StratumModel(domain, x)
    return domain.cached(("stratum-model", tuple(dom.active_set(domain, x))),
                         lambda: StratumModel(domain, x))


def boundary_bump(domain: dom.DomainSpec, x, r: float) -> TestFunction:
    """Plateau bump at a nonsingular boundary point.

    One near the point, zero outside the r-ball, with the boundary sign
    condition exact by construction: the gradient is a nonpositive multiple
    of a field whose inner product with every active reflection vector is
    certified positive.
    """
    x = np.asarray(x, dtype=float)
    model = _stratum_model(domain, x)
    cap = model.r_cap(x)
    if not 0.0 < r <= cap:
        raise RadiusTooLarge(f"need r in (0, {cap:.3g}] at {x}, got {r}")
    return _boundary_function(model, x, r)


def _boundary_function(model: StratumModel, x, r: float) -> TestFunction:
    """boundary_bump's function, for a caller that knows 0 < r <= r_cap(x)."""
    J = model.domain.dimension
    plateau_unit, A = model.bump_constants
    d_plateau = plateau_unit * r
    return TestFunction.from_jet(
        J, functools.partial(_boundary_jet, model, x, r),
        center=x, support_radius=r,
        constant_outside=0.0, claims_in_class=True, claims_negated_in_class=False,
        bound_triple=(A, A / r, A / (r * r)),
        info={"kind": "boundary", "r": r, "stratum": model.idx,
              "plateau_radius": d_plateau, "lam": model.lam,
              "beta": model.beta, "theta": model.theta,
              "delta_fat": model.delta})


def _boundary_jet(model: StratumModel, x, r: float, Y):
    """Jet of the model's boundary bump of radius r at x: zeta(l((y - x)/r +
    anchor)) by the chain rule, computed on the rows in its support only.

    zeta is exactly 1 up to its first break and exactly 0 beyond its second,
    with zero derivatives there, so a row whose bracket of l (one projection
    of the row, l within reach of the exact distance) lies below the first
    break gets (1, 0, 0) and one above the second (0, 0, 0), the constant
    pieces' own values; only the other rows project their stencils."""
    J = model.domain.dimension
    v, G, H = np.zeros(len(Y)), np.zeros_like(Y), np.zeros((len(Y), J, J))
    rows = np.flatnonzero(np.linalg.norm(Y - x, axis=1) < r)
    if not len(rows):
        return v, G, H
    U = (Y[rows] - x) / r + model.anchor
    lower, upper = model.mol.bracket(U)
    one_to, zero_from = model.zeta.breaks
    flat_one = upper <= one_to
    v[rows[flat_one]] = 1.0
    ramp = ~flat_one & (lower <= zero_from)
    rows, U = rows[ramp], U[ramp]
    if not len(rows):
        return v, G, H
    k, Gk, Hk = model.mol.jet(U)
    s1, s2 = model.zeta.d1(k), model.zeta.d2(k)
    v[rows] = model.zeta.value(k)
    act = s1 != 0.0
    G[rows[act]] = (s1[act][:, None] / r) * Gk[act]
    act |= s2 != 0.0
    Ga = Gk[act]
    H[rows[act]] = (s2[act][:, None, None] * np.einsum("ni,nj->nij", Ga, Ga)
                    + s1[act][:, None, None] * Hk[act]) / (r * r)
    return v, G, H


def _unit_rows(rng, n, J):
    """n seeded standard-normal rows of length J, each scaled to unit norm."""
    W = rng.standard_normal((n, J))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    return W


def _ball_samples(J, n):
    rng = np.random.default_rng(4)
    return _unit_rows(rng, n, J) * rng.uniform(0, 1, size=(n, 1)) ** (1.0 / J)


# ---------------------------------------------------------------------------
# Admissibility check
# ---------------------------------------------------------------------------

@dataclass
class AdmissibilityReport:
    worst_boundary_inner: float
    worst_singular_variation: float
    worst_outside_variation: float
    samples: int
    tol: float = 1e-9

    @property
    def passed(self) -> bool:
        return (self.worst_boundary_inner <= self.tol
                and self.worst_singular_variation <= self.tol
                and self.worst_outside_variation <= self.tol)


def check_admissible(f: TestFunction, domain: dom.DomainSpec, samples: int = 2000,
                     seed: int = 0, tol: float = 1e-9) -> AdmissibilityReport:
    """Sampled verification of membership in the admissible test class.

    Checks the boundary sign condition <gamma_i(y), grad f(y)> <= tol at
    active pieces, constancy of f near every singular point, and constancy
    outside the declared support.
    """
    center = f.center if f.center is not None and np.isfinite(f.support_radius) else None
    radius = 1.25 * f.support_radius if center is not None else None
    try:
        B = dom.sample_boundary(domain, samples, seed=seed, center=center, radius=radius)
    except SamplingFailure:
        B = dom.sample_boundary(domain, samples, seed=seed)
    inner = dom.boundary_frame(domain, B).inner(f)
    worst = float(np.max(inner)) if len(inner) else 0.0

    sing = 0.0
    for sp in domain.singular_points:
        ball = sp.x[None, :] + 1e-7 * _ball_samples(domain.dimension, 50)
        v0 = f.value(sp.x)
        vals = f._value(ball)
        sing = max(sing, float(np.max(np.abs(vals - v0))))

    out_var = 0.0
    if f.center is not None and np.isfinite(f.support_radius):
        far = []
        try:
            pts = dom.sample_closure(domain, samples // 2, seed=seed + 1)
            mask = np.linalg.norm(pts - f.center, axis=1) > f.support_radius * (1 + 1e-9)
            far = pts[mask]
        except SamplingFailure:
            far = []
        if len(far):
            vals = f._value(np.asarray(far))
            out_var = float(np.max(np.abs(vals - f.constant_outside)))
    return AdmissibilityReport(worst, sing, out_var, samples, tol)


# ---------------------------------------------------------------------------
# Cover family (separation test functions)
# ---------------------------------------------------------------------------

# the bump kinds, in the order of their codes in a bump table
_KINDS = ("interior", "boundary", "singular")
_INTERIOR, _BOUNDARY, _SINGULAR = range(3)

# bump and centre rows per write of a manifest
_MANIFEST_ROWS = 1024


class _BumpTable:
    """Placed bumps in bump order, one array per column: centres x (B, J),
    kind codes into _KINDS, r (an interior bump's is its squared radius),
    plateau radius, support radius and bound triple (B, 3).

    funcs maps the index of each boundary and singular bump to its
    TestFunction.  An interior bump is lazy: func(k) builds its function on
    first use and keeps it there.  As a sequence the table is sized,
    ordered and read-only, one _Bump view per row."""

    _COLUMNS = ("x", "kind", "r", "plateau", "support", "bounds")

    def __init__(self, x, kind, r, plateau, support, bounds, funcs=None):
        self.x, self.kind, self.r, self.plateau = x, kind, r, plateau
        self.support, self.bounds = support, bounds
        self.funcs = {} if funcs is None else funcs
        for name in self._COLUMNS:
            getattr(self, name).flags.writeable = False

    @classmethod
    def of_functions(cls, kind, X, r, funcs):
        """The bumps of the given kind at the rows of X with parameters r
        and their functions, whose plateau radius, support radius and bound
        triple they keep."""
        return cls(np.asarray(X, dtype=float), np.full(len(funcs), kind, np.int8),
                   np.asarray(r, dtype=float),
                   np.array([f.info["plateau_radius"] for f in funcs]),
                   np.array([f.support_radius for f in funcs]),
                   np.array([f.bound_triple for f in funcs]), dict(enumerate(funcs)))

    @classmethod
    def concat(cls, tables):
        """One table of the tables' rows, in order."""
        starts = itertools.accumulate([len(t) for t in tables], initial=0)
        funcs = {s + k: f for s, t in zip(starts, tables) for k, f in t.funcs.items()}
        return cls(*(np.concatenate([getattr(t, name) for t in tables])
                     for name in cls._COLUMNS), funcs)

    def __len__(self):
        return len(self.r)

    def __getitem__(self, k):
        if not -len(self) <= k < len(self):
            raise IndexError(k)
        return _Bump(self, k % len(self))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def func(self, k) -> TestFunction:
        f = self.funcs.get(k)
        if f is None:
            f = self.funcs[k] = _radial_bump(self.x.shape[1], self.x[k], float(self.r[k]))
        return f


class _Bump:
    """Row k of a bump table, read off its columns."""

    __slots__ = ("_table", "_k")

    def __init__(self, table, k):
        self._table, self._k = table, k

    x = property(lambda self: self._table.x[self._k])
    kind = property(lambda self: _KINDS[self._table.kind[self._k]])
    r = property(lambda self: float(self._table.r[self._k]))
    plateau = property(lambda self: float(self._table.plateau[self._k]))
    support_radius = property(lambda self: float(self._table.support[self._k]))
    bound_triple = property(lambda self: tuple(self._table.bounds[self._k].tolist()))
    func = property(lambda self: self._table.func(self._k))


class CoverFamily:
    """Family {f_x : x in the ball of radius N} of separation test functions.

    Each member is a finite sum of admissible bumps vanishing on an eps/2
    ball around its query point and exceeding one half beyond 3 eps, with a
    reported uniform bound on the generator applied to any member.  bumps
    is the family's _BumpTable.
    """

    def __init__(self, domain, coefficients, N, eps, bumps, centers, c_const, C_bound):
        self.domain = domain
        self.coefficients = coefficients
        self.N = N
        self.eps = eps
        self.bumps = bumps
        self.centers = centers
        self.c = c_const
        self.C = C_bound

    def center_index(self, x) -> int:
        x = np.asarray(x, dtype=float)
        d = np.linalg.norm(self.centers - x, axis=1)
        return int(np.argmin(d))

    def near(self, z) -> np.ndarray:
        """Mask of the bumps centred within 2 eps of z (each distance rounded
        as a 1-D norm rounds it)."""
        D = self.bumps.x - np.asarray(z, dtype=float)
        return np.sqrt(dom.row_dot(D, D)) < 2.0 * self.eps

    def member(self, x) -> TestFunction:
        z = self.centers[self.center_index(x)]
        f = combine([self.bumps.func(k) for k in np.flatnonzero(~self.near(z))])
        f.info.update(kind="cover-member", z=z, eps=self.eps)
        return f

    def precompute(self, Y, coefficients=None) -> "FamilyEvaluation":
        """Batch-evaluate every bump once on Y for fast member sums."""
        return FamilyEvaluation(self, Y, coefficients or self.coefficients)

    def write_manifest(self, fh, **header):
        """Write the manifest to the text file fh: byte for byte the text of
        json.dump({**header, N, eps, c, C, centers, bumps}, fh,
        sort_keys=True, indent=1, default=float), where a centre is a list
        of floats and a bump {x, kind, r, plateau}.  The small keys go
        through json; the centres and bumps are formatted off the arrays,
        _MANIFEST_ROWS of them per write."""
        t, J = self.bumps, self.bumps.x.shape[1]
        kinds = np.array([json.dumps(k) for k in _KINDS], dtype=object)

        def bump_texts(rows):
            floats = _json_floats(np.column_stack([t.plateau[rows], t.r[rows], t.x[rows]]))
            return np.column_stack([kinds[t.kind[rows]], floats])

        lists = {
            "centers": ("  " + _json_list(J, 2), lambda rows: _json_floats(self.centers[rows]),
                        len(self.centers)),
            "bumps": ('  {\n   "kind": %s,\n   "plateau": %s,\n   "r": %s,\n   "x": '
                      + _json_list(J, 3) + "\n  }", bump_texts, len(t)),
        }
        head = dict(header, N=self.N, eps=self.eps, c=self.c, C=self.C)
        sep = "{\n"
        for key in sorted([*head, *lists]):
            if key in lists:
                fh.write(f'{sep} "{key}": ')
                _write_json_items(fh, *lists[key])
            else:
                fh.write(sep + json.dumps({key: head[key]}, sort_keys=True, indent=1,
                                          default=float)[2:-2])
            sep = ",\n"
        fh.write("\n}")


def _write_json_items(fh, template, texts, n):
    """Write a list of n items at depth 1 of an indent-1 JSON text: item k
    is the %-template filled with row k of texts(rows), an object array of
    JSON texts, one block of _MANIFEST_ROWS items per write."""
    if not n:
        fh.write("[]")
        return
    sep = "[\n"
    for s in range(0, n, _MANIFEST_ROWS):
        block = texts(slice(s, s + _MANIFEST_ROWS))
        fh.write(sep + ",\n".join([template] * len(block)) % tuple(block.ravel().tolist()))
        sep = ",\n"
    fh.write("\n ]")


def _json_list(n, depth):
    """The %-template of a list of n items at the given depth of an
    indent-1 JSON text."""
    if not n:
        return "[]"
    return "[\n" + ",\n".join([" " * (depth + 1) + "%s"] * n) + "\n" + " " * depth + "]"


def _json_floats(a):
    """The JSON text of each float of a, as json writes it: repr for a finite
    value, json's own spelling for any other; an object array of a's
    shape.  Each distinct bit pattern is spelt once."""
    a = np.ascontiguousarray(a, dtype=float)
    bits, inv = np.unique(a.view(np.int64), return_inverse=True)
    u = bits.view(float)
    text = np.array(list(map(float.__repr__, u.tolist())), dtype=object)
    odd = ~np.isfinite(u)
    text[odd] = [json.dumps(v) for v in u[odd].tolist()]
    return text[inv].reshape(a.shape)


class FamilyEvaluation:
    """All bumps of a cover family evaluated on a fixed point batch.

    Every member is the full bump sum minus the bumps within 2 eps of its
    cover center, so member values/gradients/generator-values reduce to a
    handful of sparse corrections on top of shared totals.
    """

    def __init__(self, family: CoverFamily, Y, coefficients):
        self.family = family
        self.Y = np.atleast_2d(np.asarray(Y, dtype=float))
        n, J = self.Y.shape
        self.full_value = np.zeros(n)
        self.full_grad = np.zeros((n, J))
        self.full_lf = np.zeros(n)
        # one flat table of every bump's support rows and their entries, in
        # bump order and ascending rows; _owner[e] is the bump of entry e, and
        # bump k's entries are _starts[k]:_starts[k + 1]
        bumps = family.bumps
        self._owner, self._flat_idx = _ball_pairs(bumps.x, bumps.support * (1 + 1e-12),
                                                  self.Y)
        self._starts = np.searchsorted(self._owner, np.arange(len(bumps) + 1))
        m = len(self._flat_idx)
        self._flat_vals = np.empty(m)
        self._flat_grads = np.empty((m, J))
        self._flat_lfs = np.empty(m)
        # the interior bumps' entries from one radial jet over their offsets,
        # with each bump's constants computed as its own jet computes them
        interior = bumps.kind == _INTERIOR
        radial = np.flatnonzero(interior[self._owner])
        if len(radial):
            ks, inv = np.unique(self._owner[radial], return_inverse=True)
            r = bumps.r[ks]
            pts = self.Y[self._flat_idx[radial]]
            D = pts - bumps.x[self._owner[radial]]
            v, g, H = _radial_jet(D, r[inv], (2.0 / r)[inv], (4.0 / _pow2(r))[inv])
            self._flat_vals[radial], self._flat_grads[radial] = v, g
            self._flat_lfs[radial] = coefficients.generator(pts, g, H)
        # the other bumps' entries from their own jets; only a bump with a
        # support row builds its function
        for k in np.unique(self._owner[~interior[self._owner]]):
            e = slice(self._starts[k], self._starts[k + 1])
            pts = self.Y[self._flat_idx[e]]
            v, g, H = bumps.func(k)._jet(pts)
            self._flat_vals[e], self._flat_grads[e] = v, g
            self._flat_lfs[e] = coefficients.generator(pts, g, H)
        # one unbuffered addition per array over the entries in bump order,
        # so each row adds its bumps in the per-bump loop's order
        np.add.at(self.full_value, self._flat_idx, self._flat_vals)
        np.add.at(self.full_grad, self._flat_idx, self._flat_grads)
        np.add.at(self.full_lf, self._flat_idx, self._flat_lfs)

    def member_arrays(self, x):
        """(value, gradient, generator value) arrays of the member at x: the
        full sums minus the near bumps' entries, one unbuffered subtraction
        per array over the entries in bump order, so each row subtracts its
        bumps in the per-bump loop's order."""
        z = self.family.centers[self.family.center_index(x)]
        sel = self.family.near(z)[self._owner]
        rows = self._flat_idx[sel]
        v = self.full_value.copy()
        g = self.full_grad.copy()
        lf = self.full_lf.copy()
        np.subtract.at(v, rows, self._flat_vals[sel])
        np.subtract.at(g, rows, self._flat_grads[sel])
        np.subtract.at(lf, rows, self._flat_lfs[sel])
        return v, g, lf


# lattice rows that an interior lattice reads at a time
_LATTICE_ROWS = 1 << 13


def _lattice_axes(lo, hi, spacing):
    return [np.arange(l, h + spacing / 2, spacing) for l, h in zip(lo, hi)]


def _grid(axes):
    """Every point of the grid on the axes, the last axis fastest: one row
    of no columns when there are no axes."""
    if not axes:
        return np.empty((1, 0))
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def _lattice_points(lo, hi, spacing):
    return _grid(_lattice_axes(lo, hi, spacing))


def _lattice_blocks(lo, hi, spacing):
    """The rows of _lattice_points(lo, hi, spacing), in its order, in blocks
    of whole slabs of the first axis, about _LATTICE_ROWS rows each."""
    first, *rest = _lattice_axes(lo, hi, spacing)
    tail = _grid(rest)
    step = max(1, _LATTICE_ROWS // max(1, len(tail)))
    for s in range(0, len(first), step):
        a = first[s:s + step]
        yield np.column_stack([np.repeat(a, len(tail)), np.tile(tail, (len(a), 1))])


def _interior_bumps(X, d, eps) -> _BumpTable:
    """The interior bumps of radius rho = 0.95 min(eps, d) at the rows of X,
    whose depths are d, skipping each row whose rho is below eps / 1000; each
    radius-rho ball fits, since rho < d.  r is rho ** 2 and the plateau
    radius rho / 2."""
    rho = 0.95 * np.minimum(eps, d)
    keep = rho > eps * 1e-3
    rho = rho[keep]
    r = _pow2(rho)
    support, bounds = _radial_constants(X.shape[1], r)
    return _BumpTable(X[keep], np.full(len(r), _INTERIOR, np.int8), r, rho / 2.0,
                      support, bounds)


def _interior_at(x, eps, d):
    """The interior bump at one point x of depth d, or None."""
    bumps = _interior_bumps(np.asarray(x, float)[None], np.array([d]), eps)
    return bumps if len(bumps) else None


def _boundary_at(domain, X, eps):
    """The boundary bumps of radius min(eps, r_cap) at the rows of X, in row
    order, or None when there are none: a row is skipped when it has no
    stratum model or that radius is below eps / 1000.

    On a constant-reflection polyhedron the rows' active sets are taken at
    once, and the rows that share one share its cached model and one r_cap
    call; elsewhere each row builds its own model."""
    X = np.asarray(X, dtype=float)
    if domain.constant_reflection:
        act = np.abs(domain.piece_values(X)) <= domain.tol_at(X)[:, None]
        _, first, group = np.unique(act, axis=0, return_index=True, return_inverse=True)
        groups = [np.flatnonzero(group.ravel() == g) for g in np.argsort(first)]
    else:
        groups = [[k] for k in range(len(X))]
    r = np.zeros(len(X))
    model = [None] * len(X)
    for rows in groups:
        try:
            m = _stratum_model(domain, X[rows[0]])
        except (NotInU, QPFailure):
            continue
        r[rows] = np.minimum(eps, m.r_cap(X[rows]))
        for k in rows:
            model[k] = m
    keep = np.flatnonzero(r > eps * 1e-3)
    if not len(keep):
        return None
    return _BumpTable.of_functions(
        _BOUNDARY, X[keep], r[keep],
        [_boundary_function(model[k], X[k], r[k]) for k in keep.tolist()])


# balls, and candidate pairs and box cells, that _ball_pairs reads at a time
_PAIR_CHUNK = 1 << 12


def _ball_pairs(X, bound, P):
    """The pairs (b, p) with |P[p] - X[b]| <= bound[b], the distance
    rounded as np.linalg.norm rounds a row: index arrays, b ascending and
    each ball's p ascending.

    A uniform grid proposes the candidates.  Each ball's box is its bound
    inflated by 1e-9 bound + 1e-12, so that no pair is missed however the
    distances are rounded; the grid spans the points inside the boxes'
    bounding box, one argsort buckets them by cell, and each ball reads
    the cells that its box overlaps.  A point's cell and a box's end cells
    come from one monotone expression, so rounding keeps every point of a
    box inside the cells it reads.  The cells' side is the largest reach,
    so that a box overlaps at most 3 cells on an axis, doubled until there
    are no more cells than balls and points together.  A summed-area table
    of the cell counts gives each box's candidate count, and the exact
    expression decides the candidates, a chunk of about _PAIR_CHUNK
    candidates and cells at a time (a ball's candidates are never split)
    from a group of _PAIR_CHUNK balls at a time."""
    bs, ps = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    reach = bound * (1 + 1e-9) + 1e-12
    live = np.flatnonzero(np.all((P >= (X - reach[:, None]).min(axis=0, initial=np.inf))
                                 & (P <= (X + reach[:, None]).max(axis=0, initial=-np.inf)),
                                 axis=1))
    if len(live):
        J = P.shape[1]
        Q = P[live]
        lo, top = Q.min(axis=0), Q.max(axis=0)
        h = float(reach.max())
        while np.prod(np.floor((top - lo) / h) + 1) > len(X) + len(P):
            h *= 2.0

        def cell(Z):
            return np.floor((Z - lo) / h)

        shape = cell(top).astype(np.intp) + 1
        key = np.ravel_multi_index(tuple(cell(Q).astype(np.intp).T), shape)
        order = np.argsort(key, kind="stable")
        starts = np.searchsorted(key[order], np.arange(np.prod(shape) + 1))
        order = live[order]
        S = np.diff(starts).reshape(shape)
        for a in range(J):
            S = np.cumsum(S, axis=a)
        S = np.pad(S, [(1, 0)] * J)
        for g0 in range(0, len(X), _PAIR_CHUNK):
            # each ball's box of cells, c0 <= cell < c1 on every axis, and
            # the number of points in it
            Xg, rg = X[g0:g0 + _PAIR_CHUNK], reach[g0:g0 + _PAIR_CHUNK, None]
            c0 = np.clip(cell(Xg - rg), 0, shape).astype(np.intp)
            c1 = np.clip(cell(Xg + rg) + 1, 0, shape).astype(np.intp)
            counts = np.zeros(len(Xg), np.intp)
            for corner in itertools.product((False, True), repeat=J):
                sign = -1 if (J - sum(corner)) % 2 else 1
                counts += sign * S[tuple(np.where(corner, c1, c0).T)]
            ncell = np.where(counts > 0, np.prod(c1 - c0, axis=1), 0)
            work = counts + ncell
            ends = np.cumsum(work)
            k0 = 0
            while k0 < len(Xg):
                k1 = max(k0 + 1, int(np.searchsorted(ends, ends[k0] - work[k0] + _PAIR_CHUNK,
                                                      side="right")))
                # every (ball, cell) of the chunk's boxes, then the cells'
                # points
                ids = k0 + np.flatnonzero(counts[k0:k1])
                m = ncell[ids]
                t = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
                w = np.repeat(c1[ids] - c0[ids], m, axis=0)
                coord = np.repeat(c0[ids], m, axis=0)
                for a in range(J - 1, -1, -1):
                    t, r = np.divmod(t, w[:, a])
                    coord[:, a] += r
                cells = np.ravel_multi_index(tuple(coord.T), shape)
                s = starts[cells]
                n = starts[cells + 1] - s
                b = np.repeat(np.repeat(g0 + ids, m), n)
                p = order[np.repeat(s - np.cumsum(n) + n, n) + np.arange(n.sum())]
                keep = np.linalg.norm(P[p] - X[b], axis=1) <= bound[b]
                b, p = b[keep], p[keep]
                o = np.lexsort((p, b))
                bs.append(b[o])
                ps.append(p[o])
                k0 = k1
    return np.concatenate(bs), np.concatenate(ps)


def _covers(bumps, P) -> np.ndarray:
    """Mask of the rows of P inside some bump's plateau: within plateau
    (1 - 1e-12) of its centre, where its value is at least 1 - 1e-12.  An
    interior bump's value is xi on the pairs' z, as its jet computes it;
    another bump's is its function's, called once on its rows."""
    covered = np.zeros(len(P), dtype=bool)
    b, p = _ball_pairs(bumps.x, bumps.plateau * (1 - 1e-12), P)
    one = np.zeros(len(b), dtype=bool)
    interior = bumps.kind[b] == _INTERIOR
    bi = b[interior]
    one[interior] = _XI.value(_radial_arg(P[p[interior]] - bumps.x[bi], bumps.r[bi])) \
        >= 1.0 - 1e-12
    rest = np.flatnonzero(~interior)
    for e in np.split(rest, np.flatnonzero(np.diff(b[rest])) + 1):
        if len(e):
            one[e] = bumps.func(b[e[0]])._value(P[p[e]]) >= 1.0 - 1e-12
    covered[p[one]] = True
    return covered


def _coverage_probes(domain, reach, seed):
    """The coverage obligations: 3000 volume and 1000 boundary samples, those
    inside the reach ball."""
    vol = dom.sample_closure(domain, 3000, seed=seed + 5)
    try:
        bnd = dom.sample_boundary(domain, 1000, seed=seed + 6)
        probes = np.vstack([vol, bnd])
    except SamplingFailure:
        probes = vol
    return probes[np.linalg.norm(probes, axis=1) <= reach]


def _laid_out_bumps(domain, lo, hi, reach, eps) -> _BumpTable:
    """The family's bumps before its repair, in bump order: the
    singular-point bumps, the boundary lattices and the interior lattices
    of the box lo..hi.  Each part is a table of its own and only their join
    is returned, so the parts are freed here; an interior lattice is read
    in blocks of rows, never whole."""
    polyhedral = domain.constant_reflection
    J = domain.dimension
    tables = []
    if domain.singular_points:
        r = [min(eps, 0.999 * sp.radius) / sp.c2 for sp in domain.singular_points]
        tables.append(_BumpTable.of_functions(
            _SINGULAR, [sp.x for sp in domain.singular_points], r,
            [singular_bump(domain, sp, q) for sp, q in zip(domain.singular_points, r)]))

    if polyhedral:
        # deepest strata first; a stratum that is only a singular point gets
        # no lattice
        strata = [faces for faces, rep in sorted(domain.strata.items(),
                                                 key=lambda item: -len(item[0]))
                  if not any(np.linalg.norm(rep - sp.x) < 1e-9
                             for sp in domain.singular_points)]
    else:
        strata = [(i,) for i in range(len(domain.pieces))]

    guard = [sp.x for sp in domain.singular_points]
    for subset in strata:
        pts = _stratum_lattice(domain, subset, lo, hi, eps, guard)
        if pts is None or not len(pts):
            continue
        tables.append(_boundary_at(domain, pts, eps))

    # interior lattices: a deep coarse lattice plus graded shell bands whose
    # spacing tracks the local plateau scale (overlapping in depth; the
    # family's repair pass guarantees the remaining coverage)
    def depths_of(P):
        if polyhedral:
            return np.min(domain.piece_values(P), axis=1)
        return dom.distance_to_boundary(domain, P)

    def lattice_bumps(spacing, band):
        """The interior bumps at the points of the spacing lattice in the
        reach ball whose depths d have band(d), in lattice order."""
        X, d = [np.empty((0, J))], [np.empty(0)]
        for P in _lattice_blocks(lo, hi, spacing):
            P = P[np.linalg.norm(P, axis=1) <= reach]
            dP = depths_of(P)
            keep = band(dP)
            X.append(P[keep])
            d.append(dP[keep])
        return _interior_bumps(np.concatenate(X), np.concatenate(d), eps)

    tables = [t for t in tables if t is not None]
    tables.append(lattice_bumps(0.85 * eps / math.sqrt(J), lambda d: d >= eps))

    face = np.concatenate([t.plateau[t.kind == _BOUNDARY] for t in tables])
    face_plateau = face.max() if len(face) else 0.27 * eps
    t = max(0.75 * face_plateau, eps / 24.0)
    bands = []
    while t < eps:
        bands.append(t)
        t *= 1.8
    for t_lo_band, t_hi_band in zip(bands, bands[1:] + [eps * 1.01]):
        s_k = max(0.855 * min(eps, t_lo_band) / math.sqrt(J), eps / 200.0)
        tables.append(lattice_bumps(
            s_k, lambda d: (d >= 0.7 * t_lo_band) & (d < 1.3 * t_hi_band)))

    return _BumpTable.concat(tables)


def assemble_cover_family(domain: dom.DomainSpec, coefficients, N: float,
                          eps: float, seed: int = 0) -> CoverFamily:
    """Build the separation family on the N-ball for scale eps.

    Bumps are laid out in three passes: singular-point bumps, per-stratum
    boundary lattices (deepest strata first, graded toward the singular set),
    and a deep interior lattice; a greedy repair loop then inserts bumps at
    sampled points not yet inside any plateau, for up to 60 rounds, trying
    each point until it is covered or found uncoverable.  Every
    volume and boundary sample in the reach ball (3000 and 1000 drawn) must
    end inside a plateau, or SamplingFailure names the gap.
    """
    polyhedral = domain.constant_reflection
    if not (polyhedral or domain.bounded
            or getattr(domain, "allow_curved_family", False)):
        raise UnboundedUnsupported(
            "family assembly needs a polyhedral constant-reflection or bounded domain")
    J = domain.dimension
    reach = N + 3.5 * eps
    lo = np.maximum(domain.bbox[0], -reach * np.ones(J))
    hi = np.minimum(domain.bbox[1], reach * np.ones(J))

    bumps = _laid_out_bumps(domain, lo, hi, reach, eps)
    probes = _coverage_probes(domain, reach, seed)
    covered = _covers(bumps, probes)
    # a probe that no bump can cover is given up for good: an attempt's
    # outcome depends on the probe alone
    blocked = np.zeros(len(probes), dtype=bool)
    repairs = []
    for _ in range(60):
        todo = np.flatnonzero(~covered & ~blocked)
        if not len(todo):
            break
        depths = dom.distance_to_boundary(domain, probes[todo])
        order = todo[np.argsort(-depths)]
        for i in order[:400]:
            if covered[i]:
                continue
            y = probes[i]
            d = dom.distance_to_boundary(domain, y)
            added = _interior_at(y, eps, d) if d > 0.25 * eps else None
            if added is None:
                # bump the nearby strata, keeping only a bump whose plateau
                # actually contains the gap point
                vals = domain.piece_values(y)
                near = [int(k) for k in np.argsort(vals)[:2]]
                for sub in ([tuple(sorted(near))] if len(near) > 1 else []) + \
                        [(k,) for k in near]:
                    xq = _project_to_stratum(domain, sub, y)
                    b = None if xq is None else _boundary_at(domain, xq[None], eps)
                    if b is not None and _covers(b, y[None])[0]:
                        added = b
                        break
            if added is None and d > 0.02 * eps:
                added = _interior_at(y, eps, d)
            if added is None:
                blocked[i] = True
                continue
            repairs.append(added)
            covered |= _covers(added, probes)
    bumps = _BumpTable.concat([bumps, *repairs])
    if not covered.all():
        missing = probes[~covered][:5]
        raise SamplingFailure(
            f"cover gap at {len(probes) - covered.sum()} sample points, "
            f"e.g. {missing}")

    # cover centers: eps/2 cover of the N ball, lexicographic order
    sz = eps / (2.0 * math.sqrt(J))
    zc = _lattice_points(np.maximum(lo, -(N + eps) * np.ones(J)),
                         np.minimum(hi, (N + eps) * np.ones(J)), sz)
    zc = zc[np.linalg.norm(zc, axis=1) <= N + sz * math.sqrt(J)]
    centers = []
    for z in zc:
        cls, vals = dom.contains(domain, z)
        if cls == dom.EXTERIOR:
            if np.min(vals) < -sz * math.sqrt(J):
                continue
            z = _project_into(domain, z)
        centers.append(z)
    if not centers:
        raise SamplingFailure("no cover centers inside the domain")
    # two exterior lattice points can project onto one boundary point:
    # equal centres are kept once, the first
    centers = np.array(centers)
    centers = centers[np.sort(np.unique(centers, axis=0, return_index=True)[1])]

    # uniform generator bound: per-bump certified bound times sampled overlap
    B_pts = dom.sample_closure(domain, 400, seed=seed + 9)
    Bv = coefficients.b(B_pts)
    sup_b = float(np.max(np.sqrt(dom.row_dot(Bv, Bv))))
    sup_a = float(np.max(np.abs(coefficients.a(B_pts))))
    lb = sup_b * bumps.bounds[:, 1] + 0.5 * sup_a * bumps.bounds[:, 2]
    owner, row = _ball_pairs(bumps.x, bumps.support, np.vstack([B_pts, probes[:400]]))
    # one np.sum per point over its bumps in bump order: the sums of a dense
    # scan, bit for bit
    order = np.argsort(row, kind="stable")
    cuts = np.flatnonzero(np.diff(row[order])) + 1
    overlap = max([0.0] + [float(np.sum(s)) for s in np.split(lb[owner[order]], cuts)])
    C_bound = 1.5 * overlap + 1.0
    return CoverFamily(domain, coefficients, N, eps, bumps, centers, 0.5, C_bound)


def _project_to_stratum(domain, subset, y):
    """Orthogonal projection of y onto a polyhedral stratum, if feasible."""
    pieces = [domain.pieces[i] for i in subset]
    if any(p.kind != "half-space" for p in pieces):
        x = dom.project_to_piece(domain, subset[0], y)
        return x if np.all(domain.piece_values(x) >= -1e-9) else None
    Nmat = np.stack([p.normal for p in pieces])
    offs = np.array([p.offset for p in pieces])
    sol, *_ = np.linalg.lstsq(Nmat.T @ Nmat + 1e-14 * np.eye(domain.dimension),
                              Nmat.T @ (offs - Nmat @ y), rcond=None)
    x = y + sol
    return x if domain.on_stratum(x, subset, 1e-7) else None


def _project_into(domain, z):
    vals = domain.piece_values(z)
    for i in np.argsort(vals):
        if vals[i] >= 0:
            break
        z = dom.project_to_piece(domain, int(i), z)
        vals = domain.piece_values(z)
    return z


def _stratum_lattice(domain, subset, lo, hi, eps, guard_points):
    """Lattice on one polyhedral boundary stratum, graded away from guards."""
    pieces = [domain.pieces[i] for i in subset]
    if any(p.kind != "half-space" for p in pieces):
        return _curved_stratum_lattice(domain, subset, eps)
    J = domain.dimension
    Nmat = np.stack([p.normal for p in pieces])
    offs = np.array([p.offset for p in pieces])
    x0, *_ = np.linalg.lstsq(Nmat, offs, rcond=None)
    # tangent basis of the stratum
    _, s, Vt = np.linalg.svd(Nmat)
    rank = int(np.sum(s > 1e-10))
    T = Vt[rank:]
    d = len(T)
    if d == 0:
        return np.array([x0]) if np.all(
            domain.piece_values(x0) >= -1e-9) else None
    # graded 1D grids along each tangent direction based on guard distance
    base = 0.35 * eps
    axes = []
    for t in T:
        lo_t = float(np.dot(np.where(t > 0, lo, hi) - x0, t))
        hi_t = float(np.dot(np.where(t > 0, hi, lo) - x0, t))
        lo_t, hi_t = min(lo_t, hi_t), max(hi_t, lo_t)
        axes.append(_graded_axis(lo_t, hi_t, base))
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    pts = x0[None, :] + coords @ T
    pts = pts[domain.on_stratum(pts, subset, 1e-7)]
    if guard_points is not None and len(guard_points):
        Gp = np.asarray(guard_points)
        dmin = np.min(np.linalg.norm(pts[:, None, :] - Gp[None, :, :], axis=2),
                      axis=1)
        pts = pts[dmin >= max(eps * 0.45, 1e-6)]
    return pts


def _graded_axis(lo_t, hi_t, base):
    """Grid points over [lo_t, hi_t] with spacing base, refined near zero."""
    pts = list(np.arange(lo_t, hi_t + base / 2, base))
    # geometric refinement toward coordinate zero when the interval touches it
    if lo_t <= 0.0 <= hi_t:
        step = base / 2
        while step > base / 64:
            pts.extend([p for p in (step, -step) if lo_t <= p <= hi_t])
            step /= 2
        pts.append(0.0)
    return np.unique(np.round(np.array(pts), 12))


def _curved_stratum_lattice(domain, subset, eps):
    i = subset[0]
    try:
        pts, _ = dom.boundary_quadrature(domain, i, max(8, int(4.0 / eps)))
    except ChartMissing:
        return None
    return pts
