"""Preset reflected-diffusion systems with certified geometric data.

Each preset returns the domain, coefficients, declared singular points with
their certificate constants, the documented well-posedness condition, and a
closed-form stationary density where one is known.  Closed-form densities are
run through the adjoint-relationship verifier once before being handed out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import domain as dom
from .coefficients import CoefficientField, Density
from .errors import IllPosedParameters, NoClosedForm

_BAR_CHECKED: dict = {}


@dataclass
class ExampleSystem:
    name: str
    params: dict
    domain: dom.DomainSpec
    coefficients: CoefficientField
    meta: dict = field(default_factory=dict)


def make_example(name: str, **params) -> ExampleSystem:
    builders = {
        "halfline": _halfline,
        "orthant": _orthant,
        "wedge": _wedge,
        "gps": _gps,
        "disk": _disk,
        "cusp": _cusp,
    }
    if name not in builders:
        raise KeyError(f"unknown example {name!r}; choose from {sorted(builders)}")
    return builders[name](**params)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def _halfline(b: float = -1.0, sigma: float = 1.0, box: float = 12.0) -> ExampleSystem:
    if b >= 0:
        raise IllPosedParameters("half-line preset needs negative drift for positive recurrence")
    piece = dom.BoundaryPiece("half-space", normal=[1.0], offset=0.0, gamma=[1.0])
    domain = dom.DomainSpec(1, [piece], bbox=([0.0], [box]), bounded=False)
    coef = CoefficientField.constant([b], [[sigma]])
    return ExampleSystem("halfline", {"b": b, "sigma": sigma}, domain, coef)


def _orthant(J: int = 2, b=None, sigma=None, D=None, box: float = 10.0) -> ExampleSystem:
    if b is None:
        b = -np.ones(J)
    b = np.asarray(b, dtype=float)
    if sigma is None:
        sigma = np.eye(J)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim == 1:
        sigma = np.diag(sigma)
    if D is None:
        D = np.eye(J)
    D = np.asarray(D, dtype=float)
    pieces = []
    for i in range(J):
        n = np.zeros(J)
        n[i] = 1.0
        d = D[:, i]
        if d[i] <= 0:
            raise IllPosedParameters(f"reflection column {i} has nonpositive normal part")
        pieces.append(dom.BoundaryPiece("half-space", normal=n, offset=0.0,
                                        gamma=d / d[i]))
    domain = dom.DomainSpec(J, pieces, bbox=(np.zeros(J), box * np.ones(J)),
                            bounded=False)
    report = dom.check_completely_s(domain)
    if not report.boundary_is_certified:
        raise IllPosedParameters(
            f"reflection matrix is not completely-S: failing strata "
            f"{[r.indices for r in report.failing()]}")
    coef = CoefficientField.constant(b, sigma)
    return ExampleSystem("orthant", {"J": J, "b": list(map(float, b))},
                         domain, coef)


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _wedge(zeta: float = math.pi / 2, theta1: float = math.pi / 4,
           theta2: float = math.pi / 4, b=None, sigma=None,
           box: float = 6.0) -> ExampleSystem:
    if not 0.0 < zeta < math.pi:
        raise IllPosedParameters("wedge angle must lie in (0, pi)")
    alpha = (theta1 + theta2) / zeta
    if alpha >= 2.0:
        raise IllPosedParameters(
            f"wedge reflection parameter alpha = {alpha:.4g} >= 2 (not well posed)")
    # face 1: the ray angle 0, inward normal e2; face 2: the ray angle zeta
    n1 = np.array([0.0, 1.0])
    u1 = np.array([1.0, 0.0])
    gamma1 = n1 - math.tan(theta1) * u1
    n2 = np.array([math.sin(zeta), -math.cos(zeta)])
    u2 = np.array([math.cos(zeta), math.sin(zeta)])
    gamma2 = n2 - math.tan(theta2) * u2
    pieces = [
        dom.BoundaryPiece("half-space", normal=n1, offset=0.0, gamma=gamma1),
        dom.BoundaryPiece("half-space", normal=n2, offset=0.0, gamma=gamma2),
    ]
    sing = []
    if alpha >= 1.0:
        # the vertex is singular; v is the unit vector orthogonal to gamma1
        # pointing into the wedge
        v = np.array([gamma1[1], -gamma1[0]])
        v = v / np.linalg.norm(v)
        bis = np.array([math.cos(zeta / 2), math.sin(zeta / 2)])
        if np.dot(v, bis) < 0:
            v = -v
        alpha0 = min(float(np.dot(v, [1.0, 0.0])), float(np.dot(v, u2)))
        if alpha0 <= 0:
            alpha0 = 1e-3
        s1, s2 = math.sin(zeta + theta1), math.sin(theta1)
        if s1 > 1e-9 and s2 > 1e-9:
            c2 = max(1.0 / s1, 1.0 / s2)
        else:
            c2 = 4.0
        sing = [dom.SingularPoint(np.zeros(2), v, radius=np.inf,
                                  alpha=alpha0, c1=0.5, c2=max(c2, 1.0 + 1e-9))]
    domain = dom.DomainSpec(2, pieces, singular_points=sing,
                            bbox=([-box, 0.0], [box, box]),
                            bounded=False)
    if b is None:
        b = [-1.0, -1.0]
    if sigma is None:
        sigma = np.eye(2)
    coef = CoefficientField.constant(b, sigma)
    return ExampleSystem(
        "wedge", {"zeta": zeta, "theta1": theta1, "theta2": theta2,
                  "alpha": alpha},
        domain, coef, meta={"alpha": alpha})


def _gps(J: int = 2, alphabar=None, b=None, sigma=None, box: float = 8.0) -> ExampleSystem:
    if alphabar is None:
        alphabar = np.full(J, 1.0 / J)
    ab = np.asarray(alphabar, dtype=float)
    if len(ab) != J or np.any(ab <= 0) or abs(ab.sum() - 1.0) > 1e-10:
        raise IllPosedParameters("weight vector must be positive and sum to one")
    pieces = []
    for i in range(J):
        n = np.zeros(J)
        n[i] = 1.0
        g = np.array([-ab[j] / (1.0 - ab[i]) if j != i else 1.0 for j in range(J)])
        pieces.append(dom.BoundaryPiece("half-space", normal=n, offset=0.0, gamma=g))
    nJ1 = np.ones(J) / math.sqrt(J)
    pieces.append(dom.BoundaryPiece("half-space", normal=nJ1, offset=0.0, gamma=nJ1))
    v = nJ1
    sing = [dom.SingularPoint(np.zeros(J), v, radius=np.inf,
                              alpha=1.0 / math.sqrt(J), c1=1.0,
                              c2=math.sqrt(J) if J > 1 else 1.0 + 1e-9)]
    domain = dom.DomainSpec(J, pieces, singular_points=sing,
                            bbox=(np.zeros(J), box * np.ones(J)),
                            bounded=False)
    if b is None:
        b = -np.ones(J)
    if sigma is None:
        sigma = np.eye(J)
    coef = CoefficientField.constant(b, sigma)
    return ExampleSystem("gps", {"J": J, "alphabar": list(map(float, ab))},
                         domain, coef)


def _disk(radius: float = 1.0, b=None, sigma=None) -> ExampleSystem:
    R = float(radius)

    def phi(X):
        return R - np.sqrt(dom.row_dot(X, X))

    def grad_phi(X):
        n = np.sqrt(dom.row_dot(X, X))[:, None]
        small = n < 1e-12
        return np.where(small, [1.0, 0.0], -X / np.where(small, 1.0, n))

    gamma = grad_phi

    def chart(resolution):
        th = (np.arange(resolution) + 0.5) * 2 * math.pi / resolution
        pts = R * np.stack([np.cos(th), np.sin(th)], axis=1)
        w = np.full(resolution, 2 * math.pi * R / resolution)
        return pts, w

    piece = dom.BoundaryPiece("smooth", phi=phi, grad_phi=grad_phi, gamma=gamma,
                              chart=chart, name=f"disk:{R}")
    dom.register_chart(f"disk:{R}", lambda: piece)
    domain = dom.DomainSpec(2, [piece], bbox=([-R, -R], [R, R]),
                            bounded=True)
    if b is None:
        b = [0.0, 0.0]
    if sigma is None:
        sigma = np.eye(2)
    coef = CoefficientField.constant(b, sigma)
    return ExampleSystem("disk", {"radius": R}, domain, coef)


def _cusp(beta: float = 2.0, theta1: float = 0.0, theta2: float = 0.0,
          b=None, sigma=None, box: float = 3.0) -> ExampleSystem:
    if beta <= 1.0:
        raise IllPosedParameters("cusp exponent must exceed one")
    if theta1 + theta2 > 1e-12:
        raise IllPosedParameters(
            f"cusp needs theta1 + theta2 <= 0, got {theta1 + theta2:.4g}")

    # both pieces are flat (|y| = 0) for x <= 0, where 0 ** beta = 0
    def phi1(Z):
        x, y = Z[:, 0], Z[:, 1]
        return np.where(x > 0, np.maximum(x, 0.0) ** beta - y, -y)

    def phi2(Z):
        x, y = Z[:, 0], Z[:, 1]
        return np.where(x > 0, y + np.maximum(x, 0.0) ** beta, y)

    def grad_phi1(Z):
        gx = beta * np.maximum(Z[:, 0], 0.0) ** (beta - 1.0)
        return np.stack([gx, np.full(len(Z), -1.0)], axis=1)

    def grad_phi2(Z):
        gx = beta * np.maximum(Z[:, 0], 0.0) ** (beta - 1.0)
        return np.stack([gx, np.full(len(Z), 1.0)], axis=1)

    def rotated_unit(G, theta):
        # row k is _rot(theta) @ (G[k] / |G[k]|), each entry one row dot
        U = G / np.sqrt(dom.row_dot(G, G))[:, None]
        return dom.row_dot(U[:, None, :], _rot(theta))

    def gamma1(Z):
        return rotated_unit(grad_phi1(Z), -theta1)

    def gamma2(Z):
        return rotated_unit(grad_phi2(Z), theta2)

    def chart_factory(sign):
        def chart(resolution):
            xs = (np.arange(resolution) + 0.5) * box / resolution
            ys = sign * xs ** beta
            ds = np.sqrt(1.0 + (beta * xs ** (beta - 1.0)) ** 2) * box / resolution
            return np.stack([xs, ys], axis=1), ds
        return chart

    p1 = dom.BoundaryPiece("smooth", phi=phi1, grad_phi=grad_phi1, gamma=gamma1,
                           chart=chart_factory(+1.0), name=f"cusp-upper:{beta}")
    p2 = dom.BoundaryPiece("smooth", phi=phi2, grad_phi=grad_phi2, gamma=gamma2,
                           chart=chart_factory(-1.0), name=f"cusp-lower:{beta}")
    dom.register_chart(f"cusp-upper:{beta}", lambda: p1)
    dom.register_chart(f"cusp-lower:{beta}", lambda: p2)

    g10 = np.array([-math.sin(theta1), -math.cos(theta1)])
    v = np.array([math.cos(theta1), -math.sin(theta1)])
    domain0 = dom.DomainSpec(2, [p1, p2], bbox=([0.0, -box ** beta],
                                                [box, box ** beta]),
                             bounded=False)
    r0 = 0.5
    samples = dom.sample_closure(domain0, 800, seed=11, center=np.zeros(2), radius=r0)
    d = np.linalg.norm(samples, axis=1)
    h = samples @ v
    nz = d > 1e-9
    alpha0 = 0.95 * float(np.min(h[nz] / d[nz]))
    if alpha0 <= 0:
        alpha0 = 1e-3
    # fit sandwich constants from the same samples
    c2 = 1.0001
    for r in np.linspace(r0 / 16, r0 / 2, 8):
        mask = h < r
        if mask.any():
            c2 = max(c2, float(np.max(d[mask])) / r)
    c2 *= 1.1
    sing = [dom.SingularPoint(np.zeros(2), v, radius=r0, alpha=alpha0,
                              c1=0.5, c2=c2)]
    domain = dom.DomainSpec(2, [p1, p2], singular_points=sing,
                            bbox=([0.0, -box ** beta], [box, box ** beta]),
                            bounded=False)
    domain.allow_curved_family = True
    if b is None:
        b = [-0.5, 0.0]
    if sigma is None:
        sigma = np.eye(2)
    coef = CoefficientField.constant(b, sigma)
    return ExampleSystem("cusp", {"beta": beta, "theta1": theta1,
                                  "theta2": theta2}, domain, coef,
                         meta={"experimental": True, "gamma1_at_origin": g10})


# ---------------------------------------------------------------------------
# Closed-form stationary densities
# ---------------------------------------------------------------------------

def halfline_density(theta: float) -> Density:
    """The exponential density theta e^(-theta x) on the half-line."""

    def e(X):
        return np.exp(-theta * X[:, 0])

    return Density.from_batch(lambda X: theta * e(X), lambda X: (-theta ** 2 * e(X))[:, None],
                              lambda X: (theta ** 3 * e(X))[:, None, None],
                              name=f"exp({theta})")


def uniform_density(c: float, J: int) -> Density:
    """The constant density c in dimension J."""
    return Density.from_batch(lambda X: np.full(len(X), c), lambda X: np.zeros((len(X), J)),
                              lambda X: np.zeros((len(X), J, J)), name="uniform")


def closed_form_density(system: ExampleSystem) -> Density:
    """Known stationary density of a preset, adjoint-verified on first use."""
    name = system.name
    if name == "halfline":
        bval = system.params["b"]
        sig = system.params["sigma"]
        theta = 2.0 * abs(bval) / sig ** 2
        p = halfline_density(theta)
        p.rate = theta
    elif name == "disk":
        bnorm = float(np.linalg.norm(system.coefficients.b(np.zeros(2))))
        anorm = float(np.max(np.abs(system.coefficients.a(np.zeros(2)) - np.eye(2))))
        if bnorm > 1e-12 or anorm > 1e-12:
            raise NoClosedForm("disk density known only for zero drift, identity diffusion")
        R = system.params["radius"]
        p = uniform_density(1.0 / (math.pi * R * R), 2)
    elif name == "orthant":
        J = system.params["J"]
        bvec = np.asarray(system.params["b"], dtype=float)
        a = system.coefficients.a(np.zeros(J))
        gam_ok = all(np.allclose(system.domain.pieces[i].gamma(np.zeros(J)),
                                 np.eye(J)[i]) for i in range(J))
        if not (np.allclose(a, np.eye(J)) and np.all(bvec < 0) and gam_ok):
            raise NoClosedForm(
                "orthant product form known for normal reflection, identity "
                "diffusion, negative drift")
        th = -2.0 * bvec

        def val(X):
            return np.prod(th * np.exp(-th * X), axis=1)

        p = Density.from_batch(val, lambda X: -th * val(X)[:, None],
                               lambda X: np.outer(th, th) * val(X)[:, None, None],
                               name="product-exponential")
        p.rate = th
    else:
        raise NoClosedForm(f"no closed-form stationary density for {name!r}")

    key = (name, str(sorted(system.params.items())))
    if key not in _BAR_CHECKED:
        from .operators import verify_bar

        report = verify_bar(system.coefficients, system.domain, p,
                            interior_samples=64, face_resolution=16)
        if not report.passed:
            raise AssertionError(
                f"closed-form density for {name} fails the adjoint check: "
                f"{report.to_json()}")
        _BAR_CHECKED[key] = True
    return p
