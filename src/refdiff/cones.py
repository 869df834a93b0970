"""Polyhedral convex cones: exact projection/distance and mollified distance.

Cones are given by finite generator sets (conic hulls).  Distances are exact:
in 1D/2D/3D the face structure is enumerated and evaluation is vectorized
over query points; higher dimensions fall back to per-point NNLS.

The mollified field averages the exact distance over a fixed quadrature
stencil of a compactly supported radial C^2 kernel; its gradient and Hessian
are the same stencil averages of the exact distance's gradient and a.e.
Hessian.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import row_dot, tangent_basis, vertex_lp
from .errors import BandEmpty, LPFailure, QPFailure


def _hull_2d(P) -> list:
    """The vertices of the convex hull of the rows of P (m, 2), counter-
    clockwise, by Andrew's monotone chain (Andrew 1979, Inf. Proc. Letters
    9(5)); of equal rows only the first can be a vertex.  A hull whose
    vertices all lie within 16 eps max|P| of the line through its two
    farthest ones is that segment, and one point when every row is equal.
    Otherwise a vertex within 16 eps max|P| of the line through its two
    neighbours is dropped, one at a time, as Qhull's default merging drops
    it.  The chain itself drops only exact collinear points: rounded ones
    can be sorted against their line's direction, and a tolerance there
    would keep the wrong one of them."""
    _, first = np.unique(P, axis=0, return_index=True)
    if len(first) == 1:
        return [int(first[0])]
    pts = P.tolist()
    tol = 16 * np.finfo(float).eps * float(np.max(np.abs(P)))

    def cross(o, a, b):
        (ox, oy), (ax, ay), (bx, by) = pts[o], pts[a], pts[b]
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    def flat(o, a, b):
        return cross(o, a, b) <= tol * math.dist(pts[o], pts[b])

    def chain(idx):
        h = []
        for k in idx:
            while len(h) >= 2 and cross(h[-2], h[-1], k) <= 0.0:
                h.pop()
            h.append(k)
        return h

    hull = chain(first.tolist())[:-1] + chain(first[::-1].tolist())[:-1]
    i, j = max(itertools.combinations(hull, 2), key=lambda e: math.dist(pts[e[0]], pts[e[1]]))
    if all(abs(cross(i, j, k)) <= tol * math.dist(pts[i], pts[j]) for k in hull):
        return [i, j]
    while len(hull) > 3:
        k = next((k for k in range(len(hull))
                  if flat(hull[k - 1], hull[k], hull[(k + 1) % len(hull)])), None)
        if k is None:
            break
        del hull[k]
    return hull


class PolyCone:
    """Pointed polyhedral convex cone spanned by finitely many generators."""

    def __init__(self, generators):
        G = np.atleast_2d(np.asarray(generators, dtype=float))
        norms = np.linalg.norm(G, axis=1)
        G = G[norms > 1e-14]
        if len(G) == 0:
            raise ValueError("cone needs at least one nonzero generator")
        self.generators = G
        self.dim = G.shape[1]
        self._build()

    # -- structure -----------------------------------------------------------
    def _build(self):
        G = self.generators
        J = self.dim
        # pointedness certificate: the c in the generators' span with
        # <c, g> >= |g| for every generator that minimizes sum <c, g>/|g|
        # (vertex_lp's lexicographically largest such c); the span's
        # orthogonal complement (null rows of the SVD) enters as equalities
        _, sv, Vt = np.linalg.svd(G)
        null = Vt[int(np.sum(sv > 1e-12 * sv[0])):]
        norms = np.linalg.norm(G, axis=1)
        try:
            c = vertex_lp(-np.sum(G / norms[:, None], axis=0), -G, -norms,
                          null, np.zeros(len(null)))
        except LPFailure:
            raise QPFailure("cone is not pointed (no strictly positive functional)") from None
        self.axis = c / np.linalg.norm(c)

        if J >= 4:
            # the faces are not enumerated: NNLS at evaluation
            self.rays = G / norms[:, None]
            return
        # the faces are read off the hull of the generators' cross-section
        # in the hyperplane <axis, y> = 1; for J = 1 it is the one ray
        hull = [0]
        if J > 1:
            scale = G @ self.axis
            Q = G / scale[:, None]
            T = tangent_basis(self.axis)
            P = (Q - self.axis[None, :]) @ T.T          # (m, J-1)
            if J == 2:
                order = np.argsort(P[:, 0])
                hull = [order[0], order[-1]]
                if abs(P[order[0], 0] - P[order[-1], 0]) < 1e-13:
                    hull = [order[0]]
            else:
                hull = _hull_2d(P)
        # rays and facets in generator order, whatever the axis did to the
        # hull's vertex order
        vidx = np.sort(hull)
        self.rays = np.array([G[i] / np.linalg.norm(G[i]) for i in vidx])
        pos = {v: k for k, v in enumerate(vidx)}
        self.facets, self._facet_proj, normals = [], [], []
        if J == 2 and len(hull) == 2:
            # outward normals of the two bounding half-planes
            for r in self.rays:
                nrm = np.array([-r[1], r[0]])
                if np.mean(self.generators @ nrm) > 0:
                    nrm = -nrm
                normals.append(nrm)
        if J == 3:
            # the distinct hull edges: one for a segment, and none for a
            # point, whose edge (i, i) has cross(G_i, G_i) = 0
            for i, j in sorted({tuple(sorted(s)) for s in zip(hull, hull[1:] + hull[:1])}):
                ri, rj = G[i], G[j]
                nu = np.cross(ri, rj)
                if np.linalg.norm(nu) < 1e-14:
                    continue
                nu = nu / np.linalg.norm(nu)
                if np.max(self.generators @ nu) > 1e-10:
                    nu = -nu
                self.facets.append((pos[i], pos[j]))
                normals.append(nu)
        # the interior test only where the hull spans the cross-section
        self._facet_normals = np.array(normals) if len(hull) >= J and normals else None
        # each facet's projector B B^T onto its span, B an orthonormal
        # basis of its two rays
        for ki, kj in self.facets:
            B = np.linalg.qr(np.stack([self.rays[ki], self.rays[kj]], axis=1))[0]
            self._facet_proj.append(B @ B.T)

    # -- distance --------------------------------------------------------------
    def project_info(self, Z):
        """Projection plus the projector onto the active face's linear span.

        Returns (proj (n,J), A (n,J,J)); off the normal-fan ridges the
        distance is locally |(I - A) z|, which gives exact derivatives.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        J = self.dim
        n = len(Z)
        if J >= 4:
            return self._project_nnls(Z)

        # every candidate is the orthogonal projection of z onto its face's
        # span, so |z - c|^2 = |z|^2 - |c|^2: the nearest is the longest
        best = np.zeros_like(Z)                       # vertex candidate
        best_n2 = np.zeros(n)
        best_A = np.zeros((n, J, J))

        # ray candidates
        for r in self.rays:
            t = np.maximum(0.0, Z @ r)
            cand = t[:, None] * r[None, :]
            n2 = np.einsum("ij,ij->i", cand, cand)
            upd = n2 > best_n2
            best[upd] = cand[upd]
            best_n2[upd] = n2[upd]
            best_A[upd] = np.outer(r, r)[None, :, :]

        # facet candidates (2D subcones spanned by adjacent rays)
        for (ki, kj), proj in zip(self.facets, self._facet_proj):
            ri, rj = self.rays[ki], self.rays[kj]
            g11, g12, g22 = ri @ ri, ri @ rj, rj @ rj
            det = g11 * g22 - g12 * g12
            if abs(det) < 1e-14:
                continue
            b1, b2 = Z @ ri, Z @ rj
            a1 = (g22 * b1 - g12 * b2) / det
            a2 = (g11 * b2 - g12 * b1) / det
            feas = (a1 >= -1e-12) & (a2 >= -1e-12)
            if not feas.any():
                continue
            cand = a1[:, None] * ri[None, :] + a2[:, None] * rj[None, :]
            n2 = np.einsum("ij,ij->i", cand, cand)
            upd = feas & (n2 > best_n2)
            if upd.any():
                best[upd] = cand[upd]
                best_n2[upd] = n2[upd]
                best_A[upd] = proj[None, :, :]

        # interior of the full cone
        if self._facet_normals is not None:
            inside = np.all(Z @ self._facet_normals.T <= 1e-12, axis=1)
            best[inside] = Z[inside]
            best_A[inside] = np.eye(J)[None, :, :]
        return best, best_A

    def project(self, Z) -> np.ndarray:
        return self.project_info(Z)[0]

    def distance(self, Z) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return np.linalg.norm(Z - self.project(Z), axis=1)

    def _project_nnls(self, Z):
        from scipy.optimize import nnls
        G = self.generators.T            # (J, m)
        J = self.dim
        out = np.empty_like(Z)
        A = np.zeros((len(Z), J, J))
        for k, z in enumerate(Z):
            coef, _ = nnls(G, z)
            out[k] = G @ coef
            act = coef > 1e-12
            if act.any():
                B = np.linalg.qr(G[:, act])[0]
                A[k] = B @ B.T
        return out, A


def fattened_generators(base, delta: float) -> np.ndarray:
    """Generators of the conic hull of axis-fattened base vectors.

    The hull of {v +- delta e_k} contains the ball of radius delta/sqrt(J)
    around each base vector v, which is the margin used by gradient
    certificates of the mollified distance.
    """
    base = np.atleast_2d(np.asarray(base, dtype=float))
    J = base.shape[1]
    out = []
    for v in base:
        for k in range(J):
            e = np.zeros(J)
            e[k] = delta
            out.append(v + e)
            out.append(v - e)
    return np.array(out)


def _sphere_directions(J: int) -> np.ndarray:
    if J == 1:
        return np.array([[1.0], [-1.0]])
    if J == 2:
        th = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    if J == 3:
        pts = []
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                for c in (-1, 0, 1):
                    if a == b == c == 0:
                        continue
                    v = np.array([a, b, c], dtype=float)
                    pts.append(v / np.linalg.norm(v))
        return np.array(pts)
    rng = np.random.default_rng(12345)
    v = rng.standard_normal((4 * J * J, J))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# stencil points that MollifiedConeDistance projects at a time
_STENCIL_ROWS = 1 << 13


@dataclass
class MollifiedConeDistance:
    """Smoothed distance field to a polyhedral cone on a band of distances.

    value(z) = sum_q W_q dist(z - w u_q, cone) for a fixed stencil {u_q, W_q}
    of the radial kernel psi(|u|) ~ (1 - |u|^2)^3 on the ball of radius w,
    with weights normalized to sum exactly to one.  eta < dist < lam is the
    band on which the approximation and Hessian bounds are certified.
    reach is the largest stencil node norm (about 0.95 w): the exact distance
    is 1-Lipschitz and the weights are convex, so |value(z) - dist(z)| <
    reach.
    """

    cone: PolyCone
    eta: float
    lam: float
    eps: float
    width: float = field(init=False)
    reach: float = field(init=False)

    def __post_init__(self):
        if not (0 < self.eta < self.lam):
            raise BandEmpty(f"need 0 < eta < lam, got {self.eta}, {self.lam}")
        self.width = min(self.eta / 4.0, self.eps / 2.0)
        J = self.cone.dim
        # radial Gauss nodes on [0,1] against rho^(J-1) psi(rho)
        xs, ws = np.polynomial.legendre.leggauss(5)
        rho = 0.5 * (xs + 1.0)
        wr = 0.5 * ws
        psi = (1.0 - rho ** 2) ** 3
        dirs = _sphere_directions(J)
        nodes, weights = [], []
        for r, wrad in zip(rho, wr):
            for d in dirs:
                nodes.append(r * d)
                weights.append(wrad * (r ** (J - 1)) * ((1.0 - r * r) ** 3))
        self._nodes = np.array(nodes) * self.width
        w = np.array(weights)
        self._weights = w / w.sum()
        self.reach = float(np.max(np.linalg.norm(self._nodes, axis=1)))

    # -- evaluation ------------------------------------------------------------
    def _node_data(self, Z):
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        n, J = Z.shape
        q = len(self._nodes)
        shifted = (Z[:, None, :] - self._nodes[None, :, :]).reshape(n * q, J)
        proj, A = self.cone.project_info(shifted)
        w = shifted - proj
        d = np.linalg.norm(w, axis=1)
        return n, q, J, w, d, A

    def _blocks(self, Z):
        """The rows of Z in blocks whose stencils hold about _STENCIL_ROWS
        points together; a row's results do not depend on its block."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        step = max(1, _STENCIL_ROWS // len(self._nodes))
        return [Z[s:s + step] for s in range(0, len(Z), step)] or [Z]

    def value(self, Z) -> np.ndarray:
        return np.concatenate([self._value(B) for B in self._blocks(Z)])

    def jet(self, Z):
        """(value, gradient, Hessian) from one stencil projection: the
        stencil averages of dist, of the exact gradient (z' - proj z') /
        dist and of the exact a.e. Hessian (I - A - gg') / dist."""
        parts = [self._jet(B) for B in self._blocks(Z)]
        return tuple(np.concatenate(p) for p in zip(*parts))

    def _value(self, Z) -> np.ndarray:
        n, q, J, w, d, A = self._node_data(Z)
        return row_dot(d.reshape(n, q), self._weights)

    def _jet(self, Z):
        n, q, J, w, d, A = self._node_data(Z)
        safe = np.maximum(d, 1e-300)
        g = w / safe[:, None]
        G = np.einsum("nqj,q->nj", np.where(d[:, None] > 1e-12, g, 0.0).reshape(n, q, J),
                      self._weights)
        H = (np.eye(J)[None, :, :] - A - np.einsum("ni,nj->nij", g, g)) \
            / safe[:, None, None]
        H = np.where((d > 1e-12)[:, None, None], H, 0.0)
        return (row_dot(d.reshape(n, q), self._weights), G,
                np.einsum("nqij,q->nij", H.reshape(n, q, J, J), self._weights))

    def bracket(self, Z):
        """(lower, upper) bounds on value(Z) per row from one projection of
        the rows themselves, not of their stencils: dist(z) -+ reach, widened
        by 1e-9 relative and 1e-12 absolute for the rounding of the stencil
        sum."""
        d = self.cone.distance(Z)
        s = self.reach * (1.0 + 1e-9) + 1e-12
        return d - s, d + s

    def band_mask(self, Z) -> np.ndarray:
        d = self.cone.distance(Z)
        return (d > self.eta) & (d < self.lam)
