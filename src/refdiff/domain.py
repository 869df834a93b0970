"""Domains as intersections of boundary pieces with oblique reflection fields.

A domain G is the intersection of pieces G_i, each either a half-space
{<n_i, x> > c_i} or a smooth set {phi_i > 0}.  Each piece carries a
reflection field gamma_i normalized so that <n_i(x), gamma_i(x)> = 1 on the
piece.  A finite list of singular boundary points (where the reflection cone
degenerates) is part of the problem data; each such point carries the
certificate data used by the admissibility checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np

from .errors import (
    ChartMissing,
    EmptyActiveSet,
    LPFailure,
    ParallelNormals,
    SamplingFailure,
)

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"

# Registry of named boundary charts for curved pieces, so domains with smooth
# pieces can round-trip through JSON.  A chart factory maps params -> callable
# (resolution -> (points, weights)).
_CHART_REGISTRY: dict = {}


def register_chart(name: str, factory: Callable) -> None:
    _CHART_REGISTRY[name] = factory


def row_dot(X, Y) -> np.ndarray:
    """<X[k], Y[k]> over the last axis, broadcasting the rest (a point gives a
    scalar).  Each row is rounded as np.dot rounds it alone: a plain
    (n, J) @ (J,) product runs a matrix kernel whose fused multiply-adds round
    some rows differently, so a batch row would disagree with its point."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    if X.ndim == Y.ndim == 1:
        return X @ Y
    return (X[..., None, :] @ Y[..., :, None])[..., 0, 0]


def as_batch(y, J=None):
    """(batch, single): y as an (n, J) float array and whether y was one
    point.  A 1-D y is one point, except that with J == 1 a 1-D y of length
    other than one is a batch of n scalars; a 0-d y is one 1-D point."""
    Y = np.asarray(y, dtype=float)
    if Y.ndim == 0:
        return Y.reshape(1, 1), True
    if Y.ndim == 1:
        if J == 1 and Y.shape[0] != 1:
            return Y[:, None], False
        return Y[None, :], True
    return Y, False


def _as_unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ValueError("zero vector cannot be normalized")
    return v / nrm


class BoundaryPiece:
    """One face of the domain: a half-space or a smooth sublevel piece.

    Half-space pieces store a unit inward normal and an offset; their signed
    value <n, x> - c is the signed distance to the face.  Smooth pieces store
    a defining function phi (positive inside) with a gradient evaluator, and
    optionally a chart used for boundary quadrature.

    Every evaluator takes a point (J,) or a batch (n, J); a point is a batch
    of one, and row k of a batch result equals the result at X[k] bit for
    bit.  The callables of a smooth piece (phi, grad_phi and a callable gamma)
    are batch-first: they map an (n, J) array to (n,), (n, J) and (n, J).

    The reflection field gamma may be a constant vector or a callable; it is
    rescaled at evaluation time so that <n(x), gamma(x)> = 1.
    """

    def __init__(self, kind, normal=None, offset=0.0, phi=None, grad_phi=None,
                 gamma=None, chart=None, name=None):
        if kind not in ("half-space", "smooth"):
            raise ValueError(f"unknown piece kind {kind!r}")
        self.kind = kind
        self.name = name
        self.chart = chart
        if kind == "half-space":
            if normal is None:
                raise ValueError("half-space piece needs a normal")
            n = np.asarray(normal, dtype=float)
            if abs(np.linalg.norm(n) - 1.0) > 1e-12:
                n = _as_unit(n)
            self.normal = n
            self.offset = float(offset)
            self.phi = None
            self.grad_phi = None
        else:
            if phi is None or grad_phi is None:
                raise ValueError("smooth piece needs phi and grad_phi")
            self.phi = phi
            self.grad_phi = grad_phi
            self.normal = None
            self.offset = None
        if gamma is None:
            raise ValueError("piece needs a reflection field gamma")
        self._gamma = gamma if callable(gamma) else np.asarray(gamma, dtype=float)
        if self.constant_reflection:
            s = float(np.dot(self.normal, self._gamma))
            if s <= 0.0:
                raise ValueError(f"reflection vector has nonpositive normal component {s:.3e}")
            self._unit_gamma = self._gamma / s

    @property
    def constant_reflection(self) -> bool:
        """A flat face with one reflection vector for all of its points."""
        return self.kind == "half-space" and not callable(self._gamma)

    def value(self, x):
        """Signed piece value, positive inside and zero on the piece boundary:
        a float at a point, an (n,) array on a batch."""
        x = np.asarray(x, dtype=float)
        if self.kind == "half-space":
            v = row_dot(x, self.normal) - self.offset
        else:
            v = np.asarray(self.phi(np.atleast_2d(x)), dtype=float).reshape(x.shape[:-1])
        return float(v) if x.ndim == 1 else v

    def unit_normal(self, x) -> np.ndarray:
        """Unit inward normal at a point (or at the rows of a batch) on or
        near the piece."""
        x = np.asarray(x, dtype=float)
        if self.kind == "half-space":
            return np.full(x.shape, self.normal)
        G = np.asarray(self.grad_phi(np.atleast_2d(x)), dtype=float)
        nrm = np.sqrt(row_dot(G, G))
        if (nrm == 0.0).any():
            raise ValueError("zero vector cannot be normalized")
        return (G / nrm[:, None]).reshape(x.shape)

    def gamma(self, x) -> np.ndarray:
        """Reflection vector at a point (or at the rows of a batch), rescaled
        so <n(x), gamma(x)> = 1."""
        x = np.asarray(x, dtype=float)
        if self.constant_reflection:
            return np.full(x.shape, self._unit_gamma)
        X = np.atleast_2d(x)
        g = np.asarray(self._gamma(X), dtype=float) if callable(self._gamma) else self._gamma
        s = row_dot(self.unit_normal(X), g)
        if (s <= 0.0).any():
            k = int(np.argmax(s <= 0.0))
            raise ValueError(
                f"reflection field has nonpositive normal component {s[k]:.3e} at {X[k]}"
            )
        return (g / s[:, None]).reshape(x.shape)

    def to_json(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "half-space":
            d["normal"] = list(map(float, self.normal))
            d["offset"] = self.offset
        else:
            if self.name is None:
                raise ChartMissing("smooth piece without a registered name cannot be serialized")
            d["phi_ref"] = self.name
        if callable(self._gamma):
            d["gamma"] = self.name if self.name else "callable"
        else:
            d["gamma"] = list(map(float, self._gamma))
        return d


@dataclass
class SingularPoint:
    """A declared singular boundary point with its certificate data.

    v is the unit direction whose half-space contains all nearby reflection
    vectors; alpha bounds both the opening angle (<v, y-x> >= alpha |y-x|)
    and the diffusion ellipticity along v; radius bounds the certified
    neighborhood; c1 <= 1 < c2 are the sandwich constants of the two-sided
    ball inclusion (c1 = 1 is the borderline cone case; constructions that
    need strict slack replace it by a smaller certificate, which is always
    valid).
    """

    x: np.ndarray
    v: np.ndarray
    radius: float
    alpha: float
    c1: float
    c2: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if abs(np.linalg.norm(self.v) - 1.0) > 1e-10:
            raise ValueError("singular-point direction must be a unit vector")
        if not (0 < self.c1 <= 1 < self.c2):
            raise ValueError("sandwich constants must satisfy 0 < c1 <= 1 < c2")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    def h(self, y) -> np.ndarray:
        """Signed height <v, y - x> (vectorized over rows of y)."""
        y = np.asarray(y, dtype=float)
        return (y - self.x) @ self.v

    def to_json(self) -> dict:
        return {
            "x": list(map(float, self.x)),
            "v": list(map(float, self.v)),
            "r": float(self.radius),
            "alpha": float(self.alpha),
            "c1": float(self.c1),
            "c2": float(self.c2),
        }


@dataclass
class DomainSpec:
    """Intersection domain with reflection data and declared singular set."""

    dimension: int
    pieces: list
    singular_points: list = field(default_factory=list)
    bbox: Optional[tuple] = None
    bounded: bool = False
    active_tol: ClassVar[float] = 1e-9
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("domain needs at least one boundary piece")
        if self.bbox is None:
            self.bbox = (-np.ones(self.dimension), np.ones(self.dimension))
        lo, hi = self.bbox
        self.bbox = (np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        for v in self.singular_points:
            cls, _ = contains(self, v.x)
            if cls == EXTERIOR:
                raise ValueError(f"declared singular point {v.x} lies outside the closed domain")

    @property
    def constant_reflection(self) -> bool:
        """Polyhedral with a constant reflection vector on every face."""
        return self.cached("constant-reflection", lambda: all(
            p.constant_reflection for p in self.pieces))

    def tol_at(self, x):
        """Active-set tolerance active_tol (1 + |x|): a float at a point, an
        (n,) array on a batch."""
        x = np.asarray(x, dtype=float)
        tol = self.active_tol * (1.0 + np.sqrt(row_dot(x, x)))
        return float(tol) if x.ndim == 1 else tol

    def piece_values(self, x) -> np.ndarray:
        """Signed values of every piece: (m,) at a point, (n, m) on a batch."""
        x = np.asarray(x, dtype=float)
        return np.array([p.value(x) for p in self.pieces]).T

    def on_stratum(self, x, faces, eq_tol: float):
        """Whether a point (or each row of a batch) lies on the stratum of
        `faces`: |value_i| <= eq_tol on those faces, value_j >= -1e-9 on the
        others."""
        on = np.isin(np.arange(len(self.pieces)), faces)
        vals = self.piece_values(x)
        return np.all(np.where(on, np.abs(vals) <= eq_tol, vals >= -1e-9), axis=-1)

    def cached(self, key, build):
        """build() on the first request for key, the kept result after it:
        geometry that depends on the domain alone is computed once."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def face_arrays(self):
        """(normals (m, J), offsets (m,), unit reflection vectors (m, J)) of a
        constant-reflection polyhedron."""
        return self.cached("faces", lambda: (
            np.stack([p.normal for p in self.pieces]),
            np.array([p.offset for p in self.pieces]),
            np.stack([p._unit_gamma for p in self.pieces])))

    @property
    def strata(self) -> dict:
        """The nonempty boundary strata of a polyhedron, faces -> a point with
        exactly that active set (the LP representative), ordered by size and
        then lexicographically; empty when a piece is curved."""
        return self.cached("strata", lambda: _strata_table(self))

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "pieces": [p.to_json() for p in self.pieces],
            "V": [v.to_json() for v in self.singular_points],
            "bbox": [list(map(float, self.bbox[0])), list(map(float, self.bbox[1]))],
            "bounded": self.bounded,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def domain_from_json(d) -> DomainSpec:
    """Rebuild a domain from its JSON dict; smooth pieces resolve via the chart registry."""
    if isinstance(d, str):
        d = json.loads(d)
    pieces = []
    for pd in d["pieces"]:
        if pd["kind"] == "half-space":
            pieces.append(BoundaryPiece(
                "half-space", normal=pd["normal"], offset=pd["offset"], gamma=pd["gamma"]))
        else:
            ref = pd["phi_ref"]
            if ref not in _CHART_REGISTRY:
                raise ChartMissing(f"no registered builder for smooth piece {ref!r}")
            pieces.append(_CHART_REGISTRY[ref]())
    sing = [SingularPoint(v["x"], v["v"], v["r"], v["alpha"], v["c1"], v["c2"])
            for v in d.get("V", [])]
    return DomainSpec(
        dimension=d["dimension"], pieces=pieces, singular_points=sing,
        bbox=d.get("bbox"), bounded=d.get("bounded", False))


# ---------------------------------------------------------------------------
# Point classification and cones
# ---------------------------------------------------------------------------

def contains(domain: DomainSpec, x):
    """Classify a point as interior / boundary / exterior.

    Returns (classification, per-piece signed values).
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("point must be finite")
    vals = domain.piece_values(x)
    tol = domain.tol_at(x)
    m = float(np.min(vals))
    if m > tol:
        return INTERIOR, vals
    if m >= -tol:
        return BOUNDARY, vals
    return EXTERIOR, vals


def active_set(domain: DomainSpec, x, tol: Optional[float] = None) -> list:
    """Indices of pieces whose signed value vanishes at x (within tolerance)."""
    x = np.asarray(x, dtype=float)
    if tol is None:
        tol = domain.tol_at(x)
    vals = domain.piece_values(x)
    idx = [i for i, v in enumerate(vals) if abs(v) <= tol]
    if not idx:
        raise EmptyActiveSet(f"point {x} is not within {tol:.2e} of any piece")
    return idx


def direction_cone(domain: DomainSpec, x) -> list:
    """Generators {gamma_i(x) : i active at x} of the reflection cone."""
    idx = active_set(domain, x)
    return [domain.pieces[i].gamma(x) for i in idx]


@dataclass
class BoundaryFrame:
    """Active (point, piece) pairs of a point batch with their geometry.

    Pair k says piece[k] is active at points[row[k]], with unit inward normal
    normal[k] and reflection vector gamma[k]; pairs are ordered by row, then
    piece.
    """

    points: np.ndarray
    row: np.ndarray
    piece: np.ndarray
    normal: np.ndarray
    gamma: np.ndarray

    def active_sets(self) -> dict:
        """Row -> tuple of its active pieces, for every row with one."""
        out: dict = {}
        for r, i in zip(self.row.tolist(), self.piece.tolist()):
            out[r] = out.get(r, ()) + (i,)
        return out

    def inner(self, f) -> np.ndarray:
        """<gamma_i(y), grad f(y)> for every pair; f's gradient is taken once."""
        if not len(self.row):
            return np.empty(0)
        return np.einsum("kj,kj->k", f.gradient(self.points)[self.row], self.gamma)


def boundary_frame(domain: DomainSpec, B, rel_tol: Optional[float] = None) -> BoundaryFrame:
    """The boundary frame of a batch: piece i is active at y when
    |value_i(y)| <= rel_tol (1 + |y|), rel_tol defaulting to 10 active_tol."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if rel_tol is None:
        rel_tol = 10 * domain.active_tol
    tol = rel_tol * (1.0 + np.sqrt(row_dot(B, B)))
    row, piece = np.nonzero(np.abs(domain.piece_values(B)) <= tol[:, None])
    normal = np.empty((len(row), domain.dimension))
    gamma = np.empty_like(normal)
    for i in np.unique(piece):
        sel = piece == i
        normal[sel] = domain.pieces[i].unit_normal(B[row[sel]])
        gamma[sel] = domain.pieces[i].gamma(B[row[sel]])
    return BoundaryFrame(B, row, piece, normal, gamma)


def completely_s_at(domain: DomainSpec, x):
    """Test whether some inward-normal combination makes a strictly positive
    inner product with every active reflection vector.

    Returns (ok, certificate normal or None, margin t*) of positive_normal_lp.
    """
    x = np.asarray(x, dtype=float)
    normals, gammas = face_vectors(domain, active_set(domain, x), x)
    ok, s, t_star = positive_normal_lp(normals, gammas, x)
    return ok, (_as_unit(s @ normals) if ok else None), t_star


def face_vectors(domain: DomainSpec, faces, x):
    """Unit normals and reflection vectors, (k, J) each, of the given pieces
    at x."""
    return (np.stack([domain.pieces[i].unit_normal(x) for i in faces]),
            np.stack([domain.pieces[i].gamma(x) for i in faces]))


def _row_basis(R, candidates) -> list:
    """The candidate rows of R, in order, that are linearly independent of
    the ones taken before them (residual above 1e-9 of the row's norm after
    projecting out their span)."""
    chosen, Q = [], np.empty((0, R.shape[1]))
    for i in candidates:
        v = R[i]
        for _ in range(2):                      # Gram-Schmidt, twice
            v = v - Q.T @ (Q @ v)
        nv = np.linalg.norm(v)
        if nv > 1e-9 * np.linalg.norm(R[i]):
            chosen.append(i)
            Q = np.vstack([Q, v / nv])
    return chosen


def _pivot(R, h, neq, W, objs, size):
    """Active-set simplex on R x <= h, the first neq rows equalities: from
    the vertex of the working set W (n rows, the equalities among them),
    pivot to a vertex that maximizes the rows of objs lexicographically.

    At each vertex the multipliers y of every objective solve M^T y = obj,
    M = R[W]; a multiplier within 16 eps cond(M) |y| of zero counts as zero.
    Bland's rule: the lowest working inequality whose multipliers are
    lexicographically negative leaves, and the lowest of the rows that block
    the edge first enters, so no working set repeats.  Returns (W, x);
    raises LPFailure when the first objective is unbounded, or after
    64 pivots per row (a guard against cycling on rounding ties).  An edge
    that is unbounded for a later objective alone ends the pivoting there.
    """
    eps = np.finfo(float).eps
    n = R.shape[1]
    norms = np.linalg.norm(R, axis=1)
    for _ in range(64 * len(R)):
        W = sorted(W)
        M = R[W]
        x = np.linalg.solve(M, h[W])
        sv = np.linalg.svd(M, compute_uv=False)
        Y = np.linalg.solve(M.T, objs.T)                          # (n, p)
        tol = 16 * eps * sv[0] / sv[-1] * np.linalg.norm(Y, axis=0)
        sign = np.where(np.abs(Y) > tol, np.sign(Y), 0.0)
        lead = sign[np.arange(n), np.argmax(sign != 0, axis=1)]
        leaving = np.flatnonzero(lead[neq:] < 0)
        if not len(leaving):
            return W, x
        k = neq + int(leaving[0])
        d = np.linalg.solve(M, -np.eye(n)[k])                     # R[W[k]] d = -1
        Rd = R @ d
        block = Rd > 1e-12 * norms * np.linalg.norm(d)
        block[:neq] = False
        block[W] = False
        if not block.any():
            if sign[k, 0] < 0:
                raise LPFailure(f"{size} is unbounded")
            return W, x
        rows = np.flatnonzero(block)
        step = np.maximum(h[rows] - R[rows] @ x, 0.0) / Rd[rows]
        W[k] = int(rows[np.argmax(step <= step.min() * (1 + 1e-12))])
    raise LPFailure(f"{size}: no optimal vertex after {64 * len(R)} pivots")


def vertex_lp(c, A_ub, b_ub, A_eq=None, b_eq=None) -> np.ndarray:
    """An optimal vertex x of

        max <c, x>  over  A_ub x <= b_ub,  A_eq x = b_eq,

    by a dense active-set simplex (_pivot) in numpy.  The equalities are
    reduced to a row basis; a vertex is the solution of that basis and
    n - r inequalities, solved as one square system, with its rows in index
    order.  Phase 1 starts from the first n independent rows: if their
    solution x0 misses a constraint by more than 16 eps (|x| |row| + |rhs|),
    it minimizes s >= 0 over A_ub x - s <= b_ub (the starting rows without
    s), from x0 and the most violated row, and the LP is infeasible when
    s* > 16 eps (|x| max |row| + max |rhs|).  (Where the feasible set is
    about one point, with more than n rows tight, the vertex returned may
    miss a constraint by several times that rounding bound.)  Each pivot costs
    O(m n + n^3) for m rows; no C(m, n) enumeration of subsystems is made.

    Tie-break: from an optimal vertex the pivoting goes on to maximize
    (<c, x>, x_1, x_2, ...) lexicographically, so when the optimal face is
    bounded its lexicographically largest vertex is returned, whatever the
    order of the rows (when it is not, an optimal vertex is).

    Raises LPFailure, naming the problem size, when there is no feasible
    vertex (the problem is infeasible, or its feasible set contains a line)
    or when it is unbounded.
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    A = np.asarray(A_ub, dtype=float).reshape(-1, n)
    b = np.asarray(b_ub, dtype=float).reshape(-1)
    E = np.asarray([] if A_eq is None else A_eq, dtype=float).reshape(-1, n)
    f = np.asarray([] if b_eq is None else b_eq, dtype=float).reshape(-1)
    size = (f"LP with {n} variables, {len(A)} inequalities and "
            f"{len(E)} equalities")
    no_vertex = LPFailure(f"{size} has no feasible vertex (infeasible, or "
                          "its feasible set contains a line)")
    eq = _row_basis(E, range(len(E)))
    r = len(eq)
    # every row as R x <= h, the equality basis first
    R, h = np.vstack([E[eq], A]), np.concatenate([f[eq], b])

    def violation(x):
        """Each constraint's excess over its feasibility tolerance, every
        equality included (one outside the basis may contradict it)."""
        rows, rhs = np.vstack([E, A]), np.concatenate([f, b])
        gap = rows @ x - rhs
        gap[:len(E)] = np.abs(gap[:len(E)])
        return gap - 16 * np.finfo(float).eps * (
            np.linalg.norm(x) * np.linalg.norm(rows, axis=1) + np.abs(rhs))

    W = _row_basis(R, range(len(R)))
    if len(W) < n:
        raise no_vertex
    x = np.linalg.solve(R[W], h[W])
    gap = violation(x)
    if np.any(gap[:len(E)] > 0):
        raise no_vertex
    if np.any(gap > 0):
        # phase 1 in (x, s): rows off W relaxed by s, and -s <= 0 last
        worst = r + int(np.argmax((R @ x - h)[r:]))
        s_col = -np.ones(len(R))
        s_col[:r] = 0.0
        s_col[W] = 0.0
        R1 = np.vstack([np.column_stack([R, s_col]), -np.eye(n + 1)[n]])
        W1, x1 = _pivot(R1, np.append(h, 0.0), r, W + [worst], -np.eye(n + 1)[n:], size)
        scale = np.linalg.norm(x1[:n]) * np.max(np.linalg.norm(R, axis=1)) + np.max(np.abs(h))
        if x1[n] > 16 * np.finfo(float).eps * scale or np.any(violation(x1[:n])[:len(E)] > 0):
            raise no_vertex
        # W1's rows of R: n of them if s = 0 is active, else n + 1 that meet
        # at s* ~ 0 (a feasible set that is about one point); then the n
        # whose vertex violates the constraints least
        rows = [i for i in W1 if i < len(R)]
        subsets = [[i for i in rows if i != d] for d in rows[r:]] if len(rows) > n else [rows]
        W = min((Wd for Wd in subsets if len(_row_basis(R, Wd)) == n),
                key=lambda Wd: np.max(violation(np.linalg.solve(R[Wd], h[Wd]))))
    # phase 2: an optimal vertex, then the tie-break from it, along edges
    # on which <c, x> stays optimal
    W = _pivot(R, h, r, W, c[None], size)[0]
    return _pivot(R, h, r, W, np.vstack([c, np.eye(n)]), size)[1]


def positive_normal_lp(normals, gammas, x):
    """The completely-S LP on the (k, J) normals and reflection vectors of the
    pieces active at x:

        max t  over  s >= 0, sum s = 1,  <sum_i s_i n_i, gamma_j> >= t,

    solved by vertex_lp.  Returns (ok, weights s, t*), ok meaning t* > 1e-9.
    """
    k = len(normals)
    G = gammas @ normals.T          # G[j, i] = <gamma_j, n_i>
    # variables s_1..s_k, t:  -(G s)_j + t <= 0,  -s_i <= 0,  sum s = 1
    A_ub = np.block([[-G, np.ones((k, 1))], [-np.eye(k), np.zeros((k, 1))]])
    A_eq = np.concatenate([np.ones(k), [0.0]])[None, :]
    try:
        sol = vertex_lp(np.eye(k + 1)[k], A_ub, np.zeros(2 * k), A_eq, [1.0])
    except LPFailure as e:
        raise LPFailure(f"certificate LP failed at {x}: {e}") from None
    t_star = sol[k]
    return t_star > 1e-9, sol[:k], t_star


@dataclass
class StratumResult:
    indices: tuple
    representative: np.ndarray
    passed: bool
    margin: float


@dataclass
class CompletelySReport:
    strata: list
    boundary_is_certified: bool

    def failing(self):
        return [s for s in self.strata if not s.passed]


def _stratum_representative(domain: DomainSpec, faces):
    """A point of a polyhedron with exactly the given active faces, or None
    if the stratum is empty.

    Maximizes the slack t <= 0.999 of the other faces subject to the given
    faces holding with equality, inside the bounding box; vertex_lp's
    tie-break picks the point among the maximizers.
    """
    J = domain.dimension
    lo, hi = domain.bbox
    normals = np.array([p.normal for p in domain.pieces])
    offsets = np.array([p.offset for p in domain.pieces])
    on = np.array([i in faces for i in range(len(normals))])
    eye = np.eye(J + 1)
    # variables x (J), t:  -<n, x> + t <= -c off the faces,  lo <= x <= hi,
    # t <= 0.999;  <n, x> = c on the faces
    A_ub = np.vstack([np.hstack([-normals[~on], np.ones((int((~on).sum()), 1))]),
                      eye[:J], -eye[:J], eye[J:]])
    b_ub = np.concatenate([-offsets[~on], hi, -lo, [0.999]])
    A_eq = np.hstack([normals[on], np.zeros((int(on.sum()), 1))])
    try:
        sol = vertex_lp(eye[J], A_ub, b_ub, A_eq, offsets[on])
    except LPFailure:
        return None
    return sol[:J] if sol[J] > 1e-9 else None


def _strata_table(domain: DomainSpec) -> dict:
    """DomainSpec.strata: every face subset of a polyhedron, by size and then
    lexicographically, that has a representative."""
    from itertools import combinations
    if not all(p.kind == "half-space" for p in domain.pieces):
        return {}
    m = len(domain.pieces)
    table = {}
    for size in range(1, m + 1):
        for faces in combinations(range(m), size):
            rep = _stratum_representative(domain, faces)
            if rep is not None:
                table[faces] = rep
    return table


def check_completely_s(domain: DomainSpec) -> CompletelySReport:
    """Sweep one representative point per nonempty boundary stratum.

    Polyhedral case: the strata are the domain's strata table (face subsets
    with a nonempty relative interior inside the bounding box), each decided
    on its own faces at its representative.  Curved
    pieces are handled by sampling 200 boundary points.  The boundary is
    certified iff every stratum passes.
    """
    results = []
    if all(p.kind == "half-space" for p in domain.pieces):
        for faces, rep in domain.strata.items():
            ok, _, margin = positive_normal_lp(*face_vectors(domain, faces, rep), rep)
            results.append(StratumResult(faces, rep, ok, margin))
    else:
        pts = sample_boundary(domain, 200, seed=0)
        # strata from the default frame; each LP sees the pieces that
        # active_set would return, i.e. the frame at rel_tol = active_tol
        frame = boundary_frame(domain, pts, rel_tol=domain.active_tol)
        by_stratum = {}
        for r, idx in boundary_frame(domain, pts).active_sets().items():
            x, k = pts[r], frame.row == r
            if not k.any():
                raise EmptyActiveSet(f"point {x} is not within {domain.tol_at(x):.2e} "
                                     "of any piece")
            ok, _, margin = positive_normal_lp(frame.normal[k], frame.gamma[k], x)
            cur = by_stratum.get(idx)
            if cur is None or margin < cur.margin:
                by_stratum[idx] = StratumResult(idx, x, ok, margin)
        results = list(by_stratum.values())
    return CompletelySReport(results, all(r.passed for r in results))


def edge_normal(domain: DomainSpec, i: int, j: int, x):
    """Unit vector normal to the (i,j) edge and to n_i, pointing into face i."""
    x = np.asarray(x, dtype=float)
    ni = domain.pieces[i].unit_normal(x)
    nj = domain.pieces[j].unit_normal(x)
    c = float(np.dot(ni, nj))
    if abs(c) >= 1.0 - 1e-10:
        raise ParallelNormals(f"faces {i} and {j} have parallel normals at {x}")
    return (nj - c * ni) / np.sqrt(1.0 - c * c)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def cell_centers(lo, hi, per_axis):
    """Centers of a regular grid of cells over the box [lo, hi], one row per
    cell in C order, and the cell widths; per_axis is one count for every
    axis or a count per axis."""
    if np.isscalar(per_axis):
        per_axis = [int(per_axis)] * len(lo)
    axes = [l + (np.arange(n) + 0.5) * (h - l) / n
            for n, l, h in zip(per_axis, lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return (np.stack([m.ravel() for m in mesh], axis=1),
            [(h - l) / n for n, l, h in zip(per_axis, lo, hi)])


def sample_closure(domain: DomainSpec, n: int, seed: int = 0,
                   center=None, radius=None):
    """Rejection-sample n points from the closed domain (optionally inside a
    ball), in at most 400 rounds of candidates."""
    rng = np.random.default_rng(seed)
    lo, hi = domain.bbox
    if center is not None:
        center = np.asarray(center, dtype=float)
        lo = np.maximum(lo, center - radius)
        hi = np.minimum(hi, center + radius)
    out = np.empty((0, domain.dimension))
    tries = 0
    while len(out) < n and tries < 400:
        cand = rng.uniform(lo, hi, size=(max(4 * n, 256), domain.dimension))
        vals = domain.piece_values(cand)
        keep = np.all(vals >= -domain.active_tol, axis=1)
        if center is not None:
            keep &= np.linalg.norm(cand - center, axis=1) <= radius
        out = np.vstack([out, cand[keep]])
        tries += 1
    if len(out) < n:
        raise SamplingFailure(
            f"could not draw {n} points from the domain (got {len(out)})")
    return out[:n]


def project_to_piece(domain: DomainSpec, piece_index: int, x):
    """Project a point, or each row of a batch, onto the zero set of one piece.

    Smooth pieces take up to 30 Newton steps along the gradient; each row
    iterates until its own stopping test holds, exactly as it would alone.
    """
    p = domain.pieces[piece_index]
    x = np.asarray(x, dtype=float)
    if p.kind == "half-space":
        return x - np.multiply.outer(p.value(x), p.normal)
    X = np.atleast_2d(x).copy()
    live = np.arange(len(X))
    for _ in range(30):
        Y = X[live]
        v = p.value(Y)
        go = ~(np.abs(v) < 1e-13 * (1 + np.sqrt(row_dot(Y, Y))))
        live, Y, v = live[go], Y[go], v[go]
        if not len(live):
            break
        G = np.asarray(p.grad_phi(Y), dtype=float)
        X[live] = Y - v[:, None] * G / np.maximum(row_dot(G, G), 1e-300)[:, None]
    return X.reshape(x.shape)


def sample_boundary(domain: DomainSpec, n: int, seed: int = 0,
                    center=None, radius=None):
    """Sample ~n points on the boundary by projecting domain samples to pieces.

    Points are spread over the pieces; only projections that stay in the
    closed domain are kept, in candidate order, until piece i brings the
    count to (n // m + 1)(i + 1).
    """
    rng = np.random.default_rng(seed)
    m = len(domain.pieces)
    per = max(1, n // m + 1)
    pts = np.empty((0, domain.dimension))
    vols = sample_closure(domain, per * 3, seed=seed, center=center, radius=radius)
    for i in range(m):
        Y = project_to_piece(domain, i, vols[rng.permutation(len(vols))[:per * 2]])
        keep = np.all(domain.piece_values(Y) >= -10 * domain.tol_at(Y)[:, None], axis=1)
        if center is not None:
            keep &= np.sqrt(row_dot(Y - center, Y - center)) <= radius
        pts = np.vstack([pts, Y[keep][:per * (i + 1) - len(pts)]])
    if not len(pts):
        raise SamplingFailure("no boundary samples produced")
    return pts[:n]


def distance_to_boundary(domain: DomainSpec, x):
    """Distance from an interior point (a float), or from each row of a batch
    (an (n,) array), to the boundary.

    Exact for half-space pieces; Newton projection for smooth pieces.
    """
    x = np.asarray(x, dtype=float)
    d = np.full(x.shape[:-1], np.inf)
    for i, p in enumerate(domain.pieces):
        if p.kind == "half-space":
            d = np.minimum(d, np.abs(p.value(x)))
        else:
            D = project_to_piece(domain, i, x) - x
            d = np.minimum(d, np.sqrt(row_dot(D, D)))
    return float(d) if x.ndim == 1 else d


# ---------------------------------------------------------------------------
# Boundary quadrature
# ---------------------------------------------------------------------------

def tangent_basis(n: np.ndarray) -> np.ndarray:
    """(J-1, J) orthonormal basis of the hyperplane orthogonal to unit n."""
    J = len(n)
    basis = []
    for k in range(J):
        e = np.zeros(J)
        e[k] = 1.0
        t = e - np.dot(e, n) * n
        for b in basis:
            t = t - np.dot(t, b) * b
        nrm = np.linalg.norm(t)
        if nrm > 1e-10:
            basis.append(t / nrm)
        if len(basis) == J - 1:
            break
    return np.array(basis)


def boundary_quadrature(domain: DomainSpec, piece_index: int, resolution: int):
    """Weighted points approximating surface measure on one boundary piece.

    Half-space pieces are gridded in tangent coordinates clipped to the other
    pieces and the bounding box; smooth pieces require a chart.
    Returns (points (n, J), weights (n,)).
    """
    p = domain.pieces[piece_index]
    if p.kind == "smooth":
        if p.chart is None:
            raise ChartMissing(f"piece {piece_index} has no chart")
        pts, w = p.chart(resolution)
        return np.asarray(pts, dtype=float), np.asarray(w, dtype=float)

    J = domain.dimension
    n, c = p.normal, p.offset
    x0 = c * n
    if J == 1:
        return x0.reshape(1, 1), np.ones(1)
    T = tangent_basis(n)
    lo, hi = domain.bbox

    if J == 2:
        u = T[0]
        # exact parameter interval from the other (linear) constraints and bbox
        t_lo, t_hi = -np.inf, np.inf
        rows = [(q.normal, q.offset) for k, q in enumerate(domain.pieces)
                if k != piece_index and q.kind == "half-space"]
        for k in range(J):
            e = np.zeros(J)
            e[k] = 1.0
            rows.append((e, lo[k]))
            rows.append((-e, -hi[k]))
        curved = [q for k, q in enumerate(domain.pieces)
                  if k != piece_index and q.kind != "half-space"]
        for a, b in rows:
            au = float(np.dot(a, u))
            ax = float(np.dot(a, x0))
            if abs(au) < 1e-14:
                if ax < b - 1e-12:
                    return np.empty((0, J)), np.empty(0)
                continue
            t = (b - ax) / au
            if au > 0:
                t_lo = max(t_lo, t)
            else:
                t_hi = min(t_hi, t)
        if not np.isfinite(t_lo) or not np.isfinite(t_hi) or t_hi <= t_lo:
            return np.empty((0, J)), np.empty(0)
        ts = t_lo + (np.arange(resolution) + 0.5) * (t_hi - t_lo) / resolution
        pts = x0[None, :] + ts[:, None] * u[None, :]
        w = np.full(resolution, (t_hi - t_lo) / resolution)
        if curved:
            keep = np.ones(len(pts), dtype=bool)
            for q in curved:
                keep &= q.value(pts) >= -1e-9
            pts, w = pts[keep], w[keep]
        return pts, w

    # J >= 3: grid tangent coordinates over the bbox extent, keep feasible cells
    extents = []
    for t in T:
        lo_t = np.dot(np.where(t > 0, lo, hi) - x0, t)
        hi_t = np.dot(np.where(t > 0, hi, lo) - x0, t)
        extents.append((min(lo_t, hi_t), max(lo_t, hi_t)))
    coords, widths = cell_centers(*zip(*extents), resolution)
    cell = np.prod(widths)
    pts = x0[None, :] + coords @ T
    vals = domain.piece_values(pts)
    vals[:, piece_index] = 0.0
    keep = np.all(vals >= -1e-9, axis=1)
    inbox = np.all((pts >= lo - 1e-12) & (pts <= hi + 1e-12), axis=1)
    keep &= inbox
    return pts[keep], np.full(int(keep.sum()), cell)


# ---------------------------------------------------------------------------
# Singular-point certificate check
# ---------------------------------------------------------------------------

@dataclass
class CertificateReport:
    """Margins of the four singular-point certificate checks (>= 0 passes)."""

    angle_margin: float
    reflection_margin: float
    ellipticity_margin: float
    sandwich_left_margin: float
    sandwich_right_margin: float
    samples_used: int
    tol: float = 1e-9

    @property
    def passed(self) -> bool:
        return (self.angle_margin >= -self.tol
                and self.reflection_margin >= -self.tol
                and self.ellipticity_margin >= -self.tol
                and self.sandwich_left_margin >= -self.tol
                and self.sandwich_right_margin >= -self.tol)


def check_singular_certificate(domain: DomainSpec, sp: SingularPoint,
                               coefficients=None, samples: int = 2000,
                               seed: int = 0) -> CertificateReport:
    """Sampled verification of the singular-point certificate.

    Checks, over draws y from the closed domain near the point:
      (1) <v, y-x> >= alpha |y-x|;
      (2) <v, gamma_i(y)> >= 0 for active i at boundary samples;
      (3) v' a(y) v >= alpha (when coefficients are given);
      (4) the two-sided ball sandwich at 8 radii r < radius/c2.
    Margins are worst-case; margins above -1e-7 pass.
    """
    x, v = sp.x, sp.v
    lo, hi = domain.bbox
    reach = float(np.linalg.norm(hi - lo))
    r_eff = min(sp.radius, reach)
    Y = sample_closure(domain, samples, seed=seed, center=x, radius=r_eff)
    d = np.linalg.norm(Y - x, axis=1)
    h = (Y - x) @ v
    nz = d > 1e-12
    angle_margin = float(np.min(h[nz] - sp.alpha * d[nz])) if nz.any() else 0.0

    B = sample_boundary(domain, max(200, samples // 4), seed=seed + 1,
                        center=x, radius=r_eff)
    refl = np.einsum("kj,j->k", boundary_frame(domain, B).gamma, v)
    reflection_margin = float(np.min(refl)) if len(refl) else 0.0

    if coefficients is not None:
        av = row_dot(v @ coefficients.a(Y), v)
        ellipticity_margin = float(np.min(av) - sp.alpha)
    else:
        ellipticity_margin = 0.0

    # sandwich: for y in closed domain near x and r in the grid,
    #   |y-x| <= c1 r  =>  h(y) < r      (left)
    #   h(y) < r       =>  |y-x| <= c2 r (right)
    left = np.inf
    right = np.inf
    for r in np.linspace(r_eff / sp.c2 / 8, r_eff / sp.c2, 8, endpoint=False):
        mask_l = d <= sp.c1 * r
        if mask_l.any():
            left = min(left, float(np.min(r - h[mask_l])))
        mask_r = h < r
        if mask_r.any():
            right = min(right, float(np.min(sp.c2 * r - d[mask_r])))
    left = left if np.isfinite(left) else 0.0
    right = right if np.isfinite(right) else 0.0
    return CertificateReport(angle_margin, reflection_margin, ellipticity_margin,
                             left, right, samples, 1e-7)
