import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refdiff as rd
from refdiff import domain as dom
from refdiff.errors import EmptyActiveSet, LPFailure, ParallelNormals


@pytest.fixture(scope="module")
def orthant2():
    return rd.make_example("orthant", J=2)


@pytest.fixture(scope="module")
def gps2():
    return rd.make_example("gps", J=2)


def test_contains_classification(orthant2):
    d = orthant2.domain
    assert rd.contains(d, [1.0, 1.0])[0] == dom.INTERIOR
    assert rd.contains(d, [0.0, 1.0])[0] == dom.BOUNDARY
    assert rd.contains(d, [-0.1, 0.5])[0] == dom.EXTERIOR


def test_active_set_examples(orthant2, gps2):
    assert rd.active_set(orthant2.domain, [0.0, 0.0]) == [0, 1]
    assert rd.active_set(orthant2.domain, [0.0, 1.0]) == [0]
    # all faces active at the origin of the shared-resource preset
    assert rd.active_set(gps2.domain, [0.0, 0.0]) == [0, 1, 2]
    with pytest.raises(EmptyActiveSet):
        rd.active_set(orthant2.domain, [1.0, 1.0])


def test_active_set_monotone_in_tolerance(orthant2):
    rng = np.random.default_rng(0)
    d = orthant2.domain
    for _ in range(40):
        x = rng.uniform(0, 0.5, size=2)
        x[rng.integers(2)] = rng.uniform(0, 1e-6)
        try:
            small = set(rd.active_set(d, x, tol=1e-8))
        except EmptyActiveSet:
            small = set()
        big = set(rd.active_set(d, x, tol=1e-3))
        assert small <= big


def test_direction_cone(orthant2, gps2):
    gam = rd.direction_cone(orthant2.domain, [0.0, 1.0])
    assert len(gam) == 1 and np.allclose(gam[0], [1.0, 0.0])
    gam = rd.direction_cone(gps2.domain, [0.0, 1.0])
    assert np.allclose(gam[0], [1.0, -1.0])


def test_positive_normal_certificate(orthant2, gps2):
    ok, cert, margin = rd.completely_s_at(orthant2.domain, [0.0, 0.0])
    assert ok and margin > 0
    # certificate actually separates: positive inner product with all gammas
    for i in rd.active_set(orthant2.domain, [0.0, 0.0]):
        assert np.dot(cert, orthant2.domain.pieces[i].gamma([0, 0])) > 0
    ok, cert, margin = rd.completely_s_at(gps2.domain, [0.0, 0.0])
    assert not ok


def test_wedge_vertex_condition():
    w = rd.make_example("wedge")          # alpha = 1: antiparallel at vertex
    ok, _, _ = rd.completely_s_at(w.domain, [0.0, 0.0])
    assert not ok
    w2 = rd.make_example("wedge", theta1=np.pi / 8, theta2=np.pi / 8)
    ok, _, _ = rd.completely_s_at(w2.domain, [0.0, 0.0])
    assert ok


def test_completely_s_report_matches_bruteforce(orthant2, gps2):
    for system in (orthant2, gps2, rd.make_example("gps", J=3),
                   rd.make_example("wedge"), rd.make_example("orthant", J=3),
                   rd.make_example("halfline")):
        d = system.domain
        report = rd.check_completely_s(d)
        # each stratum's LP on its own faces decides as the LP on the
        # active set at its representative, margin bit for bit
        got = {tuple(r.indices): (r.passed, r.margin) for r in report.strata}
        # independent enumeration of all 2^m strata via the LP representative
        expect, nonempty = {}, []
        m = len(d.pieces)
        for size in range(1, m + 1):
            for subset in itertools.combinations(range(m), size):
                rep = dom._stratum_representative(d, set(subset))
                # and it is the exact lexicographically largest one
                _assert_close_or_both_none(rep, _exact_representative(d, subset))
                if rep is None:
                    continue
                nonempty.append((subset, rep))
                ok, _, margin = rd.completely_s_at(d, rep)
                expect[tuple(sorted(rd.active_set(d, rep)))] = (ok, margin)
        assert got == expect
        # the domain's strata table is that enumeration, bit for bit
        assert list(d.strata) == [faces for faces, _ in nonempty]
        for faces, rep in nonempty:
            assert np.array_equal(d.strata[faces], rep)


def test_edge_normal_examples(orthant2):
    n12 = rd.edge_normal(orthant2.domain, 0, 1, [0.0, 0.0])
    assert np.allclose(n12, [0.0, 1.0])
    # oblique pair reduces to e2 after normalization
    pieces = [
        dom.BoundaryPiece("half-space", normal=[1, 0], offset=0, gamma=[1, 0]),
        dom.BoundaryPiece("half-space", normal=np.array([1, 1]) / np.sqrt(2),
                          offset=0, gamma=np.array([1, 1]) / np.sqrt(2)),
    ]
    d = dom.DomainSpec(2, pieces, bbox=([-1, -1], [1, 1]))
    nij = rd.edge_normal(d, 0, 1, [0.0, 0.0])
    assert np.allclose(nij, [0.0, 1.0], atol=1e-12)
    with pytest.raises(ParallelNormals):
        rd.edge_normal(orthant2.domain, 0, 0, [0.0, 0.0])


def test_edge_normal_orthogonal_unit(gps2):
    rng = np.random.default_rng(1)
    d = gps2.domain
    for _ in range(20):
        x = np.array([rng.uniform(0.1, 2), 0.0])
        v = rd.edge_normal(d, 0, 1, x)
        assert abs(np.linalg.norm(v) - 1) < 1e-10
        assert abs(np.dot(v, d.pieces[0].unit_normal(x))) < 1e-10


def test_boundary_quadrature_square_face():
    pieces = [
        dom.BoundaryPiece("half-space", normal=[1, 0], offset=0, gamma=[1, 0]),
        dom.BoundaryPiece("half-space", normal=[-1, 0], offset=-1, gamma=[-1, 0]),
        dom.BoundaryPiece("half-space", normal=[0, 1], offset=0, gamma=[0, 1]),
        dom.BoundaryPiece("half-space", normal=[0, -1], offset=-1, gamma=[0, -1]),
    ]
    sq = dom.DomainSpec(2, pieces, bbox=([0, 0], [1, 1]), bounded=True)
    pts, w = rd.boundary_quadrature(sq, 0, 10)
    assert len(pts) == 10
    assert np.allclose(w, 0.1)
    assert np.allclose(pts[:, 0], 0.0)
    assert np.all((pts[:, 1] > 0) & (pts[:, 1] < 1))


def test_boundary_quadrature_wedge_ray():
    w = rd.make_example("wedge", box=4.0)
    pts, wt = rd.boundary_quadrature(w.domain, 0, 8)
    # face 1 is the positive x axis clipped at the box
    assert np.allclose(pts[:, 1], 0.0)
    assert np.isclose(wt.sum(), 4.0)


def test_boundary_quadrature_disk_chart():
    disk = rd.make_example("disk")
    pts, w = rd.boundary_quadrature(disk.domain, 0, 16)
    assert len(pts) == 16
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
    assert np.allclose(w, 2 * np.pi / 16)


def test_singular_certificate_gps_and_wedge():
    g = rd.make_example("gps", J=2)
    rep = rd.check_singular_certificate(g.domain, g.domain.singular_points[0],
                                        coefficients=g.coefficients,
                                        samples=1200, seed=2)
    assert rep.passed
    w = rd.make_example("wedge")
    sp = w.domain.singular_points[0]
    assert np.isclose(sp.c2, np.sqrt(2))
    rep = rd.check_singular_certificate(w.domain, sp,
                                        coefficients=w.coefficients,
                                        samples=1200, seed=2)
    assert rep.passed


def test_singular_certificate_detects_inflated_alpha():
    g = rd.make_example("gps", J=2)
    sp = g.domain.singular_points[0]
    bad = dom.SingularPoint(sp.x, sp.v, sp.radius, alpha=2.0 * sp.alpha,
                            c1=sp.c1, c2=sp.c2)
    rep = rd.check_singular_certificate(g.domain, bad,
                                        coefficients=g.coefficients,
                                        samples=1200, seed=3)
    assert rep.angle_margin < 0
    assert not rep.passed


def test_domain_json_roundtrip():
    o = rd.make_example("orthant", J=2)
    d2 = rd.domain_from_json(o.domain.dumps())
    assert d2.dimension == 2
    x = [0.3, 0.0]
    assert np.allclose(d2.piece_values(x), o.domain.piece_values(x))
    g = rd.make_example("gps", J=2)
    d3 = rd.domain_from_json(g.domain.dumps())
    assert len(d3.singular_points) == 1
    assert np.allclose(d3.singular_points[0].v, g.domain.singular_points[0].v)
    # a file written with the dropped well_posed key still loads
    d4 = rd.domain_from_json(dict(o.domain.to_json(), well_posed=True))
    assert d4.dumps() == o.domain.dumps()


def test_distance_to_boundary():
    o = rd.make_example("orthant", J=2)
    assert np.isclose(dom.distance_to_boundary(o.domain, [0.5, 2.0]), 0.5)
    disk = rd.make_example("disk")
    assert np.isclose(dom.distance_to_boundary(disk.domain, [0.25, 0.0]), 0.75,
                      atol=1e-8)


def _per_point_frame(domain, B, rel_tol):
    """The per-point active-set loop that boundary_frame replaces."""
    pairs, gammas = [], []
    for r, y in enumerate(B):
        try:
            idx = rd.active_set(domain, y, tol=rel_tol * (1 + np.linalg.norm(y)))
        except EmptyActiveSet:
            continue
        for i in idx:
            pairs.append((r, i))
            gammas.append(domain.pieces[i].gamma(y))
    return pairs, gammas


@pytest.mark.parametrize("name, params", [
    ("halfline", {}), ("orthant", {"J": 2}), ("wedge", {}), ("gps", {"J": 3}),
    ("disk", {}), ("cusp", {})])
@pytest.mark.parametrize("rel_tol", [None, 1e-7])
def test_boundary_frame_matches_per_point_loop(name, params, rel_tol):
    d = rd.make_example(name, **params).domain
    # boundary samples plus interior points, which must contribute no pair
    B = np.vstack([dom.sample_boundary(d, 300, seed=0),
                   dom.sample_closure(d, 20, seed=1)])
    frame = dom.boundary_frame(d, B, rel_tol=rel_tol)
    pairs, gammas = _per_point_frame(d, B, 10 * d.active_tol if rel_tol is None
                                     else rel_tol)
    assert list(zip(frame.row.tolist(), frame.piece.tolist())) == pairs
    assert len(pairs) >= 100
    assert np.array_equal(frame.gamma, np.array(gammas))
    for r, idx in frame.active_sets().items():
        assert idx == tuple(i for rr, i in pairs if rr == r)


def test_boundary_frame_inner_products():
    o = rd.make_example("orthant", J=2)
    B = np.array([[0.0, 0.0], [0.0, 1.5], [2.0, 0.0], [1.0, 1.0]])
    frame = dom.boundary_frame(o.domain, B)
    assert frame.active_sets() == {0: (0, 1), 1: (0,), 2: (1,)}
    f = rd.TestFunction(2, lambda Y: Y @ [1.0, 2.0], lambda Y: np.tile([1.0, 2.0], (len(Y), 1)),
                        lambda Y: np.zeros((len(Y), 2, 2)))
    expect = [np.dot(o.domain.pieces[i].gamma(B[r]), [1.0, 2.0])
              for r, i in zip(frame.row, frame.piece)]
    assert np.allclose(frame.inner(f), expect)
    empty = dom.boundary_frame(o.domain, np.empty((0, 2)))
    assert len(empty.row) == 0 and len(empty.inner(f)) == 0


def _newton_project_ref(domain, i, x, newton_steps=30):
    """The per-point Newton projection that the batched project_to_piece replaces."""
    p = domain.pieces[i]
    x = np.asarray(x, dtype=float).copy()
    if p.kind == "half-space":
        return x - p.value(x) * p.normal
    for _ in range(newton_steps):
        v = p.value(x)
        if abs(v) < 1e-13 * (1 + np.linalg.norm(x)):
            break
        g = p.grad_phi(x[None])[0]
        x = x - v * g / max(float(g @ g), 1e-300)
    return x


def _sample_boundary_ref(domain, n, seed=0, center=None, radius=None):
    """The per-candidate loop that the batched sample_boundary replaces."""
    rng = np.random.default_rng(seed)
    m = len(domain.pieces)
    per = max(1, n // m + 1)
    pts = []
    vols = dom.sample_closure(domain, per * 3, seed=seed, center=center, radius=radius)
    for i in range(m):
        cand = vols[rng.permutation(len(vols))[:per * 2]]
        for x in cand:
            y = _newton_project_ref(domain, i, x)
            tol = 10 * domain.tol_at(y)
            if np.all(domain.piece_values(y) >= -tol):
                if center is None or np.linalg.norm(y - center) <= radius:
                    pts.append(y)
            if len(pts) >= per * (i + 1):
                break
    out = np.array(pts)
    return out[:n] if len(out) >= n else out


_PRESETS = [("halfline", {}), ("orthant", {"J": 2}), ("wedge", {}), ("gps", {"J": 3}),
            ("disk", {}), ("cusp", {}), ("cusp", {"theta1": -0.3})]


@pytest.mark.parametrize("name, params", _PRESETS)
def test_batched_projection_matches_per_point_newton(name, params):
    d = rd.make_example(name, **params).domain
    X = dom.sample_closure(d, 200, seed=4)
    for i, p in enumerate(d.pieces):
        got = dom.project_to_piece(d, i, X)
        ref = np.array([_newton_project_ref(d, i, x) for x in X])
        # every row takes the same steps as alone, so even Newton rows agree bit for bit
        assert np.array_equal(got, ref)
        assert np.array_equal(dom.project_to_piece(d, i, X[7]), got[7])
    depth = dom.distance_to_boundary(d, X)
    assert np.array_equal(depth, [dom.distance_to_boundary(d, x) for x in X])


@pytest.mark.parametrize("name, params", _PRESETS)
@pytest.mark.parametrize("local", [False, True])
def test_batched_sample_boundary_keeps_first_accepted(name, params, local):
    d = rd.make_example(name, **params).domain
    kw = {}
    if local:
        lo, hi = d.bbox
        kw = {"center": lo + 0.25 * (hi - lo), "radius": 0.4 * float(np.linalg.norm(hi - lo))}
    got = dom.sample_boundary(d, 90, seed=3, **kw)
    ref = _sample_boundary_ref(d, 90, seed=3, **kw)
    assert len(ref) > 0
    assert np.array_equal(got, ref)


def _scalar_phis(name):
    """The default disk's and cusp's defining functions, one point at a time."""
    if name == "disk":
        return [lambda z: 1.0 - float(np.linalg.norm(z))]
    return [lambda z: (z[0] ** 2.0 - z[1]) if z[0] > 0 else -z[1],
            lambda z: (z[1] + z[0] ** 2.0) if z[0] > 0 else z[1]]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["disk", "cusp"]), st.sampled_from([0.0, -0.3]),
       st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                min_size=1, max_size=30))
def test_smooth_piece_batch_rows_equal_points(name, theta1, unit):
    d = rd.make_example(name, **({"theta1": theta1} if name == "cusp" else {})).domain
    lo, hi = d.bbox
    X = lo + np.array(unit) * (hi - lo)
    for p, phi in zip(d.pieces, _scalar_phis(name)):
        v, n, g = p.value(X), p.unit_normal(X), p.gamma(X)
        assert v.shape == (len(X),) and n.shape == g.shape == X.shape
        for k, x in enumerate(X):
            assert v[k] == p.value(x) == phi(x.tolist())
            assert np.array_equal(n[k], p.unit_normal(x))
            assert np.array_equal(g[k], p.gamma(x))
        assert np.allclose(np.einsum("kj,kj->k", n, g), 1.0, rtol=0.0, atol=1e-12)
    assert np.array_equal(d.piece_values(X),
                          np.array([d.piece_values(x) for x in X]))


def _counted(fn, calls):
    def wrapper(X):
        calls.append(len(X))
        return fn(X)
    return wrapper


def test_smooth_callables_run_once_per_batch():
    disk = rd.make_example("disk").domain
    p0 = disk.pieces[0]
    calls = {"phi": [], "grad_phi": [], "gamma": []}
    piece = dom.BoundaryPiece("smooth", phi=_counted(p0.phi, calls["phi"]),
                              grad_phi=_counted(p0.grad_phi, calls["grad_phi"]),
                              gamma=_counted(p0._gamma, calls["gamma"]))
    d = dom.DomainSpec(2, [piece], bbox=disk.bbox, bounded=True)
    X = np.random.default_rng(0).uniform(-1.0, 1.0, size=(10_000, 2))
    assert np.array_equal(d.piece_values(X), disk.piece_values(X))
    assert calls["phi"] == [10_000]

    B = dom.sample_boundary(disk, 300, seed=0)
    for c in calls.values():
        c.clear()
    frame = dom.boundary_frame(d, B)
    assert len(frame.row) == len(B)
    assert calls["phi"] == [len(B)] and calls["gamma"] == [len(B)]
    assert calls["grad_phi"] == [len(B)] * 2     # frame.normal and gamma's rescaling

    # two pieces: one gamma call per piece, whatever the pair count
    cusp = rd.make_example("cusp").domain
    gcalls = []
    pieces = [dom.BoundaryPiece("smooth", phi=q.phi, grad_phi=q.grad_phi,
                                gamma=_counted(q._gamma, gcalls)) for q in cusp.pieces]
    dc = dom.DomainSpec(2, pieces, bbox=cusp.bbox)
    frame = dom.boundary_frame(dc, dom.sample_boundary(cusp, 300, seed=0))
    assert len(gcalls) == len(np.unique(frame.piece)) == 2
    assert sum(gcalls) == len(frame.row)


def test_row_dot_rounds_each_row_as_np_dot():
    rng = np.random.default_rng(2)
    for J in (1, 2, 3, 4):
        X = rng.uniform(-10.0, 10.0, size=(500, J))
        Y = rng.uniform(-10.0, 10.0, size=(500, J))
        v = Y[0] / np.linalg.norm(Y[0])
        assert np.array_equal(dom.row_dot(X, Y), [np.dot(x, y) for x, y in zip(X, Y)])
        assert np.array_equal(dom.row_dot(X, v), [np.dot(v, x) for x in X])
        assert dom.row_dot(X[3], v) == np.dot(v, X[3])
        assert np.array_equal(np.sqrt(dom.row_dot(X, X)), [np.linalg.norm(x) for x in X])


def test_constant_face_rejects_tangent_reflection_at_construction():
    with pytest.raises(ValueError, match="nonpositive normal component"):
        dom.BoundaryPiece("half-space", normal=[1.0, 0.0], gamma=[-1.0, 2.0])
    face = dom.BoundaryPiece("half-space", normal=[0.0, 1.0], gamma=[0.5, 2.0])
    X = np.array([[0.0, 0.0], [3.0, 0.0]])
    assert np.array_equal(face.gamma(X), [[0.25, 1.0], [0.25, 1.0]])
    assert np.array_equal(face.gamma(X[1]), [0.25, 1.0])
    assert np.array_equal(face.unit_normal(X), [[0.0, 1.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# vertex_lp against an exact rational vertex enumeration; HiGHS, kept here as
# an independent solver, only has to give the same verdicts
# ---------------------------------------------------------------------------

def _exact_solve(M, rhs):
    """The solution of a square Fraction system, or None if it is singular."""
    n = len(M)
    T = [list(row) + [v] for row, v in zip(M, rhs)]
    for i in range(n):
        p = next((k for k in range(i, n) if T[k][i] != 0), None)
        if p is None:
            return None
        T[i], T[p] = T[p], T[i]
        for k in range(n):
            if k != i and T[k][i] != 0:
                m = T[k][i] / T[i][i]
                T[k] = [a - m * b for a, b in zip(T[k], T[i])]
    return [T[i][n] / T[i][i] for i in range(n)]


def _exact_rank(rows):
    """The rank of a list of Fraction rows, by elimination."""
    T, rank = [list(r) for r in rows], 0
    for j in range(len(T[0]) if T else 0):
        p = next((k for k in range(rank, len(T)) if T[k][j] != 0), None)
        if p is None:
            continue
        T[rank], T[p] = T[p], T[rank]
        for k in range(rank + 1, len(T)):
            m = T[k][j] / T[rank][j]
            T[k] = [a - m * b for a, b in zip(T[k], T[rank])]
        rank += 1
    return rank


def _exact_vertex_lp(c, A, b, E=(), f=()):
    """vertex_lp's contract in exact rationals: every vertex of
    {A x <= b, E x = f} by enumeration (E reduced to a row basis), and the
    lexicographically largest of those maximizing <c, x>; None if there is
    no vertex."""
    from fractions import Fraction

    def q(v):
        return [Fraction(float(a)) for a in v]

    c, A, b, E, f = q(c), [q(a) for a in A], q(b), [q(e) for e in E], q(f)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    basis = []
    for i in range(len(E)):
        if _exact_rank([E[j] for j in basis + [i]]) > len(basis):
            basis.append(i)
    verts = []
    for rows in itertools.combinations(range(len(A)), len(c) - len(basis)):
        x = _exact_solve([E[i] for i in basis] + [A[i] for i in rows],
                         [f[i] for i in basis] + [b[i] for i in rows])
        if (x is not None and all(dot(a, x) <= v for a, v in zip(A, b))
                and all(dot(e, x) == v for e, v in zip(E, f))):
            verts.append(x)
    if not verts:
        return None
    best = max(dot(c, x) for x in verts)
    return max(x for x in verts if dot(c, x) == best)


def _exact_margin(game):
    """t* of the completely-S LP, in exact rationals, from its game matrix
    G = Gamma N^T (G[j, i] = <gamma_j, n_i>)."""
    k = len(game)
    G = np.asarray(game, dtype=float)
    A = np.block([[-G, np.ones((k, 1))], [-np.eye(k), np.zeros((k, 1))]])
    return _exact_vertex_lp(np.eye(k + 1)[k], A, np.zeros(2 * k),
                            [np.append(np.ones(k), 0.0)], [1.0])[k]


def _exact_representative(d, faces):
    """The stratum representative LP of a polyhedron in exact rationals."""
    J = d.dimension
    lo, hi = d.bbox
    on = np.array([i in faces for i in range(len(d.pieces))])
    N = np.array([p.normal for p in d.pieces])
    c = np.array([p.offset for p in d.pieces])
    eye = np.eye(J + 1)
    A = np.vstack([np.hstack([-N[~on], np.ones(((~on).sum(), 1))]), eye[:J], -eye[:J], eye[J:]])
    x = _exact_vertex_lp(eye[J], A, np.concatenate([-c[~on], hi, -lo, [0.999]]),
                         np.hstack([N[on], np.zeros((on.sum(), 1))]), c[on])
    if x is None or x[J] <= 1e-9:
        return None
    return np.array([float(v) for v in x[:J]])


def _highs_margin(normals, gammas):
    """t* of the completely-S LP from scipy's HiGHS."""
    from scipy.optimize import linprog
    k = len(normals)
    res = linprog(np.concatenate([np.zeros(k), [-1.0]]),
                  A_ub=np.hstack([-(gammas @ normals.T), np.ones((k, 1))]),
                  b_ub=np.zeros(k), A_eq=np.concatenate([np.ones(k), [0.0]])[None, :],
                  b_eq=[1.0], bounds=[(0, None)] * k + [(None, None)], method="highs")
    assert res.success
    return -res.fun


def _close(got, exact):
    """Within 4 ulps of the exact value, relative to max(1, |value|)."""
    return abs(got - float(exact)) <= 4 * np.finfo(float).eps * max(1.0, abs(float(exact)))


def _assert_close_or_both_none(got, ref):
    assert (got is None) == (ref is None)
    if ref is not None:
        assert all(_close(g, r) for g, r in zip(got, ref))


def _orthant_domain(R):
    J = len(R)
    pieces = [dom.BoundaryPiece("half-space", normal=np.eye(J)[i], offset=0.0, gamma=R[:, i])
              for i in range(J)]
    return dom.DomainSpec(J, pieces, bbox=(np.zeros(J), 10.0 * np.ones(J)), bounded=False)


def _is_p_matrix(R):
    J = len(R)
    return all(np.linalg.det(R[np.ix_(s, s)]) > 0
               for k in range(1, J + 1) for s in itertools.combinations(range(J), k))


def _entries(bound, size):
    """Matrix entries in [-bound, bound], those below 1e-6 in size drawn as 0:
    HiGHS drops matrix entries below 1e-9, so its verdict on a smaller entry
    would answer another problem."""
    return st.lists(st.floats(-bound, bound).map(lambda v: 0.0 if abs(v) < 1e-6 else v),
                    min_size=size, max_size=size)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 3), _entries(1.5, 6))
def test_completely_s_matches_exact_lps_on_orthant_reflections(J, off):
    # unit-diagonal reflection matrices, P-matrices among them: margins
    # within 4 ulps of the exact ones, the exact (and HiGHS's) verdicts, and
    # the exact representatives: 0 on the stratum's faces and the box's 10
    # off them, the lexicographically largest points of slack 0.999
    R = np.eye(J)
    R[~np.eye(J, dtype=bool)] = off[:J * J - J]
    d = _orthant_domain(R)
    report = rd.check_completely_s(d)
    for r in report.strata:
        normals, gammas = dom.face_vectors(d, r.indices, r.representative)
        exact = _exact_margin(gammas @ normals.T)
        assert _close(r.margin, exact)
        assert r.passed == (exact > 1e-9) == (_highs_margin(normals, gammas) > 1e-9)
    if _is_p_matrix(R):
        assert report.boundary_is_certified
    for k in range(1, J + 1):
        for faces in itertools.combinations(range(J), k):
            off_faces = [i not in faces for i in range(J)]
            assert np.array_equal(d.strata.get(faces), np.where(off_faces, 10.0, 0.0))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda k: _entries(1.0, k * k)))
def test_positive_normal_lp_matches_exact_games(entries):
    # the completely-S LP is the value of the matrix game G = Gamma N^T
    k = int(round(len(entries) ** 0.5))
    gammas = np.array(entries).reshape(k, k)
    ok, s, t = dom.positive_normal_lp(np.eye(k), gammas, np.zeros(k))
    exact = _exact_margin(gammas)
    assert _close(t, exact)
    assert ok == (exact > 1e-9) == (_highs_margin(np.eye(k), gammas) > 1e-9)
    assert np.all(s >= -1e-15) and abs(s.sum() - 1.0) <= 1e-15
    assert np.min(gammas @ s) >= t - 1e-15


@pytest.mark.parametrize("gammas, value", [
    ([[1.0, 1.0, 0.0], [0.375, 0.25, 1.0], [0.5, 0.0, -1.0]], (7, 17)),
    ([[0.0, 0.0, -0.09375, -0.125], [0.25, -0.5, 0.0, 0.25], [-0.5, 0.0, -0.09375, -1.0],
      [-1.0, 0.0, 0.0, -0.0625]], (-3, 38)),
    ([[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -0.0625, -1.0], [0.0, 1.0, -0.5, 0.0],
      [-0.96875, -0.9375, 0.0, 0.0]], (-124, 721))])
def test_positive_normal_lp_gives_the_exact_game_value(gammas, value):
    # games whose rational value HiGHS misses by 1.2e-15 to 1.6e-15; the
    # vertex solve rounds it correctly
    k = len(gammas)
    t = dom.positive_normal_lp(np.eye(k), np.array(gammas), np.zeros(k))[2]
    assert abs(t - value[0] / value[1]) <= 1e-16


def test_vertex_lp_takes_the_lexicographically_largest_optimal_vertex():
    # max x0 + x1 over the triangle x >= 0, x0 + x1 <= 1: the optimal edge
    # has vertices (1, 0) and (0, 1), and (1, 0) is returned whatever the
    # row order
    A = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b = np.array([1.0, 0.0, 0.0])
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(dom.vertex_lp([1.0, 1.0], A[list(perm)], b[list(perm)]),
                              [1.0, 0.0])
    # an unbounded optimal face {x1 = 1, x0 >= 0}: its one vertex
    assert np.array_equal(dom.vertex_lp([0.0, 1.0], [[-1.0, 0.0], [0.0, 1.0]], [0.0, 1.0]),
                          [0.0, 1.0])
    # an equality row repeated, and a dependent one, reduce to one basis row
    x = dom.vertex_lp([0.0, 1.0], A, b, [[1.0, -1.0], [2.0, -2.0], [1.0, -1.0]], [0.0] * 3)
    assert np.array_equal(x, [0.5, 0.5])


def test_vertex_lp_pivots_where_enumeration_could_not_finish():
    # C(300, 6) ~ 1e12 square subsystems: the simplex visits a few dozen
    # vertices; HiGHS, an independent solver, finds the same optimum
    from scipy.optimize import linprog
    rng = np.random.default_rng(3)
    A, c = rng.standard_normal((300, 6)), rng.standard_normal(6)
    x = dom.vertex_lp(c, A, np.ones(300))
    ref = linprog(-c, A_ub=A, b_ub=np.ones(300), bounds=[(None, None)] * 6, method="highs")
    assert np.all(A @ x <= 1.0 + 1e-12)
    assert abs(c @ x + ref.fun) <= 1e-9 * abs(ref.fun)
    # every stratum of the 6-D orthant (3J - s + 1 rows each) and the
    # pointedness axis of its corner's fattened cone (2J^2 = 72 generators)
    # in well under a second each; enumeration needed ~250k and C(72, 6)
    # ~ 1.6e8 systems
    import time
    from refdiff.cones import PolyCone, fattened_generators
    t0 = time.perf_counter()
    report = rd.check_completely_s(rd.make_example("orthant", J=6).domain)
    G = fattened_generators(-np.eye(6), 0.1)
    axis = PolyCone(G).axis
    assert time.perf_counter() - t0 < 5.0
    assert len(report.strata) == 63 and report.boundary_is_certified
    assert np.all(G @ axis > 0.0)


def test_vertex_lp_accepts_a_feasible_set_that_is_about_one_point():
    # about half of 36 rows tight at one point: rounding leaves a cluster of
    # vertices there, and on these draws phase 1 ends at a point that misses
    # a row by more than its own 16 eps bound, though its shift s* is 0.
    # HiGHS, an independent solver, finds them feasible, and so must vertex_lp
    from scipy.optimize import linprog
    for seed in (163, 235, 724, 1468):
        rng = np.random.default_rng(seed)
        A, xs = rng.standard_normal((36, 5)), rng.standard_normal(5)
        b = A @ xs + np.where(rng.random(36) < 0.5, 0.0, rng.random(36))
        c = rng.standard_normal(5)
        x = dom.vertex_lp(c, A, b)
        ref = linprog(-c, A_ub=A, b_ub=b, bounds=[(None, None)] * 5, method="highs")
        assert ref.status == 0
        assert abs(c @ x + ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))


def test_vertex_lp_failures_name_the_problem_size():
    with pytest.raises(LPFailure, match="2 variables, 2 inequalities and 0 equalities"
                                         " has no feasible vertex"):
        dom.vertex_lp([1.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0])
    with pytest.raises(LPFailure, match="2 variables, 2 inequalities and 0 equalities"
                                         " is unbounded"):
        dom.vertex_lp([1.0, 1.0], [[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
    with pytest.raises(LPFailure, match="1 equalities has no feasible vertex"):
        dom.vertex_lp([1.0], [[1.0]], [1.0], [[1.0]], [2.0])


def test_empty_stratum_has_no_representative():
    # two parallel faces of a slab never meet; a face beyond the box is empty
    pieces = [dom.BoundaryPiece("half-space", normal=[1.0, 0.0], offset=0.0, gamma=[1.0, 0.0]),
              dom.BoundaryPiece("half-space", normal=[-1.0, 0.0], offset=-1.0, gamma=[-1.0, 0.0]),
              dom.BoundaryPiece("half-space", normal=[0.0, 1.0], offset=-5.0, gamma=[0.0, 1.0])]
    d = dom.DomainSpec(2, pieces, bbox=([-2.0, -2.0], [2.0, 2.0]))
    assert dom._stratum_representative(d, (0, 1)) is None
    assert dom._stratum_representative(d, (2,)) is None
    assert np.array_equal(dom._stratum_representative(d, (0,)), [0.0, 2.0])
