import collections
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import refdiff as rd
from refdiff import cli, cones
from refdiff import domain as dom
from refdiff import testfunctions as tf
from refdiff.cones import MollifiedConeDistance, PolyCone, fattened_generators
from refdiff.errors import NotInU, QPFailure, RadiusTooLarge, SamplingFailure, TooClose
from refdiff.profiles import rising_cutoff
from refdiff.solver import coordinate_step, radial_step
from refdiff.testfunctions import StratumModel, _stratum_model, combine


@pytest.fixture(scope="module")
def orthant2():
    return rd.make_example("orthant", J=2)


@pytest.fixture(scope="module")
def gps2():
    return rd.make_example("gps", J=2)


WEDGE, GPS3, DISK = ("wedge", {}), ("gps", {"J": 3}), ("disk", {})


@pytest.fixture(scope="module")
def cover_families():
    """get(system, N, eps) -> (system, its seed-0 cover family), each
    assembled once per module; system is (example name, parameters)."""
    cache = {}

    def get(system, N, eps):
        key = (system[0], tuple(sorted(system[1].items())), N, eps)
        if key not in cache:
            s = rd.make_example(system[0], **system[1])
            cache[key] = s, rd.assemble_cover_family(s.domain, s.coefficients,
                                                     N=N, eps=eps, seed=0)
        return cache[key]

    return get


# ---------------------------------------------------------------------------
# cone machinery
# ---------------------------------------------------------------------------

def test_polycone_halfplane_distance():
    cone = PolyCone([[1.0, 0.0], [0.0, 1.0]])   # first quadrant
    Z = np.array([[1.0, 1.0], [-1.0, 0.5], [-3.0, -4.0], [2.0, -1.0]])
    d = cone.distance(Z)
    assert np.allclose(d, [0.0, 1.0, 5.0, 1.0])


def test_polycone_3d_matches_nnls():
    from scipy.optimize import nnls
    for gens in (
            fattened_generators(-np.array([[1.0, -0.5, 0.2], [-0.3, 1.0, 0.1]]), 0.2),
            # generators in the plane z = x + y: the cone is a 2D wedge
            np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0],
                      [0.2, 1.0, 1.2]])):
        rng = np.random.default_rng(0)
        cone = PolyCone(gens)
        Z = rng.standard_normal((50, 3)) * 2
        d_fast = cone.distance(Z)
        G = gens.T
        d_ref = np.array([np.linalg.norm(z - G @ nnls(G, z)[0]) for z in Z])
        assert np.allclose(d_fast, d_ref, atol=1e-9)


@pytest.mark.parametrize("gens", [
    [[0.6, -0.8]],                                     # one generator in 2D
    [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0], [0.2, 1.0, 1.2]],   # coplanar in 3D
    [[1.0, 0.0, 0.0]], [[1.0, 2.0, 0.5], [2.0, 4.0, 1.0]]])       # a 3D ray, once and twice
def test_polycone_axis_is_strictly_positive_on_degenerate_cones(gens):
    # the pointedness LP has no vertex in R^J when the generators do not
    # span it; the axis is found in their span
    G = np.array(gens)
    cone = PolyCone(G)
    assert abs(np.linalg.norm(cone.axis) - 1.0) <= 1e-15
    assert np.all(G @ cone.axis > 0.0)
    assert np.linalg.matrix_rank(np.vstack([G, cone.axis])) == np.linalg.matrix_rank(G)
    Z = np.random.default_rng(5).standard_normal((30, G.shape[1]))
    assert np.all(np.isfinite(cone.distance(Z)))


@pytest.mark.parametrize("gens", [
    fattened_generators(-np.array([[1.0, -0.5, 0.2], [-0.3, 1.0, 0.1]]), 0.2),
    fattened_generators(-np.eye(4), 0.1),
    np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [1.0, 1.0]])])
def test_polycone_axis_does_not_depend_on_the_generator_order(gens):
    # the axis is the lexicographically largest minimizer of sum <c, g>/|g|
    # over <c, g> >= |g|, in the original coordinates: one point, whatever
    # the order of the rows
    axis = PolyCone(gens).axis
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(len(gens))
        assert np.max(np.abs(PolyCone(gens[perm]).axis - axis)) <= 1e-15


def test_polycone_rejects_a_cone_that_is_not_pointed():
    with pytest.raises(QPFailure, match="not pointed"):
        PolyCone([[1.0, 0.5], [-1.0, -0.5]])
    with pytest.raises(QPFailure, match="not pointed"):
        PolyCone([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, 0.0]])


@pytest.mark.parametrize("gens", [
    fattened_generators(-np.array([[1.0, -0.5, 0.2], [-0.3, 1.0, 0.1]]), 0.2),
    fattened_generators(-np.array([[1.0, 0.0, 0.3], [0.2, 1.0, 0.0], [0.0, 0.4, 1.0]]), 0.1),
    np.array([[0.3, 1.0], [1.0, 0.1], [1.0, 1.0], [0.1, 1.0]])])
def test_polycone_keeps_rays_and_facets_in_generator_order(gens):
    # the axis sets only the hull's cross-section, so it cannot reach the
    # projection through the hull's vertex order
    cone = PolyCone(gens)
    units = gens / np.linalg.norm(gens, axis=1)[:, None]
    idx = [int(np.argmin(np.linalg.norm(units - r, axis=1))) for r in cone.rays]
    assert idx == sorted(idx)
    if gens.shape[1] == 3:
        assert cone.facets == sorted(cone.facets)
        assert all(i < j for i, j in cone.facets)


def _qhull_cycle(P):
    """Qhull's hull of the rows of P (m, 2): the reference that
    cones._hull_2d replaced."""
    from scipy.spatial import ConvexHull
    return [int(v) for v in ConvexHull(P).vertices]


@st.composite
def _plane_points(draw):
    """Lattice points with repeated rows, points on the segments between
    them (rounded where t or the step is not dyadic) and points 1e-15 max|P|
    inside them, rotated or not.  Qhull's own cut for points just outside
    an edge is not one rule (it keeps some 5 eps out and drops others 15
    eps out), so no point is drawn there."""
    h = draw(st.sampled_from([1e-3, 0.1, 1.0, 3.0, 1e3]))
    node = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    P = h * np.array(draw(st.lists(node, min_size=3, max_size=12)), dtype=float)
    extra = []
    for kind, i, j, t in draw(st.lists(st.tuples(
            st.sampled_from(["repeat", "on", "inside"]), st.integers(0, len(P) - 1),
            st.integers(0, len(P) - 1), st.sampled_from([0.25, 0.5, 0.75, 1 / 3])),
            max_size=8)):
        a, b = P[i], P[j]
        q = a.copy() if kind == "repeat" else a + t * (b - a)
        if kind == "inside" and np.any(a != b):
            n = np.array([a[1] - b[1], b[0] - a[0]]) / np.linalg.norm(b - a)
            q += 1e-15 * np.max(np.abs(P)) * np.sign(n @ (P.mean(axis=0) - q)) * n
        extra.append(q)
    P = np.vstack([P] + extra)
    rot = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return P @ np.array([[np.cos(rot), np.sin(rot)], [-np.sin(rot), np.cos(rot)]])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(P=_plane_points())
# the last row is a rotated point of the segment between the first and the
# third, off it by rounding: Qhull finds the set flat
@example(P=np.array([[-5.0, 5.0], [-5.0, 5.0], [-1.0, 2.0],
                     [-3.999999999999997, 4.250000000000004]]))
def test_hull_2d_is_qhulls_hull(P):
    # the same vertices and edges, as points: of repeated rows Qhull may
    # keep another one; counter-clockwise, as Qhull's 2-D vertices are.
    # Where Qhull finds the points flat, exactly or to rounding, the hull is
    # the segment between the two farthest points
    from scipy.spatial import QhullError

    hull = cones._hull_2d(P)
    try:
        ref = _qhull_cycle(P)
    except QhullError:
        D = np.linalg.norm(P[:, None] - P[None], axis=2)
        a, b = np.unravel_index(np.argmax(D), D.shape)
        assert {tuple(P[i]) for i in hull} == {tuple(P[a]), tuple(P[b])}
        assert len(hull) == len({tuple(P[a]), tuple(P[b])})
        return

    def edges(cycle):
        return {frozenset([tuple(P[i]), tuple(P[j])]) for i, j in zip(cycle, np.roll(cycle, 1))}

    assert {tuple(P[i]) for i in hull} == {tuple(P[i]) for i in ref}
    assert edges(hull) == edges(ref)
    x, y = P[hull].T
    assert np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)) > 0.0


def test_preset_cones_have_qhulls_rays_and_facets(monkeypatch, tmp_path):
    # every 3-D cone that make-tests and check-domain build on the gps3
    # preset has the rays, facets and facet normals of the Qhull hull; one
    # of its cross-sections has points one ulp outside a hull edge, which
    # Qhull does not count as vertices
    built = []
    build = PolyCone._build

    def recorded(self):
        build(self)
        if self.dim == 3:
            built.append(self)

    monkeypatch.setattr(PolyCone, "_build", recorded)
    presets = Path(__file__).resolve().parents[1] / "presets"
    for cmd in ("make-tests", "check-domain"):
        assert cli.main([cmd, "--config", str(presets / "gps3.json"),
                         "--output", str(tmp_path / "out.json")]) == cli.EXIT_OK
    monkeypatch.setattr(PolyCone, "_build", build)
    monkeypatch.setattr(cones, "_hull_2d", _qhull_cycle)
    assert len(built) > 1 and all(cone.facets for cone in built)
    for cone in built:
        ref = PolyCone(cone.generators)
        assert np.array_equal(ref.rays, cone.rays)
        assert ref.facets == cone.facets
        assert np.array_equal(ref._facet_normals, cone._facet_normals)


@st.composite
def _low_dim_cones(draw):
    """(generators, query rows) of a pointed cone in J = 1, 2 or 3 with 1-8
    generators: lattice rows, some repeated or rescaled, and in 3-D also
    rows in a plane, exactly (lattice combinations) or to rounding (a
    rotated plane).  Rows are flipped into the half-space <c, g> > 0.  The
    queries lie on a grid of step 1/8: scipy's nnls, the reference, returns
    a point far from the cone's projection for a query whose inner products
    with the generators are below about 1e-16 of its norm but not zero."""
    J, kind = draw(st.sampled_from([(1, "full"), (2, "full"), (3, "full"),
                                    (3, "planar"), (3, "rotated")]))
    m = draw(st.integers(1, 8))
    lattice = st.integers(-4, 4)
    if kind == "full":
        G = np.array(draw(st.lists(st.lists(lattice, min_size=J, max_size=J),
                                   min_size=m, max_size=m)), dtype=float)
    else:
        xy = np.array(draw(st.lists(st.tuples(lattice, lattice), min_size=m,
                                    max_size=m)), dtype=float)
        if kind == "planar":
            UV = np.array(draw(st.lists(st.lists(lattice, min_size=3, max_size=3),
                                        min_size=2, max_size=2)), dtype=float)
        else:
            a, b = draw(st.sampled_from([0.3, 1.0, 2.2])), draw(st.sampled_from([0.7, 1.9]))
            UV = np.array([[np.cos(a), np.sin(a), 0.0],
                           [-np.sin(a) * np.cos(b), np.cos(a) * np.cos(b), np.sin(b)]])
        G = xy @ UV
    for i, scale in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                            st.sampled_from([1.0, 2.0, 0.3])), max_size=3)):
        G = np.vstack([G, scale * G[i]])
    c = np.array([1.0, 2 ** 0.5 / 3, 3 ** 0.5 / 7])[:J] * draw(st.sampled_from([1.0, -1.0]))
    G = G[np.any(G != 0.0, axis=1)]
    s = G @ c
    assume(len(G) and np.all(np.abs(s) > 1e-9 * np.linalg.norm(G, axis=1)))
    G *= np.sign(s)[:, None]
    Z = draw(arrays(float, (12, J), elements=st.integers(-64, 64).map(lambda k: k / 8)))
    return G, np.vstack([Z, G, -G, G[:1] + G[-1:], G[:1] - G[-1:]])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_low_dim_cones())
# a projection 1e-9 of the query's norm: its squared distance ties the
# vertex's to rounding, so the scan picks the longest candidate instead
@example(case=(np.array([[0.0, 1.0]]), np.array([[1.0, 1e-9], [-3.0, 1e-9]])))
def test_low_dim_projection_is_one_face_scan(case):
    # for J <= 3 every cone, flat or not, projects by its face list, never
    # by NNLS: the residual lies in the polar cone and is orthogonal to the
    # projection, the face projector fixes the projection, and scipy's nnls
    # (the reference) gives the same point
    from scipy.optimize import nnls

    G, Z = case
    with mock.patch.object(PolyCone, "_project_nnls", side_effect=AssertionError):
        proj, A = PolyCone(G).project_info(Z)
    scale = 1.0 + np.linalg.norm(Z, axis=1)
    tol = 1e-12 * scale
    R = Z - proj
    U = G / np.linalg.norm(G, axis=1)[:, None]
    assert np.all(np.max(R @ U.T, axis=1) <= tol)
    assert np.all(np.abs(np.einsum("ij,ij->i", proj, R)) <= tol * scale)
    assert np.all(np.linalg.norm(np.einsum("nij,nj->ni", A, proj) - proj, axis=1) <= tol)
    ref = np.array([G.T @ nnls(G.T, z)[0] for z in Z])
    assert np.all(np.linalg.norm(proj - ref, axis=1) <= tol)


def test_polycone_4d_orthant_projects_to_the_positive_part():
    # J >= 4 projects by NNLS: onto the orthant that is max(z, 0), and the
    # face projector marks the positive coordinates
    cone = PolyCone(np.eye(4))
    Z = np.random.default_rng(4).standard_normal((40, 4))
    proj, A = cone.project_info(Z)
    assert np.max(np.abs(proj - np.maximum(Z, 0.0))) <= 1e-12
    assert np.max(np.abs(A - np.eye(4) * (Z > 0)[:, None, :])) <= 1e-12


def test_polycone_4d_projection_satisfies_kkt():
    gens = fattened_generators(np.array([[1.0, 0.2, 0.1, 0.0], [0.0, 1.0, 0.3, 0.1],
                                         [0.2, 0.0, 1.0, 0.0], [0.1, 0.1, 0.0, 1.0]]), 0.1)
    cone = PolyCone(gens)
    Z = 2.0 * np.random.default_rng(5).standard_normal((40, 4))
    proj, A = cone.project_info(Z)
    R = Z - proj
    # the residual lies in the polar cone and is orthogonal to the projection
    assert np.max(R @ gens.T) <= 1e-12
    assert np.max(np.abs(np.einsum("ij,ij->i", proj, R))) <= 1e-12
    # the projection is fixed by the face projector
    assert np.max(np.abs(np.einsum("nij,nj->ni", A, proj) - proj)) <= 1e-12


def test_mollified_distance_near_halfspace():
    # pointed fan nearly filling the lower half-plane: above it, and away
    # from the fan edges, the distance is the height, up to the fan opening
    th = np.linspace(-np.pi + 0.05, -0.05, 41)
    cone = PolyCone(np.stack([np.cos(th), np.sin(th)], axis=1))
    mol = MollifiedConeDistance(cone, eta=0.1, lam=1.0, eps=0.05)
    rng = np.random.default_rng(1)
    z2 = rng.uniform(0.12, 0.8, 200)
    z1 = rng.uniform(-0.5, 0.5, 200) * z2
    Z = np.column_stack([z1, z2])
    assert np.max(np.abs(mol.value(Z) - z2)) <= 0.08


def test_mollified_distance_bounds_and_descent():
    gam = np.array([[1.0, -0.5], [-0.5, 1.0]])
    gens = fattened_generators(-gam, 0.3)
    cone = PolyCone(gens)
    mol = MollifiedConeDistance(cone, eta=0.12, lam=0.8, eps=0.05)
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((400, 2))
    band = mol.band_mask(Z)
    assert band.sum() > 50
    Zb = Z[band]
    # distance approximation within eps on the band
    assert np.max(np.abs(mol.value(Zb) - cone.distance(Zb))) <= 0.05
    # descent against every probe inside the fattened hull (the -gamma rays)
    _, G, H = mol.jet(Zb)
    assert float(np.max(G @ (-gam).T)) < 0
    # second differences bounded by 3/eta + 1
    assert np.max(np.abs(H)) <= 3.0 / 0.12 + 1.0


# ---------------------------------------------------------------------------
# interior bumps
# ---------------------------------------------------------------------------

def test_interior_bump_values(orthant2):
    f = rd.interior_bump(orthant2.domain, [1.0, 1.0], 0.25)
    assert f.value([1.0, 1.0]) == 1.0
    assert f.value([1.0 + 0.5 * 1.1, 1.0]) == 0.0
    # plateau on the half-radius ball
    assert f.value([1.0 + 0.24, 1.0]) == 1.0
    rep = rd.check_admissible(f, orthant2.domain, samples=400, seed=1)
    assert rep.passed
    with pytest.raises(TooClose):
        rd.interior_bump(orthant2.domain, [0.3, 1.0], 0.25)


def test_interior_bump_derivative_consistency(orthant2):
    f = rd.interior_bump(orthant2.domain, [1.0, 1.2], 0.36)
    probes = np.random.default_rng(3).uniform(0.5, 1.7, size=(100, 2))
    out = f.check_derivatives(probes)
    assert out["grad_err"] <= 1e-5
    assert out["hess_err"] <= 1e-4


def test_interior_bump_boundary_gradient_zero(orthant2):
    f = rd.interior_bump(orthant2.domain, [1.0, 1.0], 0.25)
    Y = np.column_stack([np.linspace(0, 3, 60), np.zeros(60)])
    assert np.all(f.gradient(Y) == 0.0)


def test_assembled_interior_bumps_are_interior_bumps():
    # the assembler skips interior_bump's clearance check (it knows the
    # depth), not its formulas
    w = rd.make_example("wedge")
    fam = rd.assemble_cover_family(w.domain, w.coefficients, N=1.0, eps=0.25, seed=0)
    inner = [b for b in fam.bumps if b.kind == "interior"]
    assert len(inner) > 100
    U = np.random.default_rng(15).uniform(-1.1, 1.1, size=(40, 2))
    for b in inner[::4]:
        f = rd.interior_bump(w.domain, b.x, b.r)
        # read off r before the bump builds its function
        assert b.support_radius == f.support_radius
        assert b.bound_triple == f.bound_triple
        Y = b.x + math.sqrt(b.r) * U
        assert np.array_equal(b.func._value(Y), f._value(Y))
        for got, want in zip(b.func.jet(Y), f.jet(Y)):
            assert np.array_equal(got, want)
        assert b.func.bound_triple == f.bound_triple
        assert b.func.support_radius == f.support_radius
    with pytest.raises(TooClose):
        rd.interior_bump(w.domain, [1.0, 0.1], 0.04)


# ---------------------------------------------------------------------------
# singular bumps and ramps
# ---------------------------------------------------------------------------

def test_singular_bump_properties(gps2):
    sp = gps2.domain.singular_points[0]
    f = rd.singular_bump(gps2.domain, sp, r=0.4)
    assert f.value([0.0, 0.0]) == 1.0
    # one on the inner certificate ball (shrunk c1), zero past the slab
    assert f.value([0.1, 0.1]) == 1.0
    far = np.array([[3.0, 3.0], [0.0, 4.0]])
    assert np.all(f._value(far) == 0.0)
    # admissibility: gradient is a nonpositive multiple of v
    Y = rd.domain.sample_boundary(gps2.domain, 300, seed=4)
    G = f.gradient(Y)
    for i in range(2):
        gam = gps2.domain.pieces[i].gamma([1.0, 0.0])
        assert np.max(G @ gam) <= 1e-12
    with pytest.raises(RadiusTooLarge):
        rd.singular_bump(gps2.domain, sp, r=-1.0)


def test_singular_bump_derivative_consistency(gps2):
    sp = gps2.domain.singular_points[0]
    f = rd.singular_bump(gps2.domain, sp, r=0.4)
    probes = np.random.default_rng(19).uniform(0.0, 0.8, size=(100, 2))
    out = f.check_derivatives(probes)
    assert out["grad_ok"] and out["hess_ok"]


def test_singular_bump_bound_triple(gps2):
    sp = gps2.domain.singular_points[0]
    f = rd.singular_bump(gps2.domain, sp, r=0.5)
    A0, A1, A2 = f.bound_triple
    P = np.random.default_rng(5).uniform(0, 1.2, size=(500, 2))
    assert np.abs(f._value(P)).max() <= A0
    assert np.linalg.norm(f.gradient(P), axis=1).max() <= A1
    assert np.abs(f.hessian(P)).sum(axis=(1, 2)).max() <= A2


def _resampled_sups(prof, grid):
    return float(np.max(np.abs(prof.d1(grid)))), float(np.max(np.abs(prof.d2(grid))))


def test_bump_bound_triples_match_resampled_cutoff_sups(orthant2, gps2):
    # the sup constants are computed once; each bump used to resample them
    s1, s2 = _resampled_sups(rd.cutoff(0.5, 1.0), np.linspace(0.4, 1.1, 201))
    for x, r in (([1.0, 1.0], 0.25), ([1.0, 1.2], 0.36), ([2.0, 1.5], 0.5)):
        rho = math.sqrt(r)
        f = rd.interior_bump(orthant2.domain, x, r)
        assert f.bound_triple == (1.0, 2.0 * s1 / rho, (16.0 * s2 + 4.0 * s1) / rho ** 2)
    s1, s2 = _resampled_sups(rising_cutoff(0.5, 1.0), np.linspace(-0.1, 2.2, 301))
    sp = gps2.domain.singular_points[0]
    kappa = 1.0 - min(sp.c1, 0.75)
    A = max(1.0, 2.0 * s1 / kappa, 4.0 * s2 / kappa ** 2 * float(np.sum(np.abs(sp.v)) ** 2))
    for r in (0.4, 0.5):
        assert rd.singular_bump(gps2.domain, sp, r=r).bound_triple == (A, A / r, A / r ** 2)


def test_singular_ramp_constants(gps2):
    sp = gps2.domain.singular_points[0]
    f, report = rd.singular_ramp(gps2.domain, sp, delta=2e-5, eps=0.04,
                                 coefficients=gps2.coefficients)
    assert f.value([0.0, 0.0]) == 0.0
    assert report["sup_value"] <= report["sup_bound"] * (1 + 1e-6)
    assert report["sup_gradient"] <= report["grad_bound"] * (1 + 1e-6)
    assert report["band_curvature_min"] >= 2.0 - 1e-9
    # negated ramp is admissible
    rep = rd.check_admissible(-f, gps2.domain, samples=400, seed=6)
    assert rep.passed


def test_singular_ramp_second_order_term_1d():
    hs = rd.make_example("halfline")
    sp = dom.SingularPoint([0.0], [1.0], radius=np.inf, alpha=1.0, c1=0.5, c2=1.5)
    d2 = dom.DomainSpec(1, hs.domain.pieces, singular_points=[sp],
                        bbox=hs.domain.bbox)
    delta, eps = 2e-5, 0.04
    f, _ = rd.singular_ramp(d2, sp, delta=delta, eps=eps)
    y = np.array([eps / 4.0])
    assert eps / 4.0 >= delta + 2 * np.sqrt(delta)
    # a = 1: second-order term equals the profile curvature >= 2
    assert f.hessian(y)[0, 0] >= 2.0 - 1e-9


# ---------------------------------------------------------------------------
# boundary bumps
# ---------------------------------------------------------------------------

def test_boundary_bump_face(orthant2):
    g = rd.boundary_bump(orthant2.domain, [1.0, 0.0], 0.5)
    assert g.value([1.0, 0.0]) == 1.0
    assert g.value([1.6, 0.0]) == 0.0
    assert g.value([1.0 + 0.9 * g.info["plateau_radius"], 0.0]) == 1.0
    Y = np.column_stack([np.linspace(0.55, 1.45, 200), np.zeros(200)])
    gam = orthant2.domain.pieces[1].gamma([1.0, 0.0])
    assert np.max(g.gradient(Y) @ gam) <= 1e-12
    rep = rd.check_admissible(g, orthant2.domain, samples=500, seed=7)
    assert rep.passed


def test_boundary_bump_support_in_ball(orthant2):
    g = rd.boundary_bump(orthant2.domain, [1.0, 0.0], 0.5)
    rng = np.random.default_rng(8)
    Y = np.array([1.0, 0.0]) + rng.uniform(-0.8, 0.8, size=(800, 2))
    Y = Y[np.linalg.norm(Y - [1.0, 0.0], axis=1) >= 0.5]
    assert np.all(g._value(Y) == 0.0)


def _boundary_bump_reference(model, x, r, Y):
    """The bump formula that evaluates every row of Y and then zeroes the
    rows outside the support."""
    mol, zeta, anchor = model.mol, model.zeta, model.anchor
    Z = (Y - x) / r + anchor
    outside = np.linalg.norm(Y - x, axis=1) >= r
    k = mol.jet(Z)[0]
    value = zeta.value(k)
    s1, s2 = zeta.d1(k), zeta.d2(k)
    grad = np.zeros_like(Y)
    act = s1 != 0.0
    grad[act] = (s1[act][:, None] / r) * mol.jet(Z[act])[1]
    hess = np.zeros((len(Y), len(x), len(x)))
    act = (s1 != 0.0) | (s2 != 0.0)
    _, G, H = mol.jet(Z[act])
    hess[act] = (s2[act][:, None, None] * np.einsum("ni,nj->nij", G, G)
                 + s1[act][:, None, None] * H) / (r * r)
    for out in (value, grad, hess):
        out[outside] = 0.0
    return value, grad, hess


@pytest.mark.parametrize("system, x, r", [("orthant2", [1.0, 0.0], 0.5),
                                          ("gps2", [1.0, 0.0], 0.4),
                                          ("gps2", [0.0, 1.5], 0.3)])
def test_boundary_bump_evaluates_only_its_support(system, x, r, request):
    domain = request.getfixturevalue(system).domain
    x = np.asarray(x)
    g = rd.boundary_bump(domain, x, r)
    model = _stratum_model(domain, x)
    for seed in range(11, 16):
        Y = x + np.random.default_rng(seed).uniform(-1.6 * r, 1.6 * r, size=(400, 2))
        inside = np.linalg.norm(Y - x, axis=1) < r
        assert 50 < inside.sum() < 350
        # The reference runs on the rows inside the support, not on the whole
        # batch: the mollified distance's weighted sum is one matrix product,
        # which rounds the last few rows of a batch apart from the others, so
        # a row's last bits depend on which rows share its batch.
        want = _boundary_bump_reference(model, x, r, Y[inside])
        for out, ref in zip((g.value(Y), g.gradient(Y), g.hessian(Y)), want):
            assert np.all(out[~inside] == 0.0)
            assert np.array_equal(out[inside], ref)


def test_boundary_bump_reflected_cone_separation(orthant2):
    # the shifted reflected cone meets the closed domain only at the apex
    model = _stratum_model(orthant2.domain, np.array([1.0, 0.0]))
    rng = np.random.default_rng(9)
    m = len(model.cone.generators)
    coef = rng.uniform(0, 1, size=(300, m))
    pts = np.array([1.0, 0.0]) + 0.4 * (coef @ model.cone.generators)
    keep = np.linalg.norm(pts - [1.0, 0.0], axis=1) > 1e-8
    vals = orthant2.domain.piece_values(pts[keep])
    assert np.all(np.min(vals, axis=1) < -1e-12)


def _separation_lp(normals, gammas):
    """The separation of the reflected hull conv(-gamma_j) from the domain
    cone, -max over that hull of min_i <n_i, d>, from its own LP: the
    reference for StratumModel.separation."""
    from scipy.optimize import linprog
    k = len(normals)
    c = np.zeros(k + 1)
    c[-1] = -1.0
    G = normals @ (-gammas.T)
    A_ub = np.hstack([-G, np.ones((k, 1))])
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(k),
                  A_eq=np.concatenate([np.ones(k), [0.0]])[None, :], b_eq=[1.0],
                  bounds=[(0, None)] * k + [(None, None)], method="highs")
    assert res.success
    return res.fun


def _stratum_points(domain):
    if domain.strata:
        return list(domain.strata.values())
    th = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    return list(np.stack([np.cos(th), np.sin(th)], axis=1))     # the unit disk


@pytest.mark.parametrize("name, params", [
    ("gps", {"J": 3}), ("wedge", {}), ("orthant", {"J": 2, "box": 4.0}),
    ("orthant", {"J": 3}), ("gps", {"J": 2}), ("disk", {}),
    ("halfline", {"box": 20.0}), ("orthant", {"J": 2, "D": [[1.0, 0.5], [0.3, 1.0]]})])
def test_separation_is_the_certificate_margin(name, params):
    # by LP duality the separation LP and the completely-S LP have one value
    d = rd.make_example(name, **params).domain
    built = 0
    for x in _stratum_points(d):
        idx = dom.active_set(d, x)
        ref = _separation_lp(np.stack([d.pieces[i].unit_normal(x) for i in idx]),
                             np.stack([d.pieces[i].gamma(x) for i in idx]))
        try:
            model = StratumModel(d, x)
        except NotInU:
            assert ref <= 1e-9
            continue
        assert abs(model.separation - ref) <= 4 * np.spacing(ref)
        built += 1
    assert built >= 1


@pytest.mark.parametrize("name, params, x", [
    ("gps", {"J": 3}, [0.0, 0.0, 1.0]), ("wedge", {}, [1.0, 0.0])])
def test_stratum_model_solves_one_certificate_lp(monkeypatch, name, params, x):
    # the completely-S LP and the cone's pointedness LP; nothing else
    d = rd.make_example(name, **params).domain
    calls = []
    vertex_lp = dom.vertex_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return vertex_lp(*args, **kwargs)

    monkeypatch.setattr(dom, "vertex_lp", counted)
    monkeypatch.setattr(cones, "vertex_lp", counted)
    StratumModel(d, np.array(x))
    assert len(calls) == 2


def test_boundary_bump_oblique(gps2):
    g = rd.boundary_bump(gps2.domain, [1.0, 0.0], 0.4)
    Y = np.column_stack([np.random.default_rng(10).uniform(0.6, 1.4, 200),
                         np.zeros(200)])
    gam = gps2.domain.pieces[1].gamma([1.0, 0.0])
    inner = g.gradient(Y) @ gam
    assert np.max(inner) <= 1e-12
    assert np.min(inner) < -1e-6       # strictly decreasing somewhere


def test_boundary_bump_not_in_u(gps2):
    with pytest.raises(NotInU):
        rd.boundary_bump(gps2.domain, [0.0, 0.0], 0.1)


def test_boundary_bump_translation_covariance(orthant2):
    g1 = rd.boundary_bump(orthant2.domain, [1.0, 0.0], 0.4)
    g2 = rd.boundary_bump(orthant2.domain, [1.7, 0.0], 0.4)
    shift = np.array([0.7, 0.0])
    Y = np.random.default_rng(11).uniform([0.6, 0.0], [1.4, 0.5], size=(100, 2))
    assert np.max(np.abs(g1._value(Y) - g2._value(Y + shift))) <= 1e-10
    assert np.max(np.abs(g1.gradient(Y) - g2.gradient(Y + shift))) <= 1e-10


def test_boundary_bump_bound_triple_dominates(orthant2):
    g = rd.boundary_bump(orthant2.domain, [1.0, 0.0], 0.5)
    A0, A1, A2 = g.bound_triple
    P = np.array([1.0, 0.0]) + 0.5 * np.random.default_rng(12).uniform(
        -1, 1, size=(600, 2))
    assert np.abs(g._value(P)).max() <= A0
    assert np.linalg.norm(g.gradient(P), axis=1).max() <= A1
    assert np.abs(g.hessian(P)).sum(axis=(1, 2)).max() <= A2


@pytest.mark.parametrize("J", [1, 2, 3, 4])
def test_ball_samples_lie_inside_the_unit_ball(J):
    # bump_constants reads a stratum's constants off the unit bump on these
    # rows, so each must lie in that bump's support |y| < 1
    Y = tf._ball_samples(J, 300)
    assert Y.shape == (300, J)
    assert np.all(np.linalg.norm(Y, axis=1) < 1.0)


@pytest.mark.parametrize("system, x", [("orthant2", [1.0, 0.0]),
                                       ("gps2", [1.0, 0.0]), ("gps2", [0.0, 1.5])])
def test_bump_constants_are_the_chain_rule_sups(system, x, request):
    # the sup constants by the chain rule on one jet of the 300 ball samples
    model = _stratum_model(request.getfixturevalue(system).domain, np.asarray(x))
    zeta = model.zeta
    k, G, H = model.mol.jet(tf._ball_samples(2, 300) + model.anchor)
    s1, s2 = zeta.d1(k), zeta.d2(k)
    hess = s2[:, None, None] * np.einsum("ni,nj->nij", G, G) + s1[:, None, None] * H
    A = 1.2 * max(1.0, float(np.max(np.abs(zeta.value(k)))),
                  float(np.max(np.linalg.norm(s1[:, None] * G, axis=1))),
                  float(np.max(np.sum(np.abs(hess), axis=(1, 2)))))
    assert model.bump_constants[1] == A


# ---------------------------------------------------------------------------
# the flat-cutoff screen
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def screen_cases(orthant2, gps2):
    """(domain, x, r): two face strata of gps2, an orthant2 face, an edge
    stratum of gps3 and a wedge face."""
    gps3 = rd.make_example("gps", J=3).domain
    wedge = rd.make_example("wedge").domain
    return {"orthant2-face": (orthant2.domain, [1.0, 0.0], 0.5),
            "gps2-face": (gps2.domain, [1.0, 0.0], 0.4),
            "gps2-face1": (gps2.domain, [0.0, 1.5], 0.3),
            "gps3-edge": (gps3, [0.0, 0.0, 1.0], 0.3),
            "wedge-face": (wedge, [1.0, 0.0], 0.3)}


SCREEN_CASES = ["orthant2-face", "gps2-face", "gps2-face1", "gps3-edge", "wedge-face"]


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("name", SCREEN_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_screened_boundary_jet_is_bit_equal_to_the_stencil_jet(screen_cases, name, data):
    domain, x, r = screen_cases[name]
    x = np.asarray(x)
    J = len(x)
    model = _stratum_model(domain, x)
    s = model.mol.reach * (1.0 + 1e-9) + 1e-12
    n = data.draw(st.integers(1, 40))
    W = data.draw(arrays(float, (n, J), elements=st.floats(-1.0, 1.0)))
    side = data.draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    c = data.draw(arrays(float, n, elements=st.one_of(st.sampled_from([-1.0, 1.0]),
                                                      st.floats(-1.5, 1.5))))
    # rows whose exact cone distance is within 1.5 s of either break of
    # zeta, on both sides of each screen threshold (break -+ s): the distance
    # is convex and 0 at the anchor, so it rises along each ray from it
    nrm = np.linalg.norm(W, axis=1)
    keep = nrm > 0.1
    W = W[keep] / nrm[keep, None]
    target = model.zeta.breaks[side[keep]] + c[keep] * s
    reach_out = model.cone.distance(model.anchor + 0.999 * W) > target
    W, target = W[reach_out], target[reach_out]
    assume(len(W))
    lo, hi = np.zeros(len(W)), np.full(len(W), 0.999)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        up = model.cone.distance(model.anchor + mid[:, None] * W) > target
        hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
    Y = x + r * hi[:, None] * W
    for got, want in zip(tf._boundary_jet(model, x, r, Y),
                         _boundary_bump_reference(model, x, r, Y)):
        assert _same_bits(got, want)


@pytest.mark.parametrize("name", SCREEN_CASES)
def test_plateau_bisection_equals_the_unscreened_bisection(screen_cases, name):
    domain, x, _ = screen_cases[name]
    x = np.asarray(x)
    model = _stratum_model(domain, x)
    dirs = tf._unit_rows(np.random.default_rng(3), 40, len(x))
    lo, hi = 0.0, 0.6
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if np.all(model.mol.value(mid * dirs + model.anchor) <= 1.25 * model.lam):
            lo = mid
        else:
            hi = mid
    assert model.bump_constants[0] == lo


def test_check_admissible_detects_violation(orthant2):
    gam = orthant2.domain.pieces[0].gamma([0.0, 1.0])

    def value(Y):
        return Y @ gam

    def gradient(Y):
        return np.tile(gam, (len(Y), 1))

    def hessian(Y):
        return np.zeros((len(Y), 2, 2))

    f = rd.TestFunction(2, value, gradient, hessian)
    rep = rd.check_admissible(f, orthant2.domain, samples=300, seed=13)
    assert rep.worst_boundary_inner >= np.dot(gam, gam) - 1e-9
    assert not rep.passed


# ---------------------------------------------------------------------------
# the jet
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def jet_cases(orthant2, gps2):
    o, g = orthant2.domain, gps2.domain
    sp = g.singular_points[0]
    cases = {
        "interior": rd.interior_bump(o, [1.0, 1.0], 0.25),
        "boundary-orthant2": rd.boundary_bump(o, [1.0, 0.0], 0.5),
        "boundary-gps2-face": rd.boundary_bump(g, [1.0, 0.0], 0.4),
        "boundary-gps2-face1": rd.boundary_bump(g, [0.0, 1.5], 0.3),
        "singular": rd.singular_bump(g, sp, 0.4),
        "ramp": rd.singular_ramp(g, sp, delta=2e-5, eps=0.04)[0],
        "coordinate-step": coordinate_step(o, 0, 1.0, 0.3),
        "radial-step": radial_step(o, [0.5, 0.5], 1.0, 0.3),
    }
    cases["combine"] = combine([cases[k] for k in ("interior", "boundary-orthant2",
                                                   "singular", "coordinate-step")],
                               [1.0, -0.5, 2.0, 0.25])
    cases["scaled"] = cases["boundary-gps2-face1"].scaled(-1.7)
    return cases


@pytest.mark.parametrize("name", ["interior", "boundary-orthant2", "boundary-gps2-face",
                                  "boundary-gps2-face1", "singular", "ramp",
                                  "coordinate-step", "radial-step", "combine",
                                  "scaled"])
@settings(max_examples=30, deadline=None)
@given(U=arrays(float, st.tuples(st.integers(1, 60), st.just(2)),
                elements=st.floats(-1.5, 1.5)))
def test_jet_is_bit_equal_to_the_separate_calls(jet_cases, name, U):
    f = jet_cases[name]
    radius = f.support_radius if np.isfinite(f.support_radius) else 1.5
    Y = (f.center if f.center is not None else 0.0) + radius * U
    # the row contract: a row of a batch jet is the jet of that row alone
    v, G, H = f.jet(Y)
    for k in range(len(Y)):
        vk, Gk, Hk = f.jet(Y[k])
        assert vk == v[k] and f(Y[k]) == v[k]
        assert np.array_equal(Gk, G[k]) and np.array_equal(Hk, H[k])


def test_gps3_precompute_projects_each_stencil_once(monkeypatch, cover_families):
    # criterion 05's gps3 point set: each boundary bump's jet projects its
    # stencil nodes once, not once for the value and again for each
    # derivative, and only on the rows that the one projection of the rows
    # themselves (the screen) leaves in zeta's ramp
    N, eps = 0.5, 0.3
    gps, fam = cover_families(GPS3, N, eps)
    B = dom.sample_boundary(gps.domain, 10000, seed=1)
    V = dom.sample_closure(gps.domain, 3000, seed=2)
    pts = np.vstack([B[np.linalg.norm(B, axis=1) <= N + 2 * eps],
                     V[np.linalg.norm(V, axis=1) <= N + 2 * eps]])
    count = collections.Counter()
    project_info = PolyCone.project_info
    node_data = MollifiedConeDistance._node_data

    def counted(self, Z):
        count["calls"] += 1
        count["rows"] += len(Z)
        return project_info(self, Z)

    def counted_stencil(self, Z):
        count["stencil"] += 1
        return node_data(self, Z)

    monkeypatch.setattr(PolyCone, "project_info", counted)
    monkeypatch.setattr(MollifiedConeDistance, "_node_data", counted_stencil)
    fam.precompute(pts, gps.coefficients)
    # 1,752 calls on 1,217,190 rows when the value, gradient and Hessian
    # each projected the stencil; 584 stencil calls on 405,730 rows when
    # every support row projected its stencil
    assert count["stencil"] <= 584
    assert count["calls"] - count["stencil"] <= 584
    assert count["rows"] <= 60_000


# ---------------------------------------------------------------------------
# cover family
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_family():
    o = rd.make_example("orthant", J=2, box=4.0)
    fam = rd.assemble_cover_family(o.domain, o.coefficients, N=0.8, eps=0.3,
                                   seed=0)
    return o, fam


def test_family_member_zero_and_level(small_family):
    o, fam = small_family
    x = np.array([0.5, 0.5])
    f = fam.member(x)
    rng = np.random.default_rng(14)
    near = x + rng.uniform(-1, 1, size=(200, 2)) * 0.3 / np.sqrt(2)
    near = near[np.linalg.norm(near - x, axis=1) <= 0.15]
    near = near[np.all(near >= 0, axis=1)]
    assert np.all(f._value(near) == 0.0)
    far = rd.domain.sample_closure(o.domain, 400, seed=15)
    far = far[(np.linalg.norm(far - x, axis=1) > 0.9)
              & (np.linalg.norm(far, axis=1) <= 0.8 + 2 * 0.3)]
    assert np.all(f._value(far) > 0.5)


def test_family_gradient_condition(small_family):
    o, fam = small_family
    B = rd.domain.sample_boundary(o.domain, 800, seed=16)
    B = B[np.linalg.norm(B, axis=1) <= 1.4]
    ev = fam.precompute(B, o.coefficients)
    worst = -np.inf
    for k in range(0, len(fam.centers), max(1, len(fam.centers) // 10)):
        v, g, lf = ev.member_arrays(fam.centers[k])
        for i in range(2):
            gam = o.domain.pieces[i].gamma([1.0, 1.0])
            act = np.abs(B[:, i]) <= 1e-8
            if act.any():
                worst = max(worst, float(np.max(g[act] @ gam)))
    assert worst <= 1e-10


def test_family_generator_bound(small_family):
    o, fam = small_family
    pts = rd.domain.sample_closure(o.domain, 500, seed=17)
    ev = fam.precompute(pts, o.coefficients)
    for k in range(0, len(fam.centers), max(1, len(fam.centers) // 8)):
        _, _, lf = ev.member_arrays(fam.centers[k])
        assert np.abs(lf).max() <= fam.C


def _near_loop(fam, z):
    """The bumps centred within 2 eps of z, one 1-D norm per bump: the scan
    that the stacked bump centres replace."""
    return [k for k, b in enumerate(fam.bumps)
            if np.linalg.norm(b.x - z) < 2.0 * fam.eps]


def _member_arrays_loop(ev, near):
    """(value, gradient, generator value) of the member without the near
    bumps: the full sums minus each near bump, in bump order."""
    v, g, lf = ev.full_value.copy(), ev.full_grad.copy(), ev.full_lf.copy()
    for k in near:
        e = slice(ev._starts[k], ev._starts[k + 1])
        v[ev._flat_idx[e]] -= ev._flat_vals[e]
        g[ev._flat_idx[e]] -= ev._flat_grads[e]
        lf[ev._flat_idx[e]] -= ev._flat_lfs[e]
    return v, g, lf


@pytest.mark.parametrize("system, N, eps, stride", [
    (WEDGE, 1.0, 0.25, 1), (GPS3, 0.5, 0.3, 10)])
def test_member_arrays_match_the_per_bump_loop(cover_families, system, N, eps, stride):
    s, fam = cover_families(system, N, eps)
    ev = fam.precompute(rd.domain.sample_closure(s.domain, 200, seed=1))
    refs = {}

    def reference(j):
        if j not in refs:
            near = _near_loop(fam, fam.centers[j])
            assert np.flatnonzero(fam.near(fam.centers[j])).tolist() == near
            refs[j] = _member_arrays_loop(ev, near)
        return refs[j]

    # the centres with a bump at 2 eps to within 1e-9, where the strict
    # comparison decides
    X = np.stack([b.x for b in fam.bumps])
    for j, z in enumerate(fam.centers):
        if np.any(np.abs(np.linalg.norm(X - z, axis=1) - 2.0 * eps) < 1e-9):
            reference(j)
    for z in fam.centers[::stride]:
        # a query's member is that of its nearest centre
        for got, ref in zip(ev.member_arrays(z), reference(fam.center_index(z))):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("system, N, eps", [(WEDGE, 1.0, 0.25), (GPS3, 0.5, 0.3)],
                         ids=["wedge", "gps3"])
def test_every_centre_resolves_to_itself(cover_families, system, N, eps):
    # each centre's member is its own, and of equal centres the first's
    # (the wedge family holds rows 0 and 13, and 5 and 18, twice)
    _, fam = cover_families(system, N, eps)
    first = {}
    for j, z in enumerate(fam.centers.tolist()):
        first.setdefault(tuple(z), j)
    assert len(first) == {"wedge": 153, "gps": 296}[system[0]]
    assert [fam.center_index(z) for z in fam.centers] == \
        [first[tuple(z)] for z in fam.centers.tolist()]


# the per-bump scans that the pair search replaced, kept as references

def _covers_loop(bumps, P):
    """Mask of the rows of P inside some bump's plateau, one bump at a time."""
    covered = np.zeros(len(P), dtype=bool)
    for b in bumps:
        cov = np.linalg.norm(P - b.x, axis=1) <= b.plateau * (1 - 1e-12)
        if cov.any():
            cov[cov] = b.func._value(P[cov]) >= 1.0 - 1e-12
        covered |= cov
    return covered


def _generator_bound_loop(s, fam, seed=0):
    """C from each bump's own function, with a dense overlap scan per point."""
    probes = tf._coverage_probes(s.domain, fam.N + 3.5 * fam.eps, seed)
    B_pts = dom.sample_closure(s.domain, 400, seed=seed + 9)
    Bv = s.coefficients.b(B_pts)
    sup_b = float(np.max(np.sqrt(dom.row_dot(Bv, Bv))))
    sup_a = float(np.max(np.abs(s.coefficients.a(B_pts))))
    lb = np.array([sup_b * A1 + 0.5 * sup_a * A2
                   for _, A1, A2 in (b.func.bound_triple for b in fam.bumps)])
    X = np.stack([b.x for b in fam.bumps])
    radii = np.array([b.func.support_radius for b in fam.bumps])
    overlap = 0.0
    for y in np.vstack([B_pts, probes[:400]]):
        mask = np.linalg.norm(X - y, axis=1) <= radii
        overlap = max(overlap, float(np.sum(lb[mask])))
    return 1.5 * overlap + 1.0


def _flat_table_loop(fam, Y, *fields):
    """FamilyEvaluation's table from a dense support-row scan per bump, one
    per coefficient field: rows, owners, values, gradients, generator values
    and the three full sums."""
    n, J = Y.shape
    idx, vals, grads = [], [], []
    lfs = [[] for _ in fields]
    full = [np.zeros(n), np.zeros((n, J))]
    full_lfs = [np.zeros(n) for _ in fields]
    for b in fam.bumps:
        rows = np.flatnonzero(np.linalg.norm(Y - b.x, axis=1)
                              <= b.func.support_radius * (1 + 1e-12))
        idx.append(rows)
        if not len(rows):
            continue
        v, g, H = b.func._jet(Y[rows])
        vals.append(v)
        grads.append(g)
        for total, part in zip(full, (v, g)):
            total[rows] += part
        for lf, full_lf, coefficients in zip(lfs, full_lfs, fields):
            lf.append(coefficients.generator(Y[rows], g, H))
            full_lf[rows] += lf[-1]
    owner = np.repeat(np.arange(len(idx)), [len(i) for i in idx])
    return [(np.concatenate(idx), owner, np.concatenate(vals), np.concatenate(grads),
             np.concatenate(lf), *full, full_lf) for lf, full_lf in zip(lfs, full_lfs)]


@pytest.mark.parametrize("system, N, eps", [(WEDGE, 1.0, 0.25), (GPS3, 0.5, 0.3),
                                            (DISK, 0.5, 0.3)],
                         ids=["wedge", "gps3", "disk"])
def test_pair_search_equals_the_per_bump_scans(cover_families, system, N, eps):
    # the coverage mask, C and precompute's flat table are each bit-equal to
    # the dense per-bump scan that they replaced
    s, fam = cover_families(system, N, eps)
    J = s.domain.dimension
    reach = N + 3.5 * eps
    P = np.vstack([tf._coverage_probes(s.domain, reach, 0),
                   dom.sample_closure(s.domain, 500, seed=3, center=np.zeros(J),
                                      radius=reach + eps)])
    covered = tf._covers(fam.bumps, P)
    assert covered.any()
    assert np.array_equal(covered, _covers_loop(fam.bumps, P))

    assert fam.C == _generator_bound_loop(s, fam)

    B = dom.sample_boundary(s.domain, 2000, seed=1)
    Y = np.vstack([B[np.linalg.norm(B, axis=1) <= N + 2 * eps],
                   dom.sample_closure(s.domain, 300, seed=2, center=np.zeros(J),
                                      radius=N + 2 * eps)])
    # also under a generic constant drift, whose products round: the fused
    # interior call must round each entry as its bump's own call does
    fields = (s.coefficients,
              rd.CoefficientField.constant(0.7 - 0.5 * np.arange(J), 1.3 - 0.2 * np.arange(J)))
    for coef, table in zip(fields, _flat_table_loop(fam, Y, *fields)):
        ev = fam.precompute(Y, coef)
        got = (ev._flat_idx, ev._owner, ev._flat_vals, ev._flat_grads, ev._flat_lfs,
               ev.full_value, ev.full_grad, ev.full_lf)
        for g, want in zip(got, table):
            assert np.array_equal(g, want)


@st.composite
def _ball_cases(draw):
    """(X, R, P, chunk): centres and points on a lattice of step h, so that
    many lie on cell edges and at exactly their ball's radius; radii span
    several steps; chunks as small as one ball."""
    J = draw(st.integers(1, 3))
    h = draw(st.sampled_from([0.1, 0.3, 1.0]))
    node = st.lists(st.integers(-5, 5), min_size=J, max_size=J)
    P = h * np.array(draw(st.lists(node, min_size=1, max_size=60)), dtype=float)
    X = h * np.array(draw(st.lists(node, min_size=1, max_size=30)), dtype=float)
    steps = st.sampled_from([0.0, 0.5, 1.0, math.sqrt(2.0), 2.0, math.sqrt(3.0), 3.0, 4.5])
    R = h * np.array(draw(st.lists(steps | st.floats(0.0, 6.0),
                                   min_size=len(X), max_size=len(X))))
    return X, R, P, draw(st.sampled_from([1, 7, tf._PAIR_CHUNK]))


_PLANE = 0.5 * np.array([[i, j, 0.0] for i in range(-3, 4) for j in range(-3, 4)])
_SQUARE = np.array([[i, j] for i in range(200) for j in range(200)], dtype=float)


@settings(max_examples=80, deadline=None)
@given(case=_ball_cases())
# no balls; no points
@example(case=(np.empty((0, 2)), np.empty(0), np.ones((3, 2)), 7))
@example(case=(np.ones((2, 2)), np.ones(2), np.empty((0, 2)), 7))
# the points' third axis has zero extent; balls in and off their plane
@example(case=(np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.5, -1.0, -0.5], [9.0, 0.0, 0.0]]),
               np.array([1.0, math.sqrt(0.75), 0.5, 1.0]), _PLANE, 7))
# zero bounds: a ball holds only the points at its centre, none 1e-13 off it
@example(case=(_PLANE[::5] + [0.0, 0.0, 1e-13], np.zeros(10), _PLANE, tf._PAIR_CHUNK))
@example(case=(_PLANE[::5], np.zeros(10), np.vstack([_PLANE, _PLANE]), tf._PAIR_CHUNK))
# one ball whose 40,000 candidates exceed the chunk, between two small ones
@example(case=(np.array([[0.0, 0.0], [99.5, 99.5], [150.0, 10.0]]), np.array([2.0, 150.0, 1.0]),
               _SQUARE, tf._PAIR_CHUNK))
def test_ball_pairs_are_the_dense_scan(case):
    X, R, P, chunk = case
    with mock.patch.object(tf, "_PAIR_CHUNK", chunk):
        b, p = tf._ball_pairs(X, R, P)
    dense = [(k, i) for k in range(len(X))
             for i in np.flatnonzero(np.linalg.norm(P - X[k], axis=1) <= R[k])]
    assert list(zip(b.tolist(), p.tolist())) == dense


def test_make_tests_and_precompute_build_interior_functions_lazily(
        monkeypatch, tmp_path, cover_families):
    # gps3's make-tests builds none of its 19,230 interior bumps' functions,
    # and neither does precompute, which evaluates every interior bump with
    # a support row by one radial jet over their entries
    built = []
    radial = tf._radial_bump

    def counted(J, x, r):
        built.append(tuple(x))
        return radial(J, x, r)

    monkeypatch.setattr(tf, "_radial_bump", counted)
    presets = Path(__file__).resolve().parents[1] / "presets"
    assert cli.main(["make-tests", "--config", str(presets / "gps3.json"),
                     "--output", str(tmp_path / "family.json")]) == cli.EXIT_OK
    assert built == []

    gps, _ = cover_families(GPS3, 0.5, 0.3)
    fam = rd.assemble_cover_family(gps.domain, gps.coefficients, N=0.5, eps=0.3, seed=0)
    assert built == []
    ev = fam.precompute(dom.sample_closure(gps.domain, 100, seed=4, center=np.zeros(3),
                                           radius=1.1), gps.coefficients)
    supported = [k for k in np.unique(ev._owner) if fam.bumps[k].kind == "interior"]
    assert 0 < len(supported) < sum(b.kind == "interior" for b in fam.bumps)
    assert built == []


def test_repair_gives_up_an_uncoverable_probe(monkeypatch):
    # with no boundary bumps the probes on the boundary stay uncovered; each
    # is tried on its (at most three) nearby strata once, not once per round
    o = rd.make_example("orthant", J=2, box=4.0)
    tried = collections.Counter()
    probe = []
    project = tf._project_to_stratum

    def recording_project(domain, subset, y):
        probe[:] = [tuple(y)]
        return project(domain, subset, y)

    def no_boundary_bump(domain, x, eps):
        if probe:           # the stratum lattices run before the repair loop
            tried[probe[0]] += 1
        return None

    monkeypatch.setattr(tf, "_project_to_stratum", recording_project)
    monkeypatch.setattr(tf, "_boundary_at", no_boundary_bump)
    with pytest.raises(SamplingFailure, match="cover gap"):
        rd.assemble_cover_family(o.domain, o.coefficients, N=0.8, eps=0.3, seed=0)
    assert len(tried) > 10
    assert max(tried.values()) <= 3


def test_family_manifest(small_family):
    _, fam = small_family
    man = fam.manifest()
    assert man["c"] == 0.5
    assert len(man["bumps"]) == len(fam.bumps)
    assert man["C"] >= 1.0


def test_family_members_translate_on_halfline():
    hs = rd.make_example("halfline", box=20.0)
    fam = rd.assemble_cover_family(hs.domain, hs.coefficients, N=10.0, eps=0.5,
                                   seed=0)
    # two deep-interior queries shifted by a vector commensurate with both the
    # bump lattice (0.425) and the cover-center lattice (0.25) have exactly
    # translated members
    deep = sorted(b.x[0] for b in fam.bumps if b.kind == "interior"
                  and 3.0 < b.x[0] < 10.0)
    assert len(deep) >= 12
    step = deep[1] - deep[0]
    shift = 10 * step
    assert np.isclose(shift % 0.25, 0.0, atol=1e-9) or \
        np.isclose(shift % 0.25, 0.25, atol=1e-9)
    x1 = np.array([deep[1]])
    x2 = x1 + shift
    z1 = fam.centers[fam.center_index(x1)]
    z2 = fam.centers[fam.center_index(x2)]
    assert np.isclose(z2[0] - z1[0], shift, atol=1e-9)
    f1, f2 = fam.member(x1), fam.member(x2)
    probes = (x1 + np.linspace(-1.2, 1.2, 41)[:, None])
    probes = probes[probes[:, 0] > 0.6]
    assert np.max(np.abs(f1._value(probes) - f2._value(probes + shift))) <= 1e-10


def test_family_rejects_plain_unbounded_curved():
    c = rd.make_example("cusp", beta=2.0)
    c.domain.allow_curved_family = False
    from refdiff.errors import UnboundedUnsupported
    with pytest.raises(UnboundedUnsupported):
        rd.assemble_cover_family(c.domain, c.coefficients, N=0.5, eps=0.2)


def test_singular_ramp_eps_guard():
    from refdiff.errors import BadParameters
    c = rd.make_example("cusp", beta=2.0)   # finite certificate radius
    sp = c.domain.singular_points[0]
    with pytest.raises(BadParameters):
        rd.singular_ramp(c.domain, sp, delta=1e-4, eps=0.3)


def test_combine_claims():
    o = rd.make_example("orthant", J=2)
    f1 = rd.interior_bump(o.domain, [1.0, 1.0], 0.16)
    f2 = rd.interior_bump(o.domain, [2.0, 1.0], 0.16)
    s = combine([f1, f2])
    assert s.claims_in_class and s.claims_negated_in_class
    assert np.isclose(s.value([1.0, 1.0]), 1.0)
