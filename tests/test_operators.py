import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refdiff as rd
from refdiff.coefficients import CoefficientField, Density
from refdiff.errors import DivergentMass, NotInH, OffEdge, OffFace
from refdiff.operators import (apply_adjoint, apply_generator,
                               apply_generator_batch, edge_residual,
                               face_residual, integrate_density,
                               normal_diffusion_divergence, normalize_density,
                               verify_bar, weak_residual)
from refdiff.solver import coordinate_step, density_grid_measure, radial_step
from refdiff.testfunctions import TestFunction, combine, interior_bump


def quad_function(J=1, c=None):
    """f(x) = |x|^2 with analytic derivatives (not compactly supported)."""

    def value(Y):
        return np.einsum("ij,ij->i", Y, Y)

    def gradient(Y):
        return 2.0 * Y

    def hessian(Y):
        return np.tile(2.0 * np.eye(J), (len(Y), 1, 1))

    return TestFunction(J, value, gradient, hessian)


def exp_function(c):
    c = np.asarray(c, dtype=float)
    J = len(c)

    def value(Y):
        return np.exp(Y @ c)

    def gradient(Y):
        return np.exp(Y @ c)[:, None] * c[None, :]

    def hessian(Y):
        return np.exp(Y @ c)[:, None, None] * np.outer(c, c)[None, :, :]

    return TestFunction(J, value, gradient, hessian)


def test_generator_on_constant():
    coef = CoefficientField.constant([-1.0], [[1.0]])
    f = TestFunction(1, lambda Y: np.ones(len(Y)),
                     lambda Y: np.zeros((len(Y), 1)),
                     lambda Y: np.zeros((len(Y), 1, 1)))
    assert apply_generator(coef, f, [0.3]) == 0.0


def test_generator_quadratic_1d():
    coef = CoefficientField.constant([-1.0], [[1.0]])
    f = quad_function(1)
    for x in (0.0, 0.7, 2.5):
        assert np.isclose(apply_generator(coef, f, [x]), -2 * x + 1)


def test_generator_exponential_identity():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(3)
    sigma = rng.standard_normal((3, 3)) * 0.3
    coef = CoefficientField.constant(b, sigma)
    a = coef.a(np.zeros(3))
    c = rng.standard_normal(3)
    f = exp_function(c)
    x = rng.standard_normal(3)
    expected = (np.dot(b, c) + 0.5 * c @ a @ c) * f.value(x)
    assert np.isclose(apply_generator(coef, f, x), expected, rtol=1e-12)


def test_generator_linearity():
    coef = CoefficientField.constant([-0.3, 0.2], np.eye(2) * 0.7)
    o = rd.make_example("orthant", J=2)
    f = interior_bump(o.domain, [1.0, 1.0], 0.25)
    g = interior_bump(o.domain, [1.2, 0.9], 0.16)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(0.5, 1.5, 2)
        a, b_ = rng.standard_normal(2)
        from refdiff.testfunctions import combine
        h = combine([f, g], [a, b_])
        lhs = apply_generator(coef, h, x)
        rhs = a * apply_generator(coef, f, x) + b_ * apply_generator(coef, g, x)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


@pytest.fixture(scope="module")
def screen_cases():
    """Library functions with flat predicates, each with its plateau levels,
    and three drifts: one whose products are exact, a generic one and a
    state-dependent one."""
    o = rd.make_example("orthant", J=2, b=[-1.0, -0.5])
    step = coordinate_step(o.domain, 0, 1.0, 0.3)
    radial = radial_step(o.domain, [1.0, 1.0], 0.8, 0.2)
    bump = interior_bump(o.domain, [1.0, 1.2], 0.25)
    funcs = {"step": (step, [0.0, 1.0]), "radial": (radial, [0.0, 1.0]),
             "bump": (bump, [0.0, 1.0]), "scaled": (bump.scaled(2.5), [0.0, 2.5]),
             "negated": (-step, [-0.0, -1.0]),
             "combine": (combine([step, bump.scaled(-0.5), radial]),
                         [a + b + c for a, b, c in itertools.product(
                             [0.0, 1.0], [0.0, -0.5], [0.0, 1.0])])}
    fields = [o.coefficients, CoefficientField.constant([0.7, -0.3], [1.3, 0.9]),
              CoefficientField(lambda x: np.array([0.3 - x[0], -0.7 * x[1]]),
                               lambda x: np.array([1.0 + 0.1 * x[1] ** 2, 0.9]))]
    return funcs, fields


_SPECIAL = [0.7, 1.3, 1.0, 1.2, 0.5, 1.5, 0.0, np.nan, np.inf, -np.inf, 1e300]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_screened_generator_is_the_full_generator(screen_cases, data):
    # apply_generator_batch runs the jet and the generator only on the rows
    # where f may move: those equal the generator on the whole batch bit for
    # bit, zeros' signs included, and every other row is +0.0, also where
    # the coefficients overflow (the state-dependent field's do at 1e300,
    # where the whole-batch generator reads NaN).  A flat row is finite, with
    # the jet (plateau level, 0, 0); NaN and infinite rows are never flat
    funcs, fields = screen_cases
    f, levels = funcs[data.draw(st.sampled_from(sorted(funcs)))]
    coef = fields[data.draw(st.integers(0, len(fields) - 1))]
    coord = st.one_of(st.floats(-0.5, 3.0), st.sampled_from(_SPECIAL))
    X = np.array(data.draw(st.lists(st.lists(coord, min_size=2, max_size=2),
                                    min_size=1, max_size=40)))
    with np.errstate(all="ignore"):
        got = apply_generator_batch(coef, f, X)
        v, G, H = f.jet(X)
        want = coef.generator(X, G, H)
    move = np.zeros(len(X), dtype=bool)
    move[f.moving_rows(X)] = True
    assert np.array_equal(got[move], want[move], equal_nan=True)
    num = move & ~np.isnan(want)        # a NaN's sign bit carries nothing
    assert np.array_equal(np.signbit(got[num]), np.signbit(want[num]))
    still = ~move
    assert ((got[still] == 0.0) & ~np.signbit(got[still])).all()
    finite = np.isfinite(want[still])
    assert np.array_equal(np.signbit(want[still][finite]), np.zeros(finite.sum(), dtype=bool))
    assert np.isfinite(X[still]).all()
    assert np.isin(v[still], levels).all()
    assert (G[still] == 0.0).all() and (H[still] == 0.0).all()


def test_screened_generator_gives_nan_on_nonfinite_rows(screen_cases):
    funcs, fields = screen_cases
    X = np.array([[np.nan, np.nan], [np.inf, np.inf], [-np.inf, -np.inf], [0.2, 0.2]])
    for f, _ in funcs.values():
        with np.errstate(invalid="ignore"):
            out = apply_generator_batch(fields[0], f, X)
        assert np.isnan(out[:3]).all() and np.isfinite(out[3])


def test_adjoint_constant_zero():
    coef = CoefficientField.constant([-1.0, 0.5], np.eye(2))
    p = Density(lambda x: 1.0, grad=lambda x: np.zeros(2),
                hess=lambda x: np.zeros((2, 2)))
    assert apply_adjoint(coef, p, [0.2, 0.4]) == 0.0


def test_adjoint_exponential_1d():
    b, sig = -1.0, 1.0
    theta = 2 * abs(b) / sig ** 2
    coef = CoefficientField.constant([b], [[sig]])
    p = Density(lambda x: theta * np.exp(-theta * float(x[0])),
                grad=lambda x: np.array([-theta ** 2 * np.exp(-theta * float(x[0]))]),
                hess=lambda x: np.array([[theta ** 3 * np.exp(-theta * float(x[0]))]]))
    for x in (0.0, 0.3, 1.7):
        assert abs(apply_adjoint(coef, p, [x])) < 1e-12


def test_adjoint_product_exponential_2d():
    b = np.array([-1.0, -0.5])
    theta = -2 * b
    coef = CoefficientField.constant(b, np.eye(2))

    def val(x):
        return float(np.prod(theta * np.exp(-theta * np.asarray(x))))

    p = Density(val,
                grad=lambda x: -theta * val(x),
                hess=lambda x: np.outer(theta, theta) * val(x))
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(0, 2, 2)
        assert abs(apply_adjoint(coef, p, x)) < 1e-12


def test_adjoint_fd_fallback():
    b, sig = -1.0, 1.0
    theta = 2.0
    coef = CoefficientField.constant([b], [[sig]])
    p = Density(lambda x: theta * np.exp(-theta * float(x[0])))
    assert abs(apply_adjoint(coef, p, [0.5])) < 1e-4


def test_normal_diffusion_divergence():
    coef = CoefficientField.constant([0.0, 0.0], np.eye(2))
    assert normal_diffusion_divergence(coef, [0.3, 0.4], [1.0, 0.0]) == 0.0

    # a = diag(x1 + 1, 1): d a_11 / d x1 = 1
    def sigma(x):
        return np.diag([np.sqrt(x[0] + 1.0), 1.0])

    coef2 = CoefficientField(lambda x: np.zeros(2), sigma)
    k = normal_diffusion_divergence(coef2, [0.5, 0.2], [1.0, 0.0])
    assert np.isclose(k, 1.0, atol=1e-7)

    # a = I (1 + |x|^2): K along e1 is 2 x1 (FD against the analytic value)
    def sigma3(x):
        return np.eye(2) * np.sqrt(1.0 + float(x @ x))

    coef3 = CoefficientField(lambda x: np.zeros(2), sigma3)
    x = np.array([0.7, -0.2])
    assert np.isclose(normal_diffusion_divergence(coef3, x, [1.0, 0.0]),
                      2 * x[0], atol=1e-6)


@pytest.fixture(scope="module")
def halfline():
    return rd.make_example("halfline")


def test_face_residual_halfline(halfline):
    p = rd.closed_form_density(halfline)
    assert abs(face_residual(halfline.coefficients, halfline.domain, p,
                             [0.0], 0)) < 1e-12
    p_bad = Density(lambda x: np.exp(-float(x[0])),
                    grad=lambda x: np.array([-np.exp(-float(x[0]))]),
                    hess=lambda x: np.array([[np.exp(-float(x[0]))]]))
    r = face_residual(halfline.coefficients, halfline.domain, p_bad, [0.0], 0)
    assert np.isclose(abs(r), 1.0)     # p(0) |b| with the wrong rate
    with pytest.raises(OffFace):
        face_residual(halfline.coefficients, halfline.domain, p, [1.0], 0)


def test_face_residual_disk_uniform():
    disk = rd.make_example("disk")
    p = rd.closed_form_density(disk)
    for ang in (0.0, 1.0, 2.5):
        x = [np.cos(ang), np.sin(ang)]
        assert abs(face_residual(disk.coefficients, disk.domain, p, x, 0)) < 1e-10


def test_edge_residual_orthant():
    for q, expect_zero in ((0.0, True), (0.4, False)):
        D = np.array([[1.0, q], [q, 1.0]])
        o = rd.make_example("orthant", J=2, D=D)
        p = Density(lambda x: 1.0, grad=lambda x: np.zeros(2),
                    hess=lambda x: np.zeros((2, 2)))
        r = edge_residual(o.coefficients, o.domain, p, [0.0, 0.0], 0, 1)
        if expect_zero:
            assert abs(r) < 1e-12
        else:
            assert np.isclose(r, 2 * q)
    o = rd.make_example("orthant", J=2)
    with pytest.raises(OffEdge):
        edge_residual(o.coefficients, o.domain, p, [1.0, 0.0], 0, 1)


def test_edge_residual_zero_density():
    o = rd.make_example("orthant", J=2, D=np.array([[1.0, 0.3], [0.3, 1.0]]))
    p0 = Density(lambda x: 0.0, grad=lambda x: np.zeros(2),
                 hess=lambda x: np.zeros((2, 2)))
    assert edge_residual(o.coefficients, o.domain, p0, [0.0, 0.0], 0, 1) == 0.0


def test_verify_bar_verdicts(halfline):
    p = rd.closed_form_density(halfline)
    rep = verify_bar(halfline.coefficients, halfline.domain, p)
    assert rep.passed
    assert rep.interior_residual <= 1e-8
    p1 = Density(lambda x: np.exp(-float(x[0])),
                 grad=lambda x: np.array([-np.exp(-float(x[0]))]),
                 hess=lambda x: np.array([[np.exp(-float(x[0]))]]))
    rep1 = verify_bar(halfline.coefficients, halfline.domain, p1)
    assert not rep1.passed
    assert rep1.interior_residual >= 0.1 * 1.0


def test_green_identity_on_box():
    # compactly supported f, p inside a box: integrals of p Lf and f L*p agree
    coef = CoefficientField.constant([0.3, -0.2], np.array([[1.0, 0.2],
                                                            [0.0, 0.8]]))
    o = rd.make_example("orthant", J=2, box=2.0)
    f = interior_bump(o.domain, [1.0, 1.0], 0.16)
    g = interior_bump(o.domain, [1.1, 0.9], 0.25)
    p = Density.from_batch(g._value, grad=lambda X: g.jet(X)[1],
                           hess=lambda X: g.jet(X)[2])
    n = 220
    axes = [np.linspace(0.3, 1.8, n)] * 2
    cell = (axes[0][1] - axes[0][0]) ** 2
    X, Y = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    from refdiff.operators import apply_generator_batch
    lf = apply_generator_batch(coef, f, pts)
    lsp = apply_adjoint(coef, p, pts)
    # a batch row is the point result
    for k in range(0, len(pts), 97):
        assert apply_adjoint(coef, p, pts[k]) == lsp[k]
    lhs = np.sum(p.value_batch(pts) * lf) * cell
    rhs = np.sum(f._value(pts) * lsp) * cell
    assert abs(lhs - rhs) < 5e-4 * (1 + abs(lhs))


def test_weak_residual_halfline_oracles(halfline):
    p = rd.closed_form_density(halfline)
    pi = density_grid_measure(halfline.domain, p, 4096, box=([0.0], [8.0]))
    # f with gradient vanishing at the boundary: zero within error
    from refdiff.solver import coordinate_step
    f0 = coordinate_step(halfline.domain, 0, 1.0, 0.4)
    f0.claims_negated_in_class = True
    wr = weak_residual(halfline.coefficients, f0, pi)
    assert abs(wr.value) <= 3 * wr.error + 1e-9
    # f with unit boundary slope: value -(sigma^2 theta / 2) f'(0) = -1
    f1 = _slope_one_function()
    wr1 = weak_residual(halfline.coefficients, f1, pi)
    assert np.isclose(wr1.value, -1.0, rtol=0.01)
    bad = interior_bump(halfline.domain, [1.0], 0.04)
    bad2 = bad.scaled(1.0)
    bad2.claims_negated_in_class = False
    bad2.claims_in_class = False
    with pytest.raises(NotInH):
        weak_residual(halfline.coefficients, bad2, pi)


def _slope_one_function():
    # f = x (1 - x/R)^3 on [0, R], zero beyond: f'(0) = 1, C^2 at R
    R = 2.0

    def value(Y):
        x = Y[:, 0]
        out = x * (1 - x / R) ** 3
        out[x >= R] = 0.0
        return out

    def gradient(Y):
        x = Y[:, 0]
        g = (1 - x / R) ** 3 - 3 * x / R * (1 - x / R) ** 2
        g[x >= R] = 0.0
        return g[:, None]

    def hessian(Y):
        x = Y[:, 0]
        h = -6 / R * (1 - x / R) ** 2 + 6 * x / R ** 2 * (1 - x / R)
        h[x >= R] = 0.0
        return h[:, None, None]

    f = TestFunction(1, value, gradient, hessian, center=[0.0],
                     support_radius=R)
    f.claims_negated_in_class = True
    return f


def test_weak_residual_empirical_exponential_draws(halfline):
    # i.i.d. draws from the stationary Exp(2) law: the unit-slope function's
    # residual is -(sigma^2 theta / 2) f'(0) = -1, up to its CLT error
    from refdiff.simulate import EmpiricalMeasure
    x = np.random.default_rng(20261019).exponential(0.5, size=(20000, 1))
    pi = EmpiricalMeasure(x, np.full(len(x), 1.0 / len(x)))
    wr = weak_residual(halfline.coefficients, _slope_one_function(), pi)
    assert 0.0 < wr.error < 0.05
    assert abs(wr.value + 1.0) <= 3.0 * wr.error


def test_weak_residual_point_mass():
    o = rd.make_example("orthant", J=2)
    f = interior_bump(o.domain, [1.0, 1.0], 0.09)
    from refdiff.solver import GridMeasure
    pm = GridMeasure(np.array([[2.5, 2.5]]), np.array([1.0]))
    wr = weak_residual(o.coefficients, f, pm)
    assert wr.value == 0.0


def test_normalize_density(halfline):
    theta = 2.0
    p = Density(lambda x: theta * np.exp(-theta * float(x[0])),
                grad=lambda x: np.array([-theta ** 2 * np.exp(-theta * float(x[0]))]),
                hess=lambda x: np.array([[theta ** 3 * np.exp(-theta * float(x[0]))]]))
    q, mass = normalize_density(p, halfline.domain)
    assert abs(mass - 1.0) < 1e-3
    p_half = Density(lambda x: np.exp(-2 * float(x[0])))
    q2, mass2 = normalize_density(p_half, halfline.domain)
    assert abs(mass2 - 0.5) < 1e-3
    assert np.isclose(q2([0.0]), 2.0, rtol=1e-3)


def test_divergent_mass():
    o = rd.make_example("orthant", J=2)
    p = Density(lambda x: 1.0, grad=lambda x: np.zeros(2),
                hess=lambda x: np.zeros((2, 2)))
    with pytest.raises(DivergentMass):
        normalize_density(p, o.domain)


def test_bar_self_consistency(halfline):
    # a density passing the adjoint check has small weak residuals
    p = rd.closed_form_density(halfline)
    rep = verify_bar(halfline.coefficients, halfline.domain, p)
    assert rep.passed
    pi = density_grid_measure(halfline.domain, p, 4096, box=([0.0], [8.0]))
    from refdiff.solver import default_family
    fam = default_family(halfline.domain, halfline.coefficients,
                         n_interior=8, n_steps=10, box=([0.0], [5.0]),
                         min_feature=0.05)
    for f in fam:
        if not f.claims_negated_in_class:
            continue
        wr = weak_residual(halfline.coefficients, f, pi)
        assert wr.value <= 3 * wr.error + 1e-9


def test_grid_measure_refines_once(halfline, monkeypatch):
    import refdiff.operators as ops
    import refdiff.solver as solver
    from refdiff.solver import default_family

    counts = {"integrate": 0, "grid": 0, "density": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    p = rd.closed_form_density(halfline)
    fam = [f for f in default_family(halfline.domain, halfline.coefficients,
                                     n_interior=6, n_boundary=0, n_steps=10,
                                     box=([0.0], [5.0]), min_feature=0.05)
           if f.claims_negated_in_class][:5]
    assert len(fam) == 5
    monkeypatch.setattr(ops, "integrate_density", counted("integrate", integrate_density))
    monkeypatch.setattr(solver, "interior_grid", counted("grid", solver.interior_grid))
    monkeypatch.setattr(p, "value_batch", counted("density", p.value_batch))
    pi = density_grid_measure(halfline.domain, p, 1024, box=([0.0], [8.0]))
    built = dict(counts)
    # one mass integral (three boxes on the half-line) and two grids
    assert built == {"integrate": 1, "grid": 2, "density": 5}
    for f in fam:
        wr = weak_residual(halfline.coefficients, f, pi)
        assert wr.error > 0
    # five residuals reuse the fine twin: no grid, density or mass evaluation
    assert counts == built


def _gradient_loop(value, x, h):
    """The per-axis first-difference loop that central_diff1 replaces."""
    J = len(x)
    out = np.empty(J)
    for k in range(J):
        e = np.zeros(J)
        e[k] = h
        out[k] = (float(value(x + e)) - float(value(x - e))) / (2 * h)
    return out


def _hessian_loop(value, x, h):
    """The per-pair second-difference loop that central_diff2 replaces."""
    J = len(x)
    out = np.empty((J, J))
    v0 = float(value(x))
    for k in range(J):
        ek = np.zeros(J)
        ek[k] = h
        for l in range(k, J):
            el = np.zeros(J)
            el[l] = h
            if k == l:
                d = (float(value(x + ek)) - 2 * v0 + float(value(x - ek))) / (h * h)
            else:
                d = (float(value(x + ek + el)) - float(value(x + ek - el))
                     - float(value(x - ek + el)) + float(value(x - ek - el))) / (4 * h * h)
            out[k, l] = d
            out[l, k] = d
    return out


def test_central_differences_match_the_loops():
    from refdiff.coefficients import _H1, _H2

    def value(x):
        return float(np.exp(-x[0] * x[1]) * np.sin(x[2]) + x[0] ** 3)

    p = Density(value)
    coef = CoefficientField(lambda x: np.array([x[0] * x[1], np.cos(x[2]), x[1] ** 2]),
                            lambda x: np.diag([1.0 + x[0] ** 2, 2.0 + np.sin(x[1]), 1.5]))
    rng = np.random.default_rng(5)
    for x in rng.uniform(-2.0, 2.0, size=(6, 3)):
        h1 = _H1 * (1.0 + float(np.linalg.norm(x)))
        h2 = _H2 * (1.0 + float(np.linalg.norm(x)))
        assert np.array_equal(p.gradient(x), _gradient_loop(value, x, h1))
        assert np.array_equal(p.hessian(x), _hessian_loop(value, x, h2))
        for i in range(3):
            assert np.array_equal(coef.db(x)[i], _gradient_loop(lambda y: coef.b(y)[i], x, h1))
            for j in range(3):
                aij = lambda y: coef.a(y)[i, j]    # noqa: E731
                assert np.array_equal(coef.da(x)[i, j], _gradient_loop(aij, x, h1))
                assert np.array_equal(coef.d2a(x)[i, j], _hessian_loop(aij, x, h2))
