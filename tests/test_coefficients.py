"""One calling convention: a batch row equals its point, bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import refdiff as rd
from refdiff.coefficients import CoefficientField, Density
from refdiff.operators import apply_adjoint, apply_generator_batch


def _points(J, lo=-2.0, hi=2.0):
    coord = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.lists(st.tuples(*[coord] * J), min_size=1, max_size=12).map(
        lambda rows: np.array(rows, dtype=float))


def _rows_match(evaluate, X):
    """evaluate(X) on the batch equals evaluate(X[k]) at each point."""
    F = evaluate(X)
    assert len(F) == len(X)
    for k, x in enumerate(X):
        assert np.array_equal(F[k], evaluate(x)), (k, x)


def _value(x):
    return float(np.exp(-x[0] * x[1]) * np.sin(x[2]) + x[0] ** 3)


def _grad(x):
    e = np.exp(-x[0] * x[1])
    return np.array([-x[1] * e * np.sin(x[2]) + 3 * x[0] ** 2,
                     -x[0] * e * np.sin(x[2]), e * np.cos(x[2])])


def _hess(x):
    e, s, c = np.exp(-x[0] * x[1]), np.sin(x[2]), np.cos(x[2])
    return np.array([[x[1] ** 2 * e * s + 6 * x[0], (x[0] * x[1] - 1) * e * s, -x[1] * e * c],
                     [(x[0] * x[1] - 1) * e * s, x[0] ** 2 * e * s, -x[0] * e * c],
                     [-x[1] * e * c, -x[0] * e * c, -e * s]])


def _batch(f):
    return lambda X: np.array([f(x) for x in X])


DENSITIES = {
    "per-point": Density(_value, _grad, _hess),
    "from-batch": Density.from_batch(_batch(_value), _batch(_grad), _batch(_hess)),
    "finite-difference": Density(_value),
}

FIELDS = {
    "constant": CoefficientField.constant([0.3, -0.2, 0.1],
                                          [[1.0, 0.2, 0.0], [0.0, 0.8, 0.1], [0.3, 0.0, 1.1]]),
    "variable": CoefficientField(
        lambda x: np.array([x[0] * x[1], np.cos(x[2]), x[1] ** 2]),
        lambda x: np.array([[1.0 + x[0] ** 2, 0.1 * x[1], 0.0],
                            [0.0, 2.0 + np.sin(x[1]), x[2]],
                            [0.2, 0.0, 1.5]])),
    "diagonal": CoefficientField(lambda x: -x,
                                 lambda x: np.array([1.0 + x[0] ** 2, 2.0, 1.0 + x[2] ** 2])),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(X=_points(3))
def test_density_batch_rows_equal_points(X):
    for p in DENSITIES.values():
        _rows_match(p, X)
        _rows_match(p.gradient, X)
        _rows_match(p.hessian, X)
        assert np.array_equal(p.value_batch(X), p(X))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(X=_points(3))
def test_coefficient_batch_rows_equal_points(X):
    for coef in FIELDS.values():
        for name in ("b", "sigma", "a", "db", "da", "d2a"):
            _rows_match(getattr(coef, name), X)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(X=_points(3))
def test_generator_batch_rows_equal_points(X):
    # the constant field's drift (0.3, -0.2, 0.1) has inexact products, where
    # a plain G @ b rounds some rows of a longer batch unlike a one-row call
    G = np.array([_grad(x) for x in X])
    H = np.array([_hess(x) for x in X])
    for coef in FIELDS.values():
        lf = coef.generator(X, G, H)
        for k in range(len(X)):
            assert np.array_equal(lf[k:k + 1], coef.generator(X[k:k + 1], G[k:k + 1],
                                                              H[k:k + 1])), k


def _adjoint_loop(coef, p, x):
    """The per-point adjoint formula that the batched one replaces."""
    x = np.asarray(x, dtype=float)
    a = coef.a(x)
    da = coef.da(x)
    d2a = coef.d2a(x)
    b = coef.b(x)
    db = coef.db(x)
    pv = p(x)
    gp = p.gradient(x)
    Hp = p.hessian(x)
    t1 = float(sum(d2a[i, j, i, j] for i in range(len(x)) for j in range(len(x))))
    t2 = float(sum(da[i, j, i] * gp[j] for i in range(len(x)) for j in range(len(x))))
    t3 = float(np.sum(a * Hp))
    adj_diff = 0.5 * (t1 * pv + 2.0 * t2 + t3)
    adj_drift = float(np.trace(db)) * pv + float(np.dot(b, gp))
    return adj_diff - adj_drift


SYSTEMS = {
    "halfline": rd.make_example("halfline"),
    "disk": rd.make_example("disk"),
    "orthant2": rd.make_example("orthant", J=2, b=[-1.0, -0.5]),
    "orthant3": rd.make_example("orthant", J=3, b=[-1.0, -0.5, -0.8]),
}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(X=_points(3, 0.0, 3.0))
def test_batched_adjoint_equals_the_point_formula(X):
    for system in SYSTEMS.values():
        J = system.domain.dimension
        p = rd.closed_form_density(system)
        Y = X[:, :J] / (1.0 + 2.0 * (system.name == "disk"))
        expected = np.array([_adjoint_loop(system.coefficients, p, y) for y in Y])
        assert np.array_equal(apply_adjoint(system.coefficients, p, Y), expected)


def _adjoint_term_scale(coef, p, x):
    """The sum of |terms| in _adjoint_loop: the scale of a difference that
    comes from summing the same terms in another order."""
    a, da, d2a, b, db = coef.a(x), coef.da(x), coef.d2a(x), coef.b(x), coef.db(x)
    pv, gp = abs(p(x)), np.abs(p.gradient(x))
    t1 = np.sum(np.abs(np.einsum("ijij->ij", d2a))) * pv
    t2 = np.sum(np.abs(np.einsum("iji->ij", da)) * gp)
    return (0.5 * (t1 + 2.0 * t2 + np.sum(np.abs(a * p.hessian(x))))
            + np.sum(np.abs(np.diag(db))) * pv + np.sum(np.abs(b) * gp))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(X=_points(3))
def test_variable_fields_adjoint_and_generator_equal_the_point_formulas(X):
    # the non-constant branches of CoefficientField.adjoint and .generator,
    # with finite-difference derivatives of b and a
    p = DENSITIES["per-point"]
    f = rd.TestFunction(3, _batch(_value), _batch(_grad), _batch(_hess))
    for name in ("variable", "diagonal"):
        coef = FIELDS[name]
        got = apply_adjoint(coef, p, X)
        want = np.array([_adjoint_loop(coef, p, x) for x in X])
        if name == "diagonal":
            assert np.array_equal(got, want)
        else:
            # the batch sums d2a and da in another order
            scale = np.array([_adjoint_term_scale(coef, p, x) for x in X])
            assert np.all(np.abs(got - want) <= 1e-14 * scale)
        lf = np.array([np.dot(coef.b(x), _grad(x)) + 0.5 * np.sum(coef.a(x) * _hess(x))
                       for x in X])
        assert np.array_equal(apply_generator_batch(coef, f, X), lf)
