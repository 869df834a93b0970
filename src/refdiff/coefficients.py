"""Drift/dispersion coefficient fields and scalar densities with derivatives.

Every evaluator takes a point (J,) or a batch (n, J), and row k of a batch
result equals the result at X[k] bit for bit.  The constructors take
per-point callables and wrap them once in a row adapter; Density.from_batch
takes batch callables.  Finite-difference fallbacks use the standard optimal
central-difference steps h1 = eps^(1/3) (1+|x|) for first and
h2 = eps^(1/4) (1+|x|) for second order, per row.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import domain as dom

_EPS = np.finfo(float).eps
_H1 = _EPS ** (1.0 / 3.0)
_H2 = _EPS ** 0.25


def _rows(f):
    """Batch form of a per-point callable: row k of the result is f(X[k])."""
    return None if f is None else (lambda X: np.array([f(x) for x in X], dtype=float))


def _row(F, single):
    return F[0] if single else F


def _at(x, evaluate):
    """evaluate on x as a batch: the point's row when x is one point."""
    X, single = dom.as_batch(x)
    return _row(np.asarray(evaluate(X), dtype=float), single)


def _stencil(f, X, H, points):
    """Steps h = H (1 + |x|) for the rows x of X and f at the stencil blocks
    points(x, E), each (n, m_i, J) with E[k, i] = h_k e_i, from one call of
    f: returns h shaped to broadcast against the (n, m_i) + value-shape
    blocks of f's values."""
    h = H * (1.0 + np.sqrt(dom.row_dot(X, X)))
    blocks = points(X[:, None], h[:, None, None] * np.eye(X.shape[1]))
    P = np.concatenate(blocks, axis=1)
    n, m, J = P.shape
    F = np.asarray(f(P.reshape(n * m, J)), dtype=float)
    F = F.reshape((n, m) + F.shape[1:])
    return (h.reshape((n,) + (1,) * (F.ndim - 1)),
            np.split(F, np.cumsum([b.shape[1] for b in blocks])[:-1], axis=1))


def _diff1(f, X, H):
    h, (Fp, Fm) = _stencil(f, X, H, lambda x, E: (x + E, x - E))
    return np.moveaxis((Fp - Fm) / (2 * h), 1, -1)


def central_diff1(f, X) -> np.ndarray:
    """First central differences of a batch callable f (scalar- or
    array-valued per row) at the rows x of X (n, J): out[k, ..., i] =
    (f(x + h e_i) - f(x - h e_i)) / 2h with h = h1 (1 + |x|)."""
    return _diff1(f, np.asarray(X, dtype=float), _H1)


def central_diff2(f, X) -> np.ndarray:
    """Second central differences of a batch callable f at the rows of X,
    symmetric in the last two axes: out[k, ..., i, j] approximates
    d^2 f / dx_i dx_j at X[k] with h = h2 (1 + |x|)."""
    X = np.asarray(X, dtype=float)
    n, J = X.shape
    k, l = np.triu_indices(J, 1)
    h, (F0, Fp, Fm, Fpp, Fpm, Fmp, Fmm) = _stencil(f, X, _H2, lambda x, E: (
        x, x + E, x - E, x + E[:, k] + E[:, l], x + E[:, k] - E[:, l],
        x - E[:, k] + E[:, l], x - E[:, k] - E[:, l]))
    out = np.empty((n, J, J) + F0.shape[2:])
    out[:, range(J), range(J)] = (Fp - 2 * F0 + Fm) / (h * h)
    out[:, k, l] = out[:, l, k] = (Fpp - Fpm - Fmp + Fmm) / (4 * h * h)
    return np.moveaxis(out, (1, 2), (-2, -1))


class CoefficientField:
    """Drift b(x), dispersion sigma(x) and diffusion a = sigma sigma^T.

    The constructor takes per-point callables b(x) -> (J,) and sigma(x) ->
    (J, m), or (J,) for a diagonal, and optional analytic derivatives:
      db(x)  -> (J, J) Jacobian db_i/dx_j
      da(x)  -> (J, J, J) with da[i, j, k] = d a_ij / dx_k
      d2a(x) -> (J, J, J, J) with d2a[i, j, k, l] = d^2 a_ij / dx_k dx_l
    When absent, central finite differences are used.
    """

    is_constant = False

    def __init__(self, b: Callable, sigma: Callable, db=None, da=None, d2a=None):
        self._b, self._db, self._da, self._d2a = map(_rows, (b, db, da, d2a))
        # a 1-D sigma(x) is the diagonal of the dispersion matrix
        self._sigma = _rows(lambda x: np.diag(s) if np.ndim(s := sigma(x)) == 1 else s)

    # -- construction helpers ------------------------------------------------
    @classmethod
    def constant(cls, b, sigma) -> "CoefficientField":
        b = np.asarray(b, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim == 1:
            sigma = np.diag(sigma)
        J = len(b)
        out = cls.__new__(cls)
        out._b, out._sigma, out._db, out._da, out._d2a = (
            (lambda X, c=c: c[None].repeat(len(X), axis=0))
            for c in (b, sigma, np.zeros((J, J)), np.zeros((J, J, J)), np.zeros((J,) * 4)))
        out.is_constant = True
        out._const_b = b
        out._const_a = sigma @ sigma.T
        return out

    # -- evaluators ------------------------------------------------------------
    def b(self, x) -> np.ndarray:
        return _at(x, self._b)

    def sigma(self, x) -> np.ndarray:
        return _at(x, self._sigma)

    def a(self, x) -> np.ndarray:
        X, single = dom.as_batch(x)
        S = self.sigma(X)
        return _row(S @ np.swapaxes(S, 1, 2), single)

    def generator(self, X, G, H) -> np.ndarray:
        """(L f)(x) = <b, grad f> + 1/2 a : hess f at the rows of X, given f's
        (n, J) gradients G and (n, J, J) Hessians H there."""
        if self.is_constant:
            return (dom.row_dot(G, self._const_b)
                    + 0.5 * np.einsum("nij,ij->n", H, self._const_a))
        return dom.row_dot(self.b(X), G) + 0.5 * np.sum(self.a(X) * H, axis=(1, 2))

    def adjoint(self, X, P, G, H) -> np.ndarray:
        """(L* p)(x) = 1/2 sum_ij d2(a_ij p) - sum_i d(b_i p) at the rows of X,
        given p's (n,) values P, (n, J) gradients G and (n, J, J) Hessians H."""
        if self.is_constant:
            # a constant field has no derivative terms; zeros in their
            # place keep the general formula's rounding
            t1 = t2 = div_b = 0.0
            a, b = self._const_a, self._const_b
        else:
            t1 = np.einsum("nijij->n", self.d2a(X))
            t2 = np.einsum("niji,nj->n", self.da(X), G)
            div_b = np.trace(self.db(X), axis1=1, axis2=2)
            a, b = self.a(X), self.b(X)
        # 1/2 sum_ij [ (d2_ij a_ij) p + 2 (d_i a_ij)(d_j p) + a_ij d2_ij p ]
        t3 = (a * H).reshape(len(X), -1).sum(axis=1)
        return 0.5 * (t1 * P + 2.0 * t2 + t3) - (div_b * P + dom.row_dot(b, G))

    @property
    def has_analytic_derivatives(self) -> bool:
        return self._db is not None and self._da is not None and self._d2a is not None

    def db(self, x) -> np.ndarray:
        return _at(x, self._db or (lambda X: central_diff1(self.b, X)))

    def da(self, x) -> np.ndarray:
        return _at(x, self._da or (lambda X: central_diff1(self.a, X)))

    def d2a(self, x) -> np.ndarray:
        return _at(x, self._d2a or (lambda X: central_diff2(self.a, X)))


class Density:
    """Nonnegative scalar field with value / gradient / Hessian access, from
    per-point callables value(x) -> float, grad(x) -> (J,), hess(x) -> (J, J)
    or, through from_batch, their batch forms."""

    def __init__(self, value: Callable, grad=None, hess=None, name: str = ""):
        self._value, self._grad, self._hess = map(_rows, (value, grad, hess))
        self.name = name
        self.scale = 1.0

    @classmethod
    def from_batch(cls, value: Callable, grad=None, hess=None, name: str = "") -> "Density":
        out = cls(None, name=name)
        out._value, out._grad, out._hess = value, grad, hess
        return out

    def __call__(self, x):
        X, single = dom.as_batch(x)
        v = self.scale * np.asarray(self._value(X), dtype=float)
        return float(v[0]) if single else v

    def value_batch(self, X):
        """Values at the rows of X, taken as a batch even when 1-D."""
        return self(np.atleast_2d(X))

    def gradient(self, x) -> np.ndarray:
        return self.scale * _at(x, self._grad or (lambda X: central_diff1(self._value, X)))

    def hessian(self, x) -> np.ndarray:
        return self.scale * _at(x, self._hess or (lambda X: central_diff2(self._value, X)))

    @property
    def has_analytic_derivatives(self) -> bool:
        return self._grad is not None and self._hess is not None

    def rescaled(self, factor: float) -> "Density":
        d = Density.from_batch(self._value, self._grad, self._hess, name=self.name)
        d.scale = self.scale * factor
        return d
