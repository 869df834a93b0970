"""Drift/dispersion coefficient fields and scalar densities with derivatives.

Finite-difference fallbacks use the standard optimal central-difference steps
h1 = eps^(1/3) (1+|x|) for first and h2 = eps^(1/4) (1+|x|) for second order.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_EPS = np.finfo(float).eps
_H1 = _EPS ** (1.0 / 3.0)
_H2 = _EPS ** 0.25


def central_diff1(f, x) -> np.ndarray:
    """First central differences of f (scalar- or array-valued) at x:
    out[..., k] = (f(x + h e_k) - f(x - h e_k)) / 2h with h = h1 (1 + |x|)."""
    x = np.asarray(x, dtype=float)
    h = _H1 * (1.0 + float(np.linalg.norm(x)))
    E = h * np.eye(len(x))
    return np.stack([(np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h) for e in E],
                    axis=-1)


def central_diff2(f, x) -> np.ndarray:
    """Second central differences of f at x, symmetric in the last two axes:
    out[..., k, l] approximates d^2 f / dx_k dx_l with h = h2 (1 + |x|)."""
    x = np.asarray(x, dtype=float)
    J = len(x)
    h = _H2 * (1.0 + float(np.linalg.norm(x)))
    E = h * np.eye(J)
    f0 = np.asarray(f(x))
    out = np.empty(f0.shape + (J, J))
    for k in range(J):
        for l in range(k, J):
            if k == l:
                d = (f(x + E[k]) - 2 * f0 + f(x - E[k])) / (h * h)
            else:
                d = (f(x + E[k] + E[l]) - f(x + E[k] - E[l])
                     - f(x - E[k] + E[l]) + f(x - E[k] - E[l])) / (4 * h * h)
            out[..., k, l] = d
            out[..., l, k] = d
    return out


class CoefficientField:
    """Drift b(x), dispersion sigma(x) and diffusion a = sigma sigma^T.

    Optional analytic derivative evaluators:
      db(x)  -> (J, J) Jacobian db_i/dx_j
      da(x)  -> (J, J, J) with da[i, j, k] = d a_ij / dx_k
      d2a(x) -> (J, J, J, J) with d2a[i, j, k, l] = d^2 a_ij / dx_k dx_l
    When absent, central finite differences are used.
    """

    def __init__(self, b: Callable, sigma: Callable, db=None, da=None, d2a=None):
        self._b = b
        self._sigma = sigma
        self._db = db
        self._da = da
        self._d2a = d2a
        self.is_constant = False
        self._const_b = None
        self._const_a = None

    # -- construction helpers ------------------------------------------------
    @classmethod
    def constant(cls, b, sigma) -> "CoefficientField":
        b = np.asarray(b, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim == 1:
            sigma = np.diag(sigma)
        J = len(b)
        zj = np.zeros((J, J))
        za = np.zeros((J, J, J))
        z2 = np.zeros((J, J, J, J))
        out = cls(lambda x: b, lambda x: sigma,
                  db=lambda x: zj, da=lambda x: za, d2a=lambda x: z2)
        out.is_constant = True
        out._const_b = b
        out._const_a = sigma @ sigma.T
        return out

    # -- evaluators ------------------------------------------------------------
    def b(self, x) -> np.ndarray:
        return np.asarray(self._b(np.asarray(x, dtype=float)), dtype=float)

    def sigma(self, x) -> np.ndarray:
        s = np.asarray(self._sigma(np.asarray(x, dtype=float)), dtype=float)
        if s.ndim == 1:
            s = np.diag(s)
        return s

    def a(self, x) -> np.ndarray:
        s = self.sigma(x)
        return s @ s.T

    def generator(self, X, G, H) -> np.ndarray:
        """(L f)(x) = <b, grad f> + 1/2 a : hess f at the rows of X, given f's
        (n, J) gradients G and (n, J, J) Hessians H there."""
        if self.is_constant:
            return G @ self._const_b + 0.5 * np.einsum("nij,ij->n", H, self._const_a)
        return np.array([float(np.dot(self.b(x), g) + 0.5 * np.sum(self.a(x) * h))
                         for x, g, h in zip(X, G, H)])

    @property
    def has_analytic_derivatives(self) -> bool:
        return self._db is not None and self._da is not None and self._d2a is not None

    def db(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._db is not None:
            return np.asarray(self._db(x), dtype=float)
        return central_diff1(self.b, x)

    def da(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._da is not None:
            return np.asarray(self._da(x), dtype=float)
        return central_diff1(self.a, x)

    def d2a(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._d2a is not None:
            return np.asarray(self._d2a(x), dtype=float)
        return central_diff2(self.a, x)


class Density:
    """Nonnegative scalar field with value / gradient / Hessian access."""

    def __init__(self, value: Callable, grad=None, hess=None, name: str = ""):
        self._value = value
        self._grad = grad
        self._hess = hess
        self.name = name
        self.scale = 1.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.scale * float(self._value(x))

    def value_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.scale * np.array([float(self._value(x)) for x in X])

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._grad is not None:
            return self.scale * np.asarray(self._grad(x), dtype=float)
        return self.scale * central_diff1(lambda y: float(self._value(y)), x)

    def hessian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._hess is not None:
            return self.scale * np.asarray(self._hess(x), dtype=float)
        return self.scale * central_diff2(lambda y: float(self._value(y)), x)

    @property
    def has_analytic_derivatives(self) -> bool:
        return self._grad is not None and self._hess is not None

    def rescaled(self, factor: float) -> "Density":
        d = Density(self._value, self._grad, self._hess, name=self.name)
        d.scale = self.scale * factor
        return d
