"""Scalar profiles: C^2 piecewise-polynomial cutoffs and the singular ramp.

Cutoffs use the quintic smoothstep (vanishing first and second derivatives at
both ends), so every profile here is exactly C^2 with closed-form
derivatives.  The singular ramp l is the piecewise function that is zero
below delta, rises with curvature exactly 2 on (delta + sqrt(delta), eps),
bends down with curvature -2 sqrt(eps) on (eps, eps + sqrt(eps)), and is
constant beyond; the published branch constants are kept and the connecting
segment on (delta, delta + sqrt(delta)] is the unique chord making the value
and upper slope match (the stated cubic there is inconsistent with the other
branches by a factor of three).

The mollified ramp averages l over the left-shifted window
[s + w/2, s + w] against a C^2 bump kernel, which keeps every one-sided
curvature guarantee exact: the curvature band bound holds for all
s >= eps - w/2 (reported as kappa = w/2).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial

from .errors import BadParameters, BadThresholds

_GAUSS_N = 10
_GX, _GW = np.polynomial.legendre.leggauss(_GAUSS_N)


class PiecewisePoly:
    """Piecewise polynomial with vectorized value and two derivatives.

    pieces[i] covers (breaks[i-1], breaks[i]]; pieces[0] covers (-inf,
    breaks[0]] and pieces[-1] covers (breaks[-1], inf).  coef[k] is the
    (pieces x degree+1) coefficient table of the k-th derivative (degree: its
    highest over the pieces), evaluated by one Horner pass in numpy's polyval
    order, so a table value equals the piece's Polynomial value bit for bit.
    """

    def __init__(self, breaks, pieces):
        self.breaks = np.asarray(breaks, dtype=float)
        pieces = [p if isinstance(p, Polynomial) else Polynomial(p) for p in pieces]
        assert len(pieces) == len(self.breaks) + 1
        self.coef = []
        for k in range(3):
            cs = [p.deriv(k).coef for p in pieces]
            C = np.zeros((len(pieces), max(len(c) for c in cs)))
            for i, c in enumerate(cs):
                C[i, :len(c)] = c
            self.coef.append(C)
        # the rows of each table with only a constant term, not -0.0: at a
        # finite s, Horner's partial sums there are zeros of either sign
        # until the last one adds the term, so it returns the term bit for bit
        self._constant = [np.all(C[:, 1:] == 0.0, axis=1)
                          & ~((C[:, 0] == 0.0) & np.signbit(C[:, 0])) for C in self.coef]

    def _piece(self, s):
        """Piece index of each s: the number of breaks below it, as
        searchsorted(side="left") counts it for every s but NaN (which falls
        in piece 0 and evaluates to NaN in any)."""
        idx = np.zeros(s.shape, dtype=np.intp)
        for b in self.breaks:
            idx += s > b
        return idx

    def constant_at(self, s):
        """Mask of the finite s on a piece whose value is a constant: there
        the value is that constant and both derivatives are exactly 0."""
        s = np.asarray(s, dtype=float)
        return self._constant[0][self._piece(s)] & np.isfinite(s)

    def _eval(self, k, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        C = self.coef[k]
        idx = self._piece(s)
        # a finite s on a constant row takes its term; the others run Horner
        out = C[idx, 0]
        move = ~(self._constant[k][idx] & np.isfinite(s))
        s, idx = s[move], idx[move]
        # polyval's c0 = C[idx, j] + c0 * s, in place (the sum commutes exactly)
        part = C[idx, -1] + s * 0
        for j in range(C.shape[1] - 2, -1, -1):
            part *= s
            part += C[idx, j]
        out[move] = part
        return float(out[0]) if scalar else out

    def value(self, s):
        return self._eval(0, s)

    def d1(self, s):
        return self._eval(1, s)

    def d2(self, s):
        return self._eval(2, s)

    def __call__(self, s):
        return self.value(s)


def _smoothstep() -> Polynomial:
    # 10 t^3 - 15 t^4 + 6 t^5: C^2 step from 0 to 1 on [0, 1]
    return Polynomial([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])


def _affine(lo: float, hi: float) -> Polynomial:
    return Polynomial([-lo / (hi - lo), 1.0 / (hi - lo)])


_CUTOFF_CACHE: dict = {}


def _step_profile(rising: bool, lo, hi) -> PiecewisePoly:
    """The cached C^2 step on [lo, hi]: rising from 0 to 1, or falling from 1
    to 0.  One instance per key.  Raises BadThresholds unless lo < hi."""
    if not lo < hi:
        raise BadThresholds(f"thresholds must increase, got {(lo, hi)}")
    key = (rising, float(lo), float(hi))
    if key not in _CUTOFF_CACHE:
        step = _smoothstep()(_affine(lo, hi))
        if rising:
            pieces = [Polynomial([0.0]), step, Polynomial([1.0])]
        else:
            pieces = [Polynomial([1.0]), 1.0 - step, Polynomial([0.0])]
        _CUTOFF_CACHE[key] = PiecewisePoly([lo, hi], pieces)
    return _CUTOFF_CACHE[key]


def cutoff(lo: float, hi: float) -> PiecewisePoly:
    """C^2 profile falling from 1 (below lo) to 0 (above hi)."""
    return _step_profile(False, lo, hi)


def rising_cutoff(lo: float, hi: float) -> PiecewisePoly:
    """C^2 profile rising from 0 (below lo) to 1 (above hi)."""
    return _step_profile(True, lo, hi)


def zeta_for_band(lam: float) -> PiecewisePoly:
    """The decreasing boundary-bump cutoff: 1 on (-inf, 5 lam/4], 0 beyond 23 lam/12."""
    return cutoff(1.25 * lam, 23.0 * lam / 12.0)


# ---------------------------------------------------------------------------
# Singular ramp
# ---------------------------------------------------------------------------

def _exact_ramp(delta: float, eps: float):
    """Breaks and Polynomial pieces of the exact singular ramp."""
    rd = np.sqrt(delta)
    re = np.sqrt(eps)
    s1 = delta + rd
    A = 2.0 * delta * (rd + 1.0) - s1 * s1
    plateau = A + eps * eps + eps * re
    chord = Polynomial([-2.0 * s1 * delta, 2.0 * s1])          # 2(delta+rd)(s-delta)
    mid = Polynomial([A, 0.0, 1.0])                            # s^2 + A
    down = plateau - re * Polynomial([eps + re, -1.0]) ** 2    # plateau - re (s-eps-re)^2
    return ([delta, s1, eps, eps + re],
            [Polynomial([0.0]), chord, mid, down, Polynomial([plateau])])


class RampProfile:
    """Mollified singular ramp with exact one-sided curvature guarantees.

    value/d1/d2 evaluate the mollified profile; the exact piecewise profile is
    the PiecewisePoly exact.  kappa = width/2 is the certified margin:
    |d2| <= 2 sqrt(eps) for s >= eps - kappa, and d2 >= 2 on
    [delta + 2 sqrt(delta), eps/2].
    """

    def __init__(self, delta: float, eps: float):
        if not (0.0 < delta < eps):
            raise BadParameters(f"need 0 < delta < eps, got {delta}, {eps}")
        if delta + np.sqrt(delta) >= eps:
            raise BadParameters(
                f"need delta + sqrt(delta) < eps, got {delta + np.sqrt(delta):.4g} >= {eps}")
        if eps >= 0.4:
            raise BadParameters("ramp bounds require eps < 0.4")
        self.delta = float(delta)
        self.eps = float(eps)
        self.width = float(min(delta / 2.0, np.sqrt(delta) / 4.0, eps / 8.0))
        self.kappa = self.width / 2.0
        self.exact = PiecewisePoly(*_exact_ramp(delta, eps))
        self.plateau = float(self.exact.coef[0][-1, 0])
        # slope jump of the exact ramp at s = delta (nonnegative kink)
        self._kink_jump = 2.0 * (delta + np.sqrt(delta))

    # -- kernel -----------------------------------------------------------------
    def _kernel(self, t):
        """C^2 bump density on [w/2, w] integrating to one."""
        w = self.width
        tau = (t - 0.75 * w) / (0.25 * w)
        # normalization: integral of (1-tau^2)^3 over [-1,1] is 32/35, times w/4
        return np.where(np.abs(tau) < 1.0,
                        (35.0 / (8.0 * 0.25 * w * 4.0)) * (1.0 - tau ** 2) ** 3, 0.0)

    # -- evaluation ------------------------------------------------------------
    def _mollified(self, k, s):
        """k-th derivative of the mollified ramp at the points s.

        Below the support it is 0; once the window passes the last exact break
        it is the plateau (k = 0) or 0.  In between, the window [s + w/2, s + w]
        is cut at the exact breaks clipped into it, and each segment adds its
        Gauss sum of the exact k-th derivative against the kernel; a break
        outside the window gives a zero-length segment that adds exactly 0.
        For k = 2 the slope kink at delta adds its point mass.
        """
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        w = self.width
        lo, hi = s + w / 2.0, s + w
        top = lo >= self.eps + np.sqrt(self.eps)
        out = np.where(top, self.plateau if k == 0 else 0.0, 0.0)
        act = (hi > self.delta) & ~top
        sa, lo, hi = s[act], lo[act], hi[act]
        cuts = np.column_stack([lo, np.clip(self.exact.breaks, lo[:, None], hi[:, None]), hi])
        total = np.zeros(len(sa))
        for a, b in zip(cuts.T[:-1], cuts.T[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            u = mid[:, None] + half[:, None] * _GX
            f = self.exact._eval(k, u)
            total += half * np.sum(_GW * f * self._kernel(u - sa[:, None]), axis=1)
        if k == 2:
            total += self._kink_jump * self._kernel(self.delta - sa)
        out[act] = total
        return float(out[0]) if scalar else out

    def value(self, s):
        return self._mollified(0, s)

    def d1(self, s):
        return self._mollified(1, s)

    def d2(self, s):
        return self._mollified(2, s)
