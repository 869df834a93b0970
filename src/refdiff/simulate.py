"""Constrained Euler simulation of reflected diffusions.

Paths live on a uniform time grid; each step proposes an unconstrained Euler
move and projects it back into the domain along the active faces' reflection
vectors, recording the per-face pushing coefficients (the discrete local-time
proxy).  Gaussian increments come from counter-based Philox streams keyed by
(seed, path, step-block), so parallel paths are reproducible independently
of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from . import domain as dom
from ._csv import write_csv
from .coefficients import CoefficientField
from .errors import NoConvergence

_PTOL = 1e-12


def _rng(seed: int, path: int = 0, block: int = 0) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(((path & 0xFFFFFFFF) << 32)
                              | (block & 0xFFFFFFFF))],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def reflect(domain: dom.DomainSpec, y):
    """Project a candidate point into the closed domain along reflection vectors.

    Returns (x, eta) with x = y + sum_i eta_i gamma_i(x), eta >= 0 supported
    on the faces active at x.  Polyhedral constant-reflection domains use an
    exact complementarity solve; state-dependent fields use fixed-point iteration
    on the arrival point's directions.  Raises NoConvergence on failure.
    """
    y = np.asarray(y, dtype=float)
    if domain.constant_reflection:
        x, eta, ok = _kernels.project_polyhedral(y, *domain.face_arrays, _PTOL)
        if not ok:
            raise NoConvergence("active-set projection failed", point=y)
        return x, eta

    tol = 1e-10
    x = y.copy()
    eta = np.zeros(len(domain.pieces))
    for _ in range(50):
        vals = domain.piece_values(x)
        viol = np.flatnonzero(vals < -tol)
        if len(viol) == 0:
            return x, eta
        # linearized solve on the violated set at the current arrival point
        pieces = [domain.pieces[i] for i in viol]
        gammas = np.stack([p.gamma(dom.project_to_piece(domain, int(i), x))
                           for i, p in zip(viol, pieces)])
        Gm = np.stack([p.normal if p.kind == "half-space" else p.grad_phi(x[None])[0]
                       for p in pieces])
        M = Gm @ gammas.T
        try:
            step = np.linalg.solve(M, -vals[viol])
        except np.linalg.LinAlgError:
            raise NoConvergence("singular projection system", point=y)
        step = np.maximum(step, 0.0)
        x = x + step @ gammas
        eta[viol] += step
    vals = domain.piece_values(x)
    if np.min(vals) < -10 * tol:
        raise NoConvergence("fixed-point projection did not converge", point=y)
    return x, eta


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """A simulated path with per-face cumulative pushing coefficients."""

    dt: float
    states: np.ndarray            # (n+1, J)
    pushing: np.ndarray           # (n+1, m) cumulative
    seed: int
    events: list = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.states))

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1

    def to_csv(self, path, header_meta: str = "", stride: int = 1):
        """Write columns t, x*, push* for every stride-th state."""
        cols = (["t"] + [f"x{k}" for k in range(self.states.shape[1])]
                + [f"push{k}" for k in range(self.pushing.shape[1])])
        data = np.column_stack([self.times, self.states, self.pushing])
        write_csv(path, cols, data[::stride], header_meta)


@dataclass
class EmpiricalMeasure:
    """Equal-weight atoms at post-burn-in path states."""

    points: np.ndarray
    weights: np.ndarray
    burned: int = 0
    error_kind: str = "empirical"


# Steps drawn per walk call: a failed projection discards at most this many
# pre-drawn increments, so the cost of retries stays linear in the path length.
_BLOCK = 4096


def _walk_path(walk, x0, m, n_noise, n_steps, dt, seed, path_index):
    """Drive walk(x, noise, h) -> (states, cumulative push, fail_step) over
    n_steps steps of size dt on m faces, with n_noise normals per step.

    Noise comes in blocks of _BLOCK rows from the (seed, path_index) stream.
    A failed step is retried at 2^1 ... 2^8 sub-steps, each level on its own
    stream; if every level fails the path stays put and the step is recorded
    as an event.  After a failure the path continues on a stream keyed by the
    failed step.
    """
    x, p = x0, np.zeros(m)
    states, push, events = [x[None, :]], [p[None, :]], []
    rng = _rng(seed, path_index)
    k = 0
    while k < n_steps:
        st, pu, fail = walk(x, rng.standard_normal(
            (min(_BLOCK, n_steps - k), n_noise)), dt)
        states.append(st[1:])
        push.append(p + pu[1:])
        k += len(st) - 1
        x, p = st[-1], p + pu[-1]
        if fail < 0:
            continue
        # local refinement: retry the failed step at halved step sizes
        x_next, push_inc = x, np.zeros_like(p)
        for level in range(1, 9):
            sub = 2 ** level
            sub_noise = _rng(seed, path_index, block=k * 16 + level
                             ).standard_normal((sub, n_noise))
            st2, pu2, f2 = walk(x, sub_noise, dt / sub)
            if f2 < 0:
                x_next, push_inc = st2[-1], pu2[-1]
                break
        else:
            events.append({"step": k, "point": x.copy(),
                           "kind": "NoConvergence"})
        x, p = x_next, p + push_inc
        states.append(x[None, :])
        push.append(p[None, :])
        k += 1
        rng = _rng(seed, path_index, block=k * 16 + 9)
    return np.concatenate(states), np.concatenate(push), events


def _euler_walk(domain, coef, x, noise, h):
    """Euler steps with state-dependent coefficients, each reflected into the
    domain; the walk contract of _kernels.constrained_walk."""
    states = np.empty((len(noise) + 1, len(x)))
    push = np.zeros((len(noise) + 1, len(domain.pieces)))
    states[0] = x
    sqh = math.sqrt(h)
    for k, z in enumerate(noise):
        try:
            x, eta = reflect(domain, x + coef.b(x) * h + coef.sigma(x) @ z * sqh)
        except NoConvergence:
            return states[:k + 1], push[:k + 1], k
        states[k + 1] = x
        push[k + 1] = push[k] + eta
    return states, push, -1


def simulate_path(domain: dom.DomainSpec, coef: CoefficientField, x0, T: float,
                  dt: float, seed: int = 0, path_index: int = 0) -> Trajectory:
    """Euler walk from x0 to time T with reflection at the boundary.

    Every proposed step is projected back along the reflection vectors
    (pushing lands exactly on the active faces), by the kernel's
    complementarity solve for constant coefficients and reflection on a
    polyhedron and by `reflect` otherwise.  The projected chain carries an
    O(sqrt(dt)) boundary bias, so on the 1D half-line with constant
    coefficients the walk takes the exact bridge-minimum step instead,
    whose pushing may leave the endpoint in the interior (as the true local
    time does).
    """
    x0 = np.asarray(x0, dtype=float)
    cls, _ = dom.contains(domain, x0)
    if cls == dom.EXTERIOR:
        raise ValueError(f"start point {x0} is outside the closed domain")
    n_steps = int(round(T / dt))
    if (domain.dimension == 1 and len(domain.pieces) == 1
            and domain.pieces[0].kind == "half-space" and coef.is_constant):
        piece = domain.pieces[0]
        nrm = float(piece.normal[0])
        s0 = nrm * float(x0[0]) - piece.offset
        drift = nrm * float(coef.b(x0)[0])
        diff = abs(float(coef.sigma(x0)[0, 0]))
        rng = _rng(seed, path_index)
        noise = rng.standard_normal(n_steps)
        logu = np.log(rng.uniform(size=n_steps))
        s, push = _kernels.halfline_bridge_walk(s0, drift, diff, noise, logu, dt)
        states = ((s + piece.offset) * nrm)[:, None]
        return Trajectory(dt, states, push[:, None], seed, [])
    sigma = coef.sigma(x0)
    if domain.constant_reflection and coef.is_constant:
        normals, offsets, gammas = domain.face_arrays
        b = coef.b(x0)

        def walk(x, noise, h):
            return _kernels.constrained_walk(x, b, sigma, normals, offsets,
                                             gammas, noise, h, _PTOL)
    else:
        def walk(x, noise, h):
            return _euler_walk(domain, coef, x, noise, h)
    states, push, events = _walk_path(walk, x0, len(domain.pieces),
                                      sigma.shape[1], n_steps, dt, seed,
                                      path_index)
    return Trajectory(dt, states, push, seed, events)


# ---------------------------------------------------------------------------
# Path statistics
# ---------------------------------------------------------------------------

def occupation_measure(traj: Trajectory, burn_in: float = 0.1) -> EmpiricalMeasure:
    """Equal-weight empirical measure of post-burn-in states."""
    if not 0.0 <= burn_in < 1.0:
        raise ValueError("burn_in must be in [0, 1)")
    n = len(traj.states)
    k0 = int(burn_in * n)
    pts = traj.states[k0:]
    w = np.full(len(pts), 1.0 / len(pts))
    return EmpiricalMeasure(pts, w, burned=k0)


def boundary_occupation(domain: dom.DomainSpec, traj: Trajectory,
                        shell: float, burn_in: float = 0.0):
    """Fractions of post-burn-in time spent near the boundary and near the
    singular set (piece values as the distance proxy for curved pieces)."""
    n = len(traj.states)
    k0 = int(burn_in * n)
    pts = traj.states[k0:]
    vals = domain.piece_values(pts)
    near_boundary = np.min(vals, axis=1) <= shell
    frac_b = float(np.mean(near_boundary))
    frac_v = 0.0
    if domain.singular_points:
        dmin = np.min(np.stack([np.linalg.norm(pts - sp.x, axis=1)
                                for sp in domain.singular_points]), axis=0)
        frac_v = float(np.mean(dmin <= shell))
    return frac_b, frac_v


def first_exit(traj: Trajectory, r: float) -> Optional[float]:
    """First grid time with |state| >= r, or None."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    hits = np.flatnonzero(np.linalg.norm(traj.states, axis=1) >= r)
    if len(hits) == 0:
        return None
    return float(hits[0] * traj.dt)


# ---------------------------------------------------------------------------
# Resolvent sampling
# ---------------------------------------------------------------------------

def resolvent_sample(domain: dom.DomainSpec, coef: CoefficientField, y,
                     lam: float, dt: float, seed: int = 0,
                     draw_index: int = 0) -> np.ndarray:
    """One draw of the exponentially-killed transition kernel.

    Draws t ~ Exponential(mean lam), simulates from y to time t, and returns
    the endpoint: a single transition of the resolvent chain.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    rng = _rng(seed, draw_index, block=1)
    t = float(rng.exponential(lam))
    n_full = int(t / dt)
    rem = t - n_full * dt
    traj = simulate_path(domain, coef, y, n_full * dt, dt, seed=seed,
                         path_index=2 * draw_index + 1)
    x = traj.states[-1]
    if rem > 1e-15:
        tr2 = simulate_path(domain, coef, x, rem, rem, seed=seed,
                            path_index=2 * draw_index + 2)
        x = tr2.states[-1]
    return x


def resolvent_sample_batch(domain, coef, ys, lam, dt, seed=0) -> np.ndarray:
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    return np.stack([resolvent_sample(domain, coef, y, lam, dt, seed=seed,
                                      draw_index=k)
                     for k, y in enumerate(ys)])


# ---------------------------------------------------------------------------
# Submartingale Monte-Carlo check
# ---------------------------------------------------------------------------

@dataclass
class SubmartingaleCurve:
    times: np.ndarray
    mean: np.ndarray
    ci: np.ndarray
    step_margins: np.ndarray
    consistent_nondecreasing: bool
    n_paths: int


def submartingale_estimate(domain: dom.DomainSpec, coef: CoefficientField, f,
                           x0, n_paths: int, T: float, dt: float,
                           checkpoints: Sequence[float], seed: int = 0,
                           check_membership: bool = False) -> SubmartingaleCurve:
    """Monte-Carlo estimate of m(t) = E[f(X_t) - int_0^t (L f)(X_u) du].

    The compensated process is a submartingale exactly for functions whose
    boundary inner products <gamma_i, grad f> are nonnegative (the negated
    admissible class): boundary pushing then only adds to f.  For such f the
    curve m must be nondecreasing; the verdict allows two standard errors of
    slack on every checkpoint pair (paired differences across common paths).
    """
    if check_membership:
        from .testfunctions import check_admissible

        rep = check_admissible(-f, domain, tol=1e-8)
        if not rep.passed:
            from .errors import NotInH

            raise NotInH(f"negated function fails admissibility: {rep}")
    n_steps = int(round(T / dt))
    cps = np.asarray(sorted(checkpoints), dtype=float)
    idx = np.minimum((cps / dt).round().astype(int), n_steps)
    vals = np.empty((n_paths, len(cps)))
    for p in range(n_paths):
        traj = simulate_path(domain, coef, x0, T, dt, seed=seed, path_index=p)
        v, G, H = f.jet(traj.states)
        lf = coef.generator(traj.states[:-1], G[:-1], H[:-1])
        comp = np.concatenate([[0.0], np.cumsum(lf) * dt])
        vals[p] = v[idx] - comp[idx]
    mean = vals.mean(axis=0)
    ci = 2.0 * vals.std(axis=0, ddof=1) / math.sqrt(n_paths)
    margins = []
    ok = True
    for k in range(len(cps) - 1):
        diff = vals[:, k + 1] - vals[:, k]
        se = diff.std(ddof=1) / math.sqrt(n_paths)
        margin = diff.mean() + 2.0 * se
        margins.append(margin)
        if margin < 0:
            ok = False
    return SubmartingaleCurve(cps, mean, ci, np.array(margins), ok, n_paths)
