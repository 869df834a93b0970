"""Constrained Euler simulation of reflected diffusions.

Paths live on a uniform time grid; each step proposes an unconstrained Euler
move and projects it back into the domain along the active faces' reflection
vectors, recording the per-face pushing coefficients (the discrete local-time
proxy).  Each path draws its whole noise from its own counter-based Philox
stream, keyed by (seed, path), so parallel paths are reproducible
independently of scheduling; a failed step's retries draw from streams keyed
by the step as well.
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


def _key(seed: int, path: int, block: int) -> np.ndarray:
    return np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                     np.uint64(((path & 0xFFFFFFFF) << 32)
                               | (block & 0xFFFFFFFF))],
                    dtype=np.uint64)


def _rng(seed: int, path: int = 0, block: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_key(seed, path, block)))


def _streams(seed: int, paths, block: int = 0):
    """The streams _rng(seed, path, block) of paths in turn, as one generator
    re-keyed before each yield (a seventh of the cost of building one), so
    each stream must be read before the next one is taken."""
    rng = _rng(seed, 0, block)
    fresh = rng.bit_generator.state
    for q in paths:
        fresh["state"]["key"] = _key(seed, q, block)
        rng.bit_generator.state = fresh
        yield rng


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
        x, eta, ok = _kernels.project_polyhedral(y, *domain.face_arrays)
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


# Steps of one walk call that resumes a path after a failed step: the
# kernel builds increments for all the noise it is given, so this bounds the
# work a later failure throws away, and retries stay linear in the path length.
_BLOCK = 4096

# State rows of one block of Monte-Carlo paths (their steps plus one): the
# paths of a block are walked, and their test-function jets taken, together.
_ROWS = 1 << 13


def _check_steps(T: float, dt: float):
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not T >= 0:
        raise ValueError(f"T must be nonnegative, got {T}")


def _runs(lengths):
    """Consecutive runs of positions of nondecreasing step counts, each as
    many as fit in _ROWS state rows (at least one): a block's arrays hold
    every path to its longest one's steps."""
    start = 0
    for end in range(1, len(lengths) + 1):
        if (end == len(lengths)
                or (end + 1 - start) * (lengths[end] + 1) > _ROWS):
            yield slice(start, end)
            start = end


def _retry(walk, draw, states, push, k, noise, h, seed, path_index):
    """Finish one path in place from its failed step k: states[:k + 1] and
    push[:k + 1] hold the path, noise its own rows.

    The failed step is retried at 2^1 ... 2^8 sub-steps, each level on its
    own stream; if every level fails, the path stays put and the step is
    recorded as an event.  The path then walks on from step k + 1 on its own
    noise, at most _BLOCK rows per call, to its next failed step or its end.
    Returns the path's events.
    """
    events = []
    failed = True
    while failed:
        x, push_inc = states[k], 0.0
        for level in range(1, 9):
            sub = np.empty((1, 2 ** level, noise.shape[1]))
            draw(_rng(seed, path_index, block=k * 16 + level), sub[0])
            st, pu, f = walk(states[k][None], sub, h / 2 ** level,
                             [2 ** level])
            if f[0] < 0:
                x, push_inc = st[0, -1], pu[0, -1]
                break
        else:
            events.append({"step": k, "point": states[k].copy(),
                           "kind": "NoConvergence"})
        states[k + 1] = x
        push[k + 1] = push[k] + push_inc
        k += 1
        failed = False
        while k < len(noise) and not failed:
            rows = noise[None, k:k + _BLOCK]
            st, pu, f = walk(states[k][None], rows, h, [rows.shape[1]])
            failed = f[0] >= 0
            j = int(f[0]) if failed else st.shape[1] - 1
            states[k + 1:k + j + 1] = st[0, 1:j + 1]
            push[k + 1:k + j + 1] = push[k] + pu[0, 1:j + 1]
            k += j
    return events


def _euler_walk(domain, coef, X, noise, h, steps):
    """Euler steps with state-dependent coefficients, each reflected into the
    domain: the walk contract of _kernels.constrained_walk, one path at a
    time."""
    states = np.empty((len(X), noise.shape[1] + 1, X.shape[1]))
    push = np.zeros((len(X), noise.shape[1] + 1, len(domain.pieces)))
    states[:, 0] = X
    fail = np.full(len(X), -1)
    for p, x in enumerate(X):
        sqh = math.sqrt(h[p])
        for k, z in enumerate(noise[p, :steps[p]]):
            try:
                x, eta = reflect(domain, x + coef.b(x) * h[p]
                                 + coef.sigma(x) @ z * sqh)
            except NoConvergence:
                fail[p] = k
                break
            states[p, k + 1] = x
            push[p, k + 1] = push[p, k] + eta
    return states, push, fail


def _normals(rng, rows):
    rng.standard_normal(out=rows)


def _simulate_paths(domain, coef, X0, n_steps, h, seed, paths):
    """Walk path paths[p] from X0[p] for n_steps[p] steps of size h[p].

    Each path draws its whole noise at once from its own (seed, path)
    stream, draw(rng, rows) filling its (steps, width) rows.  One call of
    walk(X, noise, h, steps) -> (states, cumulative push, fail), the block
    contract of _kernels.constrained_walk, walks every path: no walk steps
    past a path's own count, and a step's increment is rounded from its own
    noise row, so a path is the same alone or in a block.  _retry finishes a
    path whose step failed.

    Returns (states, push, events): (P, N + 1, J) and (P, N + 1, m) arrays,
    N the most steps, whose rows past a path's own steps are undefined, and
    one event list per path.
    """
    X0 = np.asarray(X0, dtype=float)
    if not np.all(np.isfinite(X0)):
        raise ValueError("point must be finite")
    # dom.contains on every row: exterior below -tol
    lowest = np.min(domain.piece_values(X0), axis=1)
    outside = np.flatnonzero(lowest < -domain.tol_at(X0))
    if outside.size:
        raise ValueError(f"start point {X0[outside[0]]} is outside the "
                         "closed domain")
    h = np.asarray(h, dtype=float)
    sigma = coef.sigma(X0[0])
    draw, width = _normals, sigma.shape[1]
    if (domain.dimension == 1 and len(domain.pieces) == 1
            and domain.pieces[0].kind == "half-space" and coef.is_constant):
        piece = domain.pieces[0]
        nrm = float(piece.normal[0])
        drift = nrm * float(coef.b(X0[0])[0])
        diff = abs(float(sigma[0, 0]))
        width = 2

        def draw(rng, rows):
            # a step's normal, then the log of its uniform (random() draws
            # what uniform() draws)
            rows[:, 0] = rng.standard_normal(len(rows))
            rows[:, 1] = np.log(rng.random(len(rows)))

        def walk(X, noise, h, steps):
            # the bridge never projects: it sums every row of the block, and
            # rows past a path's steps stay undefined
            s, push = _kernels.halfline_bridge_walk(
                nrm * X[:, 0] - piece.offset, drift, diff, noise[:, :, 0],
                noise[:, :, 1], h)
            return (((s + piece.offset) * nrm)[:, :, None], push[:, :, None],
                    np.full(len(X), -1))
    elif domain.constant_reflection and coef.is_constant:
        normals, offsets, gammas = domain.face_arrays
        b = coef.b(X0[0])

        def walk(X, noise, h, steps):
            return _kernels.constrained_walk(X, b, sigma, normals, offsets,
                                             gammas, noise, h, steps)
    else:
        def walk(X, noise, h, steps):
            return _euler_walk(domain, coef, X, noise, h, steps)
    noise = np.zeros((len(paths), max(n_steps), width))
    for p, rng in enumerate(_streams(seed, paths)):
        draw(rng, noise[p, :n_steps[p]])
    states, push, fail = walk(X0, noise, h, n_steps)
    events = [_retry(walk, draw, states[p], push[p], int(fail[p]),
                     noise[p, :n_steps[p]], h[p:p + 1], seed, q)
              if fail[p] >= 0 else [] for p, q in enumerate(paths)]
    return states, push, events


def simulate_path(domain: dom.DomainSpec, coef: CoefficientField, x0, T: float,
                  dt: float, seed: int = 0, path_index: int = 0) -> Trajectory:
    """Euler walk from x0 to time T with reflection at the boundary.

    Every proposed step that may leave the domain is projected back along
    the reflection vectors (pushing lands exactly on the active faces), by
    the kernel's complementarity solve for constant coefficients and
    reflection on a polyhedron and by `reflect` otherwise.  The projected
    chain carries an O(sqrt(dt)) boundary bias, so on the 1D half-line with
    constant coefficients the walk takes the exact bridge-minimum step
    instead, whose pushing may leave the endpoint in the interior (as the
    true local time does).  The path is the one-path block of the
    Monte-Carlo samplers.
    """
    _check_steps(T, dt)
    x0 = np.asarray(x0, dtype=float)
    states, push, events = _simulate_paths(domain, coef, x0[None],
                                           [int(round(T / dt))], [dt], seed,
                                           [path_index])
    return Trajectory(dt, states[0], push[0], seed, events[0])


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

def _resolvent(domain, coef, ys, t, dt, seed, draws) -> np.ndarray:
    """Endpoints of resolvent draws draws[k] from ys[k] after times t[k]: the
    whole steps of size dt on path 2 d + 1, then the fractional rest as one
    step on path 2 d + 2.  Draws run in blocks sorted by step count, so a
    block's arrays hold few rows past its paths' steps."""
    _check_steps(0.0, dt)
    ys = np.asarray(ys, dtype=float)
    t = np.asarray(t, dtype=float)
    n_full = (t / dt).astype(int)
    rem = t - n_full * dt
    draws = np.asarray(draws)
    out = ys.copy()
    order = np.argsort(n_full, kind="stable")
    for run in _runs(n_full[order].tolist()):
        rows = order[run]
        states, _, _ = _simulate_paths(domain, coef, ys[rows],
                                       n_full[rows].tolist(),
                                       np.full(len(rows), dt), seed,
                                       (2 * draws[rows] + 1).tolist())
        out[rows] = states[np.arange(len(rows)), n_full[rows]]
    rest = np.flatnonzero(rem > 1e-15)
    for run in _runs([1] * len(rest)):
        rows = rest[run]
        states, _, _ = _simulate_paths(domain, coef, out[rows],
                                       [1] * len(rows), rem[rows], seed,
                                       (2 * draws[rows] + 2).tolist())
        out[rows] = states[:, 1]
    return out


def _resolvent_times(lam, seed, draws) -> list:
    """Each draw's Exponential(mean lam) time, from its own stream."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    return [rng.exponential(lam) for rng in _streams(seed, draws, block=1)]


def resolvent_sample(domain: dom.DomainSpec, coef: CoefficientField, y,
                     lam: float, dt: float, seed: int = 0,
                     draw_index: int = 0) -> np.ndarray:
    """One draw of the exponentially-killed transition kernel.

    Draws t ~ Exponential(mean lam), simulates from y to time t, and returns
    the endpoint: a single transition of the resolvent chain.
    """
    y = np.asarray(y, dtype=float)
    t = _resolvent_times(lam, seed, [draw_index])
    return _resolvent(domain, coef, y[None], t, dt, seed, [draw_index])[0]


def resolvent_sample_batch(domain, coef, ys, lam, dt, seed=0) -> np.ndarray:
    """Draws 0, 1, ... of `resolvent_sample` from the rows of ys; row k
    equals resolvent_sample(..., ys[k], ..., draw_index=k)."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    draws = range(len(ys))
    t = _resolvent_times(lam, seed, draws)
    return _resolvent(domain, coef, ys, t, dt, seed, draws)


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
    if n_paths < 2:
        raise ValueError(f"n_paths must be at least 2, got {n_paths}")
    _check_steps(T, dt)
    cps = np.asarray(sorted(checkpoints), dtype=float)
    if len(cps) and not (cps[0] >= 0.0 and cps[-1] <= T):
        raise ValueError(f"checkpoints must lie in [0, T={T}], got "
                         f"{list(checkpoints)}")
    if check_membership:
        from .testfunctions import check_admissible

        rep = check_admissible(-f, domain, tol=1e-8)
        if not rep.passed:
            from .errors import NotInH

            raise NotInH(f"negated function fails admissibility: {rep}")
    n_steps = int(round(T / dt))
    idx = np.minimum((cps / dt).round().astype(int), n_steps)
    x0 = np.asarray(x0, dtype=float)
    vals = np.empty((n_paths, len(cps)))
    for run in _runs([n_steps] * n_paths):
        paths = list(range(n_paths))[run]
        states, _, _ = _simulate_paths(domain, coef,
                                       np.repeat(x0[None], len(paths), axis=0),
                                       [n_steps] * len(paths),
                                       np.full(len(paths), dt), seed, paths)
        X = states.reshape(-1, states.shape[2])
        v, G, H = f.jet(X)
        lf = coef.generator(X, G, H).reshape(len(paths), -1)[:, :-1]
        comp = np.zeros((len(paths), n_steps + 1))
        comp[:, 1:] = np.cumsum(lf, axis=1) * dt
        vals[run] = v.reshape(len(paths), -1)[:, idx] - comp[:, idx]
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
