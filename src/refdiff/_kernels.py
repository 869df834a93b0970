"""Kernels of the reflected walks: the Skorokhod problem on polyhedra and on
the half-line.

A reflected path is x = y + sum_i eta_i gamma_i, with eta >= 0 nondecreasing
and eta_i growing only while x lies on face i.  For a polyhedral domain with
face normals N and constant reflection vectors Gamma this has a unique
solution when N Gamma^T is a P-matrix (Harrison & Reiman 1981);
`project_polyhedral` solves it for one step, a linear complementarity
problem, and `constrained_walk` applies it to every Euler step that may
leave the domain.  Where the active faces' block of N Gamma^T is singular,
as at a vertex where the reflection is not a P-matrix, the projection
reports failure rather than a pushing of order 1e13.

On the half-line {s >= 0} the Skorokhod map is explicit.  With the free path
F_k = s0 + sum_{j<k} inc_j and the running minimum F_j + dmin_j of each
step's Brownian bridge,

    L_k = max(0, max_{j<k} -(F_j + dmin_j)),    s_k = F_k + L_k,

and drawing dmin from its exact law makes `halfline_bridge_walk` exact in law
for constant drift and diffusion (Asmussen, Glynn & Pitman 1995).
"""

from __future__ import annotations

import numpy as np

# a face residual below -_PTOL is a violated face (or an active face's negative eta)
_PTOL = 1e-12


def project_polyhedral(y, normals, offsets, gammas):
    """Project y onto {normals @ x >= offsets} along the faces' reflection
    vectors: x = y + eta @ gammas with eta >= 0 only on faces active at x.

    Principal pivoting with Murty's least-index rule: flip the first face
    whose eta is negative (active) or whose constraint is violated
    (inactive), then re-solve on the active block.  This ends for every
    P-matrix N Gamma^T (Murty 1974).  Returns (x, eta, ok); ok is False when
    the pivots did not settle, when an active block is singular, or when a
    block of two or more faces leaves x off a face it pushes from
    (|eta_i slack_i| > 1e-9), as a nearly singular block does; x and eta
    then mean nothing.  A one-face block is n . gamma = 1 and needs no check.
    """
    x = np.array(y, dtype=float)
    m = len(offsets)
    eta = np.zeros(m)
    active = np.zeros(m, dtype=bool)
    idx = []
    resid = normals @ x - offsets        # eta on active faces, slack elsewhere
    for _ in range(16 * m + 64):
        # a list scan: numpy reductions cost more than the work on m <= 4 faces
        bad = [i for i, r in enumerate(resid.tolist()) if r < -_PTOL]
        if not bad:
            return x, eta, (len(idx) < 2 or np.max(np.abs(
                eta[idx] * (normals[idx] @ x - offsets[idx]))) <= 1e-9)
        active[bad[0]] = not active[bad[0]]
        idx = np.flatnonzero(active)
        eta = np.zeros(m)
        try:
            eta[idx] = np.linalg.solve(normals[idx] @ gammas[idx].T,
                                       offsets[idx] - normals[idx] @ y)
        except np.linalg.LinAlgError:
            return x, eta, False
        x = y + eta @ gammas
        resid = np.where(active, eta, normals @ x - offsets)
    return x, eta, False


# Free steps a walk sums ahead at once, and the face residual above which a
# free step is kept without projection: `project_polyhedral` returns a step
# whose residuals are all >= -_PTOL unchanged, and the screen's rounding of a
# residual differs from its own by far less than this margin.
_WINDOW = 32
_SCREEN = 1e-9


def constrained_walk(x0, b, sigma, normals, offsets, gammas, noise, dt, steps):
    """Projected Euler walks from the rows of x0: path p takes steps[p]
    steps on the standard normal rows noise[p, :steps[p]], and dt is one
    step size or one per path.  No path steps past its own count.

    A step's increment b dt + z sigma^T sqrt(dt) is rounded from its noise
    row z alone, as `domain.row_dot` rounds a row, so a path's bits do not
    depend on the rows or paths beside it.  Each path moves ahead by a
    window of free steps at once, a running sum from its current state with
    the additions of a step-by-step loop.  The steps whose face residuals all
    stay above _SCREEN are kept as they are; the first step at or below it
    goes to `project_polyhedral`, and so does each next step whose free point
    is at or below it too.  The next window starts from the first step above
    it.

    Returns (states, cumulative pushing, fail), shaped (P, n + 1, J),
    (P, n + 1, m) and (P,) for n noise rows; fail[p] is -1 when path p took
    every step, else its first step whose projection failed, and path p's
    rows stop at the state before it.  Rows past a path's steps are
    undefined.  The pushing is one running sum per path, as a step loop adds
    it.  Memory: the increments of all n rows are built at once,
    (P, n + _WINDOW, J) floats beside the noise.
    """
    h = np.reshape(dt, (-1, 1, 1))
    steps = np.asarray(steps)
    P, n = noise.shape[:2]
    J = len(b)
    # zero rows past the last step let every window read _WINDOW rows
    inc = np.zeros((P, n + _WINDOW, J))
    np.matmul(noise[:, :, None, :], (sigma.T * np.sqrt(h))[:, None],
              out=inc[:, :n, None, :])
    inc[:, :n] += b * h
    states = np.empty((P, n + 1, J))
    push = np.zeros((P, n + 1, len(offsets)))
    states[:, 0] = x0
    fail = np.full(P, -1)
    k = np.zeros(P, dtype=int)          # steps each path has taken
    ahead = np.arange(_WINDOW)
    free = np.empty((P, _WINDOW + 1, J))
    live = np.flatnonzero(steps > 0)
    while live.size:
        at, end = k[live], steps[live]
        rows = at[:, None] + ahead
        win = free[:len(live)]
        win[:, 0] = states[live, at]
        win[:, 1:] = inc[live[:, None], rows]
        np.cumsum(win, axis=1, out=win)
        resid = win[:, 1:] @ normals.T
        resid -= offsets
        stop = (resid <= _SCREEN).any(axis=2)
        stop |= rows >= end[:, None]
        kept = np.where(stop.any(axis=1), stop.argmax(axis=1), _WINDOW)
        taken = ahead < kept[:, None]
        to = (np.repeat(live, kept), rows[taken] + 1)
        states[to] = win[:, 1:][taken]
        push[to] = np.repeat(push[live, at], kept, axis=0)
        at += kept
        k[live] = at
        for i in np.flatnonzero((kept < _WINDOW) & (at < end)).tolist():
            p, s, y = live[i], at[i], win[i, kept[i] + 1]
            # project, and go on projecting while the next free step also
            # reaches the margin, as it does on a face pushed against
            while True:
                x, eta, ok = project_polyhedral(y, normals, offsets, gammas)
                if not ok:
                    fail[p] = s
                    break
                states[p, s + 1] = x
                push[p, s + 1] = push[p, s] + eta
                s += 1
                if s == end[i]:
                    break
                y = x + inc[p, s]
                if min((normals @ y - offsets).tolist()) > _SCREEN:
                    break
            k[p] = s
        live = live[(k[live] < steps[live]) & (fail[live] < 0)]
    return states, push, fail


def halfline_bridge_walk(s0, drift, diff, noise, logu, dt):
    """Exact reflected walks on {s >= 0} from the entries of s0: row p of
    noise holds one standard normal and of logu the log of one uniform per
    step of path p; dt is one step size or a column of one per path.

    Returns (states, cumulative pushing), each (P, n + 1).  The walk never
    fails; `simulate` wraps it in the (states, push, fail) contract of
    `constrained_walk`, with a step's normal and log-uniform side by side in
    its noise row.
    """
    h = np.reshape(dt, (-1, 1))
    inc = drift * h + diff * np.sqrt(h) * noise
    dmin = 0.5 * (inc - np.sqrt(inc * inc - 2.0 * diff * diff * h * logu))
    free = np.cumsum(np.concatenate((np.reshape(s0, (-1, 1)), inc), axis=1),
                     axis=1)
    push = np.zeros_like(free)
    np.maximum.accumulate(np.maximum(0.0, -(free[:, :-1] + dmin)), axis=1,
                          out=push[:, 1:])
    return free + push, push
