"""Kernels of the reflected walks: the Skorokhod problem on polyhedra and on
the half-line.

A reflected path is x = y + sum_i eta_i gamma_i, with eta >= 0 nondecreasing
and eta_i growing only while x lies on face i.  For a polyhedral domain with
face normals N and constant reflection vectors Gamma this has a unique
solution when N Gamma^T is a P-matrix (Harrison & Reiman 1981);
`project_polyhedral` solves it for one step, a linear complementarity
problem, and `constrained_walk` applies it after every Euler step.

On the half-line {s >= 0} the Skorokhod map is explicit.  With the free path
F_k = s0 + sum_{j<k} inc_j and the running minimum F_j + dmin_j of each
step's Brownian bridge,

    L_k = max(0, max_{j<k} -(F_j + dmin_j)),    s_k = F_k + L_k,

and drawing dmin from its exact law makes `halfline_bridge_walk` exact in law
for constant drift and diffusion (Asmussen, Glynn & Pitman 1995).
"""

from __future__ import annotations

import math

import numpy as np


def project_polyhedral(y, normals, offsets, gammas, ptol=1e-12):
    """Project y onto {normals @ x >= offsets} along the faces' reflection
    vectors: x = y + eta @ gammas with eta >= 0 only on faces active at x.

    Principal pivoting with Murty's least-index rule: flip the first face
    whose eta is negative (active) or whose constraint is violated
    (inactive), then re-solve on the active block.  This ends for every
    P-matrix N Gamma^T (Murty 1974).  Returns (x, eta, ok); ok is False when
    the pivots did not settle.
    """
    x = np.array(y, dtype=float)
    m = len(offsets)
    eta = np.zeros(m)
    active = np.zeros(m, dtype=bool)
    resid = normals @ x - offsets        # eta on active faces, slack elsewhere
    for _ in range(16 * m + 64):
        # a list scan: numpy reductions cost more than the work on m <= 4 faces
        bad = [i for i, r in enumerate(resid.tolist()) if r < -ptol]
        if not bad:
            return x, eta, True
        active[bad[0]] = not active[bad[0]]
        idx = np.flatnonzero(active)
        eta = np.zeros(m)
        eta[idx] = np.linalg.solve(normals[idx] @ gammas[idx].T,
                                   offsets[idx] - normals[idx] @ y)
        x = y + eta @ gammas
        resid = np.where(active, eta, normals @ x - offsets)
    return x, eta, False


def constrained_walk(x0, b, sigma, normals, offsets, gammas, noise, dt,
                     ptol=1e-12):
    """Projected Euler walk from x0; noise holds one standard normal row per step.

    Returns (states, cumulative pushing, fail_step); fail_step is -1 on
    success, else the first step whose projection failed, and the arrays
    stop at the state before it.
    """
    inc = b * dt + noise @ (sigma.T * math.sqrt(dt))
    n = len(inc)
    states = np.empty((n + 1, len(x0)))
    push = np.zeros((n + 1, len(offsets)))
    x = states[0] = x0
    for k in range(n):
        x, eta, ok = project_polyhedral(x + inc[k], normals, offsets, gammas,
                                        ptol)
        if not ok:
            return states[:k + 1], push[:k + 1], k
        states[k + 1] = x
        push[k + 1] = push[k] + eta
    return states, push, -1


def halfline_bridge_walk(s0, drift, diff, noise, logu, dt):
    """Exact reflected walk on {s >= 0} from s0; noise holds one standard
    normal and logu the log of one uniform per step.

    Returns (states, cumulative pushing).
    """
    inc = drift * dt + diff * math.sqrt(dt) * noise
    dmin = 0.5 * (inc - np.sqrt(inc * inc - 2.0 * diff * diff * dt * logu))
    free = np.cumsum(np.concatenate(([s0], inc)))
    push = np.zeros_like(free)
    np.maximum.accumulate(np.maximum(0.0, -(free[:-1] + dmin)), out=push[1:])
    return free + push, push
