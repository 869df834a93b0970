import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refdiff as rd
from refdiff import _kernels
from refdiff import simulate
from refdiff.coefficients import CoefficientField
from refdiff.simulate import _BLOCK, EmpiricalMeasure, _rng, occupation_measure


@pytest.fixture(scope="module")
def halfline():
    return rd.make_example("halfline")


def test_reflect_identity_inside(halfline):
    x, eta = rd.reflect(halfline.domain, np.array([0.4]))
    assert x[0] == 0.4 and np.all(eta == 0.0)


def test_reflect_halfline(halfline):
    x, eta = rd.reflect(halfline.domain, np.array([-0.3]))
    assert np.isclose(x[0], 0.0)
    assert np.isclose(eta[0], 0.3)


def test_reflect_oblique_orthant():
    D = np.array([[1.0, -0.5], [-0.5, 1.0]])
    o = rd.make_example("orthant", J=2, D=D)
    x, eta = rd.reflect(o.domain, np.array([-1.0, -1.0]))
    # solve [1 -1/2; -1/2 1] eta = (1, 1): eta = (2, 2)
    assert np.allclose(eta, [2.0, 2.0])
    assert np.allclose(x, [0.0, 0.0], atol=1e-12)


def test_reflect_reads_the_face_arrays_once(monkeypatch):
    # a constant-reflection polyhedron keeps its stacked face arrays, so
    # after the first projection no piece's gamma is evaluated again
    o = rd.make_example("orthant", J=2, D=np.array([[1.0, -0.5], [-0.5, 1.0]]))
    calls = []
    for p in o.domain.pieces:
        monkeypatch.setattr(p, "gamma", lambda x, g=p.gamma: calls.append(x) or g(x))
    rd.reflect(o.domain, np.array([-1.0, -1.0]))
    first = len(calls)
    for y in np.random.default_rng(0).uniform(-1.0, 1.0, size=(50, 2)):
        rd.reflect(o.domain, y)
    assert len(calls) == first
    assert o.domain.face_arrays is o.domain.face_arrays


def test_reflect_smooth_disk():
    disk = rd.make_example("disk")
    x, eta = rd.reflect(disk.domain, np.array([1.05, 0.0]))
    assert np.isclose(np.linalg.norm(x), 1.0, atol=1e-9)
    assert eta[0] > 0


def test_deterministic_drift_sticks():
    o = rd.make_example("orthant", J=2)
    coef = CoefficientField.constant([-1.0, 0.0], np.zeros((2, 2)))
    coef.is_constant = True
    traj = rd.simulate_path(o.domain, coef, [1.0, 1.0], T=2.0, dt=0.01, seed=0)
    assert np.allclose(traj.states[-1], [0.0, 1.0], atol=1e-12)
    # face 1 pushing accrues at unit rate once the face is hit
    assert np.isclose(traj.pushing[-1, 0], 1.0, atol=0.02)
    assert traj.pushing[-1, 1] == 0.0


def test_zero_noise_constant_path(halfline):
    coef = CoefficientField.constant([0.0], [[0.0]])
    coef.is_constant = True
    traj = rd.simulate_path(halfline.domain, coef, [0.7], T=1.0, dt=0.01,
                            seed=3)
    assert np.allclose(traj.states, 0.7)
    assert np.all(traj.pushing == 0.0)


def test_determinism(halfline):
    t1 = rd.simulate_path(halfline.domain, halfline.coefficients, [0.5],
                          T=2.0, dt=1e-3, seed=11)
    t2 = rd.simulate_path(halfline.domain, halfline.coefficients, [0.5],
                          T=2.0, dt=1e-3, seed=11)
    assert np.array_equal(t1.states, t2.states)
    t3 = rd.simulate_path(halfline.domain, halfline.coefficients, [0.5],
                          T=2.0, dt=1e-3, seed=12)
    assert not np.array_equal(t1.states, t3.states)


def test_feasibility_and_pushing_monotone():
    o = rd.make_example("orthant", J=2, D=np.array([[1.0, -0.4], [-0.4, 1.0]]))
    traj = rd.simulate_path(o.domain, o.coefficients, [0.5, 0.5], T=5.0,
                            dt=1e-3, seed=4)
    vals = o.domain.piece_values(traj.states)
    assert np.min(vals) >= -1e-11
    assert np.all(np.diff(traj.pushing, axis=0) >= -1e-15)


def test_complementarity_projection():
    o = rd.make_example("orthant", J=2)
    traj = rd.simulate_path(o.domain, o.coefficients, [0.5, 0.5], T=2.0,
                            dt=1e-3, seed=5)
    inc = np.diff(traj.pushing, axis=0)
    states = traj.states[1:]
    for i in range(2):
        pushed = inc[:, i] > 0
        assert np.all(np.abs(states[pushed, i]) <= 1e-9)
    # interior-to-interior steps push nothing
    interior = np.min(o.domain.piece_values(traj.states), axis=1) > 1e-6
    both_int = interior[:-1] & interior[1:]
    assert np.all(inc[both_int] == 0.0)


def test_occupation_measure_basics():
    states = np.array([[0.0], [1.0], [0.0], [1.0]])
    traj = rd.Trajectory(0.1, states, np.zeros((4, 1)), seed=0)
    m = occupation_measure(traj, burn_in=0.0)
    assert isinstance(m, EmpiricalMeasure)
    assert np.isclose(m.weights.sum(), 1.0)
    assert np.isclose(m.points.mean(), 0.5)
    const = rd.Trajectory(0.1, np.full((5, 1), 0.3), np.zeros((5, 1)), seed=0)
    mc = occupation_measure(const, burn_in=0.2)
    assert np.allclose(mc.points, 0.3)


def test_boundary_occupation(halfline):
    states = np.column_stack([np.array([0.5, 0.0, 0.004, 0.5])])
    traj = rd.Trajectory(0.1, states, np.zeros((4, 1)), seed=0)
    fb, fv = rd.boundary_occupation(halfline.domain, traj, shell=0.01)
    assert np.isclose(fb, 0.5)
    assert fv == 0.0
    g = rd.make_example("gps", J=2)
    states2 = np.array([[0.005, 0.005], [1.0, 1.0]])
    traj2 = rd.Trajectory(0.1, states2, np.zeros((2, 3)), seed=0)
    fb2, fv2 = rd.boundary_occupation(g.domain, traj2, shell=0.01)
    assert np.isclose(fv2, 0.5)


def test_first_exit():
    states = np.array([[0.0], [0.5], [1.2], [2.0]])
    traj = rd.Trajectory(0.5, states, np.zeros((4, 1)), seed=0)
    assert rd.first_exit(traj, 1.0) == 1.0
    assert rd.first_exit(traj, 5.0) is None
    assert rd.first_exit(traj, 0.0) == 0.0


def test_resolvent_zero_coefficients(halfline):
    coef = CoefficientField.constant([0.0], [[0.0]])
    coef.is_constant = True
    out = rd.resolvent_sample(halfline.domain, coef, [0.7], lam=0.5, dt=0.01,
                              seed=6)
    assert np.isclose(out[0], 0.7)


def test_resolvent_preserves_product_law_2d():
    # stationarity of the resolvent chain on the orthant product oracle
    o = rd.make_example("orthant", J=2, b=[-1.0, -0.5])
    rng = np.random.default_rng(21)
    ys = np.column_stack([rng.exponential(0.5, 1500),
                          rng.exponential(1.0, 1500)])
    out = rd.resolvent_sample_batch(o.domain, o.coefficients, ys, lam=0.5,
                                    dt=2e-3, seed=22)
    for k, rate in enumerate((2.0, 1.0)):
        xs = np.sort(out[:, k])
        n = len(xs)
        cdf = 1 - np.exp(-rate * xs)
        ks = max(np.max(np.abs(cdf - np.arange(1, n + 1) / n)),
                 np.max(np.abs(cdf - np.arange(n) / n)))
        assert ks <= 0.06


def test_resolvent_small_lambda_displacement(halfline):
    lam = 0.01
    draws = rd.resolvent_sample_batch(
        halfline.domain, halfline.coefficients,
        np.full((400, 1), 1.0), lam=lam, dt=1e-3, seed=7)
    disp = np.abs(draws[:, 0] - 1.0)
    # Euler moment bound: mean displacement is O(sqrt(lambda))
    assert disp.mean() <= 3.0 * np.sqrt(lam)


def _oblique3():
    sigma = np.array([[1.0, 0.2, 0.0], [0.1, 0.9, 0.3], [0.0, -0.2, 1.1]])
    D = np.array([[1.0, -0.3, 0.2], [-0.2, 1.0, -0.1], [0.1, -0.25, 1.0]])
    return rd.make_example("orthant", J=3, b=[-1.0, -0.5, -0.7], sigma=sigma,
                           D=D)


_BLOCK_CASES = {
    "halfline": lambda: (rd.make_example("halfline").domain,
                         rd.make_example("halfline").coefficients),
    "oblique2": lambda: (rd.make_example(
        "orthant", J=2, b=[-1.0, -0.5],
        D=np.array([[1.0, -0.4], [-0.3, 1.0]])).domain,
        CoefficientField.constant([-1.0, -0.5], [[1.0, 0.3], [-0.2, 0.8]])),
    "oblique3": lambda: (_oblique3().domain, _oblique3().coefficients),
    "trap": lambda: (_corner_trap(),
                     CoefficientField.constant([-1.0, -1.0], 0.1 * np.eye(2))),
}


def _resolvent_alone(domain, coef, y, t, dt, seed, d):
    """Reference for one resolvent draw after time t: its whole steps as one
    simulate_path, the fractional rest as a second one of a single step."""
    n_full = int(t / dt)
    rem = t - n_full * dt
    x = rd.simulate_path(domain, coef, y, n_full * dt, dt, seed=seed,
                         path_index=2 * d + 1).states[-1]
    if rem > 1e-15:
        x = rd.simulate_path(domain, coef, x, rem, rem, seed=seed,
                             path_index=2 * d + 2).states[-1]
    return x


@pytest.mark.parametrize("case", ["halfline", "oblique2"])
def test_resolvent_blocks_equal_the_draws_alone(case):
    # ragged step counts, draws with no whole step (t < dt, t = 0) and draws
    # with no remainder (t a multiple of the power-of-two dt)
    domain, coef = _BLOCK_CASES[case]()
    dt = 2.0 ** -6
    times = [0.0, 0.3 * dt, 1.7, dt, 0.05, 40 * dt, 0.9, 3 * dt + 1e-3, 0.0,
             2.0, 0.01]
    ys = np.random.default_rng(3).exponential(0.5, (len(times),
                                                    domain.dimension))
    draws = [4 * k + 1 for k in range(len(times))]
    out = simulate._resolvent(domain, coef, ys, times, dt, 9, draws)
    for k, (t, d) in enumerate(zip(times, draws)):
        ref = _resolvent_alone(domain, coef, ys[k], t, dt, 9, d)
        assert np.array_equal(out[k], ref)
    assert np.array_equal(out[0], ys[0]) and np.array_equal(out[8], ys[8])
    batch = rd.resolvent_sample_batch(domain, coef, ys, lam=0.3, dt=dt, seed=4)
    for k in range(len(ys)):
        one = rd.resolvent_sample(domain, coef, ys[k], lam=0.3, dt=dt, seed=4,
                                  draw_index=k)
        assert np.array_equal(batch[k], one)


def _halfline_bridge_loop(s0, drift, diff, noise, logu, dt):
    """Per-step reference for the half-line bridge walk: reflect each step's
    endpoint by the sampled minimum of its Brownian bridge."""
    states = np.empty(len(noise) + 1)
    push = np.zeros(len(noise) + 1)
    s = states[0] = s0
    sq = math.sqrt(dt)
    for k in range(len(noise)):
        y = s + drift * dt + diff * sq * noise[k]
        d = s - y
        m = 0.5 * (s + y - math.sqrt(d * d - 2.0 * diff * diff * dt * logu[k]))
        corr = max(0.0, -m)
        s = states[k + 1] = y + corr
        push[k + 1] = push[k] + corr
    return states, push


@pytest.mark.parametrize("dt", [1e-3, 0.1])
def test_halfline_bridge_walk_matches_loop(dt):
    # a block of four paths, one per seed: each row is its own walk
    noise, logu = np.empty((4, 20_000)), np.empty((4, 20_000))
    for seed in range(4):
        rng = np.random.default_rng(seed)
        noise[seed] = rng.standard_normal(20_000)
        logu[seed] = np.log(rng.uniform(size=20_000))
    s0 = np.array([0.5, 0.0, 1.5, 0.5])
    states, push = _kernels.halfline_bridge_walk(s0, -1.0, 1.0, noise, logu, dt)
    assert states.shape == push.shape == (4, 20_001)
    for seed in range(4):
        ref = _halfline_bridge_loop(s0[seed], -1.0, 1.0, noise[seed],
                                    logu[seed], dt)
        assert np.max(np.abs(states[seed] - ref[0])) <= 1e-9
        assert np.max(np.abs(push[seed] - ref[1])) <= 1e-9
        assert states[seed].min() >= 0.0
        assert np.all(np.diff(push[seed]) >= 0.0)


@st.composite
def _p_matrix_problems(draw):
    """Polyhedral data {N x >= c} with N Gamma^T = I + E strictly diagonally
    dominant (so a P-matrix), and a point y to project."""
    J = draw(st.sampled_from([2, 3]))
    unit = st.floats(-1.0, 1.0)
    F = np.array(draw(st.lists(unit, min_size=J * J, max_size=J * J))).reshape(J, J)
    E = np.array(draw(st.lists(unit, min_size=J * J, max_size=J * J))).reshape(J, J)
    normals = np.eye(J) + 0.3 * F
    E = 0.45 / (J - 1) * E
    np.fill_diagonal(E, 0.0)
    gammas = np.linalg.solve(normals, np.eye(J) + E).T
    offsets = np.array(draw(st.lists(unit, min_size=J, max_size=J)))
    y = 3.0 * np.array(draw(st.lists(unit, min_size=J, max_size=J)))
    return y, normals, offsets, gammas


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_p_matrix_problems())
# dropping the negative eta and re-adding the face at the stale point cycles
# here; the unique solution is eta = (0, 3)
@example((np.array([-0.75, -3.0]), np.eye(2), np.zeros(2),
          np.array([[1.0, 0.0], [0.45, 1.0]])))
def test_project_polyhedral_solves_skorokhod_problem(problem):
    y, normals, offsets, gammas = problem
    x, eta, ok = _kernels.project_polyhedral(y, normals, offsets, gammas)
    assert ok
    slack = normals @ x - offsets
    assert slack.min() >= -1e-9                       # x in the closed domain
    assert eta.min() >= 0.0
    assert np.max(np.abs(eta * slack)) <= 1e-9        # complementarity
    assert np.allclose(x - y, eta @ gammas, atol=1e-9)


_SINGULAR_BLOCKS = {
    # the alpha = 1 wedge: N Gamma^T = [[1, -1], [-1, 1]] at the vertex
    "wedge_alpha1": (np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2),
                     np.array([[-1.0, 1.0], [1.0, -1.0]])),
    # gps3: the block of the three coordinate faces has (1, 1, 1) in its
    # null space
    "gps3": (np.vstack([np.eye(3), np.full(3, 3 ** -0.5)]), np.zeros(4),
             np.vstack([1.5 * np.eye(3) - 0.5, np.full(3, 3 ** -0.5)])),
}


@pytest.mark.parametrize("case", sorted(_SINGULAR_BLOCKS))
def test_project_polyhedral_fails_on_a_singular_block(case):
    normals, offsets, gammas = _SINGULAR_BLOCKS[case]
    J = normals.shape[1]
    # pushed from every face of the block: the wedge's solve raises, gps3's
    # returns eta of order 1e13, which leaves x off its faces
    assert not _kernels.project_polyhedral(np.full(J, -0.01), normals,
                                           offsets, gammas)[2]
    # pushed from one face of it, the projection still succeeds
    y = 0.5 - 0.51 * normals[0]
    x, eta, ok = _kernels.project_polyhedral(y, normals, offsets, gammas)
    assert ok and np.isclose(eta[0], 0.01) and not eta[1:].any()
    assert np.array_equal(x, y + eta[0] * gammas[0])
    assert abs(normals[0] @ x) <= 1e-15


def test_constrained_walk_orthant_invariants():
    gammas = np.array([[1.0, -0.4], [-0.3, 1.0]])
    noise = np.random.default_rng(8).standard_normal((3000, 2))
    states, push, fail = _kernels.constrained_walk(
        np.array([[0.5, 0.5]]), np.array([-1.0, -0.5]), np.eye(2), np.eye(2),
        np.zeros(2), gammas, noise[None], 1e-2, [3000])
    assert fail.tolist() == [-1] and states.shape == (1, 3001, 2)
    states, push = states[0], push[0]
    assert states.min() >= -1e-12
    dpush = np.diff(push, axis=0)
    assert dpush.min() >= 0.0
    for i in range(2):                # pushing grows only on the active face
        grows = dpush[:, i] > 0
        assert grows.any()
        assert np.max(np.abs(states[1:][grows, i])) <= 1e-12
    assert np.allclose(np.diff(states, axis=0),
                       0.01 * np.array([-1.0, -0.5]) + 0.1 * noise + dpush @ gammas,
                       atol=1e-12)


def _constrained_loop(x0, b, sigma, normals, offsets, gammas, noise, dt):
    """Per-step reference for one path of the polyhedral walk: form each
    Euler increment from its own noise row and project every step, as the
    walk did before it screened steps in windows."""
    M = sigma.T * math.sqrt(dt)
    states = np.empty((len(noise) + 1, len(x0)))
    push = np.zeros((len(noise) + 1, len(offsets)))
    x = states[0] = x0
    for k, z in enumerate(noise):
        x, eta, ok = _kernels.project_polyhedral(x + (b * dt + z @ M), normals,
                                                 offsets, gammas)
        if not ok:
            return states[:k + 1], push[:k + 1], k
        states[k + 1] = x
        push[k + 1] = push[k] + eta
    return states, push, -1


@pytest.mark.parametrize("case", ["oblique2", "oblique3", "trap"])
def test_constrained_walk_block_matches_the_step_loop(case):
    # every row of a block, each with its own step size, equals the loop bit
    # for bit, up to and including the step whose projection fails
    domain, coef = _BLOCK_CASES[case]()
    J = domain.dimension
    b, sigma = coef.b(np.zeros(J)), coef.sigma(np.zeros(J))
    rng = np.random.default_rng(31)
    X0 = rng.uniform(0.0, 0.3, size=(5, J))
    X0[0] = 0.0                                   # start in the corner
    dts = np.array([1e-3, 1e-2, 0.05, 2e-3, 0.2])
    noise = rng.standard_normal((5, 700, sigma.shape[1]))
    args = (b, sigma) + domain.face_arrays
    states, push, fail = _kernels.constrained_walk(X0, *args, noise, dts,
                                                   [700] * 5)
    for p in range(5):
        ref = _constrained_loop(X0[p], *args, noise[p], dts[p])
        assert fail[p] == ref[2]
        n = len(ref[0])
        assert np.array_equal(states[p, :n], ref[0])
        assert np.array_equal(push[p, :n], ref[1])
    if case == "trap":
        assert (fail >= 0).any()
    else:
        assert (fail == -1).all() and (np.diff(push, axis=1) > 0).any()


def test_constant_walk_keeps_one_noise_stream():
    # a path longer than _BLOCK steps walks its single (seed, path) stream
    # whole: states and pushing are the step loop's bit for bit
    o = rd.make_example("orthant", J=2, D=np.array([[1.0, -0.4], [-0.4, 1.0]]))
    n = 10_000
    traj = rd.simulate_path(o.domain, o.coefficients, [0.5, 0.5], T=n * 1e-3,
                            dt=1e-3, seed=13, path_index=2)
    normals, offsets, gammas = o.domain.face_arrays
    noise = _rng(13, 2).standard_normal((n, 2))
    states, push, fail = _constrained_loop(
        np.array([0.5, 0.5]), o.coefficients.b(np.zeros(2)),
        o.coefficients.sigma(np.zeros(2)), normals, offsets, gammas, noise, 1e-3)
    assert fail == -1 and not traj.events
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.pushing, push)


def _corner_trap():
    # N Gamma^T = [[1, -2], [-2, 1]] is not a P-matrix: at the corner the
    # active set cycles and the projection fails
    return rd.domain_from_json({"dimension": 2, "pieces": [
        {"kind": "half-space", "normal": [1.0, 0.0], "offset": 0.0,
         "gamma": [1.0, -2.0]},
        {"kind": "half-space", "normal": [0.0, 1.0], "offset": 0.0,
         "gamma": [-2.0, 1.0]}]})


def test_failed_projections_are_events():
    coef = CoefficientField.constant([-1.0, -1.0], 0.1 * np.eye(2))
    traj = rd.simulate_path(_corner_trap(), coef, [0.05, 0.05], T=0.2,
                            dt=0.01, seed=0)
    assert traj.n_steps == 20 and traj.pushing.shape == (21, 2)
    steps = [e["step"] for e in traj.events]
    assert len(steps) >= 5 and steps == sorted(set(steps))
    for e in traj.events:
        assert e["kind"] == "NoConvergence" and 0 <= e["step"] < 20
        # the path stays at the point where the step failed
        assert np.array_equal(e["point"], traj.states[e["step"]])
        assert np.array_equal(e["point"], traj.states[e["step"] + 1])


def test_a_path_resumes_on_its_own_noise_after_a_failed_step():
    # from the corner of the trap, drifting away: after each event at step k
    # the path walks rows k + 1 ... of its own (seed, path) stream, so its
    # states equal a fresh walk on those rows up to that walk's failed step
    domain = _corner_trap()
    coef = CoefficientField.constant([0.3, 0.3], 0.3 * np.eye(2))
    n = 50
    traj = rd.simulate_path(domain, coef, [0.0, 0.0], T=n * 0.01, dt=0.01,
                            seed=1, path_index=3)
    noise = _rng(1, 3).standard_normal((n, 2))
    steps = [e["step"] for e in traj.events]
    assert len(steps) >= 2
    walked = 0
    for k in steps:
        states, _, fail = _kernels.constrained_walk(
            traj.states[k + 1][None], coef.b(np.zeros(2)),
            coef.sigma(np.zeros(2)), *domain.face_arrays, noise[None, k + 1:],
            0.01, [n - k - 1])
        rows = n - k if fail[0] < 0 else fail[0] + 1
        assert np.array_equal(traj.states[k + 1:k + 1 + rows],
                              states[0, :rows])
        walked += rows - 1
    assert walked >= 20


def _assert_same_path(states, push, events, traj):
    n = traj.n_steps
    assert np.array_equal(states[:n + 1], traj.states)
    assert np.array_equal(push[:n + 1], traj.pushing)
    assert [(e["step"], e["kind"]) for e in events] == \
        [(e["step"], e["kind"]) for e in traj.events]
    for a, b in zip(events, traj.events):
        assert np.array_equal(a["point"], b["point"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(_BLOCK_CASES)),
       seed=st.integers(0, 2 ** 63), first=st.integers(0, 2 ** 31),
       data=st.data())
def test_a_path_is_the_same_alone_or_in_a_block(case, seed, first, data):
    domain, coef = _BLOCK_CASES[case]()
    J = domain.dimension
    # a failed step in the trap costs nine 96-pivot projections
    longest = 12 if case == "trap" else 120
    steps = data.draw(st.lists(st.integers(0, longest), min_size=1,
                               max_size=5))
    X0 = np.array(data.draw(st.lists(
        st.lists(st.floats(0.0, 0.5), min_size=J, max_size=J),
        min_size=len(steps), max_size=len(steps))))
    paths = [first + 3 * p for p in range(len(steps))]
    dt = 0.01
    states, push, events = simulate._simulate_paths(
        domain, coef, X0, steps, np.full(len(steps), dt), seed, paths)
    for p, n in enumerate(steps):
        traj = rd.simulate_path(domain, coef, X0[p], T=n * dt, dt=dt,
                                seed=seed, path_index=paths[p])
        assert traj.n_steps == n
        _assert_same_path(states[p], push[p], events[p], traj)


@pytest.mark.parametrize("case, steps", [
    # longer than _BLOCK steps, and one-step paths
    ("oblique2", [_BLOCK + 70, 15, _BLOCK] + [1] * 8),
    ("trap", [12, 1, 5, 0])])                     # failed steps, retried
def test_blocks_of_long_failing_and_one_step_paths_equal_the_paths_alone(
        case, steps):
    domain, coef = _BLOCK_CASES[case]()
    X0 = np.random.default_rng(2).uniform(0.0, 0.5, (len(steps), 2))
    X0[:2] = [[0.05, 0.05], [0.0, 0.0]]
    paths = list(range(5, 5 + len(steps)))
    states, push, events = simulate._simulate_paths(
        domain, coef, X0, steps, np.full(len(steps), 1e-2), 17, paths)
    for p, n in enumerate(steps):
        traj = rd.simulate_path(domain, coef, X0[p], T=n * 1e-2, dt=1e-2,
                                seed=17, path_index=paths[p])
        _assert_same_path(states[p], push[p], events[p], traj)
    assert any(events) == (case == "trap")


def test_a_block_makes_the_projections_of_its_paths_alone(monkeypatch):
    # no path of a block steps past its own steps: the oblique2 block of the
    # test above projects as often as its paths walked one at a time (2,109
    # calls; walking every path to the longest one's steps made 39,392)
    calls = []
    project = _kernels.project_polyhedral
    monkeypatch.setattr(_kernels, "project_polyhedral",
                        lambda *a: calls.append(1) or project(*a))
    domain, coef = _BLOCK_CASES["oblique2"]()
    steps = [_BLOCK + 70, 15, _BLOCK] + [1] * 8
    X0 = np.random.default_rng(2).uniform(0.0, 0.5, (len(steps), 2))
    X0[:2] = [[0.05, 0.05], [0.0, 0.0]]
    simulate._simulate_paths(domain, coef, X0, steps, np.full(len(steps), 1e-2),
                             17, range(5, 5 + len(steps)))
    block = len(calls)
    for p, n in enumerate(steps):
        rd.simulate_path(domain, coef, X0[p], T=n * 1e-2, dt=1e-2, seed=17,
                         path_index=5 + p)
    assert block == len(calls) - block > 0


def _varying(b, s):
    """A state-dependent field equal to drift b and dispersion s * I at the
    origin, so simulate_path takes the general Euler walk."""
    b = np.asarray(b, dtype=float)
    eye = np.eye(len(b))
    return CoefficientField(lambda x: b - 0.1 * x,
                            lambda x: s * (1.0 + 0.1 * np.tanh(x[0])) * eye)


def _general_loop_reference(domain, coef, x0, n_steps, dt, seed, path_index):
    """Per-step reference for a general walk without failed steps: one noise
    row per step from the (seed, path) stream, one reflect per step."""
    noise = _rng(seed, path_index).standard_normal((n_steps, 2))
    states = np.empty((n_steps + 1, 2))
    push = np.zeros((n_steps + 1, len(domain.pieces)))
    x = states[0] = x0
    for k in range(n_steps):
        y = x + coef.b(x) * dt + coef.sigma(x) @ noise[k] * math.sqrt(dt)
        x, eta = rd.reflect(domain, y)
        states[k + 1] = x
        push[k + 1] = push[k] + eta
    return states, push


def test_general_walk_on_disk_spans_blocks():
    disk = rd.make_example("disk")
    coef = _varying([0.3, 0.0], 1.0)
    n = _BLOCK + 1500
    traj = rd.simulate_path(disk.domain, coef, [0.2, 0.1], T=n * 1e-3,
                            dt=1e-3, seed=5, path_index=1)
    assert traj.n_steps == n and not traj.events
    assert np.all(np.linalg.norm(traj.states, axis=1) <= 1.0 + 1e-9)
    assert np.all(np.diff(traj.pushing[:, 0]) >= 0.0)
    assert traj.pushing[-1, 0] > 0.0
    again = rd.simulate_path(disk.domain, coef, [0.2, 0.1], T=n * 1e-3,
                             dt=1e-3, seed=5, path_index=1)
    assert np.array_equal(traj.states, again.states)
    assert np.array_equal(traj.pushing, again.pushing)
    states, push = _general_loop_reference(disk.domain, coef,
                                           np.array([0.2, 0.1]), n, 1e-3, 5, 1)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.pushing, push)


def test_general_walk_failed_projections_are_events(monkeypatch):
    # the constant kernel must not run: the state-dependent field takes the
    # general walk, whose failed steps go through the same retry ladder
    monkeypatch.setattr(_kernels, "constrained_walk", None)
    traj = rd.simulate_path(_corner_trap(), _varying([-1.0, -1.0], 0.1),
                            [0.05, 0.05], T=0.2, dt=0.01, seed=0)
    assert traj.n_steps == 20 and traj.pushing.shape == (21, 2)
    steps = [e["step"] for e in traj.events]
    assert len(steps) >= 5 and steps == sorted(set(steps))
    for e in traj.events:
        assert e["kind"] == "NoConvergence" and 0 <= e["step"] < 20
        assert np.array_equal(e["point"], traj.states[e["step"]])
        assert np.array_equal(e["point"], traj.states[e["step"] + 1])


def test_bridge_scheme_guard(halfline):
    with pytest.raises(ValueError):
        rd.simulate_path(halfline.domain, halfline.coefficients, [-1.0],
                         T=0.1, dt=0.01)


def test_bridge_pushing_nondecreasing(halfline):
    traj = rd.simulate_path(halfline.domain, halfline.coefficients, [0.2],
                            T=5.0, dt=1e-3, seed=9)
    assert np.all(np.diff(traj.pushing[:, 0]) >= 0.0)
    assert np.min(traj.states) >= 0.0


def test_submartingale_constant_function(halfline):
    f = rd.TestFunction(1, lambda Y: np.full(len(Y), 2.5),
                        lambda Y: np.zeros((len(Y), 1)),
                        lambda Y: np.zeros((len(Y), 1, 1)),
                        claims_in_class=True)
    curve = rd.submartingale_estimate(halfline.domain, halfline.coefficients,
                                      f, [0.5], n_paths=50, T=0.5, dt=0.01,
                                      checkpoints=[0.1, 0.3, 0.5], seed=10)
    assert np.allclose(curve.mean, 2.5)
    assert np.allclose(curve.ci, 0.0)
    assert curve.consistent_nondecreasing


def test_submartingale_far_bump(halfline):
    f = rd.interior_bump(halfline.domain, [8.0], 0.25)
    curve = rd.submartingale_estimate(halfline.domain, halfline.coefficients,
                                      f, [0.5], n_paths=50, T=0.3, dt=0.01,
                                      checkpoints=[0.1, 0.3], seed=11)
    assert np.allclose(curve.mean, 0.0)


def test_trajectory_csv(tmp_path, halfline):
    traj = rd.simulate_path(halfline.domain, halfline.coefficients, [0.5],
                            T=0.05, dt=0.01, seed=12)
    out = tmp_path / "traj.csv"
    traj.to_csv(out, header_meta="seed=12")
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "t,x0,push0"
    assert len(lines) == 2 + len(traj.states)


@pytest.mark.parametrize("T, dt, name", [(1.0, 0.0, "dt"), (1.0, -0.01, "dt"),
                                         (1.0, float("nan"), "dt"),
                                         (-1.0, 0.01, "T")])
@pytest.mark.parametrize("preset", ["halfline", "orthant"])
def test_bad_step_or_horizon_is_a_value_error(preset, T, dt, name):
    system = rd.make_example(preset)
    x0 = np.full(system.domain.dimension, 0.5)
    with pytest.raises(ValueError, match=name):
        rd.simulate_path(system.domain, system.coefficients, x0, T=T, dt=dt)
    if name == "dt":
        with pytest.raises(ValueError, match="dt"):
            rd.resolvent_sample(system.domain, system.coefficients, x0,
                                lam=0.5, dt=dt)


@pytest.mark.parametrize("n_paths, checkpoints, name", [
    (1, [0.0, 0.1], "n_paths"),              # one path: NaN margins passed
    (10, [-0.05, 0.0, 0.1], "checkpoints"),  # wrapped to the path's end
    (10, [0.0, 0.1, 0.15], "checkpoints")])  # clamped to T: margin exactly 0
def test_submartingale_rejects_what_it_cannot_judge(halfline, n_paths,
                                                    checkpoints, name):
    f = rd.interior_bump(halfline.domain, [1.0], 0.25)
    with pytest.raises(ValueError, match=name):
        rd.submartingale_estimate(halfline.domain, halfline.coefficients, f,
                                  [0.5], n_paths=n_paths, T=0.1, dt=0.01,
                                  checkpoints=checkpoints)


def test_block_start_points_are_classified_as_contains_does():
    # every row of a block passes or fails the start check as dom.contains
    # classifies it alone, at the domain's tolerance
    from refdiff import domain as dom

    o = rd.make_example("orthant", J=2)
    tol = o.domain.tol_at(np.array([0.0, 1.0]))
    rows = np.array([[0.5, 1.0], [0.0, 1.0], [-0.5 * tol, 1.0],
                     [-2.0 * tol, 1.0]])
    for k, x in enumerate(rows):
        outside = dom.contains(o.domain, x)[0] == dom.EXTERIOR
        block = np.vstack([rows[:1], x[None], rows[:1]])
        if outside:
            with pytest.raises(ValueError, match="outside the closed domain"):
                rd.resolvent_sample_batch(o.domain, o.coefficients, block,
                                          lam=0.1, dt=0.01)
        else:
            rd.resolvent_sample_batch(o.domain, o.coefficients, block,
                                      lam=0.1, dt=0.01)
        assert outside == (k == 3)
    with pytest.raises(ValueError, match="outside the closed domain"):
        rd.submartingale_estimate(o.domain, o.coefficients,
                                  rd.interior_bump(o.domain, [1.0, 1.0], 0.25),
                                  rows[3], n_paths=4, T=0.1, dt=0.01,
                                  checkpoints=[0.0, 0.1])


def test_submartingale_keeps_the_admissibility_check(halfline):
    # f'(0) = -1: -f has <gamma, grad(-f)> = +1 > 0 on the face, so -f is not
    # admissible and the submartingale check must refuse f
    from refdiff.errors import NotInH

    f = rd.TestFunction(1, lambda Y: -Y[:, 0] * np.exp(-Y[:, 0]),
                        lambda Y: ((Y[:, 0] - 1.0) * np.exp(-Y[:, 0]))[:, None],
                        lambda Y: ((2.0 - Y[:, 0]) * np.exp(-Y[:, 0]))[:, None, None])
    with pytest.raises(NotInH):
        rd.submartingale_estimate(halfline.domain, halfline.coefficients, f,
                                  [0.5], n_paths=4, T=0.1, dt=0.01,
                                  checkpoints=[0.0, 0.1],
                                  check_membership=True)
