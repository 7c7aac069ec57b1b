"""Kink capture on the compiled kernel against the per-agent capture it
replaces and against the one-row check kernels it replaced in turn, bit
for bit, plus the input checks that came with it."""
import inspect
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings, strategies as st, target

import pcons
from pcons import convex, dynamics
from pcons.dynamics import (
    METHODS, SNAP_VELOCITY_TOL, AgentProblem, ProblemInstance, SolverState, VelocityKernel,
    capture_agent_kinks, integrate, lyapunov_value, rhs, step,
)
from pcons.errors import InvalidInputError, ProtocolError
from pcons.network import MessageLog, build_agents, run_decentralized, synchronous_round

from conftest import random_problem
from test_kernel import Opaque, assert_bits_equal


# -- the reference: per-agent capture with a scalar velocity -----------------


def reference_snapped_coordinate_velocity(agent, xi, mi, local_k, gain):
    """dx of one non-shared coordinate; couplings do not reach it."""
    g = agent.constraints.value(xi)
    pp = np.maximum(mi + g, 0.0)
    if agent.constraints.size:
        base_k = float(agent.constraints.weighted_subgradient(xi, pp)[local_k])
    else:
        base_k = 0.0
    flo, fhi = agent.objective.subgradient_interval(xi)
    sel = min(max(-base_k, float(flo[local_k])), float(fhi[local_k]))
    y = xi[local_k] - sel - base_k
    proj = min(max(y, float(agent.box.lower[local_k])), float(agent.box.upper[local_k]))
    return 2.0 * gain * (proj - xi[local_k])


def reference_capture_agent_kinks(agent, table, x_block, x_prev_block, k1_block, mu_block, h,
                                  gain):
    """Snap kink coordinates of one agent's block, in place."""
    changed = False
    for local_k, center in table:
        xk = x_block[local_k]
        if xk == center:
            continue
        band = h * abs(k1_block[local_k]) + 1e-12
        crossed = (x_prev_block[local_k] - center) * (xk - center) < 0.0
        if not (crossed or abs(xk - center) <= band):
            continue
        x_block[local_k] = center
        v = reference_snapped_coordinate_velocity(agent, x_block, mu_block, local_k, gain)
        if abs(v) <= SNAP_VELOCITY_TOL:
            changed = True
        else:
            x_block[local_k] = xk
    return changed


def reference_capture(problem, x, x_prev, v, mu, h):
    """The per-agent loop the stepper ran: every agent with a kink table,
    on its own blocks.  Returns each agent's ``changed``."""
    return [reference_capture_agent_kinks(agent, table, x[problem.block(i)],
                                          x_prev[problem.block(i)], v[problem.block(i)],
                                          mu[problem.mu_block(i)], h, problem.gain)
            for i, (agent, table) in enumerate(zip(problem.agents, problem._capture_table))
            if table]


def reference_step(problem, state, h, method):
    """One step with capture: a plain step, then the per-agent loop."""
    plain = step(state, problem, h, method)
    x = plain.x.copy()
    reference_capture(problem, x, state.x, rhs(state, problem)[0], plain.mu, h)
    return SolverState(x, plain.lam, plain.mu, plain.t)


# -- the reference: each snap checked on its row compiled on its own ----------


def parent_uncoupled(agent, gain) -> VelocityKernel:
    """``agent`` compiled without coupling: its dx at a non-shared
    coordinate is its row's in any kernel, bit for bit."""
    return VelocityKernel([agent], [()], 0, gain)


def parent_snap(table, x, x_prev, v, mu, h, alone, checks) -> bool:
    """Snap one row's block ``x`` onto its ``table``'s kinks, in place, in
    table order; a snap is kept only if the ``parent_uncoupled`` kernel
    ``alone()`` gives it a velocity of at most ``SNAP_VELOCITY_TOL``.
    Appends each checked coordinate to ``checks``."""
    changed, check = False, None
    for k, center in table:
        xk = x[k]
        if not dynamics._near_kink(xk, x_prev[k], v[k], center, h):
            continue
        x[k] = center
        check, none = check or alone(), np.empty((1, 0, 0))  # no payloads reach it
        checks.append(k)
        if abs(check.evaluate(x, x, mu, none, none)[0][k]) <= SNAP_VELOCITY_TOL:
            changed = True
        else:
            x[k] = xk
    return changed


def parent_capture(problem, x, x_prev, v, mu, h):
    """``parent_snap`` on every kink row of ``problem``'s kernel, each row
    on its own blocks.  Returns (changed, each kink row's check count)."""
    kernel, changed, tries = problem.kernel, False, []
    for i, table in enumerate(kernel.kinks):
        if table:
            s, ms, checks = kernel.blocks[i], kernel.mu_blocks[i], []
            changed |= parent_snap(table, x[s], x_prev[s], v[s], mu[ms], h,
                                   partial(parent_uncoupled, kernel.agents[i], kernel.gain),
                                   checks)
            tries.append(len(checks))
    return changed, tries


# -- instances crowded with kinks --------------------------------------------

H = 1e-2
OFFSETS = (0.0, -0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-6, -1e-6, 0.5 * H, -0.5 * H, 3 * H)
SPEEDS = (0.0, -0.0, 1e-3, -1e-3, 0.5, -0.5, 5.0, -5.0)


def with_kink(agent, k, center, weight):
    extra = convex.absolute(agent.dim, k, center=center, weight=weight)
    return AgentProblem(agent.objective + extra, agent.constraints, agent.box)


def flat_between(agent, k, center, gap):
    """``agent`` whose coordinate k costs only |x_k - center| + |x_k - center
    - gap|, flat in between, so a snap onto either kink is stationary and
    the order the table lists them in decides where x ends."""
    objective = (convex.absolute(agent.dim, k, center=center)
                 + convex.absolute(agent.dim, k, center=center + gap))
    for j in range(agent.dim):
        if j != k:
            objective = objective + convex.quadratic(agent.dim, j, center=agent.box.lower[j])
    return AgentProblem(objective, agent.constraints, agent.box)


@st.composite
def crowded_problems(draw):
    """A random problem whose agents carry extra kinks on non-shared
    coordinates: a second kink next to one a coordinate has, two kinks
    with a flat stretch between them, kinks on the box bounds and beyond
    them, and centers of -0.0; some objectives are opaque."""
    p = random_problem(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    agents = []
    for a in p.agents:
        if a.dim > p.depth and draw(st.booleans()):
            lo, hi = a.box.lower[-1], a.box.upper[-1]
            a = flat_between(a, a.dim - 1, 0.5 * (lo + hi), draw(st.sampled_from([1e-7, 0.5 * H])))
        for k in range(p.depth, a.dim):
            for _ in range(draw(st.integers(0, 2))):
                lo, hi = a.box.lower[k], a.box.upper[k]
                existing = [c for kk, c in a.objective.kink_locations() if kk == k]
                center = draw(st.sampled_from(
                    [lo, hi, hi + 0.1, 0.5 * (lo + hi), 0.0, -0.0]
                    + [c + d for c in existing for d in (1e-7, -1e-7, 0.5 * H)]))
                a = with_kink(a, k, center, draw(st.sampled_from([0.05, 0.5, 3.0])))
        if draw(st.booleans()):
            a = AgentProblem(Opaque(a.objective), a.constraints, a.box)
        agents.append(a)
    return ProblemInstance(agents, p.laplacian, p.depth)


def near_kinks(draw, problem, x):
    """``x`` with some kink coordinates moved next to (or onto) a kink."""
    x = x.copy()
    for i, table in enumerate(problem._capture_table):
        for k, center in table:
            if draw(st.booleans()):
                x[problem.block(i).start + k] = center + draw(st.sampled_from(OFFSETS))
    return x


def edge_speed(distance, h):
    """A speed v with h*|v| + 1e-12 == distance where one is near, else 0."""
    v = max(distance - 1e-12, 0.0) / h
    for _ in range(8):
        band = h * v + 1e-12
        if band == distance:
            return v
        v = np.nextafter(v, math.inf if band < distance else -math.inf)
    return 0.0


@st.composite
def capture_cases(draw):
    """(problem, x, x_prev, v, mu, h): a problem with kinks and arbitrary
    step data around them, -0.0 entries and active constraints included."""
    problem = draw(crowded_problems())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = problem.total_dim, problem.multiplier_dim
    box_x = dynamics.initial_state(problem, "random", rng).x
    x = near_kinks(draw, problem, box_x)
    x_prev = near_kinks(draw, problem, box_x)
    v = np.array([draw(st.sampled_from(SPEEDS)) for _ in range(n)])
    h = draw(st.sampled_from([1e-3, H]))
    for i, table in enumerate(problem._capture_table):
        for k, center in table:
            k += problem.block(i).start
            if draw(st.booleans()):  # x on the edge of the band: |x - c| == h*|v| + 1e-12
                v[k] = edge_speed(abs(x[k] - center), h)
    # active constraints: mu + g > 0 for a large enough mu
    mu = np.array([draw(st.sampled_from([0.0, -0.0, 0.3, 5.0])) for _ in range(m)])
    return problem, x, x_prev, v, mu, h


# -- the differential tests --------------------------------------------------


class TestMatchesPerAgentCapture:
    @pytest.mark.parametrize("few", [0, 10**6])
    @settings(max_examples=150, deadline=None)
    @given(capture_cases())
    def test_kernel_capture(self, few, case):
        problem, x, x_prev, v, mu, h = case
        want = x.copy()
        want_changed = any(reference_capture(problem, want, x_prev, v, mu, h))
        got = x.copy()
        inputs = [a.copy() for a in (x_prev, v, mu)]
        saved = dynamics._FEW_KINKS
        dynamics._FEW_KINKS = few  # 0: always the vectorised pass; else every row
        try:
            got_changed = problem.kernel.capture(got, x_prev, v, mu, h)
        finally:
            dynamics._FEW_KINKS = saved
        assert_bits_equal(got, want)
        assert got_changed == want_changed
        for a, b in zip(inputs, (x_prev, v, mu)):
            assert_bits_equal(a, b)

    @settings(max_examples=150, deadline=None)
    @given(capture_cases())
    def test_capture_agent_kinks(self, case):
        problem, x, x_prev, v, mu, h = case
        for i, (agent, table) in enumerate(zip(problem.agents, problem._capture_table)):
            s, ms = problem.block(i), problem.mu_block(i)
            got, want = x[s].copy(), x[s].copy()
            changed = capture_agent_kinks(agent, table, got, x_prev[s], v[s], mu[ms], h,
                                          problem.gain)
            assert changed == reference_capture_agent_kinks(
                agent, table, want, x_prev[s], v[s], mu[ms], h, problem.gain)
            assert_bits_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(crowded_problems(), st.integers(0, 2**32 - 1), st.sampled_from(METHODS),
           st.sampled_from([1e-3, H]), st.data())
    def test_runs_and_rounds(self, problem, seed, method, h, data):
        rng = np.random.default_rng(seed)
        x = near_kinks(data.draw, problem, dynamics.initial_state(problem, "random", rng).x)
        mu = rng.choice([0.0, -0.0, 2.0], problem.multiplier_dim)
        init = SolverState(x, np.zeros(problem.total_dim), mu)
        want = [init]
        for _ in range(3):
            want.append(reference_step(problem, want[-1], h, method))
        for run in (integrate, run_decentralized):
            got = run(problem, init, h=h, method=method, t_max=3 * h, kkt_tol=1e-300).states
            assert len(got) == len(want)
            for a, b in zip(got, want):
                for name in ("x", "lam", "mu"):
                    assert_bits_equal(getattr(a, name), getattr(b, name))
        agents = build_agents(problem, init)
        synchronous_round(agents, h, method)
        for name, f in (("x", "x"), ("lam", "lam"), ("mu", "mu")):
            assert_bits_equal(np.concatenate([getattr(a, f) for a in agents]),
                              getattr(want[1], name))


    @pytest.mark.parametrize("agents, gain, kept", [(1, 1.0, True), (2, 3.0, False)])
    def test_the_check_runs_at_the_kernel_gain(self, agents, gain, kept):
        """At its kink, x_2 of agent 1 has the interval [4e-10, 2 + 4e-10]:
        its velocity -2*gain*4e-10 passes ``SNAP_VELOCITY_TOL`` at gain 1
        and fails it at gain 3."""
        box = convex.Box(-np.ones(2), np.ones(2))
        first = AgentProblem(convex.affine([0.0, 1.0 + 4e-10]) + convex.absolute(2, 1), box=box)
        others = [AgentProblem(convex.quadratic(2, 1), box=box)] * (agents - 1)
        lap = [[0.0]] if agents == 1 else [[1.0, -1.0], [-1.0, 1.0]]
        problem = ProblemInstance([first, *others], lap, 1)
        assert problem.gain == gain
        x = np.zeros(problem.total_dim)
        x[1] = 1e-13
        zero, mu = np.zeros_like(x), np.zeros(0)
        want = x.copy()
        assert reference_capture(problem, want, zero, zero, mu, 1e-3) == [kept]
        for few in (0, 10**6):
            got = x.copy()
            dynamics._FEW_KINKS, saved = few, dynamics._FEW_KINKS
            try:
                assert problem.kernel.capture(got, zero, zero, mu, 1e-3) == kept
            finally:
                dynamics._FEW_KINKS = saved
            assert_bits_equal(got, want)
        got = x[:2].copy()
        assert capture_agent_kinks(first, ((1, 0.0),), got, zero[:2], zero[:2], mu, 1e-3,
                                   gain) == kept
        assert_bits_equal(got, want[:2])


def count_evaluates(kernel):
    """The list that gets one entry per ``kernel.evaluate`` call from now on."""
    calls = []
    kernel.evaluate = lambda *args: calls.append(args) or VelocityKernel.evaluate(kernel, *args)
    return calls


def snapping(kind):
    """Whether a capture case tries snaps in at least two rows ("rows"), or
    tries at least two snaps in one row, one check round each ("rounds")."""
    def reaches(case):
        problem, x, x_prev, v, mu, h = case
        tries = parent_capture(problem, x.copy(), x_prev, v, mu, h)[1]
        return (sum(t > 0 for t in tries) if kind == "rows" else max(tries, default=0)) >= 2
    return reaches


class TestMatchesParentSnap:
    """The checks run in rounds on the kernel's own ``evaluate``, against
    each snap checked on its row compiled on its own."""

    @staticmethod
    def assert_matches(case, few=dynamics._FEW_KINKS):
        problem, x, x_prev, v, mu, h = case
        want = x.copy()
        want_changed, tries = parent_capture(problem, want, x_prev, v, mu, h)
        got = x.copy()
        calls = count_evaluates(problem.kernel)
        saved, dynamics._FEW_KINKS = dynamics._FEW_KINKS, few
        try:
            got_changed = problem.kernel.capture(got, x_prev, v, mu, h)
        finally:
            dynamics._FEW_KINKS = saved
        assert_bits_equal(got, want)
        assert got_changed == want_changed
        for i, (agent, table) in enumerate(zip(problem.agents, problem._capture_table)):
            s, ms = problem.block(i), problem.mu_block(i)
            got, want = x[s].copy(), x[s].copy()
            assert capture_agent_kinks(agent, table, got, x_prev[s], v[s], mu[ms], h,
                                       problem.gain) == parent_snap(
                table, want, x_prev[s], v[s], mu[ms], h,
                partial(parent_uncoupled, agent, problem.gain), [])
            assert_bits_equal(got, want)
        return len(calls), tries

    @pytest.mark.parametrize("few", [0, 10**6])
    @settings(max_examples=150, deadline=None)
    @given(capture_cases())
    def test_kernel_capture(self, few, case):
        tries = self.assert_matches(case, few)[1]
        target(float(sum(tries)))  # steer towards steps with many snaps

    @pytest.mark.parametrize("kind", ["rows", "rounds"])
    def test_cases_reach_several_rows_and_rounds(self, kind):
        case = find(capture_cases(), snapping(kind),
                    settings=settings(max_examples=2000, phases=[Phase.generate],
                                      database=None, deadline=None, derandomize=True))
        checks, tries = self.assert_matches(case)
        assert checks == max(tries)
        assert sum(tries) > checks if kind == "rows" else checks >= 2

    @settings(max_examples=150, deadline=None)
    @given(capture_cases())
    def test_one_check_per_round(self, case):
        """One ``capture`` makes as many check ``evaluate``s as the most
        snaps any one row tries, not their sum."""
        problem, x, x_prev, v, mu, h = case
        tries = parent_capture(problem, x.copy(), x_prev, v, mu, h)[1]
        calls = count_evaluates(problem.kernel)
        problem.kernel.capture(x, x_prev, v, mu, h)
        assert len(calls) == max(tries, default=0)


class TestCompiledOnce:
    def test_runs_compile_no_kernel_once_the_problem_has_one(self, monkeypatch):
        rng = np.random.default_rng(7)
        problem = random_problem(rng)
        agents = [with_kink(a, a.dim - 1, 0.0, 3.0) for a in problem.agents]
        problem = ProblemInstance(agents, problem.laplacian, 1)
        x = np.zeros(problem.total_dim)
        for i in range(len(agents)):
            x[problem.block(i).stop - 1] = 1e-13  # next to the kink at 0.0
        init = SolverState(x, np.zeros(problem.total_dim), np.zeros(problem.multiplier_dim))
        kernel = problem.kernel
        compiled, evaluated = [], []
        compile_ = VelocityKernel.__init__
        monkeypatch.setattr(VelocityKernel, "__init__",
                            lambda self, *args: compiled.append(args) or compile_(self, *args))
        monkeypatch.setattr(kernel, "evaluate", lambda *args: evaluated.append(args)
                            or VelocityKernel.evaluate(kernel, *args))
        runs = [run(problem, init, h=1e-3, t_max=0.02, kkt_tol=1e-300)
                for run in (integrate, integrate, run_decentralized)]
        synchronous_round(build_agents(problem, init), 1e-3)
        assert not compiled
        stages = sum(4 * r.total_steps + 1 for r in runs) + 4  # rk4, and the round
        assert len(evaluated) > stages  # a snap was tried, and checked on the run's kernel

    def test_no_per_agent_rows(self):
        assert not hasattr(dynamics, "_snapped_coordinate_velocity")
        params = inspect.signature(dynamics._step).parameters
        assert "capture" in params and "rows" not in params


# -- input checks ------------------------------------------------------------


class TestLyapunovRefTol:
    @pytest.mark.parametrize("ref_tol", [float("nan"), math.inf, -1.0, 0.0, True, "1e-4", None])
    def test_rejected(self, example2, ref_tol):
        p = example2.problem
        zero = dynamics.initial_state(p, "zeros")
        with pytest.raises(InvalidInputError, match="ref_tol"):
            lyapunov_value(zero, zero, p, ref_tol=ref_tol)

    def test_a_far_reference_is_still_refused(self, example2):
        p = example2.problem
        zero = dynamics.initial_state(p, "zeros")
        with pytest.raises(InvalidInputError, match="not a usable equilibrium"):
            lyapunov_value(zero, zero, p)
        assert lyapunov_value(zero, zero, p, ref_tol=10.0).total == 8.5


class TestExpressionArguments:
    @pytest.mark.parametrize("bad", [["1", "2"], [True, 0.0], [None, 1.0], [1j, 0.0],
                                     np.array([1.0, 2.0], dtype=object), np.array([True, False]),
                                     np.array([1j, 0.0]), "12"])
    def test_rejected(self, bad):
        f = convex.quadratic(2, 0, 1.0) + convex.absolute(2, 1, 0.5)
        for method in (f.value, f.subgradient, f.subgradient_interval):
            with pytest.raises(InvalidInputError):
                method(bad)
        with pytest.raises(InvalidInputError):
            f.value_many([bad])

    def test_example2_agent_1_string_point(self, example2):
        objective = example2.problem.agents[0].objective
        with pytest.raises(InvalidInputError):
            objective.value(["1"] * objective.dim)

    def test_reals_still_evaluate(self):
        f = convex.quadratic(2, 0, 1.0) + convex.absolute(2, 1, 0.5)
        assert f.value([1, np.float32(0.5)]) == f.value(np.array([1.0, 0.5]))
        assert_bits_equal(f.value_many(np.array([[1, 0]])), [f.value([1.0, 0.0])])
        with pytest.raises(InvalidInputError):
            f.value_many(np.float64(1.0))


class TestLaplacianIsConnected:
    @pytest.mark.parametrize("bad", [[[1, -1, 0]], [1.0, 2.0], [[[1.0]]], 1.0,
                                     [[True, False], [False, True]], [["1", "-1"], ["-1", "1"]]])
    def test_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="Laplacian"):
            pcons.laplacian_is_connected(bad)

    def test_square_reals(self):
        assert pcons.laplacian_is_connected([[1, -1], [-1, 1]])
        assert not pcons.laplacian_is_connected(np.zeros((2, 2)))


class TestPayloadLength:
    @pytest.mark.parametrize("part", [0, 1])
    @pytest.mark.parametrize("payload", [np.zeros(2), np.zeros(0), np.zeros((1, 1)), 0.0])
    def test_wrong_length_names_both_agents(self, example2, part, payload):
        agents = build_agents(example2.problem)
        agent = agents[1]
        received = {j: (np.zeros(1), np.zeros(1)) for j, _ in agent.neighbors}
        received[0] = (payload, np.zeros(1)) if part == 0 else (np.zeros(1), payload)
        name = ("x", "lambda")[part]
        with pytest.raises(ProtocolError,
                           match=f"agent 2 received a payload from agent 1 whose {name} part"):
            agent.local_velocity(agent.x, agent.lam, agent.mu, received)


class TestMessageLogSlices:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(-40, 40) | st.none(), st.integers(-40, 40) | st.none(),
           st.sampled_from([None, 1, 2, 7, -1, -3]))
    def test_slices_read_like_a_list(self, example2_log, start, stop, stride):
        log, messages = example2_log
        got = log[start:stop:stride]
        want = messages[start:stop:stride]
        assert isinstance(got, list) and len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.round_index, a.sender, a.receiver) == (b.round_index, b.sender, b.receiver)
            assert_bits_equal(a.x_shared, b.x_shared)
            assert_bits_equal(a.lam_shared, b.lam_shared)


@pytest.fixture(scope="module")
def example2_log(example2):
    log, messages = MessageLog(), []
    run_decentralized(example2.problem, h=1e-3, t_max=0.002, message_log=log)
    run_decentralized(example2.problem, h=1e-3, t_max=0.002, message_log=messages)
    return log, messages

