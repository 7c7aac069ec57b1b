"""Per-agent data lives in the compiled kernel: kink tables, slices and
row order follow the agents' current problems."""
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcons import convex, network
from pcons.dynamics import (
    METHODS, AgentProblem, ProblemInstance, SolverState, VelocityKernel, initial_state,
    integrate,
)
from pcons.errors import ProtocolError
from pcons.network import Agent, build_agents, synchronous_round

from conftest import random_problem


def reference_kink_tables(problem):
    """The kink tables as ``ProblemInstance`` derived them before the kernel
    did: objective kinks on the non-shared coordinates."""
    return tuple(
        tuple((k, c) for k, c in agent.objective.kink_locations() if k >= problem.depth)
        for agent in problem.agents
    )


def assert_bits_equal(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assemble(agents):
    return tuple(np.concatenate([getattr(a, f) for a in agents]) for f in ("x", "lam", "mu"))


def with_kink(agent, k, center, weight):
    """``agent`` with ``weight*abs(x_k - center)`` added to its objective."""
    extra = convex.absolute(agent.dim, k, center=center, weight=weight)
    return AgentProblem(objective=agent.objective + extra, constraints=agent.constraints,
                        box=agent.box)


def one_integrate_step(problem, init, h, method):
    return integrate(problem, init, h=h, method=method, t_max=h, kkt_tol=1e-300).final


class TestKinkTables:
    def test_example2(self, example2):
        p = example2.problem
        assert p._capture_table == reference_kink_tables(p) == p.kernel.kinks
        assert any(p._capture_table)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_problems(self, seed):
        p = random_problem(np.random.default_rng(seed))
        assert p._capture_table == reference_kink_tables(p)
        assert p.kernel.agents == p.agents

    def test_problem_instance_derives_no_table(self, example2):
        p = example2.problem
        fresh = ProblemInstance(p.agents, p.laplacian, p.depth)
        assert "_capture_table" not in vars(fresh) and "kernel" not in vars(fresh)


class TestSlices:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_problem_and_kernel_agree(self, seed):
        p = random_problem(np.random.default_rng(seed))
        kernel = p.kernel
        n = len(p.agents)
        assert tuple(p.block(i) for i in range(n)) == kernel.blocks
        assert tuple(p.mu_block(i) for i in range(n)) == kernel.mu_blocks
        assert (p.total_dim, p.multiplier_dim) == (kernel.total_dim, kernel.multiplier_dim)
        assert kernel.blocks[-1].stop == p.total_dim
        assert kernel.mu_blocks[-1].stop == p.multiplier_dim


class TestAgentKeepsOnlyItsProblem:
    def test_no_capture_table(self, example2):
        assert "capture_table" not in inspect.signature(Agent).parameters
        agent = build_agents(example2.problem)[0]
        assert not hasattr(agent, "capture_table")

    def test_problem_is_a_plain_attribute(self, example2):
        assert not isinstance(inspect.getattr_static(Agent, "problem", None), property)
        agent = build_agents(example2.problem)[1]
        assert vars(agent)["problem"] is example2.problem.agents[1]

    def test_local_velocity_follows_the_problem(self, example2):
        p = example2.problem
        agents = build_agents(p, initial_state(p, "random", np.random.default_rng(3)))
        agent = agents[1]
        received = {j: agents[j].payload() for j, _ in agent.neighbors}
        agent.local_velocity(agent.x, agent.lam, agent.mu, received)
        agent.problem = with_kink(agent.problem, 1, float(agent.x[1]), 5.0)
        got = agent.local_velocity(agent.x, agent.lam, agent.mu, received)
        kernel = VelocityKernel([agent.problem], [agent.neighbors], agent.depth, agent.gain)
        shape = (1, len(agent.neighbors), agent.depth)
        recv_x = np.array([received[j][0] for j, _ in agent.neighbors]).reshape(shape)
        recv_lam = np.array([received[j][1] for j, _ in agent.neighbors]).reshape(shape)
        dx, dlam, dmu, g = kernel.evaluate(agent.x, agent.lam, agent.mu, recv_x, recv_lam)
        for a, b in zip(got, (dx, dlam[0], dmu, g)):
            assert_bits_equal(a, b)


class TestReassignedProblem:
    def test_example2_new_kink_is_captured(self, example2):
        """Agent 2 gains 5*abs(x2 - 1.2) with x2 just off the kink: the
        round snaps it as ``integrate`` on the new problems does."""
        p = example2.problem
        x = np.array([1.3, 1.3, 1.2 + 1e-7, 1.3, 1.8])
        init = SolverState(x, np.zeros(p.total_dim), np.zeros(p.multiplier_dim))
        agents = build_agents(p, init)
        agents[1].problem = with_kink(p.agents[1], 1, 1.2, 5.0)
        synchronous_round(agents, 1e-2, "euler")
        q = ProblemInstance([a.problem for a in agents], p.laplacian, p.depth)
        want = one_integrate_step(q, init, 1e-2, "euler")
        assert agents[1].x[1] == 1.2
        for got, ref in zip(assemble(agents), (want.x, want.lam, want.mu)):
            assert_bits_equal(got, ref)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(METHODS),
           st.sampled_from([1e-3, 2e-2]), st.data())
    def test_round_matches_integrate_on_the_new_problems(self, seed, method, h, data):
        rng = np.random.default_rng(seed)
        p = random_problem(rng)
        init = initial_state(p, "random", rng)
        agents = build_agents(p, init)
        for i, agent in enumerate(agents):
            if agent.problem.dim > p.depth:
                k = data.draw(st.integers(p.depth, agent.problem.dim - 1))
                offset = data.draw(st.sampled_from([0.0, 1e-9, -1e-9, 1e-6, -1e-6]))
                center = float(init.x[p.block(i)][k]) + offset
                agent.problem = with_kink(agent.problem, k, center, float(rng.uniform(0.5, 5.0)))
        synchronous_round(agents, h, method)
        q = ProblemInstance([a.problem for a in agents], p.laplacian, p.depth)
        want = one_integrate_step(q, init, h, method)
        for got, ref in zip(assemble(agents), (want.x, want.lam, want.mu)):
            assert_bits_equal(got, ref)


class TestRowOrder:
    @pytest.mark.parametrize("order", [
        lambda a: list(reversed(a)),
        lambda a: [a[1], a[0], a[2]],
        lambda a: [a[0], a[2], a[1]],
        lambda a: a[:2],
        lambda a: a[:1],
        lambda a: a[1:],
    ], ids=["reversed", "swap-12", "swap-23", "prefix-2", "prefix-1", "suffix"])
    @pytest.mark.parametrize("capture", [True, False])
    def test_rejected(self, example2, order, capture):
        p = example2.problem
        agents = build_agents(p, initial_state(p, "random", np.random.default_rng(1)))
        before = [tuple(v.copy() for v in (a.x, a.lam, a.mu)) for a in agents]
        listed = order(agents)
        with pytest.raises(ProtocolError):
            network._stacked_kernel(listed)
        with pytest.raises(ProtocolError):
            synchronous_round(listed, 1e-2, "euler", capture=capture)
        for a, old in zip(agents, before):
            assert a.round_index == 0
            for got, want in zip((a.x, a.lam, a.mu), old):
                assert_bits_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_random_permutations_rejected(self, seed, data):
        p = random_problem(np.random.default_rng(seed))
        agents = build_agents(p)
        perm = data.draw(st.permutations(range(len(agents))))
        if list(perm) == list(range(len(agents))):
            assert network._stacked_kernel(agents) is p.kernel
            return
        with pytest.raises(ProtocolError):
            synchronous_round([agents[i] for i in perm], 1e-3, "euler")

    def test_in_order_reuses_the_problems_kernel(self, example2):
        p = example2.problem
        agents = build_agents(p)
        assert network._stacked_kernel(agents) is p.kernel
        assert network._capture_rows(agents, True) == tuple(zip(p.agents, p._capture_table))
        assert network._capture_rows(agents, False) == ()
        agents[2].problem = with_kink(p.agents[2], 1, 0.5, 1.0)
        kernel = network._stacked_kernel(agents)
        assert kernel is not p.kernel and kernel.agents[2] is agents[2].problem
        assert network._stacked_kernel(agents) is kernel
