"""A state that is not a ``SolverState``, an ``rng`` that is not a numpy
generator and a message log without ``extend`` are input errors, raised
before anything runs."""
import collections

import numpy as np
import pytest

from pcons import dynamics, network
from pcons.dynamics import (
    SolverState, initial_state, integrate, kkt_residual, lyapunov_value, rhs, step,
    write_trajectory_csv,
)
from pcons.errors import InvalidInputError
from pcons.network import MessageLog, build_agents, run_decentralized, synchronous_round


def arrays(problem):
    n, m = problem.total_dim, problem.multiplier_dim
    return np.full(n, 0.5), np.zeros(n), np.zeros(m)


ENTRY_POINTS = {
    "integrate": lambda p, s: integrate(p, s, t_max=1e-3),
    "run_decentralized": lambda p, s: run_decentralized(p, s, t_max=1e-3),
    "kkt_residual": lambda p, s: kkt_residual(s, p),
    "step": lambda p, s: step(s, p, 1e-3),
    "rhs": lambda p, s: rhs(s, p),
    "build_agents": lambda p, s: build_agents(p, s),
    "lyapunov_value state": lambda p, s: lyapunov_value(s, SolverState(*arrays(p)), p),
    "lyapunov_value reference": lambda p, s: lyapunov_value(SolverState(*arrays(p)), s, p),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@pytest.mark.parametrize("state, kind", [
    (arrays, "tuple"),
    (lambda p: dict(zip(("x", "lam", "mu"), arrays(p))), "dict"),
], ids=["tuple", "dict"])
def test_a_state_must_be_a_solver_state(example2, call, state, kind):
    problem = example2.problem
    with pytest.raises(InvalidInputError, match=f"^state must be a SolverState, got {kind}$"):
        call(problem, state(problem))


@pytest.mark.parametrize("name", ["kkt_residual", "step", "rhs", "lyapunov_value state",
                                  "lyapunov_value reference"])
def test_none_is_not_a_state(example2, name):
    with pytest.raises(InvalidInputError, match="^state must be a SolverState, got NoneType$"):
        ENTRY_POINTS[name](example2.problem, None)


def test_a_csv_reference_must_be_a_solver_state(example2, tmp_path):
    problem = example2.problem
    trajectory = integrate(problem, t_max=1e-3)
    path = tmp_path / "trajectory.csv"
    with pytest.raises(InvalidInputError, match="^state must be a SolverState, got tuple$"):
        write_trajectory_csv(trajectory, path, problem, reference=arrays(problem))
    assert not path.exists()


class TestRng:
    @pytest.mark.parametrize("rng", [5, "seed", np.random, np.random.SeedSequence(0)])
    def test_anything_but_a_generator_is_rejected(self, example2, rng):
        with pytest.raises(InvalidInputError, match="rng must be a numpy Generator or "
                                                    "RandomState, got"):
            initial_state(example2.problem, "random", rng=rng)

    @pytest.mark.parametrize("make", [np.random.default_rng, np.random.RandomState])
    def test_generators_draw_in_the_boxes(self, example2, make):
        problem = example2.problem
        x = initial_state(problem, "random", rng=make(3)).x
        assert np.array_equal(x, initial_state(problem, "random", rng=make(3)).x)
        for i, agent in enumerate(problem.agents):
            assert agent.box.contains(x[problem.block(i)])


@pytest.fixture
def evaluations():
    """One entry for each kernel evaluation made while the fixture is active."""
    calls = []
    evaluate = dynamics.VelocityKernel.evaluate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics.VelocityKernel, "evaluate",
                   lambda kernel, *args: calls.append(1) or evaluate(kernel, *args))
        yield calls


def fields(message):
    return (message.round_index, message.sender, message.receiver,
            message.x_shared.tolist(), message.lam_shared.tolist())


class TestMessageLogs:
    @pytest.mark.parametrize("log", [5, "abc", (), {}, object()])
    def test_run_rejects_a_log_before_the_first_stage(self, example2, evaluations, log):
        with pytest.raises(InvalidInputError, match="a message log must be a MessageLog, a "
                                                    "list or None, got"):
            run_decentralized(example2.problem, message_log=log)
        assert evaluations == []

    @pytest.mark.parametrize("log", [5, "abc"])
    def test_round_rejects_a_log_before_the_exchange(self, example2, evaluations, log):
        agents = build_agents(example2.problem)
        before = [(a.x.copy(), a.lam.copy(), a.mu.copy()) for a in agents]
        with pytest.raises(InvalidInputError, match="a message log must be"):
            synchronous_round(agents, 1e-3, log=log)
        assert evaluations == []
        for agent, (x, lam, mu) in zip(agents, before):
            assert agent.round_index == 0
            assert np.array_equal(agent.x, x) and np.array_equal(agent.lam, lam)
            assert np.array_equal(agent.mu, mu)

    def test_a_deque_receives_the_messages_of_a_list(self, example2):
        logs = [], collections.deque(), MessageLog()
        for log in logs:
            run_decentralized(example2.problem, h=1e-3, t_max=5e-3, message_log=log)
        listed, queued, table = (list(map(fields, log)) for log in logs)
        assert listed == queued == table and listed
        queued = collections.deque()
        _, sent = synchronous_round(build_agents(example2.problem), 1e-3, log=queued)
        assert list(map(fields, queued)) == listed[:sent]


def test_the_run_builds_no_agents(example2):
    """``run_decentralized`` drives the problem's own kernel."""
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network.Agent, "__init__", lambda *args: built.append(args))
        trajectory = run_decentralized(example2.problem, h=1e-3, t_max=2e-3)
    assert built == []
    assert trajectory.total_steps == 2
