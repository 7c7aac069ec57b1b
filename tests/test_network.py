"""Message-passing agents and centralized/decentralized equivalence."""
import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcons import convex, network
from pcons.dynamics import (
    METHODS, AgentProblem, ProblemInstance, SolverState, initial_state, integrate, step,
    write_trajectory_csv,
)
from pcons.errors import DivergenceError, InvalidInputError, ProtocolError
from pcons.network import (
    Message, MessageLog, build_agents, run_decentralized, synchronous_round,
    write_message_log_csv,
)

from conftest import random_problem

PATH_L3 = np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]])
COMPLETE_L3 = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def _assemble(agents):
    return (
        np.concatenate([a.x for a in agents]),
        np.concatenate([a.lam for a in agents]),
        np.concatenate([a.mu for a in agents]),
    )


class TestBuildAgents:
    def test_path_graph_neighbor_sets(self, example2):
        agents = build_agents(example2.problem)
        assert [a.id for a in agents] == [1, 2, 3]
        assert [sorted(j + 1 for j, _ in a.neighbors) for a in agents] == [[2], [1, 3], [2]]

    def test_complete_graph_neighbor_counts(self):
        agent_list = [
            AgentProblem(objective=convex.quadratic(d, 0), box=convex.Box(np.zeros(d), np.ones(d)))
            for d in (3, 4, 5)
        ]
        p = ProblemInstance(agent_list, COMPLETE_L3, 3)
        agents = build_agents(p)
        assert all(len(a.neighbors) == 2 for a in agents)

    def test_single_agent_no_neighbors(self):
        p = ProblemInstance(
            [AgentProblem(objective=convex.quadratic(1, 0, center=1.5))],
            np.zeros((1, 1)),
            1,
        )
        agents = build_agents(p)
        assert len(agents) == 1 and agents[0].neighbors == ()

    def test_disconnected_graph_rejected(self):
        lap = np.array([[1.0, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1]])
        agent_list = [AgentProblem(objective=convex.quadratic(1, 0)) for _ in range(4)]
        p = ProblemInstance(agent_list, lap, 1)
        with pytest.raises(InvalidInputError):
            build_agents(p)


class TestSynchronousRound:
    def test_one_round_equals_one_centralized_step(self, example2):
        p = example2.problem
        init = initial_state(p, "zeros")
        agents = build_agents(p, init)
        synchronous_round(agents, 1e-3, "rk4", capture=False)
        x, lam, mu = _assemble(agents)
        reference = step(init, p, 1e-3, "rk4")
        assert np.array_equal(x, reference.x)
        assert np.array_equal(lam, reference.lam)
        assert np.array_equal(mu, reference.mu)

    def test_no_neighbors_is_local_step(self):
        p = ProblemInstance(
            [AgentProblem(objective=convex.quadratic(1, 0, center=1.5))],
            np.zeros((1, 1)),
            1,
        )
        init = SolverState(np.array([0.0]), np.zeros(1), np.zeros(0))
        agents = build_agents(p, init)
        synchronous_round(agents, 0.1, "euler")
        assert agents[0].x[0] == pytest.approx(0.6, abs=1e-15)

    def test_consensus_state_freezes_lambda(self, example2):
        p = example2.problem
        x = np.array([1.3, 1.3, 1.7, 1.3, 1.8])  # shared block equal
        init = SolverState(x, np.zeros(5), np.zeros(3))
        agents = build_agents(p, init)
        synchronous_round(agents, 1e-3, "euler")
        _, lam, _ = _assemble(agents)
        assert np.all(lam == 0.0)

    def test_out_of_sync_rejected(self, example2):
        agents = build_agents(example2.problem)
        agents[0].round_index = 3
        with pytest.raises(ProtocolError):
            synchronous_round(agents, 1e-3, "euler")

    def test_missing_payload_rejected(self, example2):
        agents = build_agents(example2.problem)
        with pytest.raises(ProtocolError):
            agents[1].local_velocity(agents[1].x, agents[1].lam, agents[1].mu, {})


class TestMessageCounts:
    def test_euler_payloads_per_step(self, example2):
        log = []
        traj = run_decentralized(
            example2.problem, h=1e-3, method="euler", t_max=0.005,
            kkt_tol=1e-15, message_log=log,
        )
        assert traj.messages_per_step == 4  # path graph: 2 edges, both directions
        # 5 steps plus the final residual check, 4 payloads each
        assert traj.message_count == (traj.total_steps + 1) * 4

    def test_rk4_payloads_per_step(self, example2):
        traj = run_decentralized(
            example2.problem, h=1e-3, method="rk4", t_max=0.005, kkt_tol=1e-15
        )
        assert traj.messages_per_step == 16  # 4 exchanges per step

    def test_messages_only_along_edges(self, example2):
        log = []
        run_decentralized(
            example2.problem, h=1e-3, method="rk4", t_max=0.003,
            kkt_tol=1e-15, message_log=log,
        )
        edges = {(1, 2), (2, 1), (2, 3), (3, 2)}
        assert log and all((m.sender, m.receiver) in edges for m in log)
        assert all(len(m.x_shared) == 1 and len(m.lam_shared) == 1 for m in log)


class TestEquivalence:
    def test_example2_identical_trajectories(self, example2, example2_run):
        traj = run_decentralized(example2.problem, h=1e-3, method="rk4", kkt_tol=1e-6)
        assert traj.stop_reason == example2_run.stop_reason
        assert traj.total_steps == example2_run.total_steps
        assert np.array_equal(traj.final.x, example2_run.final.x)
        assert np.array_equal(traj.final.lam, example2_run.final.lam)
        assert np.array_equal(traj.final.mu, example2_run.final.mu)

    def test_random_instances_stepwise(self):
        rng = np.random.default_rng(77)
        for _ in range(8):
            p = random_problem(rng)
            init = initial_state(p, "random", rng)
            steps = 40
            method = "rk4" if rng.random() < 0.5 else "euler"
            t_max = steps * 2e-3
            central = integrate(
                p, init, h=2e-3, method=method, t_max=t_max,
                kkt_tol=1e-15, record_every=1,
            )
            decentral = run_decentralized(
                p, init, h=2e-3, method=method, t_max=t_max,
                kkt_tol=1e-15, record_every=1,
            )
            assert central.total_steps == decentral.total_steps
            for sc, sd in zip(central.states, decentral.states):
                assert np.max(np.abs(sc.x - sd.x)) <= 1e-12
                assert np.max(np.abs(sc.lam - sd.lam)) <= 1e-12
                assert np.max(np.abs(sc.mu - sd.mu)) <= 1e-12


class TestLocalityAndFreeze:
    def test_lambda_complement_bit_identical(self, example2):
        rng = np.random.default_rng(4)
        init = initial_state(example2.problem, "zeros")
        init.lam = rng.standard_normal(5)
        frozen = (init.lam[2], init.lam[4])
        agents = build_agents(example2.problem, init)
        for _ in range(50):
            synchronous_round(agents, 1e-3, "rk4")
        _, lam, _ = _assemble(agents)
        assert (lam[2], lam[4]) == frozen

    def test_agents_only_touch_their_own_problem(self, example2):
        counts = {}

        class CountingExpr:
            def __init__(self, owner, inner):
                self.owner = owner
                self.inner = inner
                self.dim = inner.dim

            def _bump(self):
                counts[self.owner] = counts.get(self.owner, 0) + 1

            def value(self, x):
                self._bump()
                return self.inner.value(x)

            def subgradient(self, x):
                self._bump()
                return self.inner.subgradient(x)

            def subgradient_interval(self, x):
                self._bump()
                return self.inner.subgradient_interval(x)

            def kink_locations(self):
                return self.inner.kink_locations()

        agents = build_agents(example2.problem)
        for agent in agents:
            wrapped = AgentProblem(
                objective=CountingExpr(agent.id, agent.problem.objective),
                constraints=agent.problem.constraints,
                box=agent.problem.box,
            )
            agent.problem = wrapped
        rounds = 10
        for _ in range(rounds):
            synchronous_round(agents, 1e-3, "euler", capture=False)
        # every agent evaluated exactly its own objective, once per round
        assert counts == {1: rounds, 2: rounds, 3: rounds}

    def test_agent_payload_is_shared_prefix_copy(self, example2):
        agents = build_agents(example2.problem)
        xs, ls = agents[1].payload()
        assert xs.shape == (1,) and ls.shape == (1,)
        xs[0] = 99.0
        assert agents[1].x[0] != 99.0


class TestReassignedAgentData:
    """A cached kernel follows reassigned neighbors, depth and gain."""

    @staticmethod
    def _reassign(agents, field):
        if field == "neighbors":
            agents[1].neighbors = ((0, 1.0),)  # agent 2 no longer hears agent 3
            return
        for a in agents:
            setattr(a, field, {"depth": 2, "gain": 100.0}[field])

    @staticmethod
    def _problem_and_state():
        # every agent has two shared-capable coordinates, so depth 2 is valid
        agents = [
            AgentProblem(objective=convex.quadratic(2, 0, center=0.5)
                         + convex.absolute(2, 1, center=-0.3)),
            AgentProblem(objective=convex.quadratic(3, 1, center=1.0)
                         + convex.absolute(3, 2, center=0.2),
                         constraints=convex.ConstraintMap((convex.affine([1.0, 1.0, 0.0], -0.5),))),
            AgentProblem(objective=convex.absolute(2, 0, center=0.7)
                         + convex.quadratic(2, 1, center=0.1)),
        ]
        p = ProblemInstance(agents, PATH_L3, 1)
        rng = np.random.default_rng(11)
        init = initial_state(p, "zeros")
        init.x, init.lam = rng.standard_normal(7), rng.standard_normal(7)
        return p, init

    @staticmethod
    def _velocities(agents):
        received = {a.id - 1: a.payload() for a in agents}
        return [a.local_velocity(a.x, a.lam, a.mu, received) for a in agents]

    @pytest.mark.parametrize("field", ["neighbors", "depth", "gain"])
    def test_a_reassigned_field_recompiles_the_kernels(self, field):
        p, init = self._problem_and_state()
        cached, fresh, untouched = (build_agents(p, init) for _ in range(3))
        self._velocities(cached)  # compiles and caches each one-agent kernel
        for agents in (cached, fresh):
            self._reassign(agents, field)
        for a in fresh:
            a._stack = a._own = None
        for got, want in zip(self._velocities(cached), self._velocities(fresh)):
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
        for agents in (cached, fresh, untouched):
            synchronous_round(agents, 1e-2, "euler")
        for name in ("x", "lam", "mu"):
            got, want = (np.concatenate([getattr(a, name) for a in agents])
                         for agents in (cached, fresh))
            assert got.tobytes() == want.tobytes()
        assert any(
            not np.array_equal(getattr(a, name), getattr(b, name))
            for a, b in zip(cached, untouched) for name in ("x", "lam")
        )

    @pytest.mark.parametrize("field, value", [("depth", 2), ("gain", 100.0)])
    def test_agents_that_disagree_are_rejected(self, field, value):
        p, init = self._problem_and_state()
        agents = build_agents(p, init)
        setattr(agents[2], field, value)
        with pytest.raises(ProtocolError, match=f"disagree on the {field}: .* agent 3 has"):
            synchronous_round(agents, 1e-2, "euler")
        assert all(a.round_index == 0 for a in agents)


class TestStateValidation:
    def test_run_decentralized_rejects_wrong_length_state(self, example2):
        state = SolverState(np.ones(2), np.zeros(5), np.zeros(3))
        with pytest.raises(InvalidInputError):
            run_decentralized(example2.problem, init=state, h=1e-3, t_max=0.01)

    def test_run_decentralized_rejects_non_finite_state(self, example2):
        state = SolverState(np.ones(5), np.zeros(5), np.array([0.0, np.inf, 0.0]))
        with pytest.raises(InvalidInputError):
            run_decentralized(example2.problem, init=state, h=1e-3, t_max=0.01)


class TestDivergence:
    def test_both_modes_carry_the_last_finite_state(self, example2):
        # euler at h=0.3 is unstable on example2; records every 5th step only
        kwargs = dict(h=0.3, method="euler", t_max=100.0, kkt_tol=1e-6, record_every=5)
        with pytest.raises(DivergenceError) as central:
            integrate(example2.problem, **kwargs)
        with pytest.raises(DivergenceError) as decentral:
            run_decentralized(example2.problem, **kwargs)
        a, b = central.value, decentral.value
        assert a.t == b.t and a.state.t == b.state.t
        assert a.state.t == pytest.approx(a.t - 0.3)
        for name in ("x", "lam", "mu"):
            assert np.array_equal(getattr(a.state, name), getattr(b.state, name))
            assert np.all(np.isfinite(getattr(b.state, name)))


class TestSettingsValidation:
    def test_run_decentralized(self, example2):
        for bad in (dict(h=np.nan), dict(h=np.inf), dict(t_max=np.nan),
                    dict(kkt_tol=np.nan), dict(record_every=0), dict(method="heun")):
            kwargs = {**dict(h=1e-3, t_max=0.01, kkt_tol=1e-6), **bad}
            with pytest.raises(InvalidInputError):
                run_decentralized(example2.problem, **kwargs)

    def test_synchronous_round(self, example2):
        for h, method in ((np.nan, "euler"), (np.inf, "rk4"), (0.0, "rk4"), (1e-3, "heun")):
            agents = build_agents(example2.problem)
            with pytest.raises(InvalidInputError):
                synchronous_round(agents, h, method)
            assert all(a.round_index == 0 for a in agents)


class TestWholeRunBitIdentity:
    signed = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.data())
    def test_integrate_equals_run_decentralized(self, tmp_path_factory, seed, every, data):
        rng = np.random.default_rng(seed)
        p = random_problem(rng)
        n, m = p.total_dim, p.multiplier_dim
        init = SolverState(*(np.array(data.draw(st.lists(self.signed, min_size=k, max_size=k)))
                             for k in (n, n, m)))
        out = tmp_path_factory.mktemp("runs")
        for method in METHODS:
            kwargs = dict(h=2e-3, method=method, t_max=0.05, kkt_tol=1e-15, record_every=every)
            central = integrate(p, init, **kwargs)
            decentral = run_decentralized(p, init, **kwargs)
            assert central.total_steps == decentral.total_steps
            assert central.times == decentral.times
            for sc, sd in zip(central.states, decentral.states, strict=True):
                for a, b in ((sc.x, sd.x), (sc.lam, sd.lam), (sc.mu, sd.mu)):
                    assert np.array_equal(a, b)
                    assert np.array_equal(np.signbit(a), np.signbit(b))
            write_trajectory_csv(central, out / "central.csv", p)
            write_trajectory_csv(decentral, out / "decentral.csv", p)
            assert (out / "central.csv").read_bytes() == (out / "decentral.csv").read_bytes()


# -- the message log against the per-payload reference -----------------------


class ReferenceExchange(network._Exchange):
    """The exchange with per-payload logging: one ``Message`` per payload,
    appended to a list as it is sent."""

    def __call__(self, x, lam, mu, n):
        kernel = self.kernel
        px, pl = kernel.payloads(x, lam)
        if self.log is not None:
            xs, ls = list(px), list(pl)
            self.log.extend(
                Message(round_index=n, sender=j + 1, receiver=i + 1,
                        x_shared=xs[j], lam_shared=ls[j])
                for i, j in kernel.edges
            )
        self.sent += len(kernel.edges)
        return kernel.evaluate(x, lam, mu, px[kernel.nbr], pl[kernel.nbr])


@contextlib.contextmanager
def per_payload_logging():
    """Run the network with ``ReferenceExchange`` appending to the list log."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "_Exchange", ReferenceExchange)
        mp.setattr(network, "_table_log", contextlib.nullcontext)
        yield


def reference_write_message_log_csv(messages, path):
    """The message CSV written one message at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("round,sender,receiver,payload\n")
        for m in messages:
            payload = ";".join(
                f"{v:.17g}" for v in np.concatenate([m.x_shared, m.lam_shared])
            )
            fh.write(f"{m.round_index},{m.sender},{m.receiver},{payload}\n")


def assert_same_messages(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want, strict=True):
        assert (a.round_index, a.sender, a.receiver) == (b.round_index, b.sender, b.receiver)
        for u, v in ((a.x_shared, b.x_shared), (a.lam_shared, b.lam_shared)):
            assert np.array_equal(u, v)
            assert np.array_equal(np.signbit(u), np.signbit(v))


class TestMessageLog:
    signed = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
    def test_matches_per_payload_reference(self, tmp_path_factory, seed, deepest, data):
        rng = np.random.default_rng(seed)
        p = random_problem(rng)
        if deepest:  # the largest depth the dimensions allow
            p = ProblemInstance(p.agents, p.laplacian, min(a.dim for a in p.agents))
        n, m = p.total_dim, p.multiplier_dim
        init = SolverState(*(np.array(data.draw(st.lists(self.signed, min_size=k, max_size=k)))
                             for k in (n, n, m)))
        out = tmp_path_factory.mktemp("logs")
        for method in METHODS:
            kwargs = dict(h=2e-3, method=method, t_max=0.02, kkt_tol=1e-15)
            want, table, listed = [], MessageLog(), []
            with per_payload_logging():
                run_decentralized(p, init, message_log=want, **kwargs)
            run_decentralized(p, init, message_log=table, **kwargs)
            run_decentralized(p, init, message_log=listed, **kwargs)
            assert_same_messages(list(table), want)
            assert_same_messages(listed, want)
            reference_write_message_log_csv(want, out / "reference.csv")
            write_message_log_csv(table, out / "table.csv")
            write_message_log_csv(listed, out / "list.csv")
            expected = (out / "reference.csv").read_bytes()
            assert (out / "table.csv").read_bytes() == expected
            assert (out / "list.csv").read_bytes() == expected

    def test_diverging_run_leaves_the_same_messages(self, example2):
        kwargs = dict(h=0.3, method="euler", t_max=100.0, kkt_tol=1e-6)
        want, got = [], []
        with per_payload_logging(), pytest.raises(DivergenceError):
            run_decentralized(example2.problem, message_log=want, **kwargs)
        with pytest.raises(DivergenceError):
            run_decentralized(example2.problem, message_log=got, **kwargs)
        assert want
        assert_same_messages(got, want)

    def test_synchronous_round_list_log(self, example2):
        init = SolverState(np.array([0.3, -0.0, 1.0, -0.0, 2.0]),
                           np.array([-0.0, 0.5, -0.0, 0.0, 1.0]), np.zeros(3))
        for method in METHODS:
            agents = build_agents(example2.problem, init)
            reference = build_agents(example2.problem, init)
            got, want = [], []
            for _ in range(3):
                assert synchronous_round(agents, 1e-3, method, log=got)[1] == 4 * (
                    1 if method == "euler" else 4)
                with per_payload_logging():
                    synchronous_round(reference, 1e-3, method, log=want)
            assert_same_messages(got, want)
            for a, b in zip(agents, reference, strict=True):
                assert np.array_equal(a.x, b.x) and np.array_equal(a.lam, b.lam)

    def test_an_unlogged_run_builds_no_payload_table(self, example2, monkeypatch):
        def refuse(kernel, x, lam):
            raise AssertionError("a payload table was built")

        monkeypatch.setattr(network.VelocityKernel, "payloads", refuse)
        trajectory = run_decentralized(example2.problem, h=1e-3, method="rk4", t_max=0.01,
                                       message_log=None)
        assert trajectory.total_steps == 10

    def test_reads_like_a_list(self, example2, tmp_path):
        # 300 rk4 steps: 1201 exchanges, more than one block of payload tables
        table, want = MessageLog(), []
        kwargs = dict(h=1e-3, method="rk4", t_max=0.3, kkt_tol=1e-15)
        run_decentralized(example2.problem, message_log=table, **kwargs)
        with per_payload_logging():
            run_decentralized(example2.problem, message_log=want, **kwargs)
        assert len(table) == len(want) == 1201 * 4
        assert_same_messages(list(table), want)
        for k in (0, 1, 4095, 4096, 4097, -1, -len(want)):
            assert_same_messages([table[k]], [want[k]])
        for k in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                table[k]
        write_message_log_csv(table, tmp_path / "table.csv")
        reference_write_message_log_csv(want, tmp_path / "reference.csv")
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        table.clear()
        assert len(table) == 0 and list(table) == []


class TestMessageListReads:
    """A list of ``Message``s is read through the package's readers before
    the file is opened: integers for the ids, real numbers for payloads."""

    @pytest.mark.parametrize("message, name", [
        (Message(0, 1, 2, ["1.5"], [True]), "x_shared"),
        (Message(0, 1, 2, [1.5], [True]), "lam_shared"),
        (Message(0, 1, 2, [1.5], None), "lam_shared"),
        (Message(0, 1, 2, [[1.5]], [1.0]), "x_shared"),
        (Message(0.7, 1, 2, [1.5], [1.0]), "round_index"),
        (Message(True, 1, 2, [1.5], [1.0]), "round_index"),
        (Message(-1, 1, 2, [1.5], [1.0]), "round_index"),
        (Message(0, 0, 2, [1.5], [1.0]), "sender"),
        (Message(0, 1, "2", [1.5], [1.0]), "receiver"),
    ])
    def test_rejected_before_the_file_opens(self, tmp_path, message, name):
        good = Message(0, 1, 2, np.array([1.5]), np.array([0.5]))
        path = tmp_path / "messages.csv"
        with pytest.raises(InvalidInputError, match=rf"messages\[1\]\.{name}"):
            write_message_log_csv([good, message], path)
        assert not path.exists()

    def test_non_finite_payloads_are_written(self, tmp_path):
        path = tmp_path / "messages.csv"
        write_message_log_csv([Message(0, 1, 2, [np.nan], [np.inf]),
                               Message(np.int64(3), 2, 1, [-0.0, 1], [2.5, -np.inf])], path)
        assert path.read_text(encoding="utf-8").splitlines()[1:] == [
            "0,1,2,nan;inf", "3,2,1,-0;1;2.5;-inf"]
