"""The ``Agent`` API reads what it is given: neighbor entries, the depth
and state a payload is cut from, and the finiteness of the state and
payloads one agent's velocity is computed on (example2's agent 2, of
dimension 2 with one constraint, depth 1 and neighbors 1 and 3)."""
import numpy as np
import pytest

from pcons.errors import InvalidInputError, ProtocolError
from pcons.network import build_agents, synchronous_round


def _received(agents, agent):
    return {j: agents[j].payload() for j, _ in agent.neighbors}


def _round(agents):
    synchronous_round(agents, 1e-3, "euler")


@pytest.mark.parametrize("entry", ["synchronous_round", "local_velocity"])
@pytest.mark.parametrize("neighbors", [((1,),), ((1, 1.0, 2),), (1, 2), None, 3])
def test_a_neighbor_that_is_not_a_pair_is_a_protocol_error(example2, entry, neighbors):
    agents = build_agents(example2.problem)
    agent = agents[1]
    received = _received(agents, agent)
    agent.neighbors = neighbors
    with pytest.raises(ProtocolError, match=r"^agent 2's neighbors must be \(index, weight\)"):
        if entry == "synchronous_round":
            _round(agents)
        else:
            agent.local_velocity(agent.x, agent.lam, agent.mu, received)
    assert all(a.round_index == 0 for a in agents)


class TestPayloadReadsItsDepthAndState:
    @pytest.mark.parametrize("depth", [1.5, 5, 0, True, "1"])
    def test_a_depth_the_agent_cannot_cut_is_a_protocol_error(self, example2, depth):
        agent = build_agents(example2.problem)[1]
        agent.depth = depth
        with pytest.raises(ProtocolError, match=r"^agent 2's depth"):
            agent.payload()

    @pytest.mark.parametrize("name, value", [
        ("x", "ab"), ("x", [1.0]), ("x", [1.0, 2.0, 3.0]), ("x", [[1.0, 2.0]]),
        ("lam", [True, False]), ("lam", [1.0]), ("lam", "ab"),
    ])
    def test_a_state_that_is_not_the_agents_is_invalid_input(self, example2, name, value):
        agent = build_agents(example2.problem)[1]
        with pytest.raises(InvalidInputError, match=r"^agent 2 (x|lambda) must"):
            agent.payload(**{name: value})
        setattr(agent, name, value)  # the agent's own state is read the same way
        with pytest.raises(InvalidInputError, match=r"^agent 2 (x|lambda) must"):
            agent.payload()

    def test_an_override_is_cut_into_float_copies(self, example2):
        agent = build_agents(example2.problem)[1]
        x, lam = [1, 2.0], np.array([3.0, 4.0])
        px, pl = agent.payload(x=x, lam=lam)
        assert px.dtype == pl.dtype == np.float64
        assert px.tolist() == [1.0] and pl.tolist() == [3.0]
        pl[0] = 9.0
        assert lam[0] == 3.0
        own_x, own_lam = agent.payload()
        assert own_x.tolist() == [0.0] and own_lam.tolist() == [0.0]
        assert not np.shares_memory(own_x, agent.x)


class TestLocalVelocityRejectsNonFiniteInput:
    @pytest.mark.parametrize("name, value, where", [
        ("x", [np.nan, 1.0], "x_1"), ("x", [1.0, np.inf], "x_2"),
        ("lam", [0.0, -np.inf], "lambda_2"), ("mu", [np.nan], "mu_1"),
    ])
    def test_an_own_entry_in_the_rounds_wording(self, example2, name, value, where):
        agents = build_agents(example2.problem)
        agent = agents[1]
        state = {"x": agent.x, "lam": agent.lam, "mu": agent.mu, name: np.array(value)}
        with pytest.raises(InvalidInputError) as own:
            agent.local_velocity(state["x"], state["lam"], state["mu"], _received(agents, agent))
        assert str(own.value) == f"agent 2, {where} must be finite"
        setattr(agent, name, np.array(value))
        with pytest.raises(InvalidInputError) as stacked:
            _round(agents)
        assert str(stacked.value) == str(own.value)

    @pytest.mark.parametrize("sender, part", [(0, 0), (2, 0), (0, 1), (2, 1)])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_a_received_part_names_the_sender_and_receiver(self, example2, sender, part,
                                                           value):
        agents = build_agents(example2.problem)
        agent = agents[1]
        received = _received(agents, agent)
        parts = list(received[sender])
        parts[part] = np.array([value])
        received[sender] = tuple(parts)
        name = ("x", "lambda")[part]
        with pytest.raises(ProtocolError, match=rf"^agent 2 received a payload from agent "
                           rf"{sender + 1} whose {name} part must be finite"):
            agent.local_velocity(agent.x, agent.lam, agent.mu, received)

    def test_finite_input_is_still_computed(self, example2):
        agents = build_agents(example2.problem)
        agent = agents[1]
        dx, dlam, dmu, g = agent.local_velocity(agent.x, agent.lam, agent.mu,
                                                _received(agents, agent))
        assert all(np.isfinite(v).all() for v in (dx, dlam, dmu, g))
