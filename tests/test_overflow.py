"""An ``exp`` that overflows inside a run is reported once, as a
``NumericalError`` that names the entry, with no RuntimeWarning."""
import warnings

import numpy as np
import pytest

from pcons import convex
from pcons.dynamics import (
    AgentProblem, ProblemInstance, SolverState, integrate, kkt_residual, rhs, step,
)
from pcons.errors import NumericalError
from pcons.network import build_agents, run_decentralized, synchronous_round


@pytest.fixture
def overflowing():
    """One agent minimizing exp(x1) from x1 = 750, where exp overflows."""
    problem = ProblemInstance([AgentProblem(convex.exponential(1, 0))], [[0.0]], 1)
    return problem, SolverState(np.array([750.0]), np.zeros(1), np.zeros(0))


@pytest.fixture
def no_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("run", [integrate, run_decentralized])
def test_runs_raise_without_warnings(overflowing, no_warning, run):
    problem, init = overflowing
    with pytest.raises(NumericalError, match="non-finite state produced at t=0.001: agent 1, x_1"):
        run(problem, init, h=1e-3, t_max=1.0)


def test_step_and_round_raise_without_warnings(overflowing, no_warning):
    problem, init = overflowing
    with pytest.raises(NumericalError, match="agent 1, x_1"):
        step(init, problem, 1e-3)
    with pytest.raises(NumericalError, match="agent 1, x_1"):
        synchronous_round(build_agents(problem, init), 1e-3)


def test_rhs_and_residual_without_warnings(overflowing, no_warning):
    problem, init = overflowing
    with pytest.raises(NumericalError, match="non-finite velocity at t=0.0: agent 1, x_1"):
        rhs(init, problem)
    assert not np.isfinite(kkt_residual(init, problem).stationarity)


def test_the_callers_error_state_is_kept(overflowing):
    problem, init = overflowing
    with np.errstate(over="raise", invalid="warn"):
        with pytest.raises(NumericalError):
            integrate(problem, init, h=1e-3, t_max=1.0)
        assert np.geterr()["over"] == "raise" and np.geterr()["invalid"] == "warn"
        with pytest.raises(FloatingPointError):
            np.exp(np.array([750.0]))
