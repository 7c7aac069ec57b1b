"""The README's last two promises about a run, as properties.

* Descent: along ``integrate`` with kink capture, the descent function
  against the converged point does not increase by more than c*h^2 in a
  step.  On example2 the largest increase measured, over zero and random
  starts, both methods and h from 1e-3 to 1e-2, was 1.1e-10*h^2 (h = 1e-3;
  every step decreased at the larger h), so c = 1e-6 leaves room for
  rounding only.  On random instances whose solution has a coordinate on
  its box bound the descent function rises at a rate that does not shrink
  with h; the instance below pins that down.
* Flow against the oracle: on random bounded instances of reduced
  dimension at most 3, a run that reaches ``kkt_tol`` has an objective of
  at most the oracle value plus 1e-6 and at least the oracle value minus
  a grid-Lipschitz bound.  An instance the oracle refuses has no
  consensus point, and no run on it reaches ``kkt_tol``.
"""
import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import random_problem
from pcons.dynamics import initial_state, integrate, lyapunov_value
from pcons.errors import InvalidInputError
from pcons.oracle import brute_force_solve

#: largest increase of the descent function per step, in units of h^2
DESCENT_C = 1e-6

#: grid step of the oracle in the flow-against-oracle property
GRID = 2e-2


def descent_increases(problem, run, reference):
    values = np.array([lyapunov_value(s, reference, problem).total for s in run.states])
    return np.diff(values)


@settings(max_examples=20, deadline=None)
@given(init_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
       method=st.sampled_from(["euler", "rk4"]), h=st.sampled_from([1e-2, 5e-3, 2e-3]))
def test_descent_on_example2(example2, example2_run_tight, init_seed, method, h):
    problem = example2.problem
    init = None
    if init_seed is not None:
        init = initial_state(problem, "random", np.random.default_rng(init_seed))
    run = integrate(problem, init, h=h, method=method, t_max=200 * h, kkt_tol=1e-9)
    assert descent_increases(problem, run, example2_run_tight.final).max() <= DESCENT_C * h * h


@pytest.mark.xfail(strict=True, reason="the descent function rises along the flow when a "
                                       "coordinate sits on its box bound")
def test_descent_on_a_random_instance_with_a_bound_active():
    """``conftest.random_problem`` seed 4 (two agents of dimension at most
    2): the converged point has x_1 and x_4 on their upper bounds, and
    at h = 1e-2 the descent function rises by up to 0.11 in a step (0.053
    at h = 5e-3), against c*h^2 = 1e-10."""
    rng = np.random.default_rng(4)
    problem = random_problem(rng, max_agents=2, max_dim=2)
    init = initial_state(problem, "random", rng)
    reference = integrate(problem, init, h=1e-2, method="rk4", t_max=100.0, kkt_tol=1e-7)
    assert reference.stop_reason == "kkt_converged"
    h = 1e-2
    run = integrate(problem, init, h=h, method="rk4", t_max=200 * h, kkt_tol=1e-9)
    assert descent_increases(problem, run, reference.final).max() <= DESCENT_C * h * h


def grid_lipschitz_bound(problem, grid):
    """``grid`` times a Lipschitz constant of the summed objective on the
    boxes in the 1-norm.  The atoms act on one coordinate each, so a
    coordinate's one-sided derivatives grow along its axis and are largest
    in size at the box ends."""
    total = 0.0
    for agent in problem.agents:
        left = agent.objective.subgradient_interval(agent.box.lower)[0]
        right = agent.objective.subgradient_interval(agent.box.upper)[1]
        total += float(np.maximum(np.abs(left), np.abs(right)).sum())
    return grid * total


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(2, 2), (3, 1)]),
       method=st.sampled_from(["euler", "rk4"]))
def test_flow_against_the_oracle(seed, shape, method):
    """Two agents of dimension at most 2, or three of dimension 1, share
    one coordinate at depth 1 or all of them: the reduced dimension is at
    most 3.  Over 86 feasible instances drawn this way the run reached
    ``kkt_tol`` in 47, was at most 7.9e-8 above the oracle, and used at
    most 0.16 of the lower bound."""
    rng = np.random.default_rng(seed)
    max_agents, max_dim = shape
    problem = random_problem(rng, max_agents=max_agents, max_dim=max_dim)
    run = integrate(problem, initial_state(problem, "random", rng), h=1e-2, method=method,
                    t_max=30.0, kkt_tol=1e-6)
    converged = run.stop_reason == "kkt_converged"
    event(f"converged: {converged}")
    try:
        _, oracle_value = brute_force_solve(problem, grid=GRID)
    except InvalidInputError as exc:
        event("oracle refused the instance")
        assert not converged, exc
        return
    if converged:
        objective = problem.objective_value(run.final.x)
        assert objective <= oracle_value + 1e-6
        assert objective >= oracle_value - grid_lipschitz_bound(problem, GRID)
