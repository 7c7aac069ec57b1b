"""Promises of the README as properties over random problems.

Each property runs on ``conftest.random_problem`` instances drawn by
seed, in both execution modes.  An instance that breaks a property is a
finding to report, so none is filtered out.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import random_problem
from pcons.dynamics import initial_state, integrate
from pcons.network import run_decentralized

RUNS = {"centralized": integrate, "decentralized": run_decentralized}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), method=st.sampled_from(["euler", "rk4"]),
       mode=st.sampled_from(sorted(RUNS)), kkt_tol=st.sampled_from([1e-6, 0.05, 0.5, 5.0]))
def test_stop_reason_is_kkt_converged_exactly_at_the_tolerance(seed, method, mode, kkt_tol):
    """``integrate``'s docstring: the run stops with ``"kkt_converged"``
    when the largest residual component is at most ``kkt_tol``, and with
    ``"t_max"`` otherwise."""
    rng = np.random.default_rng(seed)
    problem = random_problem(rng)
    run = RUNS[mode](problem, initial_state(problem, "random", rng), h=1e-2, method=method,
                     t_max=0.2, kkt_tol=kkt_tol)
    converged = max(run.final_residual.as_tuple()) <= kkt_tol
    assert run.stop_reason == ("kkt_converged" if converged else "t_max")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.sampled_from([1e-3, 1e-2, 5e-2]))
def test_a_run_started_inside_the_boxes_stays_inside(seed, h):
    """README "Scope": the projection-based flow keeps iterates inside the
    boxes once they are there, for both methods in both modes."""
    rng = np.random.default_rng(seed)
    problem = random_problem(rng)
    init = initial_state(problem, "random", rng)
    for method in ("euler", "rk4"):
        for run in RUNS.values():
            violations = run(problem, init, h=h, method=method, t_max=50 * h,
                             kkt_tol=1e-9).box_violations
            assert violations == [0.0] * len(violations), (method, run.__name__)
