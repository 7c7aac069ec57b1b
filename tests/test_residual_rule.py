"""One rule for the largest KKT residual: NaN when any residual is NaN,
else the largest.  ``KKTResidual.max_component``, the stop test of ``_drive``
and the descent function's reference check all use it, so a NaN residual
passes no tolerance, wherever it sits among the four."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcons import dynamics
from pcons.dynamics import KKTResidual, SolverState, initial_state, integrate, lyapunov_value
from pcons.errors import InvalidInputError
from pcons.network import run_decentralized

residuals = st.floats(0.0, None, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(values=st.tuples(residuals, residuals, residuals, residuals))
def test_finite_residuals_keep_their_largest_float(values):
    largest = KKTResidual(*values).max_component
    assert largest is max(values)


@pytest.mark.parametrize("where", range(4))
def test_a_nan_residual_is_the_largest_wherever_it_sits(where):
    values = [0.0, 1e-9, math.inf, 0.5]
    values[where] = math.nan
    assert math.isnan(KKTResidual(*values).max_component)


def test_kkt_residual_max_component_with_a_nan_after_the_first():
    assert math.isnan(KKTResidual(0.0, math.nan, 0.0, 0.0).max_component)


@pytest.mark.parametrize("run", [integrate, run_decentralized])
@pytest.mark.parametrize("where", range(4))
def test_a_nan_residual_does_not_stop_the_run(example2, run, where):
    """With the other three residuals at zero, a run whose residuals
    read NaN goes on to ``t_max`` instead of stopping as converged."""
    residual = [0.0] * 4
    residual[where] = math.nan
    with mock.patch.object(dynamics, "_residual_norms", return_value=tuple(residual)):
        trajectory = run(example2.problem, h=1e-3, method="euler", t_max=0.003, kkt_tol=1e-6)
    assert (trajectory.stop_reason, trajectory.total_steps) == ("t_max", 3)
    assert math.isnan(trajectory.final_residual.max_component)


def test_a_reference_with_a_nan_residual_is_refused(example2):
    """example2 at x3 = 1000: exp(1000) overflows, so the reference's
    residual is (nan, 0, inf, inf)."""
    p = example2.problem
    x = np.zeros(p.total_dim)
    x[2] = 1000.0
    reference = SolverState(x, np.zeros(p.total_dim), np.zeros(p.multiplier_dim), 0.0)
    with pytest.raises(InvalidInputError, match="reference point has residual nan"):
        lyapunov_value(initial_state(p), reference, p)


def test_a_reference_with_a_nan_residual_after_the_first_is_refused(example2_run_tight, example2):
    """The reference check reads the rule too, not ``max`` of the four."""
    p = example2.problem
    reference = example2_run_tight.final
    lyapunov_value(initial_state(p), reference, p)
    with mock.patch.object(dynamics, "_residual_norms", return_value=(0.0, 0.0, math.nan, 0.0)):
        with pytest.raises(InvalidInputError, match="reference point has residual nan"):
            lyapunov_value(initial_state(p), reference, p)
