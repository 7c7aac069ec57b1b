"""Grid-oracle ground truth, independent of the flow."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pcons
from pcons import convex
from pcons.dynamics import AgentProblem, ProblemInstance
from pcons.errors import InvalidInputError
from pcons.oracle import _axis, brute_force_solve


def test_single_agent_quadratic():
    p = ProblemInstance(
        [AgentProblem(
            objective=convex.quadratic(1, 0, center=1.5),
            box=convex.Box(np.array([1.0]), np.array([2.0])),
        )],
        np.zeros((1, 1)),
        1,
    )
    point, value = brute_force_solve(p, grid=1e-3)
    assert point[0] == pytest.approx(1.5, abs=1e-9)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_example2_optimum(example2):
    point, value = brute_force_solve(example2.problem, grid=1e-3)
    # shared component 1.0; free components at the smooth/kink minima
    assert point[0] == pytest.approx(1.0, abs=1e-9)
    assert point[1] == pytest.approx(1.0, abs=1e-9)
    assert point[3] == pytest.approx(1.0, abs=1e-9)
    assert point[2] == pytest.approx(1.5, abs=1e-9)
    assert point[4] == pytest.approx(1.5, abs=1e-9)
    assert value == pytest.approx(0.75, abs=1e-12)
    # every constraint is satisfied at the reported point
    assert np.all(example2.problem.constraint_values(point) <= 1e-12)


def test_reported_point_objective_mismatch(example2):
    # direct evaluation at the externally reported solution point gives
    # roughly 0.8674, which is neither the claimed optimal value 1.4532
    # nor as good as the grid optimum 0.75
    reported = np.array([1.0536, 1.0536, 1.5858, 1.0536, 1.5])
    value = example2.problem.objective_value(reported)
    assert value == pytest.approx(0.86743461, abs=1e-6)
    assert abs(value - 1.4532) > 0.5
    _, oracle_value = brute_force_solve(example2.problem, grid=1e-2)
    assert oracle_value < value


def test_refinement_improves_offgrid_optimum():
    # minimum at 1.4995 is off the coarse grid; refinement recovers it
    p = ProblemInstance(
        [AgentProblem(
            objective=convex.quadratic(1, 0, center=1.4995),
            box=convex.Box(np.array([1.0]), np.array([2.0])),
        )],
        np.zeros((1, 1)),
        1,
    )
    point_coarse, value_coarse = brute_force_solve(p, grid=1e-2)
    point_fine, value_fine = brute_force_solve(p, grid=1e-2, refine=2)
    assert value_fine <= value_coarse
    assert point_fine[0] == pytest.approx(1.4995, abs=1e-4)


def test_infeasible_grid_point_rejection():
    # constraint x1 >= 1.6 (as -x1 + 1.6 <= 0) pushes the optimum off 1.5
    p = ProblemInstance(
        [AgentProblem(
            objective=convex.quadratic(1, 0, center=1.5),
            constraints=convex.ConstraintMap((convex.affine([-1.0], 1.6),)),
            box=convex.Box(np.array([1.0]), np.array([2.0])),
        )],
        np.zeros((1, 1)),
        1,
    )
    point, value = brute_force_solve(p, grid=1e-3)
    assert point[0] == pytest.approx(1.6, abs=1e-9)
    assert value == pytest.approx(0.01, abs=1e-9)


def test_unbounded_box_rejected():
    p = ProblemInstance(
        [AgentProblem(objective=convex.quadratic(1, 0, center=1.5))],
        np.zeros((1, 1)),
        1,
    )
    with pytest.raises(InvalidInputError):
        brute_force_solve(p, grid=1e-2)


def test_reduced_dimension_guard():
    agents = [
        AgentProblem(
            objective=convex.quadratic(3, 0),
            box=convex.Box(np.zeros(3), np.ones(3)),
        )
        for _ in range(3)
    ]
    lap = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    p = ProblemInstance(agents, lap, 1)  # reduced dim = 1 + 2*3 = 7
    with pytest.raises(InvalidInputError):
        brute_force_solve(p, grid=0.5)


def test_matches_flow_on_smooth_separable_problem():
    # two agents, pure quadratics: the flow and the oracle must agree
    lap = np.array([[1.0, -1], [-1, 1]])
    agents = [
        AgentProblem(
            objective=convex.quadratic(2, 0, center=0.3) + convex.quadratic(2, 1, center=0.8),
            box=convex.Box(np.zeros(2), np.ones(2)),
        ),
        AgentProblem(
            objective=convex.quadratic(2, 0, center=0.7) + convex.quadratic(2, 1, center=0.2),
            box=convex.Box(np.zeros(2), np.ones(2)),
        ),
    ]
    p = ProblemInstance(agents, lap, 1)
    _, oracle_value = brute_force_solve(p, grid=1e-3)
    traj = pcons.integrate(p, h=1e-3, kkt_tol=1e-8, t_max=50.0)
    assert traj.stop_reason == "kkt_converged"
    assert p.objective_value(traj.final.x) == pytest.approx(oracle_value, abs=1e-5)


@settings(max_examples=500, deadline=None)
@given(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(1e-6, 1e3, allow_nan=False),
    st.floats(1e-4, 1.0, allow_nan=False),
)
def test_axis_points_stay_in_the_box(lo, width, step):
    hi = lo + width
    pts = _axis(lo, hi, step)
    assert pts[0] == lo and pts[-1] <= hi
    assert np.all(pts >= lo) and np.all(pts <= hi)


def test_axis_clamps_the_rounded_last_point():
    # 0.1 + 0.1*2 rounds to 0.30000000000000004, past hi = 0.3
    pts = _axis(0.1, 0.3, 0.1)
    assert pts[-1] == 0.3 and np.all(pts <= 0.3)
