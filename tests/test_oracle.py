"""Grid-oracle ground truth, independent of the flow."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pcons
from pcons import convex, oracle
from pcons.dynamics import AgentProblem, ProblemInstance
from pcons.errors import InvalidInputError
from pcons.oracle import MAX_GRID_POINTS, _axis, brute_force_solve


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


# -- the whole-mesh search, kept as the reference for the blocked scan ------


def _reference_search(problem, shared_axes, free_axes_per_agent):
    """Best value over the product of the given axes; None when infeasible.

    The oracle's search before the blocked scan: every agent's whole
    S x P x dim point grid at once.
    """
    depth = problem.depth
    shared_mesh = np.stack(
        [m.ravel() for m in np.meshgrid(*shared_axes, indexing="ij")], axis=-1
    )  # (S, depth)
    S = shared_mesh.shape[0]
    total = np.zeros(S)
    argmins = []
    for agent, free_axes in zip(problem.agents, free_axes_per_agent):
        if free_axes:
            free_mesh = np.stack(
                [m.ravel() for m in np.meshgrid(*free_axes, indexing="ij")], axis=-1
            )  # (P, n_free)
        else:
            free_mesh = np.zeros((1, 0))
        P = free_mesh.shape[0]
        if S * P > MAX_GRID_POINTS:
            raise InvalidInputError(
                f"grid too fine: {S}x{P} evaluations for one agent exceeds {MAX_GRID_POINTS}"
            )
        pts = np.empty((S, P, agent.dim))
        pts[:, :, :depth] = shared_mesh[:, None, :]
        if free_mesh.shape[1]:
            pts[:, :, depth:] = free_mesh[None, :, :]
        values = agent.objective.value_many(pts)
        feasible = np.ones((S, P), dtype=bool)
        for comp in agent.constraints.components:
            feasible &= comp.value_many(pts) <= 0.0
        values = np.where(feasible, values, np.inf)
        best_idx = np.argmin(values, axis=1)
        best_val = values[np.arange(S), best_idx]
        total += best_val
        argmins.append(free_mesh[best_idx])  # (S, n_free)
    if not np.any(np.isfinite(total)):
        return None
    s_best = int(np.argmin(total))
    point = np.empty(problem.total_dim)
    for i, agent in enumerate(problem.agents):
        s = problem.block(i)
        point[s][:depth] = shared_mesh[s_best]
        point[s][depth:] = argmins[i][s_best]
    return point, float(total[s_best])


def _same_bits(found, expected):
    if expected is None:
        return found is None
    return (
        found is not None
        and found[0].tobytes() == expected[0].tobytes()
        and np.float64(found[1]).tobytes() == np.float64(expected[1]).tobytes()
    )


def _assert_search_matches_reference(problem, shared_axes, free_axes_per_agent, block):
    expected = _reference_search(problem, shared_axes, free_axes_per_agent)
    with mock.patch.object(oracle, "_BLOCK_POINTS", block):
        found = oracle._search(problem, shared_axes, free_axes_per_agent)
    assert _same_bits(found, expected), (found, expected)


def _path_laplacian(n):
    lap = np.zeros((n, n))
    for i in range(n - 1):
        lap[i, i] += 1.0
        lap[i + 1, i + 1] += 1.0
        lap[i, i + 1] = lap[i + 1, i] = -1.0
    return lap


def _grid_axis(lo, step, n):
    return lo + step * np.arange(n)


_HALVES = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])


@st.composite
def _expressions(draw, dim):
    """Sums of atoms with coarse coefficients, so grid values often tie."""
    expr = convex.affine([draw(st.sampled_from([-1.0, 0.0, 1.0])) for _ in range(dim)],
                         draw(_HALVES))
    for k in range(dim):
        family = draw(st.sampled_from(["none", "quad", "abs", "exp"]))
        weight = draw(st.sampled_from([0.5, 1.0, 2.0]))
        if family == "quad":
            expr = expr + convex.quadratic(dim, k, center=draw(_HALVES), weight=weight)
        elif family == "abs":
            expr = expr + convex.absolute(dim, k, center=draw(_HALVES), weight=weight)
        elif family == "exp":
            expr = expr + convex.exponential(dim, k, weight=weight)
    return expr


@st.composite
def _search_cases(draw):
    depth = draw(st.integers(1, 2))
    frees = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    agents = []
    for n_free in frees:
        dim = depth + n_free
        constraints = tuple(
            draw(_expressions(dim)) for _ in range(draw(st.integers(0, 2)))
        )
        agents.append(AgentProblem(
            objective=draw(_expressions(dim)),
            constraints=convex.ConstraintMap(constraints),
        ))
    problem = ProblemInstance(agents, _path_laplacian(len(agents)), depth)

    def axes(n):
        return [
            _grid_axis(draw(_HALVES), draw(st.sampled_from([0.25, 0.5, 1.0 / 3.0])),
                       draw(st.integers(1, 6)))
            for _ in range(n)
        ]

    shared_axes = axes(depth)
    free_axes_per_agent = [axes(n_free) for n_free in frees]
    block = draw(st.integers(1, 80))
    return problem, shared_axes, free_axes_per_agent, block


@settings(max_examples=200, deadline=None)
@given(_search_cases())
def test_blocked_search_matches_whole_mesh_reference(case):
    _assert_search_matches_reference(*case)


def _one_free_agent(constraints=()):
    return AgentProblem(
        objective=convex.quadratic(2, 0, center=0.4) + convex.absolute(2, 1, center=0.5),
        constraints=convex.ConstraintMap(tuple(constraints)),
    )


def test_blocked_search_infeasible_rows_and_blocks():
    # x0 <= 0.5 leaves shared rows 5..8 infeasible; with 2 rows per block
    # the blocks [6, 8) and [8, 9) are fully infeasible and S = 9 splits
    # unevenly; x0 + x1 <= 1.2 cuts single points out of the other rows
    problem = ProblemInstance(
        [
            _one_free_agent([convex.affine([1.0, 0.0], -0.5),
                             convex.affine([1.0, 1.0], -1.2)]),
            AgentProblem(objective=convex.quadratic(1, 0, center=0.9)),
        ],
        _path_laplacian(2),
        1,
    )
    shared = [_grid_axis(0.0, 0.125, 9)]
    free = [[_grid_axis(0.0, 0.25, 5)], []]
    for block in (10, 11, 7, 45, 46, 1000):
        _assert_search_matches_reference(problem, shared, free, block)


def test_blocked_search_fully_infeasible_is_none():
    problem = ProblemInstance(
        [_one_free_agent([convex.affine([1.0, 0.0], 5.0)])], np.zeros((1, 1)), 1
    )
    shared, free = [_grid_axis(0.0, 0.25, 5)], [[_grid_axis(0.0, 0.25, 5)]]
    with mock.patch.object(oracle, "_BLOCK_POINTS", 10):
        assert oracle._search(problem, shared, free) is None


def test_blocked_search_ties_keep_the_first_index():
    # a constant objective ties every point; |x1 - 0.5| ties 0.25 and 0.75
    flat = AgentProblem(objective=convex.affine([0.0, 0.0], 1.0))
    problem = ProblemInstance(
        [flat, _one_free_agent()], _path_laplacian(2), 1
    )
    shared = [_grid_axis(0.0, 0.25, 5)]
    free = [[_grid_axis(-1.0, 0.5, 4)], [_grid_axis(0.25, 0.5, 2)]]
    for block in (1, 3, 4, 8, 9, 100):
        _assert_search_matches_reference(problem, shared, free, block)
    with mock.patch.object(oracle, "_BLOCK_POINTS", 3):
        point, _ = oracle._search(problem, shared, free)
    assert point[1] == -1.0 and point[3] == 0.25


def test_blocked_search_free_mesh_larger_than_a_block():
    # P = 6 * 5 = 30 points per shared row against blocks of 1..29 points:
    # one shared row per block
    problem = ProblemInstance(
        [AgentProblem(
            objective=convex.quadratic(3, 1, center=0.3) + convex.absolute(3, 2, center=0.6),
            constraints=convex.ConstraintMap((convex.affine([1.0, 1.0, 1.0], -1.5),)),
        )],
        np.zeros((1, 1)),
        1,
    )
    shared = [_grid_axis(0.0, 0.2, 6)]
    free = [[_grid_axis(0.0, 0.2, 6), _grid_axis(0.0, 0.25, 5)]]
    for block in (1, 7, 29, 30, 31, 59, 60, 61):
        _assert_search_matches_reference(problem, shared, free, block)


def test_blocked_search_depth_two_and_agents_without_free_coordinates():
    agents = [
        AgentProblem(objective=convex.quadratic(2, 0, center=0.3)
                     + convex.absolute(2, 1, center=0.5)),
        AgentProblem(
            objective=convex.exponential(3, 2) + convex.quadratic(3, 1, center=0.7),
            constraints=convex.ConstraintMap((convex.affine([1.0, 1.0, 1.0], -1.4),)),
        ),
    ]
    problem = ProblemInstance(agents, _path_laplacian(2), 2)
    shared = [_grid_axis(0.0, 0.25, 5), _grid_axis(0.0, 1.0 / 3.0, 4)]
    free = [[], [_grid_axis(-0.5, 0.5, 4)]]
    for block in (1, 3, 5, 7, 19, 20, 21, 80, 81):
        _assert_search_matches_reference(problem, shared, free, block)


@pytest.mark.parametrize("grid, refine", [(0.05, 2), (0.02, 1)])
def test_brute_force_matches_whole_mesh_reference_on_two_agents(grid, refine):
    # agents of dimension 2 and 3 sharing one coordinate, abs/quad/exp
    # objectives and one constraint each
    problem = ProblemInstance(
        [
            AgentProblem(
                objective=convex.quadratic(2, 0, center=-0.2) + convex.absolute(2, 1, center=0.3),
                constraints=convex.ConstraintMap((convex.affine([1.0, 1.0], -0.6),)),
                box=convex.Box(np.array([-0.6, -1.0]), np.array([0.4, 0.9])),
            ),
            AgentProblem(
                objective=convex.absolute(3, 0, center=0.1, weight=0.5)
                + convex.quadratic(3, 1, center=0.25) + convex.exponential(3, 2, weight=0.3),
                constraints=convex.ConstraintMap((convex.quadratic(3, 2, center=-0.5)
                                                  + convex.affine([0.0, 0.5, 0.0], -0.4),)),
                box=convex.Box(np.array([-0.6, -0.8, -1.2]), np.array([0.4, 1.1, 0.3])),
            ),
        ],
        _path_laplacian(2),
        1,
    )
    with mock.patch.object(oracle, "_search", _reference_search):
        expected = brute_force_solve(problem, grid=grid, refine=refine)
    assert _same_bits(brute_force_solve(problem, grid=grid, refine=refine), expected)


@pytest.mark.parametrize("grid, refine", [(1e-2, 1), (1e-3, 0), (2e-3, 2)])
def test_brute_force_matches_whole_mesh_reference_on_example2(example2, grid, refine):
    with mock.patch.object(oracle, "_search", _reference_search):
        expected = brute_force_solve(example2.problem, grid=grid, refine=refine)
    assert _same_bits(brute_force_solve(example2.problem, grid=grid, refine=refine), expected)


def test_brute_force_memory_is_bounded_by_the_block():
    # the first agent's mesh is 1414 x 1414 (about 2.0M points); scanning
    # the whole S x P x dim grid at once peaked at about 90 MB (tracemalloc)
    problem = ProblemInstance(
        [
            AgentProblem(
                objective=convex.quadratic(2, 0, center=0.3) + convex.absolute(2, 1, center=0.6),
                constraints=convex.ConstraintMap((convex.affine([1.0, 1.0], -1.2),)),
                box=convex.Box(np.zeros(2), np.ones(2)),
            ),
            AgentProblem(
                objective=convex.quadratic(1, 0, center=0.5),
                box=convex.Box(np.zeros(1), np.ones(1)),
            ),
        ],
        _path_laplacian(2),
        1,
    )
    tracemalloc.start()
    try:
        _, value = brute_force_solve(problem, grid=1.0 / 1413)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_grid_limit_checked_before_any_evaluation(monkeypatch):
    # the first agent's mesh (11 points) is under the limit, the second's
    # (11 x 11) over it: the call must raise before evaluating the first
    problem = ProblemInstance(
        [
            AgentProblem(objective=convex.quadratic(1, 0, center=0.5),
                         box=convex.Box(np.zeros(1), np.ones(1))),
            AgentProblem(objective=convex.quadratic(2, 1, center=0.5),
                         box=convex.Box(np.zeros(2), np.ones(2))),
        ],
        _path_laplacian(2),
        1,
    )
    calls = []
    real = convex.ConvexExpr.value_many
    monkeypatch.setattr(oracle, "MAX_GRID_POINTS", 100)
    monkeypatch.setattr(convex.ConvexExpr, "value_many",
                        lambda self, pts: calls.append(pts.shape) or real(self, pts))
    with pytest.raises(InvalidInputError,
                       match=r"grid too fine: 11x11 evaluations for one agent exceeds 100"):
        brute_force_solve(problem, grid=0.1)
    assert calls == []


@pytest.mark.parametrize("grid", [float("nan"), float("inf"), -1e-3, 0.0])
def test_grid_must_be_finite_and_positive(example2, grid):
    with pytest.raises(InvalidInputError, match="grid step"):
        brute_force_solve(example2.problem, grid=grid)


@pytest.mark.parametrize("refine", [-3, -1, 1.5, True, "2"])
def test_refine_must_be_a_nonnegative_integer(example2, refine):
    with pytest.raises(InvalidInputError, match="refine"):
        brute_force_solve(example2.problem, grid=1e-2, refine=refine)


def test_axis_too_fine_is_refused_before_allocation(example2):
    with pytest.raises(InvalidInputError, match="grid too fine"):
        brute_force_solve(example2.problem, grid=1e-300)


def test_refine_past_the_normal_floats_is_refused_up_front(example2, recwarn):
    with mock.patch.object(oracle, "_search", side_effect=AssertionError("searched")):
        with pytest.raises(InvalidInputError, match=r"refine 330 .* grid 0\.01"):
            brute_force_solve(example2.problem, grid=1e-2, refine=330)
    assert not recwarn.list


def test_refine_that_stays_normal_still_runs(example2):
    _, value = brute_force_solve(example2.problem, grid=1e-2, refine=300)
    assert value == pytest.approx(0.75, abs=1e-9)
