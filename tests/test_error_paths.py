"""Error paths and small methods that no other test reaches, each with
the error or value its docstring or message promises."""
import json
import operator

import numpy as np
import pytest

import pcons
from pcons import convex
from pcons.cli import main
from pcons.dynamics import AgentProblem, ProblemInstance
from pcons.errors import ExpressionError, InvalidInputError
from pcons.network import MessageLog, run_decentralized, write_message_log_csv
from pcons.oracle import _axis, brute_force_solve
from pcons.pcmatrix import AgentDims, OrderedIndexSet
from pcons.problemfile import parse_problem

EX2 = str(pcons.fixture_path("example2.json"))
QUAD = str(pcons.fixture_path("single_quadratic.json"))


def quadratic_agent(dim, lower=-1.0, upper=1.0, center=0.0):
    objective = convex.ConvexExpr.zero(dim)
    for k in range(dim):
        objective = objective + convex.quadratic(dim, k, center=center)
    return AgentProblem(objective=objective, constraints=convex.no_constraints(),
                        box=convex.Box(np.full(dim, lower), np.full(dim, upper)))


def test_adding_expressions_on_different_spaces():
    with pytest.raises(InvalidInputError, match=r"cannot add expressions on R\^1 and R\^2"):
        convex.affine([1.0]) + convex.affine([1.0, 2.0])


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_an_expression_with_a_string(op):
    with pytest.raises(TypeError):
        op(convex.quadratic(1, 0), "2")


class TestAgentProblem:
    def test_constraints_of_another_dimension(self):
        constraints = convex.ConstraintMap((convex.affine([1.0, 1.0], -1.0),))
        with pytest.raises(InvalidInputError, match=r"constraints on R\^2 attached to an "
                                                    r"objective on R\^1"):
            AgentProblem(objective=convex.quadratic(1, 0), constraints=constraints)

    def test_box_of_another_dimension(self):
        with pytest.raises(InvalidInputError, match=r"box of dimension 2 attached to an "
                                                    r"objective on R\^1"):
            AgentProblem(objective=convex.quadratic(1, 0),
                         box=convex.Box(np.zeros(2), np.ones(2)))


def test_a_problem_needs_an_agent():
    with pytest.raises(InvalidInputError, match="a problem needs at least one agent"):
        ProblemInstance([], np.zeros((0, 0)), 1)


class TestDecentralizedRun:
    def test_disconnected_graph(self):
        problem = ProblemInstance([quadratic_agent(1), quadratic_agent(1)], np.zeros((2, 2)), 1)
        with pytest.raises(InvalidInputError, match="the coupling graph must be connected"):
            run_decentralized(problem, h=1e-2, t_max=0.05)

    def test_one_agent_logs_no_payload(self, tmp_path):
        """A one-agent kernel has no edges: the run goes on and its log stays empty."""
        problem = ProblemInstance([quadratic_agent(2, center=0.5)], np.zeros((1, 1)), 1)
        log = MessageLog()
        trajectory = run_decentralized(problem, h=1e-2, method="rk4", t_max=0.05,
                                       message_log=log)
        assert (trajectory.stop_reason, trajectory.total_steps) == ("t_max", 5)
        assert (len(log), list(log), trajectory.message_count) == (0, [], 0)
        write_message_log_csv(log, tmp_path / "messages.csv")
        assert (tmp_path / "messages.csv").read_text() == "round,sender,receiver,payload\n"


class TestOracle:
    def test_shared_boxes_do_not_intersect(self):
        problem = ProblemInstance([quadratic_agent(1, 0.0, 1.0), quadratic_agent(1, 2.0, 3.0)],
                                  np.array([[1.0, -1.0], [-1.0, 1.0]]), 1)
        with pytest.raises(InvalidInputError, match="shared blocks of the agent boxes do not "
                                                    "intersect"):
            brute_force_solve(problem, grid=0.1)

    def test_no_feasible_grid_point(self):
        agent = AgentProblem(objective=convex.quadratic(1, 0),
                             constraints=convex.ConstraintMap((convex.affine([1.0], -0.55),
                                                               convex.affine([-1.0], 0.54))),
                             box=convex.Box(np.zeros(1), np.ones(1)))
        problem = ProblemInstance([agent], np.zeros((1, 1)), 1)
        with pytest.raises(InvalidInputError, match="no feasible grid point"):
            brute_force_solve(problem, grid=0.1)

    @pytest.mark.parametrize("lo, hi", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)])
    def test_an_unbounded_axis(self, lo, hi):
        """``brute_force_solve`` refuses unbounded boxes before it builds an axis."""
        with pytest.raises(InvalidInputError, match="brute force needs bounded boxes"):
            _axis(lo, hi, 0.1)


class TestCommandLine:
    def test_init_zeros_is_the_default_start(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", EX2, "--out", str(a), "--t-max", "0.003", "--init", "zeros"]) == 2
        assert main(["solve", EX2, "--out", str(b), "--t-max", "0.003"]) == 2
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        first = (a / "trajectory.csv").read_text().splitlines()[1].split(",")
        assert first[:1 + 5 + 5 + 3] == ["0"] * 14

    def test_compare_summary_without_objective(self, tmp_path, capsys):
        summary = tmp_path / "summary.txt"
        summary.write_text("status: kkt_converged\nsteps: 3\n", encoding="utf-8")
        assert main(["oracle", QUAD, "--grid", "0.1", "--compare", str(summary)]) == 1
        assert capsys.readouterr().err == f"error: no 'objective:' line found in {summary}\n"


def test_file_objective_that_is_not_a_string(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"agents": [{"dim": 1, "objective": 3}], "laplacian": [[0]],
                                "consensus_depth": 1}), encoding="utf-8")
    with pytest.raises(ExpressionError, match="agents\\[0\\].objective must be an expression "
                                              "string, got 3"):
        parse_problem(path)


def test_no_agent_dimensions():
    with pytest.raises(InvalidInputError, match=r"dimensions must be positive integers, got \(\)"):
        AgentDims(())


class TestOrderedIndexSet:
    def test_indexing_and_slicing(self):
        s = OrderedIndexSet([3, 1, 2])
        assert (s[0], s[-1], s[1:]) == (3, 2, (1, 2))

    def test_hash_follows_the_entries(self):
        assert hash(OrderedIndexSet([3, 1])) == hash((3, 1))
        assert len({OrderedIndexSet([3, 1]), OrderedIndexSet([3, 1]), OrderedIndexSet([1, 3])}) == 2

    def test_repr(self):
        assert repr(OrderedIndexSet([3, 1])) == "OrderedIndexSet([3, 1])"
        assert repr(OrderedIndexSet()) == "OrderedIndexSet([])"

    @pytest.mark.parametrize("other", [None, 3, "31", {3, 1}])
    def test_not_equal_to_a_non_sequence(self, other):
        s = OrderedIndexSet([3, 1])
        assert s.__eq__(other) is NotImplemented
        assert s != other
