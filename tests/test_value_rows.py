"""The kernel's one value evaluator against the two it replaced, bit for bit:
constraint values and objective values at one state and at a block of states."""
import numpy as np
from hypothesis import example, given, settings, strategies as st

from pcons import convex
from pcons.dynamics import AgentProblem, ProblemInstance, VelocityKernel

from test_kernel import Opaque, assert_bits_equal, instances, listed


def reference_dot_values(groups, x, out):
    """Every value row of ``groups`` at one stacked x, in the order of
    ``ConvexExpr.value``: lin.x + const, then quad, abs and exp."""
    for d in groups["lin"]:
        out[d.rows] = np.vecdot(d.weight, x[d.coord]) + d.const
    for d in groups["quad"]:
        diff = x[d.coord] - d.center
        out[d.rows] += np.vecdot(d.weight, diff * diff)
    for d in groups["abs"]:
        out[d.rows] += np.vecdot(d.weight, np.abs(x[d.coord] - d.center))
    for d in groups["exp"]:
        out[d.rows] += np.vecdot(d.weight, np.exp(x[d.coord]))
    return out


def reference_dot_value_rows(groups, xs, out):
    """``reference_dot_values`` at every row of the (states, total_dim)
    array ``xs``, into the columns of ``out``, each group gathered by
    ``np.take``."""
    for d in groups["lin"]:
        out[:, d.rows] = np.vecdot(d.weight, np.take(xs, d.coord, axis=1)) + d.const
    for d in groups["quad"]:
        diff = np.take(xs, d.coord, axis=1) - d.center
        out[:, d.rows] += np.vecdot(d.weight, diff * diff)
    for d in groups["abs"]:
        out[:, d.rows] += np.vecdot(d.weight, np.abs(np.take(xs, d.coord, axis=1) - d.center))
    for d in groups["exp"]:
        out[:, d.rows] += np.vecdot(d.weight, np.exp(np.take(xs, d.coord, axis=1)))
    return out


def reference_constraint_values(kernel, x):
    return reference_dot_values(kernel.value_dots, x, np.empty(kernel.multiplier_dim))


def reference_objective_values(kernel, x):
    out = reference_dot_values(kernel.objective_dots, x, np.empty(len(kernel.blocks)))
    for i, blk, objective in kernel.opaque:
        out[i] = objective.value(x[blk])
    return out


def reference_objective_value_rows(kernel, xs):
    out = reference_dot_value_rows(kernel.objective_dots, xs,
                                   np.empty((len(xs), len(kernel.blocks))))
    for i, blk, objective in kernel.opaque:
        out[:, i] = [objective.value(x) for x in xs[:, blk]]
    return out


# signed zeros, and coordinates where exp (past about 709.78) or a square overflows
EXTREMES = [0.0, -0.0, 709.0, 710.0, 1e3, -1e3, 1e200]


@st.composite
def value_cases(draw):
    """(problem, states): an instance of ``instances`` with some objectives
    opaque, and 1 to 4 states that mix its points with ``EXTREMES``."""
    problem, x, _, _ = draw(instances())
    agents = [AgentProblem(Opaque(a.objective), a.constraints, a.box)
              if draw(st.booleans()) else a for a in problem.agents]
    problem = ProblemInstance(agents, problem.laplacian, problem.depth)
    value = st.sampled_from(x.tolist() + EXTREMES)
    more = draw(st.integers(0, 3))
    return problem, np.array([x] + [[draw(value) for _ in x] for _ in range(more)])


def one_row():
    """One agent: an objective of lin and exp atoms only, which overflows at
    x_2 = 710, and a plain and an abs constraint row; signed zeros in the
    coefficients and the states."""
    objective = listed(2, [-0.0, -1.0], -0.0, exp=[(1, 1.0)])
    rows = (listed(2, [-1.0, -0.0], -0.0), listed(2, [1.0, 0.0], 0.0, abs_=[(0, 0.5, 2.0)]))
    problem = ProblemInstance([AgentProblem(objective, convex.ConstraintMap(rows))], [[0.0]], 1)
    return problem, np.array([[0.0, 710.0], [-0.0, -0.0], [0.5, -0.0]])


def opaque_rows():
    """Two agents without constraints, the first one opaque; each one's
    square overflows at 1e200 in one of the states."""
    def agent(center):
        return AgentProblem(convex.quadratic(2, 0, center=center) + convex.absolute(2, 1))
    agents = [AgentProblem(Opaque(agent(0.5).objective)), agent(-0.5)]
    problem = ProblemInstance(agents, [[1.0, -1.0], [-1.0, 1.0]], 1)
    return problem, np.array([[0.5, -0.0, 1e200, 0.0], [1e200, 0.0, -0.5, -0.0]])


ONE_ROW, OPAQUE_ROWS = one_row(), opaque_rows()


class TestOneEvaluatorMatchesTheTwo:
    @settings(max_examples=200, deadline=None)
    @example(ONE_ROW)
    @example(OPAQUE_ROWS)
    @given(value_cases())
    def test_values_bit_identical(self, case):
        problem, states = case
        kernel = problem.kernel
        # a block whose rows are strided, as a trajectory block's x columns are
        strided = np.hstack([states, states])[:, : kernel.total_dim]
        with np.errstate(over="ignore", invalid="ignore"):
            for x in states:
                assert_bits_equal(kernel.constraint_values(x),
                                  reference_constraint_values(kernel, x))
                assert_bits_equal(kernel.objective_values(x), reference_objective_values(kernel, x))
            for xs in (states[:1], states, strided):
                want = reference_objective_value_rows(kernel, xs)
                assert_bits_equal(kernel.objective_value_rows(xs), want)
                assert_bits_equal(kernel.objective_values(xs), want)

    def test_the_examples_bite(self):
        problem, states = ONE_ROW
        kernel = problem.kernel
        assert len(kernel.blocks) == 1 and not kernel.objective_dots["quad"]
        assert not kernel.value_dots["quad"] and not kernel.value_dots["exp"]
        assert kernel.objective_values(states[0])[0] == np.inf
        assert np.signbit(states).any()
        problem, states = OPAQUE_ROWS
        kernel = problem.kernel
        assert kernel.opaque and kernel.multiplier_dim == 0
        assert np.isinf(kernel.objective_value_rows(states)).tolist() == [[False, True], [True, False]]

    def test_rows_name_the_one_method(self):
        assert VelocityKernel.objective_value_rows is VelocityKernel.objective_values
