"""Each quantity's one body against the second body it replaced, bit for bit:
an expression's value, the summed objective, the box violation and the
stage velocity of the centralized run."""
import struct

import numpy as np
from hypothesis import example, given, settings, strategies as st

from pcons import convex, network
from pcons.dynamics import AgentProblem, ProblemInstance, Trajectory, _Exchange
from pcons.network import build_agents

from conftest import random_agent, random_problem
from test_kernel import Opaque, instances
from test_value_many import _COORDS, _expressions


def assert_same_float(a, b):
    """Two Python floats with the same bits: sign, NaN payload and all."""
    assert type(a) is type(b) is float
    assert struct.pack("<d", a) == struct.pack("<d", b), (a, b)


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes(), (a, b)


# -- an expression's value ----------------------------------------------------


def reference_value(expr, x):
    """``ConvexExpr.value`` with its own body: one BLAS dot per part."""
    x = expr._check_arity(x)
    total = float(expr.lin @ x) + expr.const
    if len(expr.quad_idx):
        d = x[expr.quad_idx] - expr.quad_center
        total += float(expr.quad_weight @ (d * d))
    if len(expr.abs_idx):
        total += float(expr.abs_weight @ np.abs(x[expr.abs_idx] - expr.abs_center))
    if len(expr.exp_idx):
        total += float(expr.exp_weight @ np.exp(x[expr.exp_idx]))
    return total


@st.composite
def _points(draw):
    expr = draw(_expressions())
    return expr, np.array([draw(_COORDS) for _ in range(expr.dim)], dtype=float)


class TestValueIsValueMany:
    @settings(max_examples=600, deadline=None)
    @example((convex.affine([-1.0]), np.array([0.0])))  # -0.0 product, +0.0 sum
    @example((convex.exponential(2, 1) + convex.affine([0.5, -0.0]), np.array([-0.0, 710.0])))
    @example((convex.absolute(1, 0, 0.5), np.array([np.nan])))
    @example((convex.quadratic(2, 0) + convex.absolute(2, 1), np.array([np.inf, -np.inf])))
    @given(_points())
    def test_bit_identical(self, case):
        expr, x = case
        with np.errstate(all="ignore"):
            assert_same_float(expr.value(x), reference_value(expr, x))
            assert_same_float(expr.value(x.tolist()), reference_value(expr, x))


# -- the summed objective -----------------------------------------------------


def reference_objective_value(problem, x):
    """``objective_value``'s own loop: Python floats from 0.0."""
    total = 0.0
    for value in problem.kernel.objective_values(np.asarray(x, dtype=float)).tolist():
        total += value
    return total


def reference_objectives(problem, rows):
    """``Trajectory._objectives``' own loop over a (states, total_dim) block."""
    total = np.zeros(len(rows))
    for values in problem.kernel.objective_value_rows(rows).T:
        total += values
    return total


def _one_agent(rng):
    lap = np.zeros((1, 1))
    dim = int(rng.integers(1, 4))
    return ProblemInstance([random_agent(rng, dim)], lap, int(rng.integers(1, dim + 1)))


def _overflowing(rng):
    """Two agents, the second's objective overflowing to inf past x = 709.78."""
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    agents = [AgentProblem(convex.quadratic(1, 0, 0.5)),
              AgentProblem(convex.exponential(1, 0) + convex.affine([-0.0]))]
    return ProblemInstance(agents, lap, 1)


def _with_opaque(rng):
    problem = random_problem(rng)
    agents = [AgentProblem(Opaque(a.objective), a.constraints, a.box) if k % 2 else a
              for k, a in enumerate(problem.agents)]
    return ProblemInstance(agents, problem.laplacian, problem.depth)


class NegativeZero(Opaque):
    """An opaque objective whose value is -0.0 everywhere."""

    def value(self, x):
        return -0.0


_KINDS = {"random": random_problem, "opaque": _with_opaque, "one-agent": _one_agent,
          "overflow": _overflowing}


def _states(rng, problem, count=5):
    """``count`` stacked x: box samples, with -0.0, 0.0 and, past exp's
    overflow, 710.0 and 1000.0 mixed in."""
    xs = np.array([np.concatenate([a.box.sample(rng) for a in problem.agents])
                   for _ in range(count)])
    special = np.array([-0.0, 0.0, 710.0, 1000.0])
    mask = rng.random(xs.shape) < 0.3
    xs[mask] = rng.choice(special, size=int(mask.sum()))
    return xs


def _trajectory(problem, xs):
    """A trajectory whose recorded rows hold ``xs`` and zero multipliers."""
    trajectory = Trajectory(problem)
    for t, x in enumerate(xs):
        z = np.concatenate([x, np.zeros(problem.total_dim + problem.multiplier_dim)])
        trajectory._record(float(t), z, (0.0, 0.0, 0.0, 0.0))
    trajectory._finish()
    return trajectory


class TestOneObjectiveSum:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(_KINDS)), st.integers(0, 2**32 - 1))
    def test_bit_identical(self, kind, seed):
        rng = np.random.default_rng(seed)
        problem = _KINDS[kind](rng)
        xs = _states(rng, problem)
        with np.errstate(over="ignore", invalid="ignore"):
            for x in xs:
                assert_same_float(problem.objective_value(x), reference_objective_value(problem, x))
            want = reference_objectives(problem, xs)
        assert_same_bytes(problem._objective_sums(xs), want)
        assert_same_bytes(np.array(_trajectory(problem, xs).objectives), want)

    def test_negative_zero_objectives_sum_to_positive_zero(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        problem = ProblemInstance([AgentProblem(NegativeZero(convex.affine([1.0])))] * 2, lap, 1)
        xs = np.zeros((2, 2))
        assert np.signbit(problem.kernel.objective_values(xs[0])).all()
        assert_same_float(problem.objective_value(xs[0]), reference_objective_value(problem, xs[0]))
        assert_same_bytes(np.array(_trajectory(problem, xs).objectives),
                          reference_objectives(problem, xs))
        assert not np.signbit(problem.objective_value(xs[0]))

    def test_the_overflow_case_bites(self):
        problem = _overflowing(None)
        x = np.array([0.5, 1000.0])
        assert problem.objective_value(x) == reference_objective_value(problem, x) == np.inf


# -- the box violation --------------------------------------------------------


def reference_box_violation(box, x):
    """``Box.violation``'s own formula."""
    x = box._point(x)
    return float(np.max(np.maximum(box.lower - x, 0.0) + np.maximum(x - box.upper, 0.0),
                        initial=0.0))


def reference_box_violations(kernel, x):
    """The kernel's own formula: one stacked x, or each row of a block."""
    under = np.maximum(kernel.lower - x, 0.0)
    over = np.maximum(x - kernel.upper, 0.0)
    return np.max(under + over, axis=-1, initial=0.0)


_SIDES = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, np.inf])
_BOX_COORDS = st.sampled_from([-np.inf, -2.0, -1.0, -0.0, 0.0, 0.25, 0.5, 3.0, np.inf])


@st.composite
def _box_cases(draw):
    """A box with unbounded sides and a (states, dim) block of points."""
    dim = draw(st.integers(1, 4))
    ends = [sorted([draw(_SIDES.filter(lambda v: v != np.inf)),
                    draw(_SIDES.filter(lambda v: v != -np.inf))]) for _ in range(dim)]
    box = convex.Box(np.array([lo for lo, _ in ends]), np.array([hi for _, hi in ends]))
    states = draw(st.integers(1, 4))
    xs = np.array([[draw(_BOX_COORDS) for _ in range(dim)] for _ in range(states)])
    return box, xs


class TestOneBoxViolation:
    @settings(max_examples=400, deadline=None)
    @example((convex.whole_space(2), np.array([[np.inf, -np.inf]])))
    @example((convex.Box(np.array([-0.0]), np.array([0.0])), np.array([[-0.0], [0.0], [2.0]])))
    @given(_box_cases())
    def test_bit_identical(self, case):
        box, xs = case
        with np.errstate(invalid="ignore"):
            for x in xs:
                assert_same_float(box.violation(x), reference_box_violation(box, x))
                assert_same_bytes(convex._box_violation(box, x), reference_box_violations(box, x))
            assert_same_bytes(convex._box_violation(box, xs), reference_box_violations(box, xs))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(_KINDS)), st.integers(0, 2**32 - 1))
    def test_problem_and_trajectory_bit_identical(self, kind, seed):
        rng = np.random.default_rng(seed)
        problem = _KINDS[kind](rng)
        xs = _states(rng, problem)
        kernel = problem.kernel
        for x in xs:
            assert_same_float(problem.box_violation(x),
                              float(reference_box_violations(kernel, x)))
        assert_same_bytes(np.array(_trajectory(problem, xs).box_violations),
                          reference_box_violations(kernel, xs))


# -- the stage velocity -------------------------------------------------------


def reference_gather_stage(kernel, z, n=0):
    """The centralized stage evaluator with its own body: the packed
    velocity at ``z``, every row's payloads gathered from the state."""
    x, lam, mu = kernel.split(z)
    return kernel.pack(kernel.evaluate(x, lam, mu, *kernel.gathered(x, lam)))


class TestOneStage:
    @settings(max_examples=200, deadline=None)
    @given(instances(), st.integers(0, 10))
    def test_bit_identical(self, case, n):
        problem, x, lam, mu = case
        lam[::2] = -0.0
        kernel = problem.kernel
        z = np.concatenate([x, lam, mu])
        exchange = _Exchange(kernel)
        with np.errstate(over="ignore", invalid="ignore"):
            (dz, g), (want_dz, want_g) = exchange.stage(z, n), reference_gather_stage(kernel, z)
        assert_same_bytes(dz, want_dz)
        assert_same_bytes(g, want_g)
        assert exchange.sent == len(kernel.edges)

    def test_network_builds_the_one_evaluator(self):
        assert network._Exchange is _Exchange


class TestOneStackedKernel:
    def test_the_rows_alone_decide_reuse(self):
        p = random_problem(np.random.default_rng(3))
        agents = build_agents(p)
        agents[-1]._stack = None  # a row last stepped with no kernel
        assert network._stacked_kernel(agents) is p.kernel
        agents[-1].neighbors = agents[-1].neighbors[:-1] + ((0, 0.5),)
        assert network._stacked_kernel(agents) is not p.kernel
