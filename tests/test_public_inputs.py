"""Public constructors and readers answer a wrong-typed argument with the
package's own error, ``fixture_path`` finds only the packaged fixtures,
and the readers that evaluate an ``exp`` return inf on an overflow,
without a warning, as their neighbours do."""
import math
import warnings

import numpy as np
import pytest

import pcons
from pcons import convex
from pcons.dynamics import AgentProblem, initial_state, kkt_residual, lyapunov_value
from pcons.errors import ExpressionError, InvalidInputError
from pcons.problemfile import fixture_path, format_expression, parse_expression

E = parse_expression("x1^2 + abs(x2 - 1)", 2)

WRONG_TYPES = {
    "parse_expression(5)": (lambda: parse_expression(5, 2), ExpressionError,
                            "an expression must be a string, got 5"),
    "parse_expression(None)": (lambda: parse_expression(None, 2), ExpressionError,
                               "an expression must be a string, got None"),
    "parse_expression(bytes)": (lambda: parse_expression(b"x1", 2), ExpressionError,
                                "an expression must be a string, got b'x1'"),
    "format_expression(str)": (lambda: format_expression("x1"), InvalidInputError,
                               "format_expression takes a ConvexExpr, got str"),
    "ConstraintMap(int)": (lambda: convex.ConstraintMap((1,)), InvalidInputError,
                           r"constraint components must be ConvexExprs, got \(1,\)"),
    "ConstraintMap(str)": (lambda: convex.ConstraintMap(("x1",)), InvalidInputError,
                           r"constraint components must be ConvexExprs, got \('x1',\)"),
    "ConstraintMap(None)": (lambda: convex.ConstraintMap(None), InvalidInputError,
                            "constraint components must be ConvexExprs, got None"),
    "AgentProblem(constraints=list)": (lambda: AgentProblem(E, constraints=[E]),
                                       InvalidInputError,
                                       "constraints must be a ConstraintMap, got list"),
    "AgentProblem(box=list)": (lambda: AgentProblem(E, box=[[0, 1], [0, 1]]), InvalidInputError,
                               "box must be a Box or None, got list"),
    "Box.sample(None)": (lambda: convex.whole_space(2).sample(None), InvalidInputError,
                         "rng must be a numpy Generator or RandomState, got NoneType"),
    "Box.sample(0)": (lambda: convex.whole_space(2).sample(0), InvalidInputError,
                      "rng must be a numpy Generator or RandomState, got int"),
}


@pytest.mark.parametrize("call, error, message", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_a_wrong_type_is_an_input_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_the_right_types_still_build():
    rows = convex.ConstraintMap(iter([E, E - 1.0]))
    assert rows.size == 2 and rows.components[1] == E - 1.0
    problem = AgentProblem(E, constraints=rows, box=None)
    assert np.isinf(problem.box.lower).all() and parse_expression(format_expression(E), 2) == E
    for rng in (np.random.default_rng(3), np.random.RandomState(3)):
        assert convex.Box(np.zeros(2), np.ones(2)).sample(rng).shape == (2,)


@pytest.mark.parametrize("name", ["../__init__.py", "../cli.py", "../fixtures/example2.json",
                                  "./example2.json", "example2.json/", "..", ".", "",
                                  None, 5, b"example2.json"])
def test_fixture_path_finds_only_the_packaged_fixtures(name):
    with pytest.raises(InvalidInputError, match="no packaged fixture named"):
        fixture_path(name)


def test_every_packaged_fixture_is_found():
    for name in ("example1_matrix.json", "example2.json", "single_quadratic.json"):
        assert fixture_path(name).is_file()
        pcons.parse_problem(fixture_path(name), slater_probe=False)


@pytest.fixture
def overflowing(example2):
    """example2 at x3 = 1000, where agent 2's constraint exp(x2) - 5 overflows."""
    state = initial_state(example2.problem)
    state.x[2] = 1000.0
    return example2.problem, state


@pytest.fixture
def no_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_constraint_values_overflow_quietly(overflowing, no_warning):
    problem, state = overflowing
    values = problem.constraint_values(state.x)
    assert values[1] == math.inf and np.isfinite(values[[0, 2]]).all()
    assert math.isfinite(problem.objective_value(state.x))
    assert not math.isfinite(kkt_residual(state, problem).max_component)


def test_lyapunov_value_overflows_quietly(overflowing, example2_run_tight, no_warning):
    problem, state = overflowing
    value = lyapunov_value(state, example2_run_tight.final, problem)
    assert value.v1 == value.total == math.inf
