"""Problem file schema, expression grammar, and round-tripping."""
import json
import math

import numpy as np
import pytest

import pcons
from pcons import convex
from pcons.cli import main
from pcons.errors import ExpressionError, InvalidInputError
from pcons.problemfile import (
    format_expression,
    parse_expression,
    parse_problem,
    parse_problem_dict,
    serialize_problem,
)


class TestExpressionGrammar:
    def test_quadratic_plus_abs(self):
        e = parse_expression("(x1 - 1.5)^2 + abs(x1 - 0.5)", 1)
        assert e.value(np.array([1.5])) == pytest.approx(1.0)
        assert e == convex.quadratic(1, 0, 1.5) + convex.absolute(1, 0, 0.5)

    def test_exponential_with_offset(self):
        e = parse_expression("exp(x2) - 5", 2)
        assert e.value(np.array([0.0, math.log(5.0)])) == pytest.approx(0.0, abs=1e-12)

    def test_affine(self):
        e = parse_expression("x1 - x2 - 0.4", 2)
        assert e.is_affine
        assert e.value(np.array([1.0536, 1.5])) == pytest.approx(-0.8464)

    def test_scaled_atoms(self):
        e = parse_expression("2*(x1 - 1)^2 + 0.5*abs(x1)", 1)
        assert e.value(np.array([2.0])) == pytest.approx(2.0 + 1.0)

    def test_scaled_inner_affine_square(self):
        # (2x - 1)^2 = 4 (x - 0.5)^2
        e = parse_expression("(2*x1 - 1)^2", 1)
        assert e == convex.quadratic(1, 0, center=0.5, weight=4.0)

    def test_unary_minus_on_affine(self):
        e = parse_expression("-x1 + 2", 1)
        assert e.value(np.array([0.5])) == pytest.approx(1.5)

    def test_cube_rejected(self):
        with pytest.raises(ExpressionError, match="non-convex"):
            parse_expression("(x1 - 1)^3", 1)

    def test_negated_atom_rejected(self):
        with pytest.raises(ExpressionError, match="non-convex"):
            parse_expression("-abs(x1)", 1)
        with pytest.raises(ExpressionError, match="non-convex"):
            parse_expression("1 - (x1 - 2)^2", 1)

    def test_negative_scaling_rejected(self):
        with pytest.raises(ExpressionError, match="non-convex"):
            parse_expression("-2*(x1 - 1)^2", 1)

    def test_unknown_variable(self):
        with pytest.raises(ExpressionError):
            parse_expression("x3 + 1", 2)

    def test_unknown_function(self):
        with pytest.raises(ExpressionError):
            parse_expression("log(x1)", 1)

    def test_multi_variable_abs_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("abs(x1 + x2)", 2)

    def test_exp_of_affine_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("exp(2*x1)", 1)

    def test_product_of_variables_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("x1*x2", 2)

    def test_error_carries_position(self):
        with pytest.raises(ExpressionError, match="column"):
            parse_expression("x1 + $", 1)

    def test_non_finite_literal_rejected(self):
        with pytest.raises(ExpressionError, match="not finite.*column 5"):
            parse_expression("x1 - 1e400", 1)
        with pytest.raises(ExpressionError, match="not finite.*column 0"):
            parse_expression("1e400*abs(x1)", 1)
        with pytest.raises(ExpressionError, match="not finite.*column 9"):
            parse_expression("abs(x1 - 1e400 + 1e400)", 1)

    def test_non_finite_normal_form_rejected(self):
        # finite literals whose product overflows
        for text in ("1e200*1e200*x1", "abs(1e-200*x1 - 1e200)", "1e308 + 1e308"):
            with pytest.raises(ExpressionError, match="not finite.*column"):
                parse_expression(text, 1)

    def test_format_round_trip(self):
        samples = [
            "(x1 - 1.5)^2 + abs(x1 - 0.5)",
            "abs(x1 - 1) + (x2 - 1.5)^2",
            "exp(x2) - 5",
            "x1 - x2 - 0.4",
            "2*(x1 + 0.25)^2 + 0.5*abs(x2) + 3",
            "0",
        ]
        for text in samples:
            e = parse_expression(text, 2)
            assert parse_expression(format_expression(e), 2) == e


class TestProblemFiles:
    def test_example2_fixture(self, example2):
        p = example2.problem
        assert p.dims.dims == (1, 2, 2)
        assert p.depth == 1
        assert np.array_equal(
            p.laplacian, np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]])
        )
        assert example2.settings.h == 1e-3
        assert example2.settings.method == "rk4"
        assert [a.constraints.size for a in p.agents] == [1, 1, 1]
        assert p.agents[0].objective.value(np.array([1.5])) == pytest.approx(1.0)

    def test_example1_matrix_fixture(self):
        loaded = pcons.parse_problem(
            pcons.fixture_path("example1_matrix.json"), slater_probe=False
        )
        p = loaded.problem
        assert p.dims.dims == (3, 4, 5)
        assert p.depth == 3
        assert p.coupling.matrix.shape == (12, 12)
        assert p.objective_value(np.zeros(12)) == 0.0

    def test_round_trip(self, example2):
        doc = serialize_problem(example2.problem, example2.settings)
        again = parse_problem_dict(json.loads(json.dumps(doc)), slater_probe=False)
        p1, p2 = example2.problem, again.problem
        assert p1.depth == p2.depth
        assert np.array_equal(p1.laplacian, p2.laplacian)
        for a1, a2 in zip(p1.agents, p2.agents):
            assert a1.objective == a2.objective
            assert a1.constraints.components == a2.constraints.components
            assert np.array_equal(a1.box.lower, a2.box.lower)
            assert np.array_equal(a1.box.upper, a2.box.upper)
        assert again.settings == example2.settings

    def test_missing_key(self):
        with pytest.raises(ExpressionError, match="consensus_depth"):
            parse_problem_dict({"agents": [], "laplacian": [[0]]})

    def test_unknown_key(self):
        with pytest.raises(ExpressionError, match="unknown keys"):
            parse_problem_dict(
                {"agents": [{"dim": 1}], "laplacian": [[0]], "consensus_depth": 1,
                 "extra": 3}
            )

    def test_dim_and_depth_must_be_whole_integers(self):
        # int() would truncate 1.9 and 1.7 to 1 and read true as 1
        for dim, depth in ((1.9, 1.7), (True, 1), (2.0, 1), ("1", 1), (1, 1.0), (1, True)):
            doc = {"agents": [{"dim": dim}], "laplacian": [[0]], "consensus_depth": depth}
            with pytest.raises(ExpressionError, match="whole number"):
                parse_problem_dict(doc)

    def test_box_length_mismatch(self):
        with pytest.raises(ExpressionError, match="box"):
            parse_problem_dict(
                {"agents": [{"dim": 2, "box": [[0, 1]]}],
                 "laplacian": [[0]], "consensus_depth": 1}
            )

    def test_box_entry_not_a_pair(self):
        with pytest.raises(ExpressionError, match="pairs"):
            parse_problem_dict(
                {"agents": [{"dim": 1, "box": [[0]]}],
                 "laplacian": [[0]], "consensus_depth": 1}
            )

    def test_nan_box_bound_rejected(self):
        doc = json.loads('{"agents": [{"dim": 1, "box": [[NaN, 2]]}], '
                         '"laplacian": [[0]], "consensus_depth": 1}')
        with pytest.raises(InvalidInputError, match="NaN"):
            parse_problem_dict(doc, slater_probe=False)

    def test_infinite_box_rejected(self):
        doc = json.loads('{"agents": [{"dim": 1, "box": [[Infinity, Infinity]]}], '
                         '"laplacian": [[0]], "consensus_depth": 1}')
        with pytest.raises(InvalidInputError, match="empty"):
            parse_problem_dict(doc, slater_probe=False)

    def test_unbounded_box_sides(self):
        loaded = parse_problem_dict(
            {"agents": [{"dim": 1, "objective": "(x1 - 1)^2",
                         "box": [[0, None]]}],
             "laplacian": [[0]], "consensus_depth": 1},
            slater_probe=False,
        )
        box = loaded.problem.agents[0].box
        assert box.lower[0] == 0.0 and np.isposinf(box.upper[0])

    def test_init_block(self):
        loaded = parse_problem_dict(
            {"agents": [{"dim": 1, "objective": "(x1 - 1)^2"}],
             "laplacian": [[0]], "consensus_depth": 1,
             "init": {"x": [0.25]}},
            slater_probe=False,
        )
        assert loaded.init.x[0] == 0.25
        assert loaded.init.lam[0] == 0.0

    def test_init_length_mismatch(self):
        with pytest.raises(ExpressionError, match="init.x"):
            parse_problem_dict(
                {"agents": [{"dim": 1}], "laplacian": [[0]], "consensus_depth": 1,
                 "init": {"x": [1.0, 2.0]}}
            )

    def test_invalid_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  \"agents\": [,]\n}\n", encoding="utf-8")
        with pytest.raises(ExpressionError, match="line"):
            parse_problem(bad)

    def test_laplacian_normalization_failure(self):
        with pytest.raises(InvalidInputError):
            parse_problem_dict(
                {"agents": [{"dim": 1}, {"dim": 1}],
                 "laplacian": [[1, 1], [1, 1]], "consensus_depth": 1}
            )

    def test_unknown_fixture(self):
        with pytest.raises(InvalidInputError):
            pcons.fixture_path("nope.json")


def _two_agents():
    return {
        "agents": [
            {"dim": 1, "objective": "(x1 - 1)^2", "constraints": ["x1 - 2"], "box": [[0, 2]]},
            {"dim": 1, "objective": "abs(x1)"},
        ],
        "laplacian": [[1, -1], [-1, 1]],
        "consensus_depth": 1,
        "solver": {"h": 0.01},
        "init": {"x": [0.5, 0.5]},
    }


# (path into the document, value put there): each makes a file that must be
# rejected, not read as a number or a container it is not
MALFORMED = {
    "solver h true": (("solver", "h"), True),
    "solver h string number": (("solver", "h"), "0.01"),
    "solver h string": (("solver", "h"), "abc"),
    "solver h array": (("solver", "h"), [1]),
    "solver a number": (("solver",), 5),
    "agents a number": (("agents",), 5),
    "constraints a string": (("agents", 0, "constraints"), "0"),
    "box bound true": (("agents", 0, "box", 0, 0), True),
    "box bound array": (("agents", 0, "box", 0, 0), [1]),
    "laplacian of strings": (("laplacian",), [["1", "-1"], ["-1", "1"]]),
    "laplacian ragged": (("laplacian",), [[1, -1], [-1]]),
    "laplacian with a boolean": (("laplacian", 1, 1), True),
    "init x of strings": (("init", "x"), ["0.5", "0.5"]),
    "init x of booleans": (("init", "x"), [True, False]),
    "init x with a null": (("init", "x"), [None, 0.5]),
    "laplacian with a string beside a big integer": (("laplacian", 0), ["1", -(2**70)]),
}


def _malformed(path, value):
    doc = _two_agents()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def test_the_well_formed_document_parses():
    loaded = parse_problem_dict(_two_agents(), slater_probe=False)
    assert loaded.settings.h == 0.01 and loaded.init.x.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("path", [("agents", 0, "box", 0, 1), ("init", "x", 0)])
def test_an_integer_beyond_64_bits_is_a_number(path):
    loaded = parse_problem_dict(json.loads(json.dumps(_malformed(path, 2**70))),
                                slater_probe=False)
    value = loaded.problem.agents[0].box.upper[0] if path[0] == "agents" else loaded.init.x[0]
    assert value == 2.0**70


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_value_is_rejected(case, tmp_path, capsys):
    doc = _malformed(*MALFORMED[case])
    with pytest.raises(InvalidInputError):
        parse_problem_dict(doc, slater_probe=False)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["solve", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
