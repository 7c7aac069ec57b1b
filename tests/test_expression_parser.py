"""The term-level expression parser against the one it replaced.

``ReferenceParser`` and ``reference_tokenize`` below are the package's
parser before terms were built directly: every number, variable and
parenthesis was a ``convex.NormalForm``, and every ``+``, ``-`` and
``*`` went through ``NormalForm.add`` and ``scale``.  The package must
give the same ``ConvexExpr`` bit for bit, or raise the same exception
class with the same message and column.  The same holds for the
tokens, and for the boxes a problem file's agents read.
"""
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pcons.cli import main
from pcons.convex import ABS, EXP, QUAD, ConvexExpr, NormalForm
from pcons.errors import ConvexityError, ExpressionError, _reals
from pcons.problemfile import _tokenize, format_expression, parse_expression, parse_problem_dict
from test_normal_form import parser_cases

FIELDS = ("lin", "quad_idx", "quad_center", "quad_weight", "abs_idx", "abs_center",
          "abs_weight", "exp_idx", "exp_weight")


# -- the reference parser -----------------------------------------------------

_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()])"
)


def reference_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", position=pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class ReferenceParser:
    """Recursive-descent parser building one normal form per string."""

    def __init__(self, text, dim):
        self.text = text
        self.dim = dim
        self.tokens = reference_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.next()
        if text != value:
            raise ExpressionError(f"expected {value!r}, found {text or 'end of input'!r}", position=pos)

    def constant(self, value) -> NormalForm:
        return NormalForm(self.dim, [0.0] * self.dim, value)

    def parse(self) -> ConvexExpr:
        form = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing {text!r}", position=pos)
        atoms = (v for fam in form.atoms for _, c, w in fam for v in (c, w))
        if not all(map(math.isfinite, [*form.lin, form.const, *atoms])):
            raise ExpressionError("a coefficient of the expression is not finite", position=0)
        return form.freeze()

    def expr(self) -> NormalForm:
        negate = False
        if self.peek()[1] == "-":
            self.next()
            negate = True
        try:
            total = self.term()
            if negate:
                total = total.scale(-1.0)
            while self.peek()[1] in ("+", "-"):
                op = self.next()[1]
                rhs = self.term()
                total = total.add(rhs if op == "+" else rhs.scale(-1.0))
        except ConvexityError as exc:
            raise ExpressionError(f"non-convex atom: {exc}") from exc
        return total

    def term(self) -> NormalForm:
        factors = [self.factor()]
        while self.peek()[1] == "*":
            self.next()
            factors.append(self.factor())
        scalars = [f for f in factors if f.is_affine and not any(f.lin)]
        others = [f for f in factors if not (f.is_affine and not any(f.lin))]
        if len(others) > 1:
            raise ExpressionError(
                "products of non-constant expressions are outside the supported vocabulary"
            )
        coeff = 1.0
        for s in scalars:
            coeff *= s.const
        if not others:
            return self.constant(coeff)
        try:
            return others[0].scale(coeff)
        except ConvexityError as exc:
            raise ExpressionError(f"non-convex atom: {exc}") from exc

    def factor(self) -> NormalForm:
        base, base_pos = self.primary()
        if self.peek()[1] == "^":
            self.next()
            kind, text, pos = self.next()
            if kind != "num":
                raise ExpressionError(f"expected an exponent, found {text!r}", position=pos)
            power = float(text)
            if power != 2.0:
                raise ExpressionError(
                    f"non-convex atom: power ^{text} (only squares are supported)",
                    position=pos,
                )
            return self._square(base, base_pos)
        return base

    def primary(self):
        kind, text, pos = self.next()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ExpressionError(f"number {text} is not finite", position=pos)
            return self.constant(value), pos
        if kind == "var":
            coord = int(text[1:]) - 1
            if not 0 <= coord < self.dim:
                raise ExpressionError(
                    f"variable {text} outside x1..x{self.dim}", position=pos
                )
            form = self.constant(0.0)
            form.lin[coord] = 1.0
            return form, pos
        if kind == "name":
            if text not in ("abs", "exp"):
                raise ExpressionError(f"unknown function {text!r}", position=pos)
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            if text == "abs":
                return self._absolute(inner, pos), pos
            return self._exponential(inner, pos), pos
        if text == "(":
            inner = self.expr()
            self.expect(")")
            return inner, pos
        raise ExpressionError(f"unexpected {text or 'end of input'!r}", position=pos)

    def _single_variable_affine(self, e: NormalForm, pos, what):
        if not e.is_affine:
            raise ExpressionError(
                f"{what} of a nonlinear expression is outside the supported vocabulary",
                position=pos,
            )
        nz = [k for k, v in enumerate(e.lin) if v]
        if len(nz) > 1:
            raise ExpressionError(
                f"{what} of a multi-variable expression is outside the supported vocabulary",
                position=pos,
            )
        if len(nz) == 0:
            return None, 0.0, e.const
        k = nz[0]
        return k, e.lin[k], e.const

    def _square(self, e: NormalForm, pos) -> NormalForm:
        k, slope, const = self._single_variable_affine(e, pos, "a square")
        if k is None:
            return self.constant(const * const)
        return NormalForm.atom(self.dim, QUAD, k, -const / slope, slope * slope)

    def _absolute(self, e: NormalForm, pos) -> NormalForm:
        k, slope, const = self._single_variable_affine(e, pos, "an absolute value")
        if k is None:
            return self.constant(abs(const))
        return NormalForm.atom(self.dim, ABS, k, -const / slope, abs(slope))

    def _exponential(self, e: NormalForm, pos) -> NormalForm:
        k, slope, const = self._single_variable_affine(e, pos, "an exponential")
        if k is None or slope != 1.0 or const != 0.0:
            raise ExpressionError(
                "exp(...) supports a bare variable argument only", position=pos
            )
        return NormalForm.atom(self.dim, EXP, k, 0.0, 1.0)


def reference_box(pairs):
    """(lower, upper) of a box's [lower, upper] pairs: one read per bound."""
    bounds = [[side if v is None else _reals(v, "box bound", 0, ExpressionError)
               for v, side in zip(p, (-np.inf, np.inf))] for p in pairs]
    return np.array(bounds).T.copy()


# -- comparison helpers --------------------------------------------------------


def outcome(fn, *args):
    """(result, None), or (None, (class, message, column)) of an ``ExpressionError``."""
    try:
        return fn(*args), None
    except ExpressionError as exc:
        return None, (type(exc), str(exc), exc.position)


def assert_same_bits(got, want):
    """The same dim, field dtypes and shapes, and the same bytes everywhere."""
    assert got.dim == want.dim
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), (name, a, b)
    assert type(got.const) is type(want.const) is float
    assert math.copysign(1.0, got.const) == math.copysign(1.0, want.const)
    assert got.const == want.const or got.const != got.const and want.const != want.const


def assert_same_outcome(text, dim):
    got, got_error = outcome(parse_expression, text, dim)
    want, want_error = outcome(lambda: ReferenceParser(text, dim).parse())
    assert got_error == want_error, text
    if want is not None:
        assert_same_bits(got, want)


# -- strategies ------------------------------------------------------------------

# signed zeros, weight-1 atoms, negative centers (written as "x2 + 0.35"),
# tiny and huge values, and a few negative weights, which no file should hold
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.35, -0.35, 2.5, -2.5, 1e-300, 1e300]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
_WEIGHTS = st.one_of(
    st.sampled_from([1.0, 1.0, 1.0, 0.5, 2.0, 0.0, -0.0, -1.0, 1e300]),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def written(draw):
    """(``format_expression`` of a random ``ConvexExpr``, dim), as
    ``serialize_problem`` writes an expression: the fields are drawn one by
    one, so atoms may repeat and come in any order."""
    dim = draw(st.integers(1, 4))
    fields = {"dim": dim, "lin": np.array([draw(_VALUES) for _ in range(dim)]),
              "const": draw(_VALUES)}
    for fam in ("quad", "abs", "exp"):
        count = draw(st.integers(0, 3))
        fields[f"{fam}_idx"] = np.array(
            [draw(st.integers(0, dim - 1)) for _ in range(count)], dtype=int)
        fields[f"{fam}_weight"] = np.array([draw(_WEIGHTS) for _ in range(count)], dtype=float)
        if fam != "exp":
            fields[f"{fam}_center"] = np.array([draw(_VALUES) for _ in range(count)], dtype=float)
    return format_expression(ConvexExpr(**fields)), dim


# pieces that break a written string at most columns
_JUNK = ["$", "é", "(", ")", "((", "^3", "^2.5", "^", "^x1", " x1", " 2", "x0", "*x1",
         "x1*x2", "*(x1 - 1)", "abs", "abs(", "exp(", "exp(2*x1)", "log(x1)", "1e400",
         "--", "+", "*", ".", "x9", "abs(x1)*abs(x1)", "(x1 + x2)^2", "-abs(x1)", "0*"]


@st.composite
def malformed(draw):
    """A written string with one piece of junk put in at any column."""
    text, dim = draw(written())
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(_JUNK)) + text[at:], dim


_SOUP = ["x1", "x2", "x3", "x0", "0", "2", "0.5", ".5", "2.", "1e200", "1e-200", "1e400",
         "+", "-", "*", "(", ")", "^", "^2", "abs(", "exp(", "abs", " ", "$"]


@st.composite
def soup(draw):
    """Tokens in any order: most such strings fail, each at its own column."""
    return "".join(draw(st.lists(st.sampled_from(_SOUP), min_size=1, max_size=16))), \
        draw(st.integers(1, 3))


# -- the parser ------------------------------------------------------------------


class TestParserMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(written())
    @example(("-x1 + x2 + 0.35", 2))
    @example(("(x2 + 0.35)^2 + abs(x1) + exp(x1) - 0", 2))
    @example(("-0*(x1 - 0.5)^2", 1))
    def test_written_expressions(self, case):
        assert_same_outcome(*case)

    @settings(max_examples=300, deadline=None)
    @given(malformed())
    def test_malformed_expressions(self, case):
        assert_same_outcome(*case)

    @settings(max_examples=300, deadline=None)
    @given(soup())
    def test_token_soup(self, case):
        assert_same_outcome(*case)

    @settings(max_examples=150, deadline=None)
    @given(parser_cases())
    @example(("0*abs(x1) + x1 + abs(x1*1)", 1))  # a zero weight dropped, then its atom again
    @example(("(0*abs(x1) + abs(x1))*2 + abs(x1)", 1))
    @example(("2*(x1 - x1)*abs(x1) - 3*(1 - 1)", 1))
    @example(("1e200*1e200*0*x1 + abs(x2)", 2))  # a NaN coefficient
    @example(("abs(1e200*1e200*x1)", 2))
    @example(("abs(1e200*1e200*x1)", 1))
    @example(("(x1 - 1)^2^2", 1))
    @example(("exp(x1)^2", 1))
    def test_grammar(self, case):
        assert_same_outcome(*case)

    @pytest.mark.parametrize("depth", [1, 2, 50, 100])
    def test_nesting_up_to_the_limit(self, depth):
        assert_same_outcome("(" * depth + "2*x1 - 1" + ")" * depth + "^2", 1)
        assert_same_outcome("abs(" * depth + "x1 - 1" + ")" * depth, 1)


@settings(max_examples=500, deadline=None)
@given(st.text("x0123456789.eE+-*^()abslogp_ \t\n$\u0663\u00e9", max_size=20))
@example("1.e5 .5e-3 2e x12ab x_1 e1")
@example("\u0663 + x\u0663")
def test_tokens_match_reference(text):
    assert outcome(_tokenize, text) == outcome(reference_tokenize, text)


class TestNestingLimit:
    @pytest.mark.parametrize("opening", ["(", "abs("])
    def test_the_first_parenthesis_past_the_limit_is_named(self, opening):
        text = "x1 + " + opening * 101 + "x1" + ")" * 101
        with pytest.raises(ExpressionError) as info:
            parse_expression(text, 1)
        assert info.value.position == 5 + len(opening) * 101 - 1
        assert str(info.value) == f"parentheses nested deeper than 100 (column {info.value.position})"

    def test_deep_nesting_is_an_expression_error(self):
        with pytest.raises(ExpressionError, match="nested deeper"):
            parse_expression("(" * 300 + "x1" + ")" * 300, 1)

    def test_deep_nesting_in_a_file_is_a_clean_cli_error(self, tmp_path, capsys):
        doc = {"agents": [{"dim": 1, "objective": "(" * 300 + "x1" + ")" * 300}],
               "laplacian": [[0]], "consensus_depth": 1}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["solve", str(path), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


# -- problem files ---------------------------------------------------------------


def _graph_problem(seed, agents):
    """``perfbench/generate.py``'s graph-family document, imported read-only."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("_perfbench_generate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.graph_problem(seed, agents)


def test_graph_n256_agents_match_reference():
    doc = _graph_problem(1, 256)
    agents = parse_problem_dict(doc, slater_probe=False).problem.agents
    assert len(agents) == len(doc["agents"]) == 256
    for entry, agent in zip(doc["agents"], agents):
        dim = entry["dim"]
        assert_same_bits(agent.objective, ReferenceParser(entry["objective"], dim).parse())
        rows = entry.get("constraints", [])
        assert len(agent.constraints.components) == len(rows)
        for got, text in zip(agent.constraints.components, rows):
            assert_same_bits(got, ReferenceParser(text, dim).parse())
        lower, upper = reference_box(entry["box"])
        assert agent.box.lower.tobytes() == lower.tobytes()
        assert agent.box.upper.tobytes() == upper.tobytes()


@pytest.mark.parametrize("pairs", [
    [[None, 2]], [[0, None]], [[None, None], [-1, 1]], [[1, 2**70]], [[-0.0, 0]],
    [[-1.5, 2.25], [0, 1], [3, 3]],
])
def test_box_bounds_match_reference(pairs):
    doc = {"agents": [{"dim": len(pairs), "box": pairs}], "laplacian": [[0]],
           "consensus_depth": 1}
    box = parse_problem_dict(doc, slater_probe=False).problem.agents[0].box
    lower, upper = reference_box(pairs)
    assert box.lower.tobytes() == lower.tobytes() and box.upper.tobytes() == upper.tobytes()


@pytest.mark.parametrize("bound", [True, False, [1], [1, 2], "1", {"a": 1}, 1j])
def test_a_box_bound_that_is_not_a_number_is_an_expression_error(bound):
    for pair in ([bound, 1], [0, bound]):
        doc = {"agents": [{"dim": 1, "box": [pair]}], "laplacian": [[0]], "consensus_depth": 1}
        with pytest.raises(ExpressionError, match=r"agents\[0\]\.box bounds must be"):
            parse_problem_dict(doc, slater_probe=False)
