"""The one-pass expression parser and the NormalForm algebra against the numpy reference.

The reference below is the parser and ``ConvexExpr`` algebra the package
used before ``convex.NormalForm``: every ``+``, ``*`` and unary minus
built a new ``ConvexExpr``, and sums re-sorted and merged their atoms
with numpy.  The package must give the same normal form, bit for bit,
or raise the same exception class.
"""
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pcons import convex
from pcons.convex import ConvexExpr
from pcons.errors import ConvexityError, ExpressionError, InvalidInputError
from pcons.problemfile import _tokenize, format_expression, parse_expression

FIELDS = ("lin", "quad_idx", "quad_center", "quad_weight", "abs_idx", "abs_center",
          "abs_weight", "exp_idx", "exp_weight")


# -- the reference algebra ---------------------------------------------------


def reference_merge_atoms(idx, centers, weights):
    """Canonical order (coord, center) with duplicate atoms merged."""
    if len(idx) == 0:
        return idx, centers, weights
    order = np.lexsort((centers, idx))
    idx, centers, weights = idx[order], centers[order], weights[order]
    out_i, out_c, out_w = [], [], []
    for i, c, w in zip(idx, centers, weights):
        if out_i and out_i[-1] == i and out_c[-1] == c:
            out_w[-1] += w
        else:
            out_i.append(i)
            out_c.append(c)
            out_w.append(w)
    keep = [k for k, w in enumerate(out_w) if w != 0.0]
    return (
        np.asarray([out_i[k] for k in keep], dtype=int),
        np.asarray([out_c[k] for k in keep], dtype=float),
        np.asarray([out_w[k] for k in keep], dtype=float),
    )


def reference_empty(dim):
    return dict(
        dim=dim,
        lin=np.zeros(dim),
        const=0.0,
        quad_idx=np.empty(0, dtype=int), quad_center=np.empty(0), quad_weight=np.empty(0),
        abs_idx=np.empty(0, dtype=int), abs_center=np.empty(0), abs_weight=np.empty(0),
        exp_idx=np.empty(0, dtype=int), exp_weight=np.empty(0),
    )


def reference_add(a, b):
    if isinstance(b, (int, float)):
        fields = reference_empty(a.dim)
        fields.update(
            lin=a.lin.copy(), const=a.const + float(b),
            quad_idx=a.quad_idx, quad_center=a.quad_center, quad_weight=a.quad_weight,
            abs_idx=a.abs_idx, abs_center=a.abs_center, abs_weight=a.abs_weight,
            exp_idx=a.exp_idx, exp_weight=a.exp_weight,
        )
        return ConvexExpr(**fields)
    qi, qc, qw = reference_merge_atoms(
        np.concatenate([a.quad_idx, b.quad_idx]),
        np.concatenate([a.quad_center, b.quad_center]),
        np.concatenate([a.quad_weight, b.quad_weight]),
    )
    ai, ac, aw = reference_merge_atoms(
        np.concatenate([a.abs_idx, b.abs_idx]),
        np.concatenate([a.abs_center, b.abs_center]),
        np.concatenate([a.abs_weight, b.abs_weight]),
    )
    ei, _, ew = reference_merge_atoms(
        np.concatenate([a.exp_idx, b.exp_idx]),
        np.zeros(len(a.exp_idx) + len(b.exp_idx)),
        np.concatenate([a.exp_weight, b.exp_weight]),
    )
    return ConvexExpr(
        dim=a.dim, lin=a.lin + b.lin, const=a.const + b.const,
        quad_idx=qi, quad_center=qc, quad_weight=qw,
        abs_idx=ai, abs_center=ac, abs_weight=aw,
        exp_idx=ei, exp_weight=ew,
    )


def reference_mul(e, factor):
    factor = float(factor)
    if factor < 0 and not e.is_affine:
        raise ConvexityError(
            "scaling a nonlinear convex atom by a negative factor breaks convexity"
        )
    return ConvexExpr(
        dim=e.dim, lin=e.lin * factor, const=e.const * factor,
        quad_idx=e.quad_idx, quad_center=e.quad_center, quad_weight=e.quad_weight * factor,
        abs_idx=e.abs_idx, abs_center=e.abs_center, abs_weight=e.abs_weight * factor,
        exp_idx=e.exp_idx, exp_weight=e.exp_weight * factor,
    )


def reference_affine(c, const=0.0):
    fields = reference_empty(len(c))
    fields.update(lin=np.asarray(c, dtype=float).copy(), const=float(const))
    return ConvexExpr(**fields)


def reference_atom(dim, fam, coord, center, weight):
    fields = reference_empty(dim)
    fields[f"{fam}_idx"] = np.array([coord])
    fields[f"{fam}_weight"] = np.array([float(weight)])
    if fam != "exp":
        fields[f"{fam}_center"] = np.array([float(center)])
    return ConvexExpr(**fields)


class ReferenceParser:
    """Recursive-descent parser building a ConvexExpr at every step."""

    def __init__(self, text, dim):
        self.dim = dim
        self.tokens = _tokenize(text)
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

    def parse(self):
        expr = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing {text!r}", position=pos)
        return expr

    def expr(self):
        negate = False
        if self.peek()[1] == "-":
            self.next()
            negate = True
        try:
            total = self.term()
            if negate:
                total = reference_mul(total, -1.0)
            while self.peek()[1] in ("+", "-"):
                op = self.next()[1]
                rhs = self.term()
                total = reference_add(total, rhs if op == "+" else reference_mul(rhs, -1.0))
        except ConvexityError as exc:
            raise ExpressionError(f"non-convex atom: {exc}") from exc
        return total

    def term(self):
        factors = [self.factor()]
        while self.peek()[1] == "*":
            self.next()
            factors.append(self.factor())
        scalars = [f for f in factors if f.is_affine and not f.lin.any()]
        others = [f for f in factors if not (f.is_affine and not f.lin.any())]
        if len(others) > 1:
            raise ExpressionError(
                "products of non-constant expressions are outside the supported vocabulary"
            )
        coeff = 1.0
        for s in scalars:
            coeff *= s.const
        if not others:
            return reference_affine(np.zeros(self.dim), coeff)
        try:
            return reference_mul(others[0], coeff)
        except ConvexityError as exc:
            raise ExpressionError(f"non-convex atom: {exc}") from exc

    def factor(self):
        base, base_pos = self.primary()
        if self.peek()[1] == "^":
            self.next()
            kind, text, pos = self.next()
            if kind != "num":
                raise ExpressionError(f"expected an exponent, found {text!r}", position=pos)
            if float(text) != 2.0:
                raise ExpressionError(f"non-convex atom: power ^{text}", position=pos)
            return self._square(base, base_pos)
        return base

    def primary(self):
        kind, text, pos = self.next()
        if kind == "num":
            return reference_affine(np.zeros(self.dim), float(text)), pos
        if kind == "var":
            coord = int(text[1:]) - 1
            if not 0 <= coord < self.dim:
                raise ExpressionError(f"variable {text} outside x1..x{self.dim}", position=pos)
            c = np.zeros(self.dim)
            c[coord] = 1.0
            return reference_affine(c), pos
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

    def _single_variable_affine(self, e, pos, what):
        if not e.is_affine:
            raise ExpressionError(f"{what} of a nonlinear expression", position=pos)
        nz = np.flatnonzero(e.lin)
        if len(nz) > 1:
            raise ExpressionError(f"{what} of a multi-variable expression", position=pos)
        if len(nz) == 0:
            return None, 0.0, e.const
        k = int(nz[0])
        return k, float(e.lin[k]), e.const

    def _square(self, e, pos):
        k, slope, const = self._single_variable_affine(e, pos, "a square")
        if k is None:
            return reference_affine(np.zeros(self.dim), const * const)
        return reference_atom(self.dim, "quad", k, -const / slope, slope * slope)

    def _absolute(self, e, pos):
        k, slope, const = self._single_variable_affine(e, pos, "an absolute value")
        if k is None:
            return reference_affine(np.zeros(self.dim), abs(const))
        return reference_atom(self.dim, "abs", k, -const / slope, abs(slope))

    def _exponential(self, e, pos):
        k, slope, const = self._single_variable_affine(e, pos, "an exponential")
        if k is None or slope != 1.0 or const != 0.0:
            raise ExpressionError("exp(...) supports a bare variable argument only", position=pos)
        return reference_atom(self.dim, "exp", k, 0.0, 1.0)


# -- comparison helpers --------------------------------------------------------


def assert_same_form(got, want):
    """Equal normal forms with the same sign bit on every entry."""
    assert got.dim == want.dim
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype.kind == b.dtype.kind, (name, a, b)
        assert np.array_equal(a, b, equal_nan=True), (name, a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b)), (name, a, b)
    assert np.array_equal(want.const, got.const, equal_nan=True), (got.const, want.const)
    assert np.signbit(got.const) == np.signbit(want.const)


def outcome(fn, *args):
    """(result, None) or (None, exception class), with numpy's overflow warnings muted."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return fn(*args), None
        except InvalidInputError as exc:
            return None, type(exc)


def is_finite_form(e):
    return np.isfinite(e.const) and all(np.all(np.isfinite(getattr(e, f))) for f in FIELDS)


# -- the parser ----------------------------------------------------------------

NUMBERS = ("0", "0.0", "1", "2", "3", "10", "0.5", "1.5", "0.25", "2.", ".5", "1e0", "2.5e-1",
           "0.1", "0.3", "1.1", "7e-1")
number = st.sampled_from(NUMBERS)


@st.composite
def affine_text(draw, variables, depth=1):
    """A signed sum of numbers, scaled variables and scaled parenthesized sums."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        var, num = draw(st.sampled_from(variables)), draw(number)
        text = draw(st.sampled_from([
            num, var, var, f"{num}*{var}", f"{var} * {num}", f"({num} - {num})^2*{var}",
            f"{var} - {var}", f"({draw(affine_text(variables, depth - 1))})*{num}" if depth else num,
        ]))
        parts.append((draw(st.sampled_from("+-")), text))
    head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return head + "".join(f" {sign} {text}" for sign, text in parts[1:])


@st.composite
def expression_text(draw, dim, depth=2):
    """A signed sum of scaled atoms: mostly convex, with every kind of reject mixed in."""
    names = [f"x{k}" for k in range(1, dim + 1)]
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        # the argument of an atom: one variable, rarely several or one out of range
        variables = draw(st.sampled_from([[v] for v in names] * 20 + [names, [f"x{dim + 1}"]]))
        inner = draw(affine_text(variables))
        var = variables[0]
        kind = draw(st.sampled_from(["affine", "square", "abs", "abs", "exp", "nested"]))
        if kind == "affine":
            text = f"({inner})" if inner.startswith("-") else inner
        elif kind == "square":
            text = f"({inner}){draw(st.sampled_from(['^2'] * 6 + ['^2.0', '^3', '^x1']))}"
        elif kind == "abs":
            text = f"abs({inner})"
        elif kind == "exp":
            text = draw(st.sampled_from(
                [f"exp({var})"] * 3 + [f"exp({var} + 0)", f"exp(1*{var})", f"exp({inner})"]))
        else:
            text = f"({draw(expression_text(dim, depth - 1))})" if depth else inner
        scale = draw(st.sampled_from(
            [""] * 8 + ["{n}*"] * 3 + ["{n} * {n}*", "{n}*{n}*{n}*", "0*", "(-{n})*", "{n}*(-1)*"]))
        text = re.sub(r"\{n\}", lambda _: draw(number), scale) + text
        if draw(st.integers(0, 5)) == 0:
            text = f"{text}*{draw(number)}"
        parts.append((draw(st.sampled_from("+++++-")), text))
    head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return head + "".join(f" {sign} {text}" for sign, text in parts[1:])


@st.composite
def parser_cases(draw):
    dim = draw(st.integers(1, 3))
    return draw(expression_text(dim)), dim


class TestParserMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(parser_cases())
    @example(("abs(x1 - 1) + 2*abs(x1 - 1) + (x1 - 1)^2 + abs(x1 - 1)", 1))  # duplicates
    @example(("0*abs(x1) + abs(x1)", 1))  # a zero weight dropped by the sum
    @example(("0*abs(x1)", 1))  # ... and kept without one
    @example(("-(0*abs(x1))", 1))  # a zero-weight atom still counts as nonlinear
    @example(("-(x1 - x1)*3 - 0", 1))  # signed zeros
    @example(("(-(x1 - x1))*x2 - (x2 - x2)", 2))
    @example(("abs(3*x2 - 1) + exp(x1) + exp(x1) - 2*x1", 2))
    @example(("0.1*0.3*7e-1*abs(x1)", 1))  # scalar factors multiplied left to right
    @example(("-abs(x1)", 1))
    @example(("x1*x2", 2))
    @example(("(x1 - 1)^3", 1))
    def test_same_normal_form_or_same_error(self, case):
        text, dim = case
        got, got_exc = outcome(parse_expression, text, dim)
        want, want_exc = outcome(lambda: ReferenceParser(text, dim).parse())
        if want is not None and not is_finite_form(want):
            assert got_exc is ExpressionError, text
            return
        assert got_exc is want_exc, (text, got_exc, want_exc)
        if want is not None:
            assert_same_form(got, want)

    def test_one_expression_object_per_string(self, monkeypatch):
        made = []
        original = ConvexExpr.__post_init__

        def counting(self):
            made.append(self)
            original(self)

        monkeypatch.setattr(ConvexExpr, "__post_init__", counting)
        parse_expression("2*(x1 - 1)^2 + abs(x2 + 0.5) + abs(x2 + 0.5) - 3*x1 + exp(x2) - 4", 2)
        assert len(made) == 1


# -- the ConvexExpr operators ------------------------------------------------

special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0])
finite = st.floats(-3.0, 3.0)
weight = st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, 3.0))


@st.composite
def raw_expressions(draw, dim):
    """A ConvexExpr built field by field: unsorted, duplicate and zero-weight atoms."""
    fields = {"dim": dim, "lin": np.array([draw(st.one_of(finite, special)) for _ in range(dim)]),
              "const": draw(st.one_of(finite, special))}
    for fam in ("quad", "abs", "exp"):
        count = draw(st.integers(0, 4))
        fields[f"{fam}_idx"] = np.array(
            [draw(st.integers(0, dim - 1)) for _ in range(count)], dtype=int)
        fields[f"{fam}_weight"] = np.array([draw(weight) for _ in range(count)])
        if fam != "exp":
            centers = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), finite, special)
            fields[f"{fam}_center"] = np.array([draw(centers) for _ in range(count)])
    return ConvexExpr(**fields)


@st.composite
def operands(draw):
    dim = draw(st.integers(1, 3))
    return draw(raw_expressions(dim)), draw(raw_expressions(dim))


class TestOperatorsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(operands())
    def test_add(self, pair):
        a, b = pair
        got, _ = outcome(lambda: a + b)
        want, _ = outcome(reference_add, a, b)
        assert_same_form(got, want)

    @settings(max_examples=200, deadline=None)
    @given(raw_expressions(2), st.one_of(finite, special))
    def test_add_number(self, e, c):
        got, _ = outcome(lambda: e + c)
        assert_same_form(got, outcome(reference_add, e, c)[0])
        got, _ = outcome(lambda: c + e)
        assert_same_form(got, outcome(reference_add, e, c)[0])

    @settings(max_examples=300, deadline=None)
    @given(raw_expressions(2), st.one_of(finite, special))
    def test_mul(self, e, factor):
        got, got_exc = outcome(lambda: factor * e)
        want, want_exc = outcome(reference_mul, e, factor)
        assert got_exc is want_exc
        if want is not None:
            assert_same_form(got, want)

    @settings(max_examples=200, deadline=None)
    @given(operands())
    def test_sub(self, pair):
        a, b = pair
        got, got_exc = outcome(lambda: a - b)
        negated, want_exc = outcome(reference_mul, b, -1.0)
        assert got_exc is want_exc
        if negated is not None:
            assert_same_form(got, outcome(reference_add, a, negated)[0])

    def test_constructors(self):
        assert_same_form(convex.affine([0.5, -0.0], -2.0), reference_affine([0.5, -0.0], -2.0))
        assert_same_form(convex.quadratic(3, 2, -0.0, 1.5), reference_atom(3, "quad", 2, -0.0, 1.5))
        assert_same_form(convex.absolute(2, 0, 0.25, 0.0), reference_atom(2, "abs", 0, 0.25, 0.0))
        want = reference_add(reference_atom(2, "exp", 1, 0.0, 0.3), -5.0)
        assert_same_form(convex.exponential(2, 1, 0.3, -5.0), want)
        with pytest.raises(ConvexityError):
            convex.absolute(1, 0, weight=-1.0)
        with pytest.raises(InvalidInputError):
            convex.quadratic(2, 2)


# -- ROADMAP property: format then parse is the identity ---------------------


@st.composite
def canonical_expressions(draw):
    """Sums of atoms through the ConvexExpr algebra, with finite values."""
    dim = draw(st.integers(1, 4))
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    weights = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
    e = ConvexExpr.zero(dim)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["quad", "abs", "exp", "affine"]))
        k = draw(st.integers(0, dim - 1))
        if kind == "quad":
            e = e + convex.quadratic(dim, k, draw(values), draw(weights))
        elif kind == "abs":
            e = e + convex.absolute(dim, k, draw(values), draw(weights))
        elif kind == "exp":
            e = e + convex.exponential(dim, k, draw(weights), draw(values))
        else:
            e = e + convex.affine([draw(values) for _ in range(dim)], draw(values))
    return e


@settings(max_examples=300, deadline=None)
@given(canonical_expressions())
def test_format_then_parse_is_identity(e):
    assert parse_expression(format_expression(e), e.dim) == e
