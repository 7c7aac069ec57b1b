"""JSON problem files and the tiny convex expression grammar.

A problem file is a JSON object::

    {
      "agents": [
        {"dim": 2,
         "objective": "abs(x1 - 1) + (x2 - 1.5)^2",
         "constraints": ["exp(x2) - 5"],
         "box": [[1, 2], [1, 2]]},
        ...
      ],
      "laplacian": [[1, -1, 0], [-1, 2, -1], [0, -1, 1]],
      "consensus_depth": 1,
      "solver": {"h": 0.001, "method": "rk4", "t_max": 100.0, "kkt_tol": 1e-6},
      "init": {"x": [...], "lambda": [...], "mu": [...]}
    }

``solver`` and ``init`` are optional, as are per-agent ``objective``
(defaults to 0), ``constraints`` and ``box`` (defaults to the whole
space; box entries may be null for an unbounded side).  Every value is
checked once, on read: objects by one key check, numbers and arrays of
numbers (an agent's box as one array) by the package's one reader of
real numbers (``errors._reals``), which rejects booleans, strings, nulls
and ragged rows instead of converting them, and a Laplacian or ``init``
array of the wrong shape or with a non-finite entry, ``dim`` and
``consensus_depth`` as whole numbers, and the ``solver`` block by the
settings check of ``integrate``, so a bad value in the file is an error
even when the command line overrides it.

Expression strings use variables x1..x{dim} of the owning agent,
numeric literals, ``+``, ``-``, ``*`` by constants, ``abs(...)``,
``exp(xk)`` and squares ``(...)^2`` of single-variable affine terms.
Anything outside this vocabulary is rejected loudly: this parser
prefers a clear error over silently accepting a nonconvex formula, and
it rejects a number or a finished coefficient that is not finite and
parentheses nested over 100 deep.  It builds each term's coefficients
directly, with the floats of the ``convex.NormalForm`` algebra.
"""
from __future__ import annotations

import json
import math
import re
import reprlib
from dataclasses import asdict, dataclass
from importlib import resources
from itertools import chain
from operator import itemgetter
from pathlib import PurePath

import numpy as np

from .convex import (
    ABS,
    EXP,
    NEGATIVE_SCALE,
    QUAD,
    Box,
    ConstraintMap,
    ConvexExpr,
    NormalForm,
    _merge,
    _scaled,
    no_constraints,
    whole_space,
)
from .dynamics import AgentProblem, ProblemInstance, SolverState, _check_settings
from .errors import ConvexityError, ExpressionError, InvalidInputError, _integer, _reals

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op>[-+*^()])"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<bad>\S))"
)

#: parentheses, a function's included, nested deeper than this are rejected
_MAX_NESTING = 100

#: the atom families of a term without atoms (never written to)
_NO_ATOMS = ([], [], [])


def _tokenize(text):
    """(kind, text, column) of each token, then ("end", "", len(text))."""
    tokens = [(m.lastgroup, m[m.lastindex], m.start(m.lastindex))
              for m in _TOKEN_RE.finditer(text)]
    if "bad" in map(itemgetter(0), tokens):
        pos = next(pos for kind, _, pos in tokens if kind == "bad")
        raise ExpressionError(f"unexpected character {text[pos]!r}", position=pos)
    tokens.append(("end", "", len(text)))
    return tokens


def _times(term, factor):
    """The term (lin, const, atoms) times ``factor``, as ``NormalForm.scale``."""
    try:
        return _scaled(*term, factor)
    except ConvexityError as exc:
        raise ExpressionError(f"non-convex atom: {exc}") from exc


class _Parser:
    """Recursive descent that builds each term's coefficients directly.

    A factor is a float (a number, or a constant atom or parenthesis), a
    coordinate (a variable), an atom (family, (coord, center, weight)) or a
    parenthesis's ``NormalForm``.  A term, the product of its constant
    factors and at most one other factor, is a (lin, const, atoms) triple,
    and ``expr`` sums terms into one ``NormalForm``: each float is the one
    that the ``NormalForm`` algebra gives for the same string.
    """

    def __init__(self, text, dim):
        self.dim, self.tokens, self.i, self.depth = dim, _tokenize(text), 0, 0

    def expect(self, value):
        kind, text, pos = self.tokens[self.i]
        if text != value:
            raise ExpressionError(f"expected {value!r}, found {text or 'end of input'!r}", position=pos)
        self.i += 1

    def parse(self) -> ConvexExpr:
        form = self.expr()
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ExpressionError(f"unexpected trailing {text!r}", position=pos)
        atoms = map(chain.from_iterable, form.atoms)  # coordinates are finite too
        if not all(map(math.isfinite, chain(form.lin, (form.const,), *atoms))):
            raise ExpressionError("a coefficient of the expression is not finite", position=0)
        return form.freeze()

    def expr(self) -> NormalForm:
        tokens = self.tokens
        negate = tokens[self.i][1] == "-"
        self.i += negate
        lin, const, atoms = _times(self.term(), -1.0) if negate else self.term()
        merged = False  # after one sum, a family is merged until a term adds to it
        while tokens[self.i][1] in ("+", "-"):
            op = tokens[self.i][1]
            self.i += 1
            tl, tc, ta = self.term() if op == "+" else _times(self.term(), -1.0)
            lin = [a + b for a, b in zip(lin, tl)]
            const = const + tc
            if any(ta) or not merged:
                atoms = [_merge(a + b) if b or a and not merged else a for a, b in zip(atoms, ta)]
                merged = True
        return NormalForm(self.dim, lin, const, atoms)

    def term(self):
        tokens = self.tokens
        coeff, others = 1.0, []
        while True:
            pos = tokens[self.i][2]
            factor = self.primary()
            if tokens[self.i][1] == "^":
                kind, text, at = tokens[self.i + 1]
                self.i += 2
                if kind != "num":
                    raise ExpressionError(f"expected an exponent, found {text!r}", position=at)
                if float(text) != 2.0:
                    raise ExpressionError(
                        f"non-convex atom: power ^{text} (only squares are supported)", position=at)
                k, slope, const = self.affine(factor, pos, "a square")
                factor = const * const if k is None else (QUAD, (k, -const / slope, slope * slope))
            if factor.__class__ is float:
                coeff *= factor
            else:
                others.append(factor)
            if tokens[self.i][1] != "*":
                break
            self.i += 1
        if len(others) > 1:
            raise ExpressionError(
                "products of non-constant expressions are outside the supported vocabulary")
        if not others:
            return [0.0] * self.dim, coeff, _NO_ATOMS
        other = others[0]
        if other.__class__ is NormalForm:  # scaling by 1.0 changes no bit
            term = other.lin, other.const, other.atoms
            return term if coeff == 1.0 else _times(term, coeff)
        # a variable's or an atom's unit form times coeff, as NormalForm.scale gives it
        zero = 0.0 * coeff
        lin = [zero] * self.dim
        if other.__class__ is int:
            lin[other] = coeff
            return lin, zero, _NO_ATOMS
        family, (k, c, w) = other
        if coeff < 0:
            raise ExpressionError(f"non-convex atom: {NEGATIVE_SCALE}")
        atoms = ([], [], [])
        atoms[family].append((k, c, w * coeff))
        return lin, zero, atoms

    def primary(self):
        kind, text, pos = self.tokens[self.i]
        self.i += 1
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ExpressionError(f"number {text} is not finite", position=pos)
            return value
        if kind == "var":
            coord = int(text[1:]) - 1
            if not 0 <= coord < self.dim:
                raise ExpressionError(f"variable {text} outside x1..x{self.dim}", position=pos)
            return coord
        if kind == "name":
            if text not in ("abs", "exp"):
                raise ExpressionError(f"unknown function {text!r}", position=pos)
            self.expect("(")
            what = "an absolute value" if text == "abs" else "an exponential"
            k, slope, const = self.affine(self.group(), pos, what)
            if text == "abs":
                return abs(const) if k is None else (ABS, (k, -const / slope, abs(slope)))
            if k is None or slope != 1.0 or const != 0.0:
                raise ExpressionError(
                    "exp(...) supports a bare variable argument only", position=pos)
            return EXP, (k, 0.0, 1.0)
        if text == "(":
            form = self.group()
            return form.const if form.is_affine and not any(form.lin) else form
        raise ExpressionError(f"unexpected {text or 'end of input'!r}", position=pos)

    def group(self) -> NormalForm:
        """The expression after an opening parenthesis, up to its closing one."""
        if self.depth == _MAX_NESTING:
            raise ExpressionError(f"parentheses nested deeper than {_MAX_NESTING}",
                                  position=self.tokens[self.i - 1][2])
        self.depth += 1
        form = self.expr()
        self.expect(")")
        self.depth -= 1
        return form

    def affine(self, e, pos, what):
        """(coord, slope, const) of a factor that is affine in one variable,
        with coord None for a constant."""
        if e.__class__ is float:
            return None, 0.0, e
        if e.__class__ is int:
            return e, 1.0, 0.0
        if e.__class__ is tuple or not e.is_affine:
            what = f"{what} of a nonlinear expression"
        else:
            nz = [k for k, v in enumerate(e.lin) if v]
            if len(nz) < 2:
                return (nz[0], e.lin[nz[0]], e.const) if nz else (None, 0.0, e.const)
            what = f"{what} of a multi-variable expression"
        raise ExpressionError(f"{what} is outside the supported vocabulary", position=pos)


def parse_expression(text: str, dim: int) -> ConvexExpr:
    """Parse one expression string over x1..x{dim}; anything but a
    ``str`` raises ``ExpressionError``."""
    if not isinstance(text, str):
        raise ExpressionError(f"an expression must be a string, got {reprlib.repr(text)}")
    return _Parser(text, _integer(dim, "dim", 1)).parse()


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _shifted_var(coord, center):
    name = f"x{coord + 1}"
    if center == 0:
        return name
    if center > 0:
        return f"{name} - {_fmt(center)}"
    return f"{name} + {_fmt(-center)}"


def format_expression(e: ConvexExpr) -> str:
    """Canonical string form of a ``ConvexExpr``; reparsing yields an equal expression."""
    if not isinstance(e, ConvexExpr):
        raise InvalidInputError(f"format_expression takes a ConvexExpr, got {type(e).__name__}")
    # an exponential's center is 0, which _shifted_var leaves out
    atoms = [(form.format(_shifted_var(k, c)), w)
             for form, family in zip(("({})^2", "abs({})", "exp({})"), e._families)
             for k, c, w in zip(*family)]
    parts = [(False, text if w == 1.0 else f"{_fmt(w)}*{text}") for text, w in atoms]
    for k in np.flatnonzero(e.lin):  # (negative, text)
        a = e.lin[k]
        parts.append((a < 0, f"x{k + 1}" if abs(a) == 1.0 else f"{_fmt(abs(a))}*x{k + 1}"))
    if e.const != 0.0 or not parts:
        parts.append((e.const < 0, _fmt(abs(e.const))))
    out = "".join((" - " if neg else " + ") + text for neg, text in parts)
    return ("-" if parts[0][0] else "") + out[3:]


# -- problem files -----------------------------------------------------------


@dataclass
class SolverSettings:
    h: float = 1e-3
    method: str = "rk4"
    t_max: float = 100.0
    kkt_tol: float = 1e-6


@dataclass
class LoadedProblem:
    problem: ProblemInstance
    settings: SolverSettings
    init: SolverState = None


def _object(value, what, required=(), optional=()) -> dict:
    """``value``, checked to be a JSON object with every ``required`` key
    and no key outside ``required`` and ``optional``."""
    if not isinstance(value, dict):
        raise ExpressionError(f"{what} must be a JSON object")
    for key in required:
        if key not in value:
            raise ExpressionError(f"{what} is missing {key!r}")
    unknown = set(value) - set(required) - set(optional)
    if unknown:
        raise ExpressionError(f"{what} has unknown keys {sorted(unknown)}")
    return value


def _array(value, what) -> list:
    if not isinstance(value, (list, tuple)):
        raise ExpressionError(f"{what} must be a JSON array")
    return value


def _expression(text, dim, what) -> ConvexExpr:
    if not isinstance(text, str):
        raise ExpressionError(f"{what} must be an expression string, got {text!r}")
    return parse_expression(text, dim)


def _parse_agent(entry, index):
    where = f"agents[{index}]"
    _object(entry, where, ("dim",), ("objective", "constraints", "box"))
    dim = _integer(entry["dim"], f"{where}.dim", 1, ExpressionError)
    objective = _expression(entry.get("objective", "0"), dim, f"{where}.objective")
    rows = _array(entry.get("constraints", []), f"{where}.constraints")
    constraints = (
        ConstraintMap(tuple(_expression(r, dim, f"{where}.constraints") for r in rows))
        if rows
        else no_constraints()
    )
    if entry.get("box") is None:
        return AgentProblem(objective=objective, constraints=constraints, box=whole_space(dim))
    pairs = _array(entry["box"], f"{where}.box")
    if len(pairs) != dim:
        raise ExpressionError(f"{where}.box has {len(pairs)} pairs for dimension {dim}")
    if any(not isinstance(p, (list, tuple)) or len(p) != 2 for p in pairs):
        raise ExpressionError(f"{where}.box entries must be [lower, upper] pairs")
    bounds = [[-np.inf if lo is None else lo, np.inf if hi is None else hi] for lo, hi in pairs]
    lower, upper = _reals(bounds, f"{where}.box bounds", 2, ExpressionError).T.copy()
    return AgentProblem(objective=objective, constraints=constraints, box=Box(lower, upper))


def parse_problem_dict(doc: dict, slater_probe: bool = True) -> LoadedProblem:
    """A checked problem from the object a problem file holds."""
    _object(doc, "problem file", ("agents", "laplacian", "consensus_depth"), ("solver", "init"))
    agents = [_parse_agent(a, i) for i, a in enumerate(_array(doc["agents"], "agents"))]
    problem = ProblemInstance(
        agents,
        _reals(doc["laplacian"], "laplacian", "square", ExpressionError, finite=True),
        _integer(doc["consensus_depth"], "consensus_depth", 1, ExpressionError),
        slater_probe=slater_probe,
    )
    solver = doc.get("solver")
    keys = SolverSettings.__dataclass_fields__
    settings = SolverSettings(**_object({} if solver is None else solver, "solver block", (), keys))
    # checked on read, even where a command-line flag overrides the value
    settings.h, settings.t_max, settings.kkt_tol = _check_settings(
        settings.h, settings.method, settings.t_max, settings.kkt_tol
    )
    init = None if doc.get("init") is None else _parse_init(doc["init"], problem)
    return LoadedProblem(problem=problem, settings=settings, init=init)


def _parse_init(block, problem) -> SolverState:
    """An initial state from an {x, lambda, mu} object; missing arrays are zeros."""
    _object(block, "init block", (), ("x", "lambda", "mu"))
    sizes = {"x": problem.total_dim, "lambda": problem.total_dim, "mu": problem.multiplier_dim}
    arrays = [_reals(block[name], f"init.{name}", (want,), ExpressionError, finite=True)
              if name in block else np.zeros(want) for name, want in sizes.items()]
    return SolverState(*arrays, 0.0)


def parse_problem(path, slater_probe: bool = True) -> LoadedProblem:
    """Load and validate a problem file; see the module docstring for the schema."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ExpressionError(
                f"invalid JSON in {path}: {exc.msg} (line {exc.lineno}, column {exc.colno})"
            ) from exc
        except UnicodeDecodeError as exc:
            raise ExpressionError(f"{path} is not UTF-8 text: {exc.reason}") from None
    return parse_problem_dict(doc, slater_probe=slater_probe)


def serialize_problem(problem: ProblemInstance, settings: SolverSettings = None) -> dict:
    """Inverse of ``parse_problem_dict`` (round-trips to an equal instance)."""
    agents = []
    for a in problem.agents:
        entry = {"dim": a.dim, "objective": format_expression(a.objective)}
        if a.constraints.size:
            entry["constraints"] = [format_expression(c) for c in a.constraints.components]
        if not (np.all(np.isneginf(a.box.lower)) and np.all(np.isposinf(a.box.upper))):
            entry["box"] = [
                [None if np.isneginf(lo) else lo, None if np.isposinf(hi) else hi]
                for lo, hi in zip(a.box.lower, a.box.upper)
            ]
        agents.append(entry)
    doc = {
        "agents": agents,
        "laplacian": problem.laplacian.tolist(),
        "consensus_depth": problem.depth,
    }
    if settings is not None:
        doc["solver"] = asdict(settings)
    return doc


def fixture_path(name: str):
    """Path of a packaged example problem file: ``name`` must be a ``str``
    naming a file directly inside the fixtures directory, with no path
    separator and no "..", else ``InvalidInputError``."""
    plain = isinstance(name, str) and PurePath(name).name == name and ".." not in name
    path = resources.files("pcons").joinpath("fixtures", name) if plain else None
    if path is None or not path.is_file():
        raise InvalidInputError(f"no packaged fixture named {name!r}")
    return path
