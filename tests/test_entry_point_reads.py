"""Every public entry point reads its array and number arguments through
``errors._reals`` (or ``_positive`` for a tolerance): values that are not
real numbers, a wrong shape and, where the entry point needs finite
values, NaN and infinity are ``InvalidInputError``s (``ProtocolError`` in
a payload, ``ExpressionError`` in a problem file), never numpy's
``ValueError`` or ``TypeError``; valid values give the floats that
``np.asarray(value, dtype=float)`` gives."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pcons
from pcons import convex
from pcons.convex import Box, ConstraintMap, in_normal_cone, project_nonneg
from pcons.dynamics import (
    AgentProblem, ProblemInstance, SolverState, integrate, kkt_residual, lyapunov_value,
    write_trajectory_csv,
)
from pcons.errors import ExpressionError, InvalidInputError, ProtocolError
from pcons.network import Agent, build_agents
from pcons.pcmatrix import (
    build_partial_consensus_matrix, extend_matrix, extract, is_partial_consensus,
    laplacian_is_connected, normalize_laplacian, permutation_matrix,
)
from pcons.problemfile import parse_problem_dict

EXPR = convex.quadratic(2, 0, center=0.5) + convex.absolute(2, 1, center=0.25)
BOX = Box(np.zeros(2), np.array([1.0, 2.0]))
CONS = ConstraintMap((convex.affine([1.0, 1.0], -1.0), convex.exponential(2, 1)))
LAP = [[1.0, -1.0], [-1.0, 1.0]]
PAIR = [AgentProblem(EXPR, CONS, BOX), AgentProblem(EXPR, CONS, BOX)]
PROBLEM = ProblemInstance(PAIR, LAP, 1)
PC = build_partial_consensus_matrix(LAP, [2, 2], 1)
PERM = permutation_matrix(3, [2])
EX2 = pcons.parse_problem(pcons.fixture_path("example2.json"), slater_probe=False).problem
AGENT = build_agents(EX2)[1]  # agent 2 of example2: dim 2, one constraint, neighbors 0 and 2


def _payloads(x_part=(0.5,), lam_part=(0.0,)):
    return {0: (x_part, lam_part), 2: ([1.5], [0.0])}


def _state(**parts):
    n, m = PROBLEM.total_dim, PROBLEM.multiplier_dim
    fields = {"x": np.full(n, 0.5), "lam": np.zeros(n), "mu": np.zeros(m), "t": 0.0}
    fields.update(parts)
    return SolverState(**fields)


def _file_init(x):
    return parse_problem_dict({"agents": [{"dim": 2}], "laplacian": [[0]],
                               "consensus_depth": 1, "init": {"x": x}}, slater_probe=False)


#: the shape rule of an entry point: None when any shape is read, else
#: a value of a wrong shape (by default the valid value with one more axis)
ONE_MORE_AXIS = object()

#: name: (call of the value, a valid value, error class, needs finite values,
#: a value of a wrong shape)
ENTRIES = {
    "ConvexExpr.value": (EXPR.value, [0.5, 1.0], InvalidInputError, False, ONE_MORE_AXIS),
    "ConvexExpr.subgradient": (EXPR.subgradient, [0.5, 1.0], InvalidInputError, False,
                               ONE_MORE_AXIS),
    "ConvexExpr.subgradient_interval": (EXPR.subgradient_interval, [0.5, 1.0],
                                        InvalidInputError, False, ONE_MORE_AXIS),
    "ConvexExpr.value_many": (EXPR.value_many, [[0.5, 1.0]], InvalidInputError, False,
                              [[0.5, 1.0, 2.0]]),
    "ConvexExpr + number": (lambda v: EXPR + v, 1.5, InvalidInputError, False, None),
    "ConvexExpr * number": (lambda v: EXPR * v, 1.5, InvalidInputError, False, None),
    "Box.project": (BOX.project, [0.5, 1.0], InvalidInputError, False, ONE_MORE_AXIS),
    "Box.contains": (BOX.contains, [0.5, 1.0], InvalidInputError, False, ONE_MORE_AXIS),
    "Box.contains tol": (lambda v: BOX.contains([0.5, 1.0], tol=v), 0.1, InvalidInputError,
                         True, ONE_MORE_AXIS),
    "Box.violation": (BOX.violation, [0.5, 1.0], InvalidInputError, False, ONE_MORE_AXIS),
    "in_normal_cone x": (lambda v: in_normal_cone(BOX, v, [0.0, 0.0]), [0.5, 1.0],
                         InvalidInputError, False, ONE_MORE_AXIS),
    "in_normal_cone w": (lambda v: in_normal_cone(BOX, [0.5, 1.0], v), [0.0, 0.0],
                         InvalidInputError, False, ONE_MORE_AXIS),
    "in_normal_cone tol": (lambda v: in_normal_cone(BOX, [0.5, 1.0], [0.0, 0.0], tol=v), 1e-9,
                           InvalidInputError, True, ONE_MORE_AXIS),
    "project_nonneg": (project_nonneg, [-1.0, 2.0], InvalidInputError, False, None),
    "ConstraintMap.weighted_subgradient x": (lambda v: CONS.weighted_subgradient(v, [1.0, 2.0]),
                                             [0.5, 1.0], InvalidInputError, False, ONE_MORE_AXIS),
    "ConstraintMap.weighted_subgradient multipliers": (
        lambda v: CONS.weighted_subgradient([0.5, 1.0], v), [1.0, 2.0], InvalidInputError, False,
        ONE_MORE_AXIS),
    "affine coefficients": (convex.affine, [1.0, 2.0], InvalidInputError, True, ONE_MORE_AXIS),
    "affine constant": (lambda v: convex.affine([1.0], v), 0.5, InvalidInputError, True,
                        ONE_MORE_AXIS),
    "quadratic center": (lambda v: convex.quadratic(2, 0, center=v), 0.5, InvalidInputError,
                         True, ONE_MORE_AXIS),
    "quadratic weight": (lambda v: convex.quadratic(2, 0, weight=v), 2.0, InvalidInputError,
                         True, ONE_MORE_AXIS),
    "absolute center": (lambda v: convex.absolute(2, 1, center=v), 0.5, InvalidInputError,
                        True, ONE_MORE_AXIS),
    "absolute weight": (lambda v: convex.absolute(2, 1, weight=v), 2.0, InvalidInputError,
                        True, ONE_MORE_AXIS),
    "exponential weight": (lambda v: convex.exponential(2, 1, weight=v), 2.0,
                           InvalidInputError, True, ONE_MORE_AXIS),
    "exponential constant": (lambda v: convex.exponential(2, 1, const=v), -1.0,
                             InvalidInputError, True, ONE_MORE_AXIS),
    "extract": (lambda v: extract(v, [2]), [1.0, 2.0], InvalidInputError, False, ONE_MORE_AXIS),
    "extend_matrix": (lambda v: extend_matrix(v, [1]), LAP, InvalidInputError, False,
                      ONE_MORE_AXIS),
    "is_partial_consensus x": (lambda v: is_partial_consensus(PC, v), [1.0, 2.0, 1.0, 3.0],
                               InvalidInputError, False, ONE_MORE_AXIS),
    "is_partial_consensus tol": (lambda v: is_partial_consensus(PC, np.ones(4), v), 1e-9,
                                 InvalidInputError, True, ONE_MORE_AXIS),
    "PermutationMatrix.apply": (PERM.apply, [1.0, 2.0, 3.0], InvalidInputError, False,
                                ONE_MORE_AXIS),
    "normalize_laplacian": (normalize_laplacian, LAP, InvalidInputError, True, ONE_MORE_AXIS),
    "laplacian_is_connected": (laplacian_is_connected, LAP, InvalidInputError, False,
                               ONE_MORE_AXIS),
    "build_partial_consensus_matrix": (lambda v: build_partial_consensus_matrix(v, [2, 2], 1),
                                       LAP, InvalidInputError, True, ONE_MORE_AXIS),
    "ProblemInstance laplacian": (lambda v: ProblemInstance(PAIR, v, 1), LAP, InvalidInputError,
                                  True, ONE_MORE_AXIS),
    "ProblemInstance.objective_value": (PROBLEM.objective_value, [0.5, 1.0, 0.5, 1.0],
                                        InvalidInputError, False, ONE_MORE_AXIS),
    "ProblemInstance.constraint_values": (PROBLEM.constraint_values, [0.5, 1.0, 0.5, 1.0],
                                          InvalidInputError, False, ONE_MORE_AXIS),
    "ProblemInstance.box_violation": (PROBLEM.box_violation, [0.5, 1.0, 0.5, 1.0],
                                      InvalidInputError, False, ONE_MORE_AXIS),
    "state x": (lambda v: kkt_residual(_state(x=v), PROBLEM), [0.5] * 4, InvalidInputError,
                True, ONE_MORE_AXIS),
    "state lambda": (lambda v: kkt_residual(_state(lam=v), PROBLEM), [0.0] * 4,
                     InvalidInputError, True, ONE_MORE_AXIS),
    "state mu": (lambda v: kkt_residual(_state(mu=v), PROBLEM), [0.0] * 4, InvalidInputError,
                 True, ONE_MORE_AXIS),
    "state time": (lambda v: kkt_residual(_state(t=v), PROBLEM), 0.0, InvalidInputError, True,
                   ONE_MORE_AXIS),
    "Agent x": (lambda v: Agent(2, AGENT.problem, 1, 4.0, AGENT.neighbors, v, [0.0] * 2, [0.0]),
                [1.5, 1.5], InvalidInputError, False, ONE_MORE_AXIS),
    "Agent lambda": (lambda v: Agent(2, AGENT.problem, 1, 4.0, AGENT.neighbors, [1.5] * 2, v,
                                     [0.0]), [0.0, 0.0], InvalidInputError, False, ONE_MORE_AXIS),
    "Agent mu": (lambda v: Agent(2, AGENT.problem, 1, 4.0, AGENT.neighbors, [1.5] * 2,
                                 [0.0] * 2, v), [0.0], InvalidInputError, False, ONE_MORE_AXIS),
    "Agent.local_velocity x": (lambda v: AGENT.local_velocity(v, AGENT.lam, AGENT.mu,
                                                              _payloads()),
                               [1.5, 1.5], InvalidInputError, False, ONE_MORE_AXIS),
    "Agent.local_velocity mu": (lambda v: AGENT.local_velocity(AGENT.x, AGENT.lam, v,
                                                               _payloads()),
                                [0.5], InvalidInputError, False, ONE_MORE_AXIS),
    "payload x part": (lambda v: AGENT.local_velocity(AGENT.x, AGENT.lam, AGENT.mu,
                                                      _payloads(x_part=v)),
                       [0.5], ProtocolError, False, ONE_MORE_AXIS),
    "payload lambda part": (lambda v: AGENT.local_velocity(AGENT.x, AGENT.lam, AGENT.mu,
                                                           _payloads(lam_part=v)),
                            [0.0], ProtocolError, False, ONE_MORE_AXIS),
    "problem file init": (_file_init, [0.5, 1.0], ExpressionError, True, ONE_MORE_AXIS),
}


def _bad_values(valid, finite, wrong):
    """Values of every kind that is not a valid argument like ``valid``."""
    arr = np.asarray(valid, dtype=float)

    def each(entry):
        return np.full(arr.shape, entry, dtype=object).tolist() if arr.ndim else entry

    bad = {"bools": each(True), "strings": each("1.5"), "None": None, "None entries": each(None),
           "complex numbers": arr + 1j, "an object array": arr.astype(object),
           "a bool array": arr.astype(bool)}
    if arr.ndim:
        bad["ragged rows"] = [[1.0, 2.0], [1.0]]
    if wrong is not None:
        bad["a wrong shape"] = [valid] if wrong is ONE_MORE_AXIS else wrong
    if finite:
        for name, special in (("NaN", np.nan), ("infinity", np.inf)):
            value = arr.copy()
            value.flat[0] = special
            bad[name] = value.tolist() if arr.ndim else float(value)
    return bad


#: operators keep Python's protocol for types that are not numbers: they
#: return NotImplemented, so only bools reach the reader
_OPERATOR_KINDS = ("bools", "a wrong shape")

CASES = [(entry, kind) for entry, (_, valid, _, finite, wrong) in sorted(ENTRIES.items())
         for kind in _bad_values(valid, finite, wrong)
         if not entry.startswith("ConvexExpr ") or kind in _OPERATOR_KINDS]


@pytest.mark.parametrize("entry, kind", CASES)
def test_a_bad_argument_raises_the_documented_error(entry, kind):
    call, valid, error, finite, wrong = ENTRIES[entry]
    with pytest.raises(error) as info:
        call(_bad_values(valid, finite, wrong)[kind])
    assert not isinstance(info.value, (TypeError, ValueError)) or isinstance(
        info.value, InvalidInputError)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_the_valid_value_is_read(entry):
    call, valid, *_ = ENTRIES[entry]
    call(valid)


# -- valid values read as the old conversion read them ------------------------

_ELEMENT = st.one_of(
    st.integers(-3, 3), st.floats(-3.0, 3.0, allow_nan=False),
    st.integers(-3, 3).map(np.int64), st.floats(-3.0, 3.0).map(np.float64),
    st.floats(-3.0, 3.0, width=32).map(np.float32),
)


@st.composite
def _spelled(draw, values):
    """``values`` (a nested list of floats) spelled as ints, floats and numpy
    scalars, in lists, tuples or an array."""
    def spell(v):
        if isinstance(v, list):
            return draw(st.sampled_from([list, tuple, np.array]))([spell(e) for e in v])
        return draw(st.sampled_from([v, np.float64(v), int(v) if v == int(v) else v]))

    return spell(values)


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, convex.ConvexExpr):
        return a == b and a.const.hex() == b.const.hex()
    if isinstance(a, float):
        return a.hex() == b.hex()
    return a == b


#: entries whose value may be any reals of its shape, and the shape
_FREE = {
    "ConvexExpr.value": (2,), "ConvexExpr.subgradient": (2,),
    "ConvexExpr.subgradient_interval": (2,), "ConvexExpr.value_many": (3, 2),
    "Box.project": (2,), "Box.contains": (2,), "Box.violation": (2,), "project_nonneg": (2, 2),
    "ConstraintMap.weighted_subgradient x": (2,),
    "ConstraintMap.weighted_subgradient multipliers": (2,), "affine coefficients": (2,),
    "affine constant": (), "quadratic center": (), "absolute center": (),
    "exponential constant": (), "extract": (2,), "is_partial_consensus x": (4,),
    "PermutationMatrix.apply": (3,), "extend_matrix": (2, 2),
    "ProblemInstance.objective_value": (4,), "ProblemInstance.constraint_values": (4,),
    "ProblemInstance.box_violation": (4,), "state x": (4,), "state lambda": (4,),
    "Agent.local_velocity x": (2,), "payload x part": (1,), "problem file init": (2,),
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_valid_values_read_as_floats_bit_for_bit(data):
    entry = data.draw(st.sampled_from(sorted(_FREE)))
    shape = _FREE[entry]
    floats = data.draw(_ELEMENT if not shape else
                       st.lists(_ELEMENT, min_size=int(np.prod(shape)),
                                max_size=int(np.prod(shape))))
    values = np.asarray(floats, dtype=float).reshape(shape).tolist()
    spelled = data.draw(_spelled(values)) if shape else floats
    call = ENTRIES[entry][0]
    want = call(np.asarray(spelled, dtype=float) if shape else float(spelled))
    assert _same(call(spelled), want) if entry != "problem file init" else _same(
        call(spelled).init.x, want.init.x)


@given(st.sampled_from([1, 2.0, np.int64(3), np.float64(0.5), np.float32(1.25)]))
def test_a_laplacian_scaled_by_any_real_reads_the_same(scale):
    lap = [[scale, -scale], [-scale, scale]]
    want = normalize_laplacian(np.asarray(lap, dtype=float))
    assert _same(normalize_laplacian(lap), want)
    assert _same(ProblemInstance(PAIR, lap, 1).laplacian, want)


# -- the cases this rule was written for ----------------------------------------

class TestNothingIsSilentlyConverted:
    def test_a_laplacian_of_strings(self):
        with pytest.raises(InvalidInputError, match="Laplacian"):
            ProblemInstance(PAIR, [["1", "-1"], ["-1", "1"]], 1)

    def test_is_partial_consensus_of_strings(self):
        with pytest.raises(InvalidInputError):
            is_partial_consensus(PC, ["1", "1", "1", "1"])

    @pytest.mark.parametrize("method", ["project", "contains", "violation"])
    def test_box_methods_check_the_length(self, method):
        with pytest.raises(InvalidInputError, match=r"must have length 2, got shape \(3,\)"):
            getattr(BOX, method)([0.5, 0.5, 0.5])

    def test_a_nan_weight(self):
        with pytest.raises(InvalidInputError, match="atom weight must be finite"):
            convex.quadratic(2, 0, weight=np.nan)

    def test_an_extra_multiplier(self):
        with pytest.raises(InvalidInputError, match=r"must have length 2, got shape \(3,\)"):
            CONS.weighted_subgradient([0.5, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("op", [lambda e: e + True, lambda e: True + e, lambda e: e * True,
                                    lambda e: e - False])
    def test_a_bool_operand(self, op):
        with pytest.raises(InvalidInputError):
            op(EXPR)

    def test_the_message_names_what_the_shape_and_what_was_got(self):
        with pytest.raises(InvalidInputError) as info:
            PROBLEM.objective_value([0.5, 1.0])
        assert str(info.value) == "stacked vector must have length 4, got shape (2,)"


# -- one test per satellite change ------------------------------------------------

class TestDescentFunctionReadsFloats:
    """V is computed from the float arrays the state check returns."""

    def test_lyapunov_value_of_list_states(self, example2, example2_run_tight):
        ref = example2_run_tight.final
        listed = SolverState(ref.x.tolist(), ref.lam.tolist(), ref.mu.tolist(), ref.t)
        state = SolverState(ref.x + 0.01, ref.lam.copy(), ref.mu.copy(), 0.0)
        state_listed = SolverState(state.x.tolist(), state.lam.tolist(), state.mu.tolist(), 0)
        want = lyapunov_value(state, ref, example2.problem)
        assert lyapunov_value(state_listed, listed, example2.problem) == want

    def test_trajectory_csv_with_a_list_reference(self, example2, example2_run_tight, tmp_path):
        ref = example2_run_tight.final
        listed = SolverState(ref.x.tolist(), ref.lam.tolist(), ref.mu.tolist(), ref.t)
        run = integrate(example2.problem, h=1e-3, t_max=3e-3)
        write_trajectory_csv(run, tmp_path / "floats.csv", example2.problem, reference=ref)
        write_trajectory_csv(run, tmp_path / "lists.csv", example2.problem, reference=listed)
        assert (tmp_path / "lists.csv").read_bytes() == (tmp_path / "floats.csv").read_bytes()


class TestLaplacianNonFiniteFirst:
    @pytest.mark.parametrize("entry, at", [(np.inf, (0, 1)), (-np.inf, (1, 1)),
                                           (np.nan, (0, 0)), (np.nan, (0, 1))])
    def test_named_as_non_finite_without_a_warning(self, entry, at):
        lap = np.array(LAP)
        lap[at] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="Laplacian must be finite"):
                normalize_laplacian(lap)


class TestTolerances:
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9, "0.1", True, None])
    def test_box_contains(self, tol):
        with pytest.raises(InvalidInputError, match="tol"):
            BOX.contains([0.5, 1.0], tol=tol)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, "0.1"])
    def test_in_normal_cone(self, tol):
        with pytest.raises(InvalidInputError, match="tol"):
            in_normal_cone(BOX, [0.5, 1.0], [0.0, 0.0], tol=tol)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, "0.1"])
    def test_is_partial_consensus(self, tol):
        with pytest.raises(InvalidInputError, match="tol"):
            is_partial_consensus(PC, np.ones(4), tol)

    def test_zero_is_a_tolerance(self):
        assert BOX.contains([0.0, 2.0], tol=0) and is_partial_consensus(PC, np.ones(4), 0)


class TestEmptyAtomFamiliesCompileToNothing:
    def test_only_the_families_with_atoms_hold_arrays(self):
        kernel = PROBLEM.kernel  # squares and absolute values; affine and exp constraints
        assert kernel.quad.size == 2 and kernel.abs.size == 2 and kernel.con_exp.size == 2
        for family in (kernel.exp, kernel.con_quad, kernel.con_abs):
            assert family.size == 0 and family.slots == () and not vars(family)
