"""The in-place ``ConvexExpr.value_many`` against the evaluation it replaced."""
import numpy as np
from hypothesis import given, settings, strategies as st

from pcons import convex


def _reference_value_many(expr, points):
    """``value_many`` before the in-place evaluation: a new array for every
    step of every atom family, and each family's weighted sum by ``@``."""
    pts = np.asarray(points, dtype=float)
    total = pts @ expr.lin + expr.const
    if len(expr.quad_idx):
        d = pts[..., expr.quad_idx] - expr.quad_center
        total = total + (d * d) @ expr.quad_weight
    if len(expr.abs_idx):
        total = total + np.abs(pts[..., expr.abs_idx] - expr.abs_center) @ expr.abs_weight
    if len(expr.exp_idx):
        total = total + np.exp(pts[..., expr.exp_idx]) @ expr.exp_weight
    return total


# signed zeros against negative coefficients, coordinates where exp
# overflows (past about 709.78), infinities and NaN
_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 709.0, 710.0, 1e3, -1e3,
                     np.inf, -np.inf, np.nan]),
    st.floats(-50.0, 50.0),
)
_COEFFS = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])
_CENTERS = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])
_WEIGHTS = st.sampled_from([0.25, 0.5, 1.0, 2.0])


@st.composite
def _expressions(draw):
    """Zero, one or several atoms per family on R^1..R^4."""
    dim = draw(st.integers(1, 4))
    expr = convex.affine([draw(_COEFFS) for _ in range(dim)],
                         draw(st.sampled_from([-1.0, -0.0, 0.0, 2.5])))
    atoms = (
        lambda k: convex.quadratic(dim, k, center=draw(_CENTERS), weight=draw(_WEIGHTS)),
        lambda k: convex.absolute(dim, k, center=draw(_CENTERS), weight=draw(_WEIGHTS)),
        lambda k: convex.exponential(dim, k, weight=draw(_WEIGHTS)),
    )
    for atom in atoms:
        for k in draw(st.lists(st.integers(0, dim - 1), max_size=4)):
            expr = expr + atom(k)
    return expr


@st.composite
def _cases(draw):
    expr = draw(_expressions())
    lead = draw(st.sampled_from([(), (3,), (2, 4)]))  # points of ndim 1, 2 and 3
    size = int(np.prod(lead, dtype=int)) * expr.dim
    coords = draw(st.lists(_COORDS, min_size=size, max_size=size))
    return expr, np.array(coords, dtype=float).reshape(*lead, expr.dim)


@settings(max_examples=400, deadline=None)
@given(_cases())
def test_value_many_matches_the_reference_bit_for_bit(case):
    expr, points = case
    with np.errstate(all="ignore"):
        expected = _reference_value_many(expr, points)
        found = expr.value_many(points)
    assert type(found) is type(expected)
    assert np.shape(found) == np.shape(expected)
    assert np.asarray(found).tobytes() == np.asarray(expected).tobytes(), (expr, points)


def test_every_family_has_one_and_several_atoms_in_the_reference_check():
    # one atom per family takes the product rule, several keep @
    one = convex.quadratic(1, 0, 0.5) + convex.absolute(1, 0, -0.0) + convex.exponential(1, 0)
    several = (convex.quadratic(2, 0) + convex.quadratic(2, 1, 1.0)
               + convex.absolute(2, 0) + convex.absolute(2, 1, 2.0)
               + convex.exponential(2, 0) + convex.exponential(2, 1)
               + convex.affine([-1.0, 0.5]))
    for expr in (one, several):
        pts = np.random.default_rng(3).normal(size=(5, 7, expr.dim))
        pts[0, 0] = -0.0
        assert expr.value_many(pts).tobytes() == _reference_value_many(expr, pts).tobytes()


def test_a_negative_zero_product_comes_out_positive():
    # -1 * 0.0 is -0.0; the one-column @ adds it to 0.0
    expr = convex.affine([-1.0])
    found = expr.value_many(np.zeros((4, 1)))
    assert not np.signbit(found).any()
    assert found.tobytes() == _reference_value_many(expr, np.zeros((4, 1))).tobytes()


def test_value_many_never_writes_into_its_argument():
    expr = (convex.affine([1.0, -1.0, 0.5]) + convex.quadratic(3, 0, 0.5)
            + convex.absolute(3, 1, -1.0) + convex.absolute(3, 2)
            + convex.exponential(3, 2))
    pts = np.random.default_rng(0).normal(size=(6, 5, 3))
    before = pts.copy()
    pts.flags.writeable = False
    expr.value_many(pts)
    assert pts.tobytes() == before.tobytes()
    # a one-dimensional expression takes the one-column path everywhere
    line = convex.affine([2.0]) + convex.quadratic(1, 0) + convex.exponential(1, 0)
    col = pts[..., :1].copy()
    col.flags.writeable = False
    line.value_many(col)
    assert col.tobytes() == before[..., :1].tobytes()
