"""``ConvexExpr.subgradient`` and ``subgradient_interval``, which select
through ``convex._selected`` and ``convex._interval`` as the velocity
kernel does, against their own former bodies, bit for bit."""
import numpy as np
from hypothesis import example, given, settings, strategies as st

from pcons import convex

from test_kernel import listed
from test_one_body import assert_same_bytes
from test_value_many import _CENTERS, _COORDS, _WEIGHTS, _expressions


def reference_subgradient(expr, x):
    """``ConvexExpr.subgradient`` with its own body: quad, abs, then exp."""
    x = expr._check_arity(x)
    g = expr.lin.copy()
    if len(expr.quad_idx):
        d = x[expr.quad_idx] - expr.quad_center
        np.add.at(g, expr.quad_idx, 2.0 * expr.quad_weight * d)
    if len(expr.abs_idx):
        d = x[expr.abs_idx] - expr.abs_center
        s = np.where(np.abs(d) < convex.KINK_TOLERANCE, 0.0, np.sign(d))
        np.add.at(g, expr.abs_idx, expr.abs_weight * s)
    if len(expr.exp_idx):
        np.add.at(g, expr.exp_idx, expr.exp_weight * np.exp(x[expr.exp_idx]))
    return g


def reference_subgradient_interval(expr, x):
    """``ConvexExpr.subgradient_interval`` with its own body: quad, exp,
    then abs, with [-w, w] on a kink."""
    x = expr._check_arity(x)
    lo = expr.lin.copy()
    if len(expr.quad_idx):
        d = x[expr.quad_idx] - expr.quad_center
        np.add.at(lo, expr.quad_idx, 2.0 * expr.quad_weight * d)
    if len(expr.exp_idx):
        np.add.at(lo, expr.exp_idx, expr.exp_weight * np.exp(x[expr.exp_idx]))
    if not len(expr.abs_idx):
        return lo, lo.copy()
    hi = lo.copy()
    d = x[expr.abs_idx] - expr.abs_center
    at_kink = np.abs(d) < convex.KINK_TOLERANCE
    s = np.where(at_kink, 0.0, np.sign(d))
    np.add.at(lo, expr.abs_idx, expr.abs_weight * np.where(at_kink, -1.0, s))
    np.add.at(hi, expr.abs_idx, expr.abs_weight * np.where(at_kink, 1.0, s))
    return lo, hi


# on a kink, within 1e-12 of one, at the tolerance and just past it
_OFFSETS = st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 9e-13, -9e-13, 1e-12, -1e-12, 2e-12])
_NEAR_KINK = st.builds(lambda c, e: c + e, _CENTERS, _OFFSETS)
_POINT_COORDS = st.one_of(_COORDS, _NEAR_KINK)

# a weight of 1e-20 is lost or kept depending on the order of the sum
_LISTED_WEIGHTS = st.one_of(_WEIGHTS, st.just(1e-20))


@st.composite
def _listed(draw):
    """Atoms kept as drawn, so one coordinate may carry duplicates."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(0, dim - 1)
    return listed(
        dim, [draw(st.sampled_from([-1.0, -0.0, 0.0, 1.0, 0.5])) for _ in range(dim)],
        quad=draw(st.lists(st.tuples(coord, _CENTERS, _LISTED_WEIGHTS), max_size=3)),
        abs_=draw(st.lists(st.tuples(coord, _CENTERS, _LISTED_WEIGHTS), max_size=3)),
        exp=draw(st.lists(st.tuples(coord, _LISTED_WEIGHTS), max_size=3)),
    )


@st.composite
def _points(draw):
    expr = draw(st.one_of(_expressions(), _listed()))
    return expr, np.array([draw(_POINT_COORDS) for _ in range(expr.dim)], dtype=float)


# lin 1, abs -1 and exp 1e-20 on one coordinate: (1 - 1) + 1e-20 is
# 1e-20, (1 + 1e-20) - 1 is 0, so each order of the two sums is pinned
_ORDERS = convex.affine([1.0]) + convex.absolute(1, 0, 0.5) + convex.exponential(1, 0, 1e-20)
_DUPLICATES = listed(2, [0.5, -0.0], quad=[(0, 0.5, 1.0), (0, -1.0, 2.0)],
                     abs_=[(1, 0.0, 1.0), (1, 0.0, 3.0), (1, 2.0, 0.5)],
                     exp=[(1, 0.25), (1, 1e-20), (0, 2.0)])


def _check(expr, x):
    with np.errstate(all="ignore"):
        for point in (x, x.tolist()):
            assert_same_bytes(expr.subgradient(point), reference_subgradient(expr, x))
            got, want = expr.subgradient_interval(point), reference_subgradient_interval(expr, x)
            assert len(got) == 2
            for a, b in zip(got, want):
                assert_same_bytes(a, b)
            assert not np.shares_memory(*got)


class TestSubgradientMatchesItsFormerBody:
    @settings(max_examples=800, deadline=None)
    @example((_ORDERS, np.array([0.0])))
    @example((_ORDERS, np.array([0.5])))  # on the kink
    @example((_DUPLICATES, np.array([0.5, 0.0])))
    @example((_DUPLICATES, np.array([-0.0, 1e-13])))
    @example((convex.exponential(2, 1) + convex.absolute(2, 1), np.array([-0.0, 710.0])))
    @example((convex.absolute(2, 0, -0.0) + convex.quadratic(2, 1), np.array([0.0, -0.0])))
    @example((convex.absolute(1, 0, 0.5), np.array([np.nan])))
    @example((convex.quadratic(2, 0) + convex.absolute(2, 1), np.array([np.inf, -np.inf])))
    @example((convex.affine([-1.0, 0.0]), np.array([1.0, 2.0])))
    @given(_points())
    def test_bit_identical(self, case):
        _check(*case)

    def test_the_order_examples_bite(self):
        # the two examples above tell the orders apart, on and off the kink
        assert reference_subgradient(_ORDERS, np.array([0.0]))[0] == 1e-20
        off = reference_subgradient_interval(_ORDERS, np.array([0.0]))
        assert off[0][0] == off[1][0] == 0.0
        on = reference_subgradient_interval(_ORDERS, np.array([0.5]))
        assert (on[0][0], on[1][0]) == (0.0, 2.0)

    def test_atoms_are_built_once(self):
        expr = convex.absolute(2, 1) + convex.exponential(2, 0)
        atoms = expr._atoms
        expr.subgradient([0.0, 0.0])
        assert expr._atoms is atoms
        assert [a.size for a in atoms] == [0, 1, 1]

    def test_results_are_new_arrays(self):
        expr = convex.quadratic(1, 0, 1.0)
        g = expr.subgradient([0.0])
        g[0] = 99.0
        lo, hi = expr.subgradient_interval([0.0])
        lo[0] = 99.0
        assert expr.subgradient([0.0])[0] == hi[0] == -2.0
