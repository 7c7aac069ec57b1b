"""Atoms, subgradients, projections and the normal-cone test."""
import math

import numpy as np
import pytest

from pcons import convex
from pcons.convex import (
    Box,
    ConstraintMap,
    absolute,
    affine,
    exponential,
    in_normal_cone,
    project_nonneg,
    quadratic,
    whole_space,
)
from pcons.errors import ConvexityError, InvalidInputError


def f1_example():
    # (x - 1.5)^2 + |x - 0.5| on R
    return quadratic(1, 0, center=1.5) + absolute(1, 0, center=0.5)


class TestEvaluation:
    def test_quadratic_plus_abs(self):
        assert f1_example().value(np.array([1.5])) == pytest.approx(1.0, abs=1e-15)

    def test_exp_shifted_root(self):
        g2 = exponential(2, 1, const=-5.0)
        assert g2.value(np.array([0.0, math.log(5.0)])) == pytest.approx(0.0, abs=1e-12)

    def test_affine_at_reported_point(self):
        g3 = affine([1.0, -1.0], -0.4)
        assert g3.value(np.array([1.0536, 1.5])) == pytest.approx(-0.8464, abs=1e-12)

    def test_arity_mismatch(self):
        with pytest.raises(InvalidInputError):
            f1_example().value(np.array([1.0, 2.0]))

    def test_value_many_matches_value(self):
        rng = np.random.default_rng(0)
        e = f1_example() + exponential(1, 0, weight=0.3)
        pts = rng.uniform(-2, 2, size=(40, 1))
        batch = e.value_many(pts)
        for p, v in zip(pts, batch):
            assert v == pytest.approx(e.value(p), rel=1e-14)


class TestSubgradient:
    def test_abs_smooth_region(self):
        e = absolute(1, 0, center=1.0)
        assert e.subgradient(np.array([2.0])).tolist() == [1.0]

    def test_abs_kink_minimal_norm(self):
        e = absolute(1, 0, center=1.0)
        assert e.subgradient(np.array([1.0])).tolist() == [0.0]

    def test_quadratic_gradient(self):
        e = quadratic(1, 0, center=1.5)
        assert e.subgradient(np.array([1.0536]))[0] == pytest.approx(-0.8928, abs=1e-12)

    def test_finite_difference_agreement(self):
        # central differences at points away from every kink
        rng = np.random.default_rng(42)
        atoms = [
            quadratic(2, 0, center=0.7, weight=1.3),
            absolute(2, 1, center=-0.2, weight=0.8),
            exponential(2, 0, weight=0.5),
            affine([0.3, -1.1], 2.0),
            quadratic(2, 0, 1.5) + absolute(2, 0, 0.5) + exponential(2, 1, 0.2),
        ]
        eps = 1e-6
        for e in atoms:
            checked = 0
            while checked < 200:
                x = rng.uniform(-2.0, 2.0, 2)
                if any(abs(x[k] - c) < 1e-3 for k, c in e.kink_locations()):
                    continue
                g = e.subgradient(x)
                for k in range(2):
                    xp, xm = x.copy(), x.copy()
                    xp[k] += eps
                    xm[k] -= eps
                    fd = (e.value(xp) - e.value(xm)) / (2 * eps)
                    scale = max(1.0, abs(fd))
                    assert abs(g[k] - fd) / scale < 1e-5
                checked += 1

    def test_validity_inequality(self):
        # f(y) >= f(x) + <g, y - x> on random pairs, every atom family
        rng = np.random.default_rng(7)
        atoms = {
            "affine": affine([1.2, -0.4], 0.3),
            "quadratic": quadratic(2, 0, center=0.25, weight=1.7),
            "absolute": absolute(2, 1, center=-0.6, weight=0.9),
            "exponential": exponential(2, 0, weight=0.4),
            "sum": 0.5 * quadratic(2, 0, 1.0) + 2.0 * absolute(2, 1, 0.0)
                   + exponential(2, 1, 0.1) + affine([0.1, 0.2], -1.0),
        }
        for name, e in atoms.items():
            for _ in range(2000):
                x = rng.uniform(-2.0, 2.0, 2)
                y = rng.uniform(-2.0, 2.0, 2)
                g = e.subgradient(x)
                slack = e.value(y) - e.value(x) - float(g @ (y - x))
                assert slack >= -1e-10, (name, x, y, slack)

    def test_interval_brackets_selection(self):
        rng = np.random.default_rng(3)
        e = quadratic(2, 0, 1.0) + absolute(2, 0, 0.5) + absolute(2, 1, 0.0, weight=2.0)
        for _ in range(100):
            x = rng.uniform(-1.0, 1.5, 2)
            lo, hi = e.subgradient_interval(x)
            g = e.subgradient(x)
            assert np.all(lo <= g + 1e-15) and np.all(g <= hi + 1e-15)
        lo, hi = e.subgradient_interval(np.array([0.5, 0.0]))
        assert lo[0] == pytest.approx(2 * (0.5 - 1.0) - 1.0)
        assert hi[0] == pytest.approx(2 * (0.5 - 1.0) + 1.0)
        assert (lo[1], hi[1]) == (-2.0, 2.0)


class TestConvexityGuards:
    def test_negative_weight_rejected(self):
        with pytest.raises(ConvexityError):
            quadratic(1, 0, weight=-1.0)
        with pytest.raises(ConvexityError):
            absolute(1, 0, weight=-0.5)

    def test_negative_scaling_of_atom_rejected(self):
        with pytest.raises(ConvexityError):
            -1.0 * quadratic(1, 0)
        with pytest.raises(ConvexityError):
            -absolute(1, 0)

    def test_negative_scaling_of_affine_allowed(self):
        e = -2.0 * affine([1.0], 3.0)
        assert e.value(np.array([1.0])) == pytest.approx(-8.0)


class TestProjections:
    def test_clamp_below(self):
        box = Box(np.array([1.0]), np.array([2.0]))
        assert box.project(np.array([0.5])).tolist() == [1.0]

    def test_interior_fixed_point(self):
        box = Box(np.array([1.0]), np.array([2.0]))
        assert box.project(np.array([1.7])).tolist() == [1.7]

    def test_componentwise(self):
        box = Box(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert box.project(np.array([3.0, 1.5])).tolist() == [2.0, 1.5]

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(9)
        box = Box(np.array([-1.0, 0.0, -np.inf]), np.array([1.0, np.inf, 2.0]))
        for _ in range(300):
            x = rng.standard_normal(3) * 3
            y = rng.standard_normal(3) * 3
            px, py = box.project(x), box.project(y)
            assert np.array_equal(box.project(px), px)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-15

    def test_variational_inequality(self):
        # (P(x) - x)' (P(x) - x') <= 0 for any x' in the box
        rng = np.random.default_rng(10)
        box = Box(np.array([-0.5, 1.0]), np.array([0.5, 3.0]))
        for _ in range(500):
            x = rng.standard_normal(2) * 4
            inside = box.project(rng.standard_normal(2) * 4)
            px = box.project(x)
            assert float((px - x) @ (px - inside)) <= 1e-12

    def test_nonneg_orthant(self):
        assert project_nonneg([-3.0, 2.0]).tolist() == [0.0, 2.0]
        assert project_nonneg([0.0, 0.0]).tolist() == [0.0, 0.0]
        # inactive constraint: multiplier update pins at zero
        assert project_nonneg(np.array([0.0 + -0.8464])).tolist() == [0.0]

    def test_empty_box_rejected(self):
        with pytest.raises(InvalidInputError):
            Box(np.array([2.0]), np.array([1.0]))

    def test_nan_bound_rejected(self):
        with pytest.raises(InvalidInputError, match="NaN"):
            Box(np.array([np.nan]), np.array([2.0]))
        with pytest.raises(InvalidInputError, match="NaN"):
            Box(np.array([0.0, 0.0]), np.array([1.0, np.nan]))

    def test_infinite_lower_bound_rejected(self):
        with pytest.raises(InvalidInputError, match="empty"):
            Box(np.array([np.inf]), np.array([np.inf]))

    def test_negative_infinite_upper_bound_rejected(self):
        with pytest.raises(InvalidInputError, match="empty"):
            Box(np.array([-np.inf]), np.array([-np.inf]))


class TestNormalCone:
    def test_inward_normal_at_lower_bound(self):
        box = Box(np.array([1.0]), np.array([2.0]))
        assert in_normal_cone(box, np.array([1.0]), np.array([-5.0]))

    def test_interior_has_trivial_cone(self):
        box = Box(np.array([1.0]), np.array([2.0]))
        assert not in_normal_cone(box, np.array([1.5]), np.array([0.1]))

    def test_zero_always_in_cone(self):
        box = Box(np.array([1.0]), np.array([2.0]))
        assert in_normal_cone(box, np.array([1.5]), np.array([0.0]))

    def test_outside_point_rejected(self):
        box = Box(np.array([1.0]), np.array([2.0]))
        with pytest.raises(InvalidInputError):
            in_normal_cone(box, np.array([0.0]), np.array([0.0]))

    def test_cone_scaling(self):
        rng = np.random.default_rng(12)
        box = Box(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        for _ in range(200):
            x = box.project(rng.standard_normal(2))
            w = rng.standard_normal(2)
            if in_normal_cone(box, x, w, tol=1e-12):
                for gamma in (0.0, 0.5, 2.0, 10.0):
                    assert in_normal_cone(box, x, gamma * w, tol=1e-9)


class TestConstraintMap:
    def test_value_and_weighted_subgradient(self):
        rows = (affine([1.0, 0.0], -2.0), exponential(2, 1, const=-5.0))
        g = ConstraintMap(rows)
        x = np.array([1.0, 1.5])
        vals = g.value(x)
        assert vals[0] == pytest.approx(-1.0)
        assert vals[1] == pytest.approx(math.exp(1.5) - 5.0)
        mults = np.array([2.0, 3.0])
        expected = 2.0 * rows[0].subgradient(x) + 3.0 * rows[1].subgradient(x)
        assert np.allclose(g.weighted_subgradient(x, mults), expected, atol=1e-14)

    def test_dimension_consistency(self):
        with pytest.raises(InvalidInputError):
            ConstraintMap((affine([1.0]), affine([1.0, 2.0])))

    def test_empty(self):
        g = convex.no_constraints()
        assert g.size == 0
        assert g.value(np.array([1.0])).shape == (0,)


def test_expression_equality_normal_form():
    a = quadratic(2, 0, 1.5) + absolute(2, 1, 0.5)
    b = absolute(2, 1, 0.5) + quadratic(2, 0, 1.5)
    assert a == b
    # merged duplicate atoms
    c = absolute(2, 1, 0.5, weight=0.5) + quadratic(2, 0, 1.5) + absolute(2, 1, 0.5, weight=0.5)
    assert c == b


def test_whole_space_projection_is_identity():
    ws = whole_space(3)
    x = np.array([-1e6, 0.0, 1e6])
    assert np.array_equal(ws.project(x), x)
    assert not ws.is_bounded
