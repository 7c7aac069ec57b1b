"""Convex atoms with deterministic subgradients, boxes and projections.

The expression vocabulary is deliberately small: affine functions,
shifted squares w*(x_k - a)^2, shifted absolute values w*|x_k - a|,
exponentials w*exp(x_k), and nonnegative-weighted sums of these.  Every
expression is convex by construction; attempts to scale a nonlinear atom
by a negative factor raise ``ConvexityError``.

Subgradient selection is deterministic: at differentiable points the
gradient is returned, and at an absolute-value kink (within
``KINK_TOLERANCE``) the minimal-norm element 0 is chosen, so kink points
are genuine equilibrium candidates for the projected dynamics.  The rule
has one body, ``_selected`` and ``_interval`` over flattened atom
families (``_Atoms``): ``ConvexExpr`` applies them to its own atoms, and
the velocity kernel in ``pcons.dynamics`` to every agent's at once.
"""
from __future__ import annotations

import reprlib
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from numbers import Real

import numpy as np

from .errors import ConvexityError, InvalidInputError, _integer, _positive, _reals, _rng

#: a coordinate counts as sitting on an absolute-value kink below this distance
KINK_TOLERANCE = 1e-12

#: positions of the atom families in ``NormalForm.atoms`` and ``ConvexExpr._families``
QUAD, ABS, EXP = range(3)


def _atom_order(atom):
    # (coord, center) with NaN centers last, the order numpy's lexsort gives
    return atom[0], atom[1] != atom[1], atom[1]


def _merge(atoms):
    """Canonical order (coord, center) with duplicate atoms merged.

    The sort is stable, the weights of duplicates are summed left to
    right, and atoms whose merged weight is zero are dropped.
    """
    out = []
    for k, c, w in sorted(atoms, key=_atom_order):
        if out and out[-1][0] == k and out[-1][1] == c:
            out[-1] = (k, out[-1][1], out[-1][2] + w)
        else:
            out.append((k, c, w))
    return [atom for atom in out if atom[2] != 0.0]


def _weighted_sum(cols, weights):
    """``cols @ weights`` over the last axis, bit for bit, as a new array.

    One column is its product plus 0.0: that is what the one-column
    ``@`` returns (it adds the product to 0.0, so a -0.0 product comes
    out +0.0), without the cost of a matrix-vector call per block.  Two
    or more columns keep ``@``, whose rounding an elementwise sum does
    not reproduce.
    """
    if weights.shape[0] != 1:
        return cols @ weights
    out = cols[..., 0] * weights[0]
    out += 0.0
    return out


#: why a nonlinear form cannot be scaled by a negative factor
NEGATIVE_SCALE = "scaling a nonlinear convex atom by a negative factor breaks convexity"


def _scaled(lin, const, atoms, factor):
    """The ``lin``, ``const`` and ``atoms`` of a normal form times
    ``factor``, in new lists; atom order and zero weights are kept."""
    if not any(atoms):
        return [v * factor for v in lin], const * factor, ([], [], [])
    if factor < 0:
        raise ConvexityError(NEGATIVE_SCALE)
    return ([v * factor for v in lin], const * factor,
            [[(k, c, w * factor) for k, c, w in fam] for fam in atoms])


#: the columns of an empty atom family, shared: an empty array holds nothing to write
_NO_COLUMNS = (np.empty(0, dtype=int), np.empty(0), np.empty(0))


def _columns(atoms):
    if not atoms:
        return _NO_COLUMNS
    idx, center, weight = zip(*atoms)
    return np.array(idx, dtype=int), np.array(center, dtype=float), np.array(weight, dtype=float)


# -- subgradient selection -------------------------------------------------


class _Atoms:
    """One atom family (``QUAD``, ``ABS`` or ``EXP``) of many expressions'
    ``_families``, flattened.

    ``coord`` indexes the point and ``pos`` the accumulator the atoms
    add into; a square's ``weight`` is doubled.  ``add`` scatters with
    ``np.add.at``, which adds duplicate atoms one at a time, in the order
    their expression lists them.  An empty family keeps only its ``size``
    0, and every reader skips it by its size.
    """

    size = 0

    def __init__(self, family, parts):
        # parts: (pos offset, coord offset, expression)
        parts = [(p0 + idx, c0 + idx, center, weight) for p0, c0, e in parts
                 for idx, center, weight in (e._families[family],) if len(idx)]
        if not parts:
            return
        self.pos, self.coord, self.center, weight = map(np.concatenate, zip(*parts))
        self.weight = 2.0 * weight if family == QUAD else weight
        self.size = len(self.pos)

    def add(self, acc, values):
        np.add.at(acc, self.pos, values)


def _selected(acc, x, quad, abs_, exp):
    """Add the selected subgradient of the atoms at ``x`` into ``acc``,
    in place, and return it: quad, abs (0 on a kink), then exp."""
    if quad.size:
        quad.add(acc, quad.weight * (x[quad.coord] - quad.center))
    if abs_.size:
        d = x[abs_.coord] - abs_.center
        abs_.add(acc, abs_.weight * np.where(np.abs(d) < KINK_TOLERANCE, 0.0, np.sign(d)))
    if exp.size:
        exp.add(acc, exp.weight * np.exp(x[exp.coord]))
    return acc


def _interval(lo, x, quad, abs_, exp):
    """(lo, hi): the subdifferential interval of the atoms at ``x`` added
    into ``lo``, in place, and a copy of it: quad, then exp, then abs,
    which adds [-w, w] where an atom sits on its kink."""
    if quad.size:
        quad.add(lo, quad.weight * (x[quad.coord] - quad.center))
    if exp.size:
        exp.add(lo, exp.weight * np.exp(x[exp.coord]))
    hi = lo.copy()
    if abs_.size:
        d = x[abs_.coord] - abs_.center
        at_kink = np.abs(d) < KINK_TOLERANCE
        s = np.where(at_kink, 0.0, np.sign(d))
        abs_.add(lo, abs_.weight * np.where(at_kink, -1.0, s))
        abs_.add(hi, abs_.weight * np.where(at_kink, 1.0, s))
    return lo, hi


class NormalForm:
    """A convex expression under construction, held in plain Python values.

    ``lin`` is a list of ``dim`` floats and ``const`` a float.  ``atoms``
    holds one list per family (squares, absolute values, exponentials)
    of (coord, center, weight) tuples; exponentials carry center 0.0.
    ``add`` and ``scale`` are the whole ``ConvexExpr`` algebra, and
    ``freeze`` makes the one ``ConvexExpr`` of a finished form.
    """

    __slots__ = ("dim", "lin", "const", "atoms")

    def __init__(self, dim, lin, const=0.0, atoms=None):
        self.dim = dim
        self.lin = lin
        self.const = const
        self.atoms = atoms if atoms is not None else ([], [], [])

    @classmethod
    def of(cls, e: "ConvexExpr") -> "NormalForm":
        return cls(e.dim, e.lin.tolist(), e.const, tuple(
            list(zip(*(a.tolist() for a in fam))) for fam in e._families))

    @classmethod
    def atom(cls, dim, family, coord, center, weight, const=0.0) -> "NormalForm":
        """One atom of ``family`` (``QUAD``, ``ABS`` or ``EXP``) plus ``const``."""
        atoms = ([], [], [])
        atoms[family].append((coord, center, weight))
        return cls(dim, [0.0] * dim, const, atoms)

    @property
    def is_affine(self) -> bool:
        return not any(self.atoms)

    def add(self, other: "NormalForm") -> "NormalForm":
        return NormalForm(
            self.dim,
            [a + b for a, b in zip(self.lin, other.lin)],
            self.const + other.const,
            [_merge(a + b) for a, b in zip(self.atoms, other.atoms)],
        )

    def scale(self, factor: float) -> "NormalForm":
        return NormalForm(self.dim, *_scaled(self.lin, self.const, self.atoms, factor))

    def freeze(self) -> "ConvexExpr":
        (qi, qc, qw), (ai, ac, aw), (ei, _, ew) = (_columns(fam) for fam in self.atoms)
        return ConvexExpr(
            dim=self.dim, lin=np.array(self.lin, dtype=float), const=self.const,
            quad_idx=qi, quad_center=qc, quad_weight=qw,
            abs_idx=ai, abs_center=ac, abs_weight=aw,
            exp_idx=ei, exp_weight=ew,
        )


@dataclass(frozen=True)
class ConvexExpr:
    """A nonnegative-weighted sum of convex atoms on R^dim.

    Stored in a canonical normal form: an affine part (``lin``, ``const``)
    plus arrays of square, absolute-value and exponential atoms.  Two
    expressions compare equal when their normal forms coincide.
    """

    dim: int
    lin: np.ndarray
    const: float
    quad_idx: np.ndarray
    quad_center: np.ndarray
    quad_weight: np.ndarray
    abs_idx: np.ndarray
    abs_center: np.ndarray
    abs_weight: np.ndarray
    exp_idx: np.ndarray
    exp_weight: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():  # every array field, with no allocation
            if type(value) is np.ndarray:
                value.setflags(write=False)

    # -- construction ----------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "ConvexExpr":
        return affine(np.zeros(dim), 0.0)

    def _check_arity(self, x) -> np.ndarray:
        return _reals(x, f"argument of an expression on R^{self.dim}", (self.dim,))

    @property
    def is_affine(self) -> bool:
        return not any(len(idx) for idx, _, _ in self._families)

    def kink_locations(self):
        """(coord, center) pairs where the expression is nondifferentiable."""
        return list(zip(self.abs_idx.tolist(), self.abs_center.tolist()))

    @cached_property
    def _families(self):
        """(coords, centers, weights) of each atom family, in ``QUAD``,
        ``ABS``, ``EXP`` order, as ``NormalForm.atoms`` holds them: an
        exponential's centers are zeros.  Built on first use."""
        exp_center = np.zeros(len(self.exp_idx))
        exp_center.setflags(write=False)
        return ((self.quad_idx, self.quad_center, self.quad_weight),
                (self.abs_idx, self.abs_center, self.abs_weight),
                (self.exp_idx, exp_center, self.exp_weight))

    @cached_property
    def _atoms(self):
        """The ``_Atoms`` of each family of this expression alone, built
        on first use."""
        return tuple(_Atoms(family, [(0, 0, self)]) for family in (QUAD, ABS, EXP))

    # -- evaluation ------------------------------------------------------

    def value(self, x) -> float:
        """The value at one point ``x`` of R^dim, as ``value_many`` gives it."""
        return float(self.value_many(self._check_arity(x)))

    def value_many(self, points) -> np.ndarray:
        """The value at every point of an array of shape (..., dim).

        ``points`` must be real numbers (``errors._reals``).  Never
        writes into ``points``.  Each atom family gathers one copy
        of its columns and updates it in place, and the total grows in
        place.  The values are bit for bit those of ``points @ lin +
        const`` plus each family's ``terms @ weights``, added in that
        order (``_weighted_sum`` says how a one-column sum keeps them).
        """
        pts = _reals(points, "expression points")
        if pts.shape[-1:] != (self.dim,):
            raise InvalidInputError(
                f"expression on R^{self.dim} evaluated on points of shape {pts.shape}"
            )
        total = _weighted_sum(pts, self.lin)
        total += self.const
        if len(self.quad_idx):
            d = pts[..., self.quad_idx]  # an integer index gathers a copy
            d -= self.quad_center
            d *= d
            total += _weighted_sum(d, self.quad_weight)
        if len(self.abs_idx):
            d = pts[..., self.abs_idx]
            d -= self.abs_center
            total += _weighted_sum(np.abs(d, out=d), self.abs_weight)
        if len(self.exp_idx):
            d = pts[..., self.exp_idx]
            total += _weighted_sum(np.exp(d, out=d), self.exp_weight)
        return total

    def subgradient(self, x) -> np.ndarray:
        """One deterministic element of the subdifferential at ``x``."""
        return _selected(self.lin.copy(), self._check_arity(x), *self._atoms)

    def subgradient_interval(self, x):
        """Componentwise bounds (lo, hi) of the subdifferential at ``x``.

        The subdifferential of this atom vocabulary is a coordinate box:
        only absolute-value atoms sitting on their kink contribute an
        interval, everything else is single-valued.
        """
        return _interval(self.lin.copy(), self._check_arity(x), *self._atoms)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Real):
            return affine_sum(self, const=float(_reals(other, "added constant", 0)))
        if not isinstance(other, ConvexExpr):
            return NotImplemented
        if other.dim != self.dim:
            raise InvalidInputError(f"cannot add expressions on R^{self.dim} and R^{other.dim}")
        return NormalForm.of(self).add(NormalForm.of(other)).freeze()

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Real):
            return affine_sum(self, const=-float(_reals(other, "subtracted constant", 0)))
        if isinstance(other, ConvexExpr):
            return self + (-1.0) * other
        return NotImplemented

    def __mul__(self, factor):
        if not isinstance(factor, Real):
            return NotImplemented
        return NormalForm.of(self).scale(float(_reals(factor, "factor", 0))).freeze()

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __eq__(self, other):
        if not isinstance(other, ConvexExpr):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.lin, other.lin)
            and self.const == other.const
            and all(np.array_equal(a, b) for mine, theirs in zip(self._families, other._families)
                    for a, b in zip(mine, theirs))
        )


def affine(coefficients, const: float = 0.0) -> ConvexExpr:
    """c'x + b."""
    c = _reals(coefficients, "affine coefficients", 1, finite=True)
    const = float(_reals(const, "affine constant", 0, finite=True))
    return NormalForm(c.shape[0], c.tolist(), const).freeze()


def affine_sum(expr: ConvexExpr, const: float) -> ConvexExpr:
    form = NormalForm.of(expr)
    form.const = form.const + const
    return form.freeze()


def _atom(dim, family, coord, center, weight, const=0.0) -> ConvexExpr:
    dim, coord = _integer(dim, "dim", 1), _integer(coord, "coord", 0)
    if not 0 <= coord < dim:
        raise InvalidInputError(f"coordinate {coord} outside 0..{dim - 1}")
    center, weight, const = (float(_reals(v, f"atom {name}", 0, finite=True)) for v, name
                             in ((center, "center"), (weight, "weight"), (const, "constant")))
    if weight < 0:
        raise ConvexityError(f"atom weight must be nonnegative, got {weight}")
    return NormalForm.atom(dim, family, coord, center, weight, const).freeze()


def quadratic(dim: int, coord: int, center: float = 0.0, weight: float = 1.0) -> ConvexExpr:
    """w * (x_coord - center)^2 with w >= 0 (coord is 0-based)."""
    return _atom(dim, QUAD, coord, center, weight)


def absolute(dim: int, coord: int, center: float = 0.0, weight: float = 1.0) -> ConvexExpr:
    """w * |x_coord - center| with w >= 0 (coord is 0-based)."""
    return _atom(dim, ABS, coord, center, weight)


def exponential(dim: int, coord: int, weight: float = 1.0, const: float = 0.0) -> ConvexExpr:
    """w * exp(x_coord) + const with w >= 0 (coord is 0-based)."""
    return _atom(dim, EXP, coord, 0.0, weight, const)


# -- local feasible sets ---------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, possibly unbounded (entries may be +-inf)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = _reals(self.lower, "box lower bound")
        upper = _reals(self.upper, "box upper bound")
        # one test for every fault; a comparison with NaN is False
        if not (lower.ndim == 1 and lower.shape == upper.shape
                and ((lower <= upper) & (lower < np.inf) & (upper > -np.inf)).all()):
            raise InvalidInputError(_box_fault(lower, upper))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        lower.flags.writeable = False
        upper.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def is_bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    def _point(self, x) -> np.ndarray:
        return _reals(x, f"point of a box in R^{self.dim}", (self.dim,))

    def project(self, x) -> np.ndarray:
        """Componentwise clamp, the Euclidean projection onto the box."""
        return np.minimum(np.maximum(self._point(x), self.lower), self.upper)

    def contains(self, x, tol: float = 0.0) -> bool:
        x, tol = self._point(x), _positive(tol, "tol", zero=True)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def violation(self, x) -> float:
        """Max-norm distance from the box (0 inside)."""
        return float(_box_violation(self, self._point(x)))

    def sample(self, rng) -> np.ndarray:
        """Uniform sample drawn by ``rng``, a numpy ``Generator`` or
        ``RandomState``; unbounded directions fall back to a unit window."""
        _rng(rng)
        lo = np.where(np.isfinite(self.lower), self.lower, np.minimum(self.upper - 1.0, -1.0))
        hi = np.where(np.isfinite(self.upper), self.upper, np.maximum(lo + 2.0, 1.0))
        return rng.uniform(lo, hi)


def _box_fault(lower, upper) -> str:
    """What is wrong with box bounds that fail ``Box``'s test, the first
    fault in this order: shape, NaN, an infinite empty side, crossed."""
    if lower.shape != upper.shape or lower.ndim != 1:
        return "box bounds must be 1-d arrays of equal length"
    if np.isnan(lower).any() or np.isnan(upper).any():
        return "box bounds must not be NaN"
    if (lower == np.inf).any() or (upper == -np.inf).any():
        return "box is empty: a lower bound is +inf or an upper bound is -inf"
    return "box is empty: a lower bound exceeds its upper bound"


def _box_violation(bounds, x):
    """The largest violation of the ``bounds.lower`` and ``bounds.upper``
    of a ``Box`` (or a kernel's stacked bounds) by x, or by each row of a
    (states, dim) x."""
    under = np.maximum(bounds.lower - x, 0.0)
    over = np.maximum(x - bounds.upper, 0.0)
    return np.max(under + over, axis=-1, initial=0.0)


def whole_space(dim: int) -> Box:
    return Box(np.full(dim, -np.inf), np.full(dim, np.inf))


def project_nonneg(u) -> np.ndarray:
    """Projection onto the nonnegative orthant."""
    return np.maximum(_reals(u, "projected vector"), 0.0)


def in_normal_cone(box: Box, x, w, tol: float = 1e-9) -> bool:
    """True when ``w`` lies in the normal cone of ``box`` at ``x``.

    Uses the projection characterization: w is normal at x exactly when
    projecting x + w lands back on x.  Requires x in the box (within
    ``tol``).
    """
    x = box._point(x)
    w = _reals(w, f"normal vector of a box in R^{box.dim}", (box.dim,))
    if not box.contains(x, tol=tol):
        raise InvalidInputError("point is not inside the box")
    return float(np.linalg.norm(box.project(x + w) - x)) <= tol


# -- vector constraints ----------------------------------------------------


@dataclass(frozen=True)
class ConstraintMap:
    """Stacked convex inequality constraints g(x) <= 0 on one agent; the
    components must be ``ConvexExpr``s, which the velocity kernel compiles."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components) if isinstance(self.components, Iterable) else None
        if comps is None or not all(isinstance(c, ConvexExpr) for c in comps):
            raise InvalidInputError(f"constraint components must be ConvexExprs, got "
                                    f"{reprlib.repr(self.components)}")
        dims = {c.dim for c in comps}
        if len(dims) > 1:
            raise InvalidInputError(f"constraint components disagree on dimension: {dims}")
        object.__setattr__(self, "components", comps)

    @property
    def size(self) -> int:
        return len(self.components)

    @property
    def dim(self):
        return self.components[0].dim if self.components else None

    def value(self, x) -> np.ndarray:
        if not self.components:
            return np.empty(0)
        return np.array([c.value(x) for c in self.components])

    def weighted_subgradient(self, x, multipliers) -> np.ndarray:
        """sum_j multipliers_j * (selected subgradient of g_j)."""
        multipliers = _reals(multipliers, "multipliers", (self.size,))
        x = _reals(x, "constraint argument", (self.dim,) if self.components else 1)
        out = np.zeros(x.shape[0])
        for c, m in zip(self.components, multipliers):
            if m != 0.0:
                out += m * c.subgradient(x)
        return out


def no_constraints() -> ConstraintMap:
    return ConstraintMap(components=())
