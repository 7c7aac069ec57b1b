"""``ConvexExpr._families``, the one accessor of the atom arrays, against
the former bodies that spelled the arrays out by name: equality, the
normal form, the canonical string, the kernel's value entries and its
flattened atom families, bit for bit.  Expressions are built field by
field, so duplicate, unmerged and zero-weight atoms, -0.0 and NaN
centers all occur."""
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from pcons import convex, dynamics
from pcons.convex import ABS, EXP, QUAD, ConvexExpr, NormalForm
from pcons.problemfile import _fmt, _shifted_var, format_expression

from test_kernel import expressions, instances, listed
from test_one_body import assert_same_bytes

FAMILIES = (("quad", QUAD), ("abs", ABS), ("exp", EXP))


# -- the former bodies --------------------------------------------------------


def reference_eq(self, other):
    if not isinstance(other, ConvexExpr):
        return NotImplemented
    return (
        self.dim == other.dim
        and np.array_equal(self.lin, other.lin)
        and self.const == other.const
        and np.array_equal(self.quad_idx, other.quad_idx)
        and np.array_equal(self.quad_center, other.quad_center)
        and np.array_equal(self.quad_weight, other.quad_weight)
        and np.array_equal(self.abs_idx, other.abs_idx)
        and np.array_equal(self.abs_center, other.abs_center)
        and np.array_equal(self.abs_weight, other.abs_weight)
        and np.array_equal(self.exp_idx, other.exp_idx)
        and np.array_equal(self.exp_weight, other.exp_weight)
    )


def reference_normal_form(e):
    return NormalForm(e.dim, e.lin.tolist(), e.const, (
        list(zip(e.quad_idx.tolist(), e.quad_center.tolist(), e.quad_weight.tolist())),
        list(zip(e.abs_idx.tolist(), e.abs_center.tolist(), e.abs_weight.tolist())),
        [(k, 0.0, w) for k, w in zip(e.exp_idx.tolist(), e.exp_weight.tolist())],
    ))


def reference_format(e):
    atoms = ([(f"({_shifted_var(k, c)})^2", w)
              for k, c, w in zip(e.quad_idx, e.quad_center, e.quad_weight)]
             + [(f"abs({_shifted_var(k, c)})", w)
                for k, c, w in zip(e.abs_idx, e.abs_center, e.abs_weight)]
             + [(f"exp(x{k + 1})", w) for k, w in zip(e.exp_idx, e.exp_weight)])
    parts = [(False, text if w == 1.0 else f"{_fmt(w)}*{text}") for text, w in atoms]
    for k in np.flatnonzero(e.lin):  # (negative, text)
        a = e.lin[k]
        parts.append((a < 0, f"x{k + 1}" if abs(a) == 1.0 else f"{_fmt(abs(a))}*x{k + 1}"))
    if e.const != 0.0 or not parts:
        parts.append((e.const < 0, _fmt(abs(e.const))))
    out = "".join((" - " if neg else " + ") + text for neg, text in parts)
    return ("-" if parts[0][0] else "") + out[3:]


def reference_value_entries(values, row, f, start):
    values["lin"].append((row, np.arange(start, start + f.dim), None, f.lin, f.const))
    for fam, cen in (("quad", f.quad_center), ("abs", f.abs_center), ("exp", None)):
        idx = getattr(f, f"{fam}_idx")
        if len(idx):
            values[fam].append((row, start + idx, cen, getattr(f, f"{fam}_weight"), None))


class ReferenceAtoms:
    size = 0

    def __init__(self, family, parts):
        parts = [(p0 + idx, c0 + idx, e) for p0, c0, e in parts
                 if len(idx := getattr(e, f"{family}_idx"))]
        if not parts:
            return
        pos, coord, exprs = zip(*parts)
        self.pos, self.coord = np.concatenate(pos), np.concatenate(coord)
        self.center = np.concatenate([getattr(e, f"{family}_center", ()) for e in exprs])
        weight = np.concatenate([getattr(e, f"{family}_weight") for e in exprs])
        self.weight = 2.0 * weight if family == "quad" else weight
        self.size = len(self.pos)


# -- comparisons --------------------------------------------------------------


def assert_same_atoms(got, want, name):
    """An ``_Atoms`` against the former one: the same arrays, except that
    exponentials now carry zeros as centers where none were kept."""
    assert got.size == want.size
    if not got.size:
        assert not vars(got) and not vars(want)
        return
    for field in ("pos", "coord", "weight") + (("center",) if name != "exp" else ()):
        assert_same_bytes(getattr(got, field), getattr(want, field))
    if name == "exp":
        assert want.center.size == 0
        assert_same_bytes(got.center, np.zeros(got.size))


def assert_same_entries(got, want):
    assert got.keys() == want.keys()
    for fam in got:
        assert len(got[fam]) == len(want[fam])
        for (r, k, c, w, b), (r0, k0, c0, w0, b0) in zip(got[fam], want[fam]):
            assert r == r0 and (b is None if b0 is None else b == b0)
            assert_same_bytes(k, k0)
            assert_same_bytes(w, w0)
            assert (c is None) if c0 is None else c.tobytes() == c0.tobytes()


def assert_same_dots(got, want):
    assert got.keys() == want.keys()
    for fam in got:
        assert len(got[fam]) == len(want[fam])
        for a, b in zip(got[fam], want[fam]):
            for field in ("rows", "coord", "center", "weight", "const"):
                x, y = getattr(a, field), getattr(b, field)
                assert (x is None) if y is None else x.tobytes() == y.tobytes()


def hexed(form):
    return (form.dim, [v.hex() for v in form.lin], form.const.hex(),
            [[(k, type(k), c.hex(), w.hex()) for k, c, w in fam] for fam in form.atoms])


# -- expressions --------------------------------------------------------------

_CENTER = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, np.nan]))
_WEIGHT = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0])
_LIN = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5])


@st.composite
def _listed(draw):
    """Atoms kept as drawn: duplicates, zero weights, -0.0 and NaN centers."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(0, dim - 1)
    return listed(
        dim, [draw(_LIN) for _ in range(dim)], draw(st.sampled_from([0.0, -0.0, 1.5, -3.0])),
        quad=draw(st.lists(st.tuples(coord, _CENTER, _WEIGHT), max_size=3)),
        abs_=draw(st.lists(st.tuples(coord, _CENTER, _WEIGHT), max_size=3)),
        exp=draw(st.lists(st.tuples(coord, _WEIGHT), max_size=3)),
    )


EXPRESSIONS = st.one_of(_listed(), st.integers(1, 3).flatmap(expressions))

_ARRAYS = [f.name for f in fields(ConvexExpr) if f.name not in ("dim", "const")]


@st.composite
def _pairs(draw):
    """(e, other): an equal copy, or e with one array, dim or const changed."""
    e = draw(EXPRESSIONS)
    copy = replace(e, **{name: getattr(e, name).copy() for name in _ARRAYS})
    change = draw(st.sampled_from(["none", "dim", "const", "value", "length"]))
    if change == "dim":
        return e, replace(copy, dim=e.dim + 1)
    if change == "const":
        return e, replace(copy, const=e.const + 1.0)
    name = draw(st.sampled_from(_ARRAYS))
    a = getattr(copy, name)
    if change == "none" or not len(a):
        return e, copy
    if change == "length":
        return e, replace(copy, **{name: a[:-1]})
    a = a.copy()
    a[draw(st.integers(0, len(a) - 1))] += 1
    return e, replace(copy, **{name: a})


class TestTheAccessorMatchesTheFormerBodies:
    @settings(max_examples=300, deadline=None)
    @given(_pairs())
    def test_equality(self, pair):
        e, other = pair
        for a, b in ((e, other), (other, e), (e, e), (e, 1.0)):
            got, want = a.__eq__(b), reference_eq(a, b)
            assert got is want or (type(got) is type(want) and got == want)

    @settings(max_examples=300, deadline=None)
    @given(EXPRESSIONS)
    def test_normal_form_and_string(self, e):
        assert hexed(NormalForm.of(e)) == hexed(reference_normal_form(e))
        assert format_expression(e) == reference_format(e)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), EXPRESSIONS), max_size=4))
    def test_value_entries_and_atoms(self, parts):
        got = {fam: [] for fam in ("lin", "quad", "abs", "exp")}
        want = {fam: [] for fam in ("lin", "quad", "abs", "exp")}
        for row, (start, _, e) in enumerate(parts):
            dynamics._value_entries(got, row, e, start)
            reference_value_entries(want, row, e, start)
        assert_same_entries(got, want)
        for name, family in FAMILIES:
            assert_same_atoms(convex._Atoms(family, parts), ReferenceAtoms(name, parts), name)

    @settings(max_examples=100, deadline=None)
    @given(instances())
    def test_the_kernel_compiles_the_same_arrays(self, case):
        kernel = case[0].kernel
        objective_values = {fam: [] for fam in ("lin", "quad", "abs", "exp")}
        values = {fam: [] for fam in ("lin", "quad", "abs", "exp")}
        objectives, constraints, offset = [], [], 0
        for i, (a, s, ms) in enumerate(zip(kernel.agents, kernel.blocks, kernel.mu_blocks)):
            if isinstance(a.objective, ConvexExpr):
                reference_value_entries(objective_values, i, a.objective, s.start)
                objectives.append((s.start, s.start, a.objective))
            for r, g in enumerate(a.constraints.components, ms.start):
                reference_value_entries(values, r, g, s.start)
                constraints.append((offset, s.start, g))
                offset += a.dim
        assert_same_dots(kernel.objective_dots, {fam: dynamics._group_dots(v)
                                                 for fam, v in objective_values.items()})
        assert_same_dots(kernel.value_dots, {fam: dynamics._group_dots(v)
                                             for fam, v in values.items()})
        for prefix, parts in (("", objectives), ("con_", constraints)):
            for name, _ in FAMILIES:
                assert_same_atoms(getattr(kernel, prefix + name), ReferenceAtoms(name, parts),
                                  name)


class TestTheAccessor:
    def test_families_in_order_with_zero_exponential_centers(self):
        e = listed(2, [1.0, 0.0], quad=[(1, 0.5, 2.0)], abs_=[(0, -1.0, 1.0)],
                   exp=[(1, 3.0), (0, 0.5)])
        (qi, qc, qw), (ai, ac, aw), (ei, ec, ew) = e._families
        assert qi is e.quad_idx and qc is e.quad_center and qw is e.quad_weight
        assert ai is e.abs_idx and ac is e.abs_center and aw is e.abs_weight
        assert ei is e.exp_idx and ew is e.exp_weight
        assert_same_bytes(ec, np.zeros(2))
        assert all(not a.flags.writeable for fam in e._families for a in fam)


SOURCES = sorted(Path(convex.__file__).parent.glob("*.py"))


def test_only_convex_names_the_atom_arrays():
    names = re.compile(r"\b(quad|abs|exp)_(idx|center|weight)\b")
    for path in SOURCES:
        if path.name != "convex.py":
            assert not names.search(path.read_text(encoding="utf-8")), path.name


def test_no_attribute_name_is_built_from_a_string():
    built = re.compile(r"getattr\([^,()]+,\s*f[\"']")
    for path in SOURCES:
        assert not built.search(path.read_text(encoding="utf-8")), path.name
