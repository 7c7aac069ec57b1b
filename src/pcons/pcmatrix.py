"""Partial-consensus coupling matrices built from graph Laplacians.

A group of N agents holds decision vectors of heterogeneous dimensions
[n_1, ..., n_N], and only the first n components of each vector (n at
most min n_i) are required to agree across agents.  The coupling matrix
encoding this constraint is the Kronecker product of the graph Laplacian
with the n-dimensional identity, padded with zero rows and columns at
every coordinate that is not shared.  On a connected graph its kernel is
exactly the set of stacked vectors whose shared blocks coincide, which
is what makes it usable as a consensus penalty inside projected
dynamics.

All index sets exposed here are 1-based.  Matrices are dense and
read-only after construction; every function is pure.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalError, _integer, _positive, _reals

#: eigenvalues below this fraction of max(1, largest eigenvalue) count as zero
ZERO_EIGENVALUE_RTOL = 1e-9

#: symmetry / Laplacian-structure tolerance used by ``normalize_laplacian``
_LAPLACIAN_ATOL = 1e-9


class OrderedIndexSet:
    """An ordered set of distinct positive (1-based) indices.

    Unlike a plain set, the order of the entries is significant and is
    preserved by every operation; two instances are equal only if their
    entries appear in the same order.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[int] = ()):
        items = tuple(_integer(e, "index", 1) for e in entries)
        if len(set(items)) != len(items):
            raise InvalidInputError(f"indices must be distinct, got {items}")
        self._entries = items

    @property
    def entries(self) -> tuple:
        return self._entries

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, p):
        return self._entries[p]

    def __contains__(self, value):
        return value in self._entries

    def __eq__(self, other):
        if isinstance(other, OrderedIndexSet):
            return self._entries == other._entries
        if isinstance(other, (tuple, list)):
            return self._entries == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._entries)

    def __repr__(self):
        return f"OrderedIndexSet({list(self._entries)})"


def ordered_union(a: OrderedIndexSet, b: OrderedIndexSet) -> OrderedIndexSet:
    """Concatenate two disjoint ordered index sets, preserving order.

    This is deliberately not a sorted union: ``{2} ∪ {1}`` yields
    ``{2, 1}``.  Overlapping operands raise ``InvalidInputError``.
    """
    a = a if isinstance(a, OrderedIndexSet) else OrderedIndexSet(a)
    b = b if isinstance(b, OrderedIndexSet) else OrderedIndexSet(b)
    overlap = set(a.entries) & set(b.entries)
    if overlap:
        raise InvalidInputError(f"operands overlap on {sorted(overlap)}")
    return OrderedIndexSet(a.entries + b.entries)


def extract(x, s) -> np.ndarray:
    """Select the components of ``x`` listed by ``s`` (1-based), in order."""
    x = _reals(x, "extracted vector", 1)
    s = s if isinstance(s, OrderedIndexSet) else OrderedIndexSet(s)
    if len(s) and max(s.entries) > x.shape[0]:
        raise InvalidInputError(
            f"index {max(s.entries)} out of range for a vector of dimension {x.shape[0]}"
        )
    return x[[e - 1 for e in s.entries]] if len(s) else np.empty(0)


def extend_matrix(m, positions) -> np.ndarray:
    """Grow a square matrix by inserting zero rows/columns.

    ``positions`` is applied progressively: each entry is a 1-based
    insertion position in the matrix as grown so far, so it must not
    exceed the current order plus one.  Listing the final zero-row
    positions in ascending order therefore produces zero rows/columns at
    exactly those positions of the result, and deleting them recovers
    the original matrix.  The insertions are replayed on a list of row
    labels only, and ``m`` is then placed into a zero matrix of the final
    order in one assignment.
    """
    m = _reals(m, "extended matrix", "square")
    rows = [True] * m.shape[0]  # True for a row of m, False for an inserted zero row
    seq = positions.entries if isinstance(positions, OrderedIndexSet) else tuple(positions)
    for pos in seq:
        pos = _integer(pos, "insertion position", 1)
        order = len(rows)
        if not 1 <= pos <= order + 1:
            raise InvalidInputError(
                f"insertion position {pos} outside 1..{order + 1} for order-{order} matrix"
            )
        rows.insert(pos - 1, False)
    keep = [p for p, r in enumerate(rows) if r]
    out = np.zeros((len(rows), len(rows)))
    out[np.ix_(keep, keep)] = m
    return out


@dataclass(frozen=True)
class AgentDims:
    """Per-agent dimensions [n_1, ..., n_N] and derived quantities."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(_integer(d, "agent dimension", 1) for d in self.dims)
        if len(dims) < 1:
            raise InvalidInputError(f"dimensions must be positive integers, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def count(self) -> int:
        """Number of agents N."""
        return len(self.dims)

    @property
    def total(self) -> int:
        """Stacked dimension, the sum of all n_i."""
        return sum(self.dims)

    @property
    def n_min(self) -> int:
        return min(self.dims)

    @property
    def offsets(self) -> tuple:
        """0-based start offset of each agent's block in the stacked vector."""
        return tuple(accumulate(self.dims[:-1], initial=0))


def consensus_index_set(dims, depth: int):
    """1-based coordinates of the shared components and their complement.

    Returns ``(shared, complement)`` as ascending ``OrderedIndexSet``s
    over {1..total}: the first ``depth`` coordinates of every agent's
    block, and everything else.
    """
    dims = dims if isinstance(dims, AgentDims) else AgentDims(tuple(dims))
    depth = _integer(depth, "consensus depth", 1)
    if depth > dims.n_min:
        raise InvalidInputError(
            f"consensus depth {depth} outside 1..{dims.n_min} for dims {dims.dims}"
        )
    shared = [off + r for off in dims.offsets for r in range(1, depth + 1)]
    complement = sorted(set(range(1, dims.total + 1)).difference(shared))
    return OrderedIndexSet(shared), OrderedIndexSet(complement)


def normalize_laplacian(laplacian) -> np.ndarray:
    """Validate and normalize a Laplacian to the PSD sign convention.

    The accepted convention has nonnegative diagonal, nonpositive
    off-diagonal entries and zero row sums.  A matrix given in the fully
    negated convention is flipped; anything else is rejected, and first a
    matrix that is not square or has an entry that is not a finite real.
    """
    lap = _reals(laplacian, "Laplacian", "square", finite=True)
    if not np.allclose(lap, lap.T, atol=_LAPLACIAN_ATOL):
        raise InvalidInputError("Laplacian must be symmetric")

    def conforms(m):
        off = m - np.diag(np.diag(m))
        return (
            np.all(np.diag(m) >= -_LAPLACIAN_ATOL)
            and np.all(off <= _LAPLACIAN_ATOL)
            and np.all(np.abs(m.sum(axis=1)) <= _LAPLACIAN_ATOL * max(1.0, np.abs(m).max()))
        )

    if conforms(lap):
        return lap.copy()
    if conforms(-lap):
        return -lap
    raise InvalidInputError(
        "matrix is not a graph Laplacian in either sign convention "
        "(need zero row sums, one-signed diagonal and off-diagonal)"
    )


def laplacian_is_connected(laplacian) -> bool:
    """True when the graph underlying the Laplacian is connected.

    ``laplacian`` must be a square 2-d array of real numbers, else
    ``InvalidInputError``."""
    lap = _reals(laplacian, "Laplacian", "square")
    n = lap.shape[0]
    if n == 1:
        return True
    seen = {0}
    frontier = deque([0])
    while frontier:
        i = frontier.popleft()
        for j in np.flatnonzero(lap[i]).tolist():
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


@dataclass(frozen=True)
class PartialConsensusMatrix:
    """The consensus coupling matrix together with its ingredients.

    ``matrix`` is the order-``total`` coupling matrix, ``laplacian`` the
    normalized N-by-N Laplacian it was built from, ``dims`` the agent
    dimensions and ``depth`` the number of shared leading components.
    """

    matrix: np.ndarray
    laplacian: np.ndarray
    dims: AgentDims
    depth: int
    shared: OrderedIndexSet = field(repr=False)
    complement: OrderedIndexSet = field(repr=False)

    def __post_init__(self):
        self.matrix.flags.writeable = False
        self.laplacian.flags.writeable = False

    @property
    def order(self) -> int:
        return self.matrix.shape[0]


def build_partial_consensus_matrix(laplacian, dims, depth: int) -> PartialConsensusMatrix:
    """Build the coupling matrix for ``depth`` shared components.

    The Laplacian is normalized to the PSD convention, expanded with the
    identity of order ``depth`` by Kronecker product, and padded with
    zero rows/columns at the non-shared coordinates.
    """
    dims = dims if isinstance(dims, AgentDims) else AgentDims(tuple(dims))
    n = dims.count
    lap = normalize_laplacian(_reals(laplacian, f"Laplacian of {n} agents", (n, n)))
    # consensus_index_set checks that the depth is an integer in 1..n_min
    shared, complement = consensus_index_set(dims, depth)
    depth = int(depth)
    core = np.kron(lap, np.eye(depth))
    matrix = extend_matrix(core, complement)
    return PartialConsensusMatrix(
        matrix=matrix,
        laplacian=lap,
        dims=dims,
        depth=depth,
        shared=shared,
        complement=complement,
    )


class SpectralSummary(NamedTuple):
    min_eigenvalue: float
    zero_multiplicity: int
    max_eigenvalue: float


def spectral_summary(pc: PartialConsensusMatrix) -> SpectralSummary:
    """Smallest eigenvalue, its numerical multiplicity, and the largest.

    Eigenvalues with magnitude below ``ZERO_EIGENVALUE_RTOL`` times
    max(1, largest eigenvalue) are counted as zero.
    """
    try:
        eigenvalues = np.linalg.eigvalsh(pc.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigvalsh on symmetric
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    largest = float(eigenvalues[-1])
    tol = ZERO_EIGENVALUE_RTOL * max(1.0, abs(largest))
    multiplicity = int(np.count_nonzero(np.abs(eigenvalues) < tol))
    return SpectralSummary(float(eigenvalues[0]), multiplicity, largest)


def is_partial_consensus(pc: PartialConsensusMatrix, x, tol: float = 1e-12) -> bool:
    """True when the shared blocks of ``x`` agree, up to ``tol`` in ||Kx||."""
    x = _reals(x, f"vector of a matrix of order {pc.order}", (pc.order,))
    return float(np.linalg.norm(pc.matrix @ x)) <= _positive(tol, "tol", zero=True)


@dataclass(frozen=True)
class PermutationMatrix:
    """0/1 matrix reordering a vector into (selected, remaining) blocks."""

    matrix: np.ndarray
    subset: OrderedIndexSet
    size: int

    def __post_init__(self):
        self.matrix.flags.writeable = False

    def apply(self, x) -> np.ndarray:
        return self.matrix @ _reals(x, f"vector of a permutation of size {self.size}", (self.size,))


def permutation_matrix(size: int, subset) -> PermutationMatrix:
    """Permutation sending ``x`` to ``col(x[subset], x[rest ascending])``.

    Lets callers move an arbitrary choice of shared components to the
    leading positions of each agent block before building the coupling
    matrix, which itself always shares the leading components.
    """
    size = _integer(size, "permutation size", 0)
    subset = subset if isinstance(subset, OrderedIndexSet) else OrderedIndexSet(subset)
    if any(e > size for e in subset.entries):
        raise InvalidInputError(f"subset {subset.entries} not contained in 1..{size}")
    rest = [k for k in range(1, size + 1) if k not in subset]
    omega = subset.entries + tuple(rest)
    matrix = np.eye(size)[[col - 1 for col in omega]]  # row p is the unit vector at omega[p]
    return PermutationMatrix(matrix=matrix, subset=subset, size=size)
