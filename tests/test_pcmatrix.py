"""Index sets, the extension operator, and the coupling matrix."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcons.convex import quadratic
from pcons.dynamics import AgentProblem, ProblemInstance
from pcons.errors import InvalidInputError
from pcons.pcmatrix import (
    AgentDims,
    OrderedIndexSet,
    build_partial_consensus_matrix,
    consensus_index_set,
    extend_matrix,
    extract,
    is_partial_consensus,
    laplacian_is_connected,
    normalize_laplacian,
    ordered_union,
    permutation_matrix,
    spectral_summary,
)
from pcons.problemfile import parse_expression

from conftest import random_connected_laplacian

COMPLETE_L3 = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])
PATH_L3 = np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]])

# 12x12 coupling matrix for the complete triangle with dims [3,4,5], depth 3
K3_EXPECTED = np.array([
    [2, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, 0],
    [0, 2, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0],
    [0, 0, 2, 0, 0, -1, 0, 0, 0, -1, 0, 0],
    [-1, 0, 0, 2, 0, 0, 0, -1, 0, 0, 0, 0],
    [0, -1, 0, 0, 2, 0, 0, 0, -1, 0, 0, 0],
    [0, 0, -1, 0, 0, 2, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, 0, 0, -1, 0, 0, 0, 2, 0, 0, 0, 0],
    [0, -1, 0, 0, -1, 0, 0, 0, 2, 0, 0, 0],
    [0, 0, -1, 0, 0, -1, 0, 0, 0, 2, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
], dtype=float)

# path-graph coupling for dims [1,2,2], depth 1, as printed in the
# negated sign convention (compare absolute values)
K1_NEGATED = np.array([
    [-1, 1, 0, 0, 0],
    [1, -2, 0, 1, 0],
    [0, 0, 0, 0, 0],
    [0, 1, 0, -1, 0],
    [0, 0, 0, 0, 0],
], dtype=float)


class TestOrderedIndexSet:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            OrderedIndexSet([0, 1])
        with pytest.raises(InvalidInputError):
            OrderedIndexSet([1, 1])

    def test_order_preserved(self):
        s = OrderedIndexSet([3, 1, 2])
        assert list(s) == [3, 1, 2]
        assert s != OrderedIndexSet([1, 2, 3])


class TestOrderedUnion:
    def test_concatenates(self):
        assert ordered_union(OrderedIndexSet([1, 3]), OrderedIndexSet([2, 5])) == (1, 3, 2, 5)

    def test_empty_left(self):
        assert ordered_union(OrderedIndexSet([]), OrderedIndexSet([4])) == (4,)

    def test_not_sorting(self):
        assert ordered_union(OrderedIndexSet([2]), OrderedIndexSet([1])) == (2, 1)

    def test_overlap_rejected(self):
        with pytest.raises(InvalidInputError):
            ordered_union(OrderedIndexSet([1, 2]), OrderedIndexSet([2, 3]))


class TestExtract:
    def test_basic(self):
        assert extract([7.0, 8, 9], OrderedIndexSet([1, 3])).tolist() == [7, 9]

    def test_identity(self):
        assert extract([7.0, 8, 9], OrderedIndexSet([1, 2, 3])).tolist() == [7, 8, 9]

    def test_example1_shared_block(self):
        # stacked [x11..x13, x21..x24, x31..x35]
        x = np.arange(1.0, 13.0)
        shared, complement = consensus_index_set([3, 4, 5], 3)
        assert extract(x, shared).tolist() == [1, 2, 3, 4, 5, 6, 8, 9, 10]
        assert extract(x, complement).tolist() == [7, 11, 12]

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            extract([1.0, 2.0], OrderedIndexSet([3]))


class TestExtendMatrix:
    def test_insert_after(self):
        m = extend_matrix([[5.0]], [2])
        assert m.tolist() == [[5, 0], [0, 0]]

    def test_insert_before(self):
        m = extend_matrix([[5.0]], [1])
        assert m.tolist() == [[0, 0], [0, 5]]

    def test_example1_composition(self):
        core = np.kron(COMPLETE_L3, np.eye(3))
        grown = extend_matrix(core, [7, 11, 12])
        assert np.array_equal(grown, K3_EXPECTED)

    def test_roundtrip_deletion(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = int(rng.integers(1, 6))
            m = rng.standard_normal((p, p))
            count = int(rng.integers(1, 4))
            positions = sorted(rng.choice(np.arange(1, p + count + 1), count, replace=False))
            grown = extend_matrix(m, positions)
            kept = [k for k in range(p + count) if k + 1 not in positions]
            assert np.array_equal(grown[np.ix_(kept, kept)], m)
            assert np.all(grown[[q - 1 for q in positions], :] == 0)
            assert np.all(grown[:, [q - 1 for q in positions]] == 0)

    def test_bad_position(self):
        with pytest.raises(InvalidInputError):
            extend_matrix([[1.0]], [3])

    @staticmethod
    def insert_reference(m, positions):
        """The extension as one np.insert per position, on the matrix grown so far."""
        out = np.asarray(m, dtype=float).copy()
        for pos in positions:
            out = np.insert(out, pos - 1, 0.0, axis=0)
            out = np.insert(out, pos - 1, 0.0, axis=1)
        return out

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_insert_reference(self, data):
        # arbitrary progressive positions, not only ascending ones
        order = data.draw(st.integers(0, 6))
        entries = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, np.inf]))
        m = np.array([[data.draw(entries) for _ in range(order)] for _ in range(order)])
        m = m.reshape(order, order)
        positions = []
        for _ in range(data.draw(st.integers(0, 6))):
            positions.append(data.draw(st.integers(1, order + len(positions) + 1)))
        got, want = extend_matrix(m, positions), self.insert_reference(m, positions)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_position_checked_against_grown_order(self):
        assert extend_matrix([[1.0]], [2, 3]).shape == (3, 3)
        with pytest.raises(InvalidInputError, match="outside 1..3"):
            extend_matrix([[1.0]], [2, 4])


class TestConsensusIndexSet:
    def test_example1(self):
        shared, complement = consensus_index_set([3, 4, 5], 3)
        assert shared == (1, 2, 3, 4, 5, 6, 8, 9, 10)
        assert complement == (7, 11, 12)

    def test_heterogeneous_depth_one(self):
        shared, complement = consensus_index_set([1, 2, 2], 1)
        assert shared == (1, 2, 4)
        assert complement == (3, 5)

    def test_full_consensus(self):
        shared, complement = consensus_index_set([2, 2], 2)
        assert shared == (1, 2, 3, 4)
        assert complement == ()

    def test_depth_too_large(self):
        with pytest.raises(InvalidInputError):
            consensus_index_set([3, 4, 5], 4)


class TestNormalizeLaplacian:
    def test_accepts_psd_convention(self):
        assert np.array_equal(normalize_laplacian(PATH_L3), PATH_L3)

    def test_flips_negated_convention(self):
        assert np.array_equal(normalize_laplacian(-PATH_L3), PATH_L3)

    def test_rejects_non_symmetric(self):
        with pytest.raises(InvalidInputError):
            normalize_laplacian([[1.0, -1], [0, 1]])

    def test_rejects_non_laplacian(self):
        with pytest.raises(InvalidInputError):
            normalize_laplacian([[1.0, 1], [1, 1]])


class TestBuildCoupling:
    def test_example1_exact(self):
        pc = build_partial_consensus_matrix(COMPLETE_L3, [3, 4, 5], 3)
        assert np.array_equal(pc.matrix, K3_EXPECTED)

    def test_path_graph_matches_printed_magnitudes(self):
        pc = build_partial_consensus_matrix(PATH_L3, [1, 2, 2], 1)
        assert np.array_equal(np.abs(pc.matrix), np.abs(K1_NEGATED))
        # the builder normalizes the sign convention even if the input is flipped
        pc2 = build_partial_consensus_matrix(-PATH_L3, [1, 2, 2], 1)
        assert np.array_equal(pc.matrix, pc2.matrix)

    def test_full_consensus_is_kron(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            nodes = int(rng.integers(2, 5))
            lap = random_connected_laplacian(rng, nodes)
            d = int(rng.integers(1, 4))
            pc = build_partial_consensus_matrix(lap, [d] * nodes, d)
            assert np.array_equal(pc.matrix, np.kron(lap, np.eye(d)))

    def test_depth_out_of_range(self):
        with pytest.raises(InvalidInputError):
            build_partial_consensus_matrix(COMPLETE_L3, [3, 4, 5], 4)

    def test_dims_mismatch(self):
        with pytest.raises(InvalidInputError):
            build_partial_consensus_matrix(COMPLETE_L3, [3, 4], 2)

    def test_matrix_read_only(self):
        pc = build_partial_consensus_matrix(COMPLETE_L3, [3, 4, 5], 3)
        with pytest.raises(ValueError):
            pc.matrix[0, 0] = 9.0


class TestNonzeroPattern:
    @staticmethod
    def _expected_pattern(lap, dims, depth):
        """Entry (i, j) is nonzero iff both coordinates are shared, sit at
        the same within-block offset below the depth, and the owning
        agents are coupled in the Laplacian."""
        dims = AgentDims(tuple(dims))
        total = dims.total
        owner = np.empty(total, dtype=int)
        offset_in_block = np.empty(total, dtype=int)
        for a, (off, d) in enumerate(zip(dims.offsets, dims.dims)):
            owner[off : off + d] = a
            offset_in_block[off : off + d] = np.arange(d)
        pattern = np.zeros((total, total), dtype=bool)
        for i in range(total):
            for j in range(total):
                if offset_in_block[i] >= depth or offset_in_block[j] >= depth:
                    continue
                if offset_in_block[i] != offset_in_block[j]:
                    continue
                pattern[i, j] = lap[owner[i], owner[j]] != 0.0
        return pattern

    def test_complete_graphs_exhaustive(self):
        # the iff form of the sparsity pattern needs every off-diagonal
        # Laplacian entry nonzero, so restrict to complete graphs
        import itertools

        for n_agents in (2, 3, 4):
            lap = n_agents * np.eye(n_agents) - np.ones((n_agents, n_agents))
            for dims in itertools.product(range(1, 5), repeat=n_agents):
                for depth in range(1, min(dims) + 1):
                    pc = build_partial_consensus_matrix(lap, dims, depth)
                    assert np.array_equal(
                        pc.matrix != 0.0, self._expected_pattern(lap, dims, depth)
                    ), (dims, depth)

    def test_sparse_graph_only_if_direction(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            nodes = int(rng.integers(2, 5))
            lap = random_connected_laplacian(rng, nodes)
            dims = [int(rng.integers(1, 4)) for _ in range(nodes)]
            depth = int(rng.integers(1, min(dims) + 1))
            pc = build_partial_consensus_matrix(lap, dims, depth)
            allowed = self._expected_pattern(lap, dims, depth)
            assert not np.any((pc.matrix != 0.0) & ~allowed)


class TestKernelCharacterization:
    def test_forward_consensus_vector(self):
        pc = build_partial_consensus_matrix(COMPLETE_L3, [3, 4, 5], 3)
        a, b, c, d, e, f = 0.3, -1.2, 2.0, 0.7, -0.1, 5.0
        x = np.array([a, b, c, a, b, c, d, a, b, c, e, f])
        assert np.all(pc.matrix @ x == 0.0)
        assert is_partial_consensus(pc, x, tol=0.0)

    def test_perturbation_breaks_consensus(self):
        pc = build_partial_consensus_matrix(COMPLETE_L3, [3, 4, 5], 3)
        x = np.array([1.0, 2, 3, 1, 2, 3, 9, 1, 2, 3, 9, 9])
        x[3] += 1.0
        assert not is_partial_consensus(pc, x, tol=1e-12)

    def test_path_graph_shared_scalar(self):
        pc = build_partial_consensus_matrix(PATH_L3, [1, 2, 2], 1)
        for s, q, r in [(0.0, 1.0, 2.0), (-3.5, 0.0, 7.25)]:
            x = np.array([s, s, q, s, r])
            assert is_partial_consensus(pc, x, tol=0.0)

    def test_dimension_mismatch(self):
        pc = build_partial_consensus_matrix(PATH_L3, [1, 2, 2], 1)
        with pytest.raises(InvalidInputError):
            is_partial_consensus(pc, np.zeros(4), 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.data())
    def test_kernel_is_the_consensus_subspace(self, nodes, seed, data):
        lap = random_connected_laplacian(np.random.default_rng(seed), nodes, integer_weights=False)
        dims = [data.draw(st.integers(1, 4)) for _ in range(nodes)]
        depth = data.draw(st.integers(1, min(dims)))
        pc = build_partial_consensus_matrix(lap, dims, depth)
        # consensus basis: one vector per shared offset, one per free coordinate
        basis = []
        for r in range(depth):
            v = np.zeros(pc.order)
            v[[off + r for off in pc.dims.offsets]] = 1.0
            basis.append(v)
        for k in pc.complement:
            v = np.zeros(pc.order)
            v[k - 1] = 1.0
            basis.append(v)
        basis = np.array(basis).T
        eigenvalues, vectors = np.linalg.eigh(pc.matrix)
        null = vectors[:, np.abs(eigenvalues) < 1e-9 * max(1.0, np.abs(eigenvalues).max())]
        assert null.shape[1] == basis.shape[1]
        assert np.abs(pc.matrix @ basis).max(initial=0.0) <= 1e-12
        # every kernel vector lies in the span of the consensus basis
        coeffs = np.linalg.lstsq(basis, null, rcond=None)[0]
        assert np.abs(basis @ coeffs - null).max(initial=0.0) <= 1e-9

    def test_equivalence_random(self):
        # one thousand random cases: Kx = 0 exactly when shared blocks agree
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            nodes = int(rng.integers(2, 5))
            lap = random_connected_laplacian(rng, nodes)
            dims = [int(rng.integers(1, 5)) for _ in range(nodes)]
            depth = int(rng.integers(1, min(dims) + 1))
            pc = build_partial_consensus_matrix(lap, dims, depth)
            offsets = pc.dims.offsets
            if rng.random() < 0.5:
                shared = rng.standard_normal(depth)
                x = rng.standard_normal(pc.order)
                for off in offsets:
                    x[off : off + depth] = shared
                assert np.linalg.norm(pc.matrix @ x) <= 1e-12
            else:
                x = rng.standard_normal(pc.order)
                blocks = [x[off : off + depth] for off in offsets]
                agree = all(np.array_equal(blocks[0], b) for b in blocks)
                if not agree:
                    assert np.linalg.norm(pc.matrix @ x) > 1e-12


class TestSpectralSummary:
    def test_example1(self):
        pc = build_partial_consensus_matrix(COMPLETE_L3, [3, 4, 5], 3)
        summary = spectral_summary(pc)
        assert abs(summary.min_eigenvalue) < 1e-10
        # kernel = shared directions (depth) + padded coordinates; the
        # printed closed form "total - depth*N + 1" is correct only for
        # depth 1 and gives 4 here, while the true multiplicity is 6
        assert summary.zero_multiplicity == 12 - 3 * 3 + 3
        assert summary.max_eigenvalue == pytest.approx(3.0, abs=1e-10)

    def test_path_graph(self):
        pc = build_partial_consensus_matrix(PATH_L3, [1, 2, 2], 1)
        summary = spectral_summary(pc)
        assert abs(summary.min_eigenvalue) < 1e-10
        assert summary.zero_multiplicity == 5 - 3 * 1 + 1  # depth 1: both forms agree
        assert summary.max_eigenvalue == pytest.approx(3.0, abs=1e-10)

    def test_zero_laplacian(self):
        pc = build_partial_consensus_matrix(np.zeros((3, 3)), [1, 2, 2], 1)
        summary = spectral_summary(pc)
        assert summary.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert summary.zero_multiplicity == 5
        assert summary.max_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_random_psd_and_multiplicity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            nodes = int(rng.integers(2, 7))
            lap = random_connected_laplacian(rng, nodes, integer_weights=False)
            dims = [int(rng.integers(1, 4)) for _ in range(nodes)]
            depth = int(rng.integers(1, min(dims) + 1))
            pc = build_partial_consensus_matrix(lap, dims, depth)
            summary = spectral_summary(pc)
            assert summary.min_eigenvalue >= -1e-10
            assert summary.zero_multiplicity == pc.order - depth * nodes + depth
            kron_max = float(np.linalg.eigvalsh(np.kron(lap, np.eye(depth)))[-1])
            assert summary.max_eigenvalue == pytest.approx(kron_max, abs=1e-10)


class TestPermutationMatrix:
    def test_selects_middle(self):
        pm = permutation_matrix(3, [2])
        assert pm.apply([10.0, 20.0, 30.0]).tolist() == [20, 10, 30]

    def test_identity(self):
        pm = permutation_matrix(3, [1, 2, 3])
        assert np.array_equal(pm.matrix, np.eye(3))

    def test_two_swap(self):
        pm = permutation_matrix(2, [2])
        assert pm.matrix.tolist() == [[0, 1], [1, 0]]

    def test_one_per_row_and_column(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            m = int(rng.integers(1, 8))
            count = int(rng.integers(0, m + 1))
            subset = sorted(rng.choice(np.arange(1, m + 1), count, replace=False).tolist())
            rng.shuffle(subset)
            pm = permutation_matrix(m, subset)
            assert np.all(pm.matrix.sum(axis=0) == 1)
            assert np.all(pm.matrix.sum(axis=1) == 1)

    def test_agrees_with_extract(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            count = int(rng.integers(0, m + 1))
            subset = rng.choice(np.arange(1, m + 1), count, replace=False).tolist()
            pm = permutation_matrix(m, subset)
            x = rng.standard_normal(m)
            complement = [k for k in range(1, m + 1) if k not in subset]
            expected = np.concatenate([extract(x, OrderedIndexSet(subset)),
                                       extract(x, OrderedIndexSet(complement))])
            assert np.array_equal(pm.apply(x), expected)

    def test_invalid_subset(self):
        with pytest.raises(InvalidInputError):
            permutation_matrix(3, [4])


def test_connectivity_helper():
    assert laplacian_is_connected(PATH_L3)
    assert laplacian_is_connected([[0.0]])
    disconnected = np.array([
        [1.0, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1]
    ])
    assert not laplacian_is_connected(disconnected)


# a library call given a non-integer where it takes an integer: int() would
# truncate each of these
NON_INTEGERS = {
    "problem depth": lambda: ProblemInstance([AgentProblem(quadratic(1, 0))] * 3, PATH_L3, 1.9),
    "agent dimension": lambda: AgentDims((2.7, 3)),
    "index": lambda: OrderedIndexSet([1.5, 2]),
    "insertion position": lambda: extend_matrix(np.eye(1), [1.7]),
    "consensus depth": lambda: consensus_index_set((2, 2), 1.5),
    "permutation size": lambda: permutation_matrix(2.5, [1]),
    "atom dimension and coordinate": lambda: quadratic(2.9, 1.9),
    "expression dimension": lambda: parse_expression("x1", 1.5),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGERS))
def test_a_non_integer_is_rejected(case):
    with pytest.raises(InvalidInputError, match="whole number"):
        NON_INTEGERS[case]()


def test_numpy_integers_pass():
    assert AgentDims((np.int64(2), np.int32(3))).dims == (2, 3)
    assert OrderedIndexSet(np.array([2, 1])) == (2, 1)
    assert build_partial_consensus_matrix(PATH_L3, [1, 2, 2], np.int64(1)).depth == 1
