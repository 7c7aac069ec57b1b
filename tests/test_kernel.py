"""The compiled velocity kernel against the per-agent reference, bit for bit."""
import numpy as np
from hypothesis import example, given, settings, strategies as st

from pcons import convex
from pcons.dynamics import AgentProblem, ProblemInstance, SolverState, rhs
from pcons.network import build_agents

from conftest import random_connected_laplacian


def reference_agent_velocity(agent, xi, li, mi, neighbor_terms, depth, gain):
    """Velocity of one agent's block, one agent at a time.

    ``neighbor_terms`` is an iterable of (weight, x_j_shared, lam_j_shared)
    in ascending neighbor order.  Returns (dx, dlam_shared, dmu, g_values).
    """
    g = agent.constraints.value(xi)
    pp = np.maximum(mi + g, 0.0)
    if agent.constraints.size:
        base = agent.constraints.weighted_subgradient(xi, pp)
    else:
        base = np.zeros(xi.shape[0])
    lam_vel = np.zeros(depth)
    if neighbor_terms:
        ui = xi[:depth] + li[:depth]
        coup = np.zeros(depth)
        for w, xj, lj in neighbor_terms:
            coup += w * (ui - (xj + lj))
            lam_vel += w * (xi[:depth] - xj)
        base[:depth] += coup
    flo, fhi = agent.objective.subgradient_interval(xi)
    sel = np.minimum(np.maximum(-base, flo), fhi)
    y = xi - sel - base
    dx = 2.0 * gain * (agent.box.project(y) - xi)
    dmu = gain * (pp - mi)
    return dx, lam_vel, dmu, g


def reference_rows(problem, x, lam, mu):
    """Every agent's reference velocity, with neighbor blocks read from the stack."""
    depth = problem.depth
    rows = []
    for i, agent in enumerate(problem.agents):
        s, ms = problem.block(i), problem.mu_block(i)
        terms = [
            (w, x[problem.block(j)][:depth], lam[problem.block(j)][:depth])
            for j, w in problem.neighbors[i]
        ]
        rows.append(
            reference_agent_velocity(agent, x[s], lam[s], mu[ms], terms, depth, problem.gain)
        )
    return rows


def kernel_rows(problem, x, lam, mu):
    """The kernel's velocity of every row, split back into agents."""
    kernel = problem.kernel
    px, pl = kernel.payloads(x, lam)
    dx, dlam, dmu, g = kernel.evaluate(x, lam, mu, px[kernel.nbr], pl[kernel.nbr])
    return [
        (dx[problem.block(i)], dlam[i], dmu[problem.mu_block(i)], g[problem.mu_block(i)])
        for i in range(len(problem.agents))
    ]


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True), (a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b)), (a, b)


def assert_rows_equal(got, want):
    for row_got, row_want in zip(got, want, strict=True):
        for a, b in zip(row_got, row_want, strict=True):
            assert_bits_equal(a, b)


# -- random instances --------------------------------------------------------

finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
weight = st.one_of(st.just(0.0), st.floats(0.0, 2.0, allow_nan=False))


@st.composite
def expressions(draw, dim, families=("quad", "abs", "exp")):
    """A convex expression built field by field: duplicate and unsorted atoms allowed."""
    fields = {"dim": dim, "lin": np.array([draw(finite) for _ in range(dim)]),
              "const": draw(finite)}
    for fam in ("quad", "abs", "exp"):
        count = draw(st.integers(0, 3)) if fam in families else 0
        fields[f"{fam}_idx"] = np.array(
            [draw(st.integers(0, dim - 1)) for _ in range(count)], dtype=int)
        fields[f"{fam}_weight"] = np.array([draw(weight) for _ in range(count)])
        if fam != "exp":
            fields[f"{fam}_center"] = np.array([draw(finite) for _ in range(count)])
    return convex.ConvexExpr(**fields)


@st.composite
def agents(draw, dim):
    objective = draw(expressions(dim))
    rows = tuple(draw(expressions(dim)) for _ in range(draw(st.integers(0, 3))))
    constraints = convex.ConstraintMap(rows) if rows else convex.no_constraints()
    lower = np.array([draw(st.one_of(st.just(-np.inf), st.floats(-2.0, 0.0))) for _ in range(dim)])
    upper = np.array([draw(st.one_of(st.just(np.inf), st.floats(0.0, 2.0))) for _ in range(dim)])
    return AgentProblem(objective=objective, constraints=constraints,
                        box=convex.Box(lower, upper))


@st.composite
def instances(draw):
    """(problem, x, lambda, mu) with states on kinks and zero multipliers mixed in."""
    count = draw(st.integers(1, 4))
    dims = [draw(st.integers(1, 4)) for _ in range(count)]
    depth = draw(st.integers(1, min(dims)))
    seed = draw(st.integers(0, 2**32 - 1))
    lap = random_connected_laplacian(np.random.default_rng(seed), count, integer_weights=False)
    problem = ProblemInstance([draw(agents(d)) for d in dims], lap, depth)

    # points worth landing on: kinks, atom centers, box faces, zero
    special = [0.0, -0.0]
    for a in problem.agents:
        special += a.objective.abs_center.tolist() + a.objective.quad_center.tolist()
        special += [v for v in np.concatenate([a.box.lower, a.box.upper]) if np.isfinite(v)]
        for c in a.constraints.components:
            special += c.abs_center.tolist()
    value = st.one_of(finite, st.sampled_from(special))
    n, m = problem.total_dim, problem.multiplier_dim
    x = np.array([draw(value) for _ in range(n)])
    lam = np.array([draw(st.one_of(finite, st.just(0.0), st.just(-0.0))) for _ in range(n)])
    mu = np.array([draw(st.one_of(finite, st.just(0.0), st.just(-0.0))) for _ in range(m)])
    return problem, x, lam, mu


class TestKernelMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(instances())
    def test_rows_bit_identical(self, case):
        problem, x, lam, mu = case
        assert_rows_equal(kernel_rows(problem, x, lam, mu), reference_rows(problem, x, lam, mu))

    @settings(max_examples=50, deadline=None)
    @given(instances())
    def test_packed_rhs_bit_identical(self, case):
        problem, x, lam, mu = case
        dx, dlam, dmu = rhs(SolverState(x, lam, mu), problem)
        want = reference_rows(problem, x, lam, mu)
        want_dlam = np.zeros(problem.total_dim)
        for i, row in enumerate(want):
            want_dlam[problem.block(i)][: problem.depth] = row[1]
        assert_bits_equal(dx, np.concatenate([row[0] for row in want]))
        assert_bits_equal(dlam, want_dlam)
        assert_bits_equal(dmu, np.concatenate([np.empty(0)] + [row[2] for row in want]))

    def test_duplicate_atoms_accumulate_in_listed_order(self):
        # three atoms on coordinate 1, listed out of canonical order
        f = convex.ConvexExpr(
            dim=2, lin=np.array([0.1, -0.3]), const=0.0,
            quad_idx=np.array([1, 0, 1, 1]), quad_center=np.array([0.3, 1.0, -7.0, 1e-9]),
            quad_weight=np.array([1e16, 1.0, 3.0, 1.0]),
            abs_idx=np.array([1, 1]), abs_center=np.array([0.25, 0.25]),
            abs_weight=np.array([0.5, 1.5]),
            exp_idx=np.array([0, 0]), exp_weight=np.array([0.1, 0.7]),
        )
        problem = ProblemInstance([AgentProblem(objective=f)], np.zeros((1, 1)), 1)
        for x in ([0.25, 0.25], [1.0, 0.3], [-1.5, 2.0]):
            x = np.array(x)
            assert_rows_equal(kernel_rows(problem, x, np.zeros(2), np.zeros(0)),
                              reference_rows(problem, x, np.zeros(2), np.zeros(0)))


# -- the scatter against the two it replaced -----------------------------------


def slot_add(family, acc, values):
    """Add ``values`` into ``acc`` at ``family.pos`` in slot groups: the
    k-th group holds every position's k-th atom, so no group repeats a
    position, and the groups are added in turn."""
    if not family.size:
        return
    rank, seen = [], {}
    for p in family.pos.tolist():
        rank.append(seen.get(p, 0))
        seen[p] = rank[-1] + 1
    rank = np.array(rank)
    for r in range(rank.max() + 1):
        acc[family.pos[rank == r]] += values[rank == r]


def column_add(kernel, base, pp, sub):
    """Add p_j * (subgradient entries of row j) into ``base`` column by
    column, the c-th row of every agent that has one, skipping p_j == 0."""
    sizes = [blk.stop - blk.start for blk in kernel.mu_blocks]
    first = np.repeat([blk.start for blk in kernel.mu_blocks], sizes)
    column = kernel.con_row - first[kernel.con_row]
    for c in range(max(sizes, default=0)):
        coord, rows, sl = (a[column == c] for a in (kernel.con_coord, kernel.con_row, sub))
        m = pp[rows]
        on = m != 0.0
        base[coord[on]] += m[on] * sl[on]


def reference_select(kernel, x, lam, mu, recv_x, recv_lam):
    """``VelocityKernel._select`` with atoms added in slot groups and the
    constraint entries column by column, from the kernel's flat arrays."""
    g = kernel.constraint_values(x)
    pp = np.maximum(mu + g, 0.0)
    base = np.zeros(kernel.total_dim)
    if kernel.con_lin.size:
        sub = kernel.con_lin.copy()
        q, a, e = kernel.con_quad, kernel.con_abs, kernel.con_exp
        if q.size:
            slot_add(q, sub, q.weight * (x[q.coord] - q.center))
        if a.size:
            d = x[a.coord] - a.center
            slot_add(a, sub, a.weight * np.where(np.abs(d) < convex.KINK_TOLERANCE, 0.0,
                                                 np.sign(d)))
        if e.size:
            slot_add(e, sub, e.weight * np.exp(x[e.coord]))
        column_add(kernel, base, pp, sub)
    xs, ls = x[kernel.shared], lam[kernel.shared]
    coup, dlam = np.zeros_like(xs), np.zeros_like(xs)
    for k, w in enumerate(kernel.weight_columns):
        coup += w * (xs + ls - (recv_x[:, k] + recv_lam[:, k]))
        dlam += w * (xs - recv_x[:, k])
    base[kernel.shared] += coup
    lo = kernel.lin.copy()
    q, a, e = kernel.quad, kernel.abs, kernel.exp
    if q.size:
        slot_add(q, lo, q.weight * (x[q.coord] - q.center))
    if e.size:
        slot_add(e, lo, e.weight * np.exp(x[e.coord]))
    hi = lo.copy()
    if a.size:
        d = x[a.coord] - a.center
        at_kink = np.abs(d) < convex.KINK_TOLERANCE
        s = np.where(at_kink, 0.0, np.sign(d))
        slot_add(a, lo, a.weight * np.where(at_kink, -1.0, s))
        slot_add(a, hi, a.weight * np.where(at_kink, 1.0, s))
    for _, blk, objective in kernel.opaque:
        lo[blk], hi[blk] = objective.subgradient_interval(x[blk])
    return np.minimum(np.maximum(-base, lo), hi), base, dlam, pp, g


def listed(dim, lin, const=0.0, quad=(), abs_=(), exp=()):
    """A ``ConvexExpr`` whose atoms stay as listed: duplicates unmerged."""
    fields = {"dim": dim, "lin": np.array(lin, dtype=float), "const": const}
    for fam, atoms in (("quad", quad), ("abs", abs_), ("exp", exp)):
        fields[f"{fam}_idx"] = np.array([a[0] for a in atoms], dtype=int)
        fields[f"{fam}_weight"] = np.array([a[-1] for a in atoms], dtype=float)
        if fam != "exp":
            fields[f"{fam}_center"] = np.array([a[1] for a in atoms], dtype=float)
    return convex.ConvexExpr(**fields)


def side_by_side():
    """Agents with 0, 3, 1 and 2 constraint rows, duplicate atoms on one
    coordinate in objectives and rows, and an exp row whose multiplier is
    exactly 0 while its subgradient entry overflows: 1e308 + 1e308*exp(0)."""
    rows = {
        0: (),
        1: (listed(2, [0.5, -1.0], -0.25, quad=[(1, 0.5, 1.0), (1, -0.5, 2.0)]),
            listed(2, [1e308, 0.0], 0.0, exp=[(0, 1e308)]),
            listed(2, [0.25, 0.25], 0.5, abs_=[(0, 0.0, 1.0), (0, 0.0, 3.0), (1, 0.75, 0.5)])),
        2: (listed(1, [2.0], -1.0, exp=[(0, 0.5), (0, 0.25)]),),
        3: (listed(3, [0.0, 1.0, -1.0], 0.0, quad=[(2, 1.0, 0.5)], abs_=[(2, 1.0, 2.0)]),
            listed(3, [1.0, 1.0, 1.0], -0.5, exp=[(1, 1.0), (1, 2.0), (0, 1.0)])),
    }
    dims = (1, 2, 1, 3)
    agents = [AgentProblem(
        objective=listed(d, [0.1] * d, 0.0, quad=[(0, 0.3, 1.0), (0, -0.7, 2.0)],
                         abs_=[(d - 1, 0.25, 0.5), (d - 1, 0.25, 1.5)], exp=[(0, 0.1), (0, 0.2)]),
        constraints=convex.ConstraintMap(rows[i]) if rows[i] else convex.no_constraints(),
        box=convex.Box(np.full(d, -2.0), np.full(d, 2.0))) for i, d in enumerate(dims)]
    lap = np.array([[1.0, -1.0, 0.0, 0.0], [-1.0, 2.0, -1.0, 0.0],
                    [0.0, -1.0, 2.0, -1.0], [0.0, 0.0, -1.0, 1.0]])
    problem = ProblemInstance(agents, lap, 1)
    x = np.array([0.25, 0.0, 0.75, 0.5, 1.0, -0.5, 1.0])
    mu = np.array([0.5, -1.7e308, 0.25, 1.0, 2.0, 2.0])
    return problem, x, np.linspace(-1.0, 1.0, 7), mu


SIDE_BY_SIDE = side_by_side()


class TestScatterMatchesTheSlotAndColumnScatters:
    @settings(max_examples=300, deadline=None)
    @example(SIDE_BY_SIDE)
    @given(instances())
    def test_select_bit_identical(self, case):
        problem, x, lam, mu = case
        kernel = problem.kernel
        received = kernel.gathered(x, lam)
        with np.errstate(over="ignore", invalid="ignore"):
            got = kernel._select(x, lam, mu, *received)
            want = reference_select(kernel, x, lam, mu, *received)
        for a, b in zip(got, want, strict=True):
            assert_bits_equal(a, b)

    def test_the_side_by_side_case_bites(self):
        problem, x, lam, mu = SIDE_BY_SIDE
        kernel = problem.kernel
        for family in (kernel.quad, kernel.abs, kernel.exp, kernel.con_quad, kernel.con_abs,
                       kernel.con_exp):
            assert len(set(family.pos.tolist())) < family.size  # duplicate positions
        with np.errstate(over="ignore", invalid="ignore"):
            sel, base, dlam, pp, g = kernel._select(x, lam, mu, *kernel.gathered(x, lam))
            assert np.isnan(0.0 * (1e308 + 1e308 * np.exp(x[1])))  # the term it skips
        overflowing = problem.mu_block(1).start + 1
        assert g[overflowing] == 1e308 and pp[overflowing] == 0.0
        assert (pp[np.arange(len(pp)) != overflowing] > 0.0).all()
        assert np.isfinite(base).all() and np.isfinite(sel).all()


class TestLocality:
    @settings(max_examples=100, deadline=None)
    @given(instances(), st.data())
    def test_non_neighbor_block_does_not_reach_a_row(self, case, data):
        problem, x, lam, mu = case
        i = data.draw(st.integers(0, len(problem.agents) - 1))
        near = {i} | {j for j, _ in problem.neighbors[i]}
        far = [j for j in range(len(problem.agents)) if j not in near]
        if not far:
            return
        j = data.draw(st.sampled_from(far))
        x2, lam2, mu2 = x.copy(), lam.copy(), mu.copy()
        x2[problem.block(j)] += 1.0
        lam2[problem.block(j)] -= 3.0
        mu2[problem.mu_block(j)] += 0.5
        before = kernel_rows(problem, x, lam, mu)[i]
        after = kernel_rows(problem, x2, lam2, mu2)[i]
        for a, b in zip(before, after, strict=True):
            assert_bits_equal(a, b)

    @settings(max_examples=100, deadline=None)
    @given(instances())
    def test_local_velocity_is_the_agents_row(self, case):
        problem, x, lam, mu = case
        rows = kernel_rows(problem, x, lam, mu)
        agents = build_agents(problem, SolverState(x, lam, mu))
        depth = problem.depth
        for i, agent in enumerate(agents):
            received = {
                j: (x[problem.block(j)][:depth].copy(), lam[problem.block(j)][:depth].copy())
                for j, _ in agent.neighbors
            }
            got = agent.local_velocity(agent.x, agent.lam, agent.mu, received)
            for a, b in zip(got, rows[i], strict=True):
                assert_bits_equal(a, b)


# -- the selected subgradient of the descent function ------------------------


def reference_selected_gradient(problem, x, lam, mu):
    """The x-gradient of v1 with the flow's subgradient selection, agent by agent."""
    out = np.empty(problem.total_dim)
    depth = problem.depth
    for i, agent in enumerate(problem.agents):
        s = problem.block(i)
        xi, li, mi = x[s], lam[s], mu[problem.mu_block(i)]
        g = agent.constraints.value(xi)
        pp = np.maximum(mi + g, 0.0)
        if agent.constraints.size:
            base = agent.constraints.weighted_subgradient(xi, pp)
        else:
            base = np.zeros(xi.shape[0])
        if problem.neighbors[i]:
            ui = xi[:depth] + li[:depth]
            coup = np.zeros(depth)
            for j, w in problem.neighbors[i]:
                sj = problem.block(j)
                coup += w * (ui - (x[sj][:depth] + lam[sj][:depth]))
            base[:depth] += coup
        flo, fhi = agent.objective.subgradient_interval(xi)
        out[s] = np.clip(-base, flo, fhi) + base
    return out


class Opaque:
    """An objective the kernel does not compile: it asks for the interval."""

    def __init__(self, inner):
        self.inner, self.dim = inner, inner.dim

    def value(self, x):
        return self.inner.value(x)

    def subgradient_interval(self, x):
        return self.inner.subgradient_interval(x)

    def kink_locations(self):
        return self.inner.kink_locations()


class TestSelectedSubgradient:
    @settings(max_examples=200, deadline=None)
    @given(instances(), st.data())
    def test_matches_the_per_agent_reference(self, case, data):
        problem, x, lam, mu = case
        agents = [
            AgentProblem(Opaque(a.objective), a.constraints, a.box)
            if data.draw(st.booleans()) else a
            for a in problem.agents
        ]
        problem = ProblemInstance(agents, problem.laplacian, problem.depth)
        kernel = problem.kernel
        got = kernel.selected_subgradient(x, lam, mu, *kernel.gathered(x, lam))
        assert_bits_equal(got, reference_selected_gradient(problem, x, lam, mu))


# -- objective values --------------------------------------------------------


class TestObjectiveValue:
    @settings(max_examples=200, deadline=None)
    @given(instances(), st.data())
    def test_matches_the_per_agent_sum(self, case, data):
        problem, x, _, _ = case
        agents = [
            AgentProblem(Opaque(a.objective), a.constraints, a.box)
            if data.draw(st.booleans()) else a
            for a in problem.agents
        ]
        problem = ProblemInstance(agents, problem.laplacian, problem.depth)
        want = float(sum(a.objective.value(x[problem.block(i)])
                         for i, a in enumerate(problem.agents)))
        assert_bits_equal(problem.objective_value(x), want)
