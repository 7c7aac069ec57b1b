"""Projected subgradient flow for partial-consensus problems.

The state is (x, lambda, mu): primal variables stacked across agents,
one consensus multiplier per primal coordinate, and one inequality
multiplier per constraint row.  The flow

    dx      = 2*gain*(P_box(x - dF(x) - dG(x)'p - K(x + lambda)) - x)
    dlambda = K x
    dmu     = gain*(p - mu),        p = max(mu + g(x), 0)

drives x to a KKT point of the coupled problem; ``gain`` is one plus the
largest eigenvalue of the coupling matrix K.  Time stepping is explicit
fixed-step Euler or classical rk4 on the packed state z = [x, lambda,
mu].  One stepper, one driver loop and one stage evaluator, ``_Exchange``,
serve both execution modes: a stage is one exchange of every agent's
shared components, then one call of the compiled velocity kernel.  The
modes differ only in what they pass it: ``pcons.network`` a message log
to record the payloads into, this module none.

Two practical refinements address the nonsmooth sliding modes created by
absolute-value atoms (fixed-step explicit methods otherwise chatter at a
distance O(h) around interior kinks and the stationarity residual never
reaches tight tolerances):

* at a coordinate sitting bit-exactly on a kink, the selected
  subdifferential element is the velocity-minimizing one instead of the
  minimal-norm one (identical everywhere else, since off kinks the
  subdifferential is a singleton);
* ``integrate`` may snap a coordinate onto a kink it crossed or stalled
  against, but only when the snapped coordinate is stationary, so
  capture never invents equilibria.  Snapping is restricted to
  non-shared coordinates, whose stationarity test is agent-local.

Everything here is deterministic; identical inputs give bit-identical
trajectories.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate

import numpy as np

from .convex import (
    Box, ConstraintMap, ConvexExpr, _Atoms, _box_violation, _interval, _selected, no_constraints,
)
from .errors import (
    DivergenceError, InvalidInputError, NumericalError, _integer, _positive, _reals,
)
from .pcmatrix import (
    AgentDims,
    PartialConsensusMatrix,
    build_partial_consensus_matrix,
    spectral_summary,
)

#: trajectory norms beyond this raise DivergenceError
DIVERGENCE_NORM = 1e12

#: a snapped kink coordinate is kept only if its velocity is below this
SNAP_VELOCITY_TOL = 1e-9

METHODS = ("euler", "rk4")

#: with at most this many kinks, capture skips its numpy pass (about 7 us
#: on a 2-core x86_64 VM) and tests each kink row (about 1.7 us a row)
_FEW_KINKS = 4

#: a run's error state, entered once per call: ``locate`` names what overflows
_QUIET = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class AgentProblem:
    """One agent's objective, inequality constraints and feasible box."""

    objective: ConvexExpr
    constraints: ConstraintMap = field(default_factory=no_constraints)
    box: Box = None

    def __post_init__(self):
        if self.box is None:
            from .convex import whole_space

            object.__setattr__(self, "box", whole_space(self.objective.dim))
        if self.constraints.size and self.constraints.dim != self.objective.dim:
            raise InvalidInputError(
                f"constraints on R^{self.constraints.dim} attached to an "
                f"objective on R^{self.objective.dim}"
            )
        if self.box.dim != self.objective.dim:
            raise InvalidInputError(
                f"box of dimension {self.box.dim} attached to an objective "
                f"on R^{self.objective.dim}"
            )

    @property
    def dim(self) -> int:
        return self.objective.dim


class ProblemInstance:
    """N agents, a coupling graph, and the consensus depth.

    Construction normalizes the Laplacian, builds the coupling matrix and
    the gain, and lays out the per-agent blocks as the kernel does.  The
    velocity kernel is compiled on first use (``kernel``), so parsing and
    the oracle never pay for it.  ``slater_probe=True`` additionally samples
    each agent's box on its own for a strictly feasible interior point and
    warns (never errors), naming every agent that has none.
    """

    def __init__(self, agents, laplacian, depth: int, slater_probe: bool = False):
        self.agents = tuple(agents)
        if not self.agents:
            raise InvalidInputError("a problem needs at least one agent")
        self.dims = AgentDims(tuple(a.dim for a in self.agents))
        self.coupling: PartialConsensusMatrix = build_partial_consensus_matrix(
            laplacian, self.dims, depth
        )
        self.laplacian = self.coupling.laplacian
        self.depth = self.coupling.depth
        self.gain = coupling_gain(self.coupling)

        self._block_slices = _slices(self.dims.dims)
        self._mu_slices = _slices([a.constraints.size for a in self.agents])
        self.total_dim, self.multiplier_dim = self.dims.total, self._mu_slices[-1].stop

        lap = self.laplacian
        self.neighbors = tuple(
            tuple((j, float(-lap[i, j])) for j in np.flatnonzero(lap[i]).tolist() if j != i)
            for i in range(self.dims.count)
        )
        if slater_probe:
            self._probe_slater()

    @cached_property
    def kernel(self) -> "VelocityKernel":
        """The agents compiled for the velocity field, on first use."""
        return VelocityKernel(self.agents, self.neighbors, self.depth, self.gain)

    @property
    def _capture_table(self):  # each agent's kink table, as the kernel derives it
        return self.kernel.kinks

    def block(self, i: int) -> slice:
        return self._block_slices[i]

    def mu_block(self, i: int) -> slice:
        return self._mu_slices[i]

    def _stacked(self, x) -> np.ndarray:
        return _reals(x, "stacked vector", (self.total_dim,))

    def objective_value(self, x) -> float:
        """Sum of the agents' objectives, added left to right from 0.0."""
        return float(self._objective_sums(self._stacked(x)))

    def _objective_sums(self, xs):
        """``objective_value`` of the stacked x, or of each row of a
        (states, total_dim) ``xs``.

        An explicit loop, because ``sum`` of floats is compensated from
        Python 3.12 on and would round differently between versions.
        """
        total = 0.0
        for values in self.kernel.objective_value_rows(xs).T:
            total += values
        return total

    def constraint_values(self, x) -> np.ndarray:
        return self.kernel.constraint_values(self._stacked(x))

    def box_violation(self, x) -> float:
        return float(_box_violation(self.kernel, self._stacked(x)))

    def _probe_slater(self, samples: int = 200):
        """Draw up to ``samples`` points per agent from one ``default_rng(0)``."""
        rng = np.random.default_rng(0)
        missing = []
        for i, a in enumerate(self.agents, 1):
            for _ in range(samples):
                xi = a.box.sample(rng)
                interior = np.all(xi > a.box.lower) and np.all(xi < a.box.upper)
                if interior and not (a.constraints.size and np.any(a.constraints.value(xi) >= 0.0)):
                    break
            else:
                missing.append(i)
        if missing:
            warnings.warn(
                f"no strictly feasible interior point found by sampling for agents {missing}; "
                "a constraint qualification could not be verified",
                stacklevel=3,
            )


def _slices(sizes):
    """Consecutive slices of the given sizes from 0: every agent's block
    of x (or lambda), or of mu, in ``ProblemInstance`` and the kernel."""
    stops = list(accumulate(sizes, initial=0))
    return tuple(slice(a, b) for a, b in zip(stops[:-1], stops[1:]))


def coupling_gain(pc: PartialConsensusMatrix) -> float:
    """One plus the largest eigenvalue of the coupling matrix."""
    return spectral_summary(pc).max_eigenvalue + 1.0


@dataclass
class SolverState:
    """Stacked solver state (x, lambda, mu) at virtual time t."""

    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    t: float = 0.0

    def copy(self) -> "SolverState":
        return SolverState(self.x.copy(), self.lam.copy(), self.mu.copy(), self.t)


@dataclass(frozen=True)
class KKTResidual:
    """Nonnegative residuals; all zero exactly at flow equilibria."""

    stationarity: float
    consensus: float
    complementarity: float
    feasibility: float

    @property
    def max_component(self) -> float:
        return max(self.stationarity, self.consensus, self.complementarity, self.feasibility)

    def as_tuple(self):
        return (self.stationarity, self.consensus, self.complementarity, self.feasibility)


def initial_state(problem: ProblemInstance, kind: str = "zeros", rng=None) -> SolverState:
    """Zero state, or x uniform over the feasible boxes with zero multipliers
    drawn by ``rng``, a numpy ``Generator`` or ``RandomState`` (default
    ``default_rng(0)``); any other ``rng`` raises ``InvalidInputError``."""
    n, m = problem.total_dim, problem.multiplier_dim
    if not (rng is None or isinstance(rng, (np.random.Generator, np.random.RandomState))):
        raise InvalidInputError(f"rng must be a numpy Generator or RandomState, got "
                                f"{type(rng).__name__}")
    if kind == "zeros":
        return SolverState(np.zeros(n), np.zeros(n), np.zeros(m), 0.0)
    if kind == "random":
        rng = rng if rng is not None else np.random.default_rng(0)
        x = np.empty(n)
        for a, s in zip(problem.agents, problem._block_slices):
            x[s] = a.box.sample(rng)
        return SolverState(x, np.zeros(n), np.zeros(m), 0.0)
    raise InvalidInputError(f"unknown initialization kind {kind!r}")


# -- velocity kernel ---------------------------------------------------------


class _Dots:
    """Value rows (constraint rows, or objectives) whose linear part or one
    atom family has one length.

    Each row's dot product runs through ``np.vecdot`` at its exact length,
    which reproduces the BLAS dot of ``ConvexExpr.value`` bit for bit.
    """

    def __init__(self, entries):
        # entries: (row, coords, centers or None, weights, const or None)
        rows, coord, center, weight, const = zip(*entries)
        self.rows = np.asarray(rows, dtype=int)
        self.coord = np.asarray(coord, dtype=int)
        self.center = None if center[0] is None else np.asarray(center, dtype=float)
        self.weight = np.asarray(weight, dtype=float)
        self.const = None if const[0] is None else np.asarray(const, dtype=float)


def _group_dots(entries):
    """One ``_Dots`` per distinct length, shortest first."""
    groups = {}
    for entry in entries:
        groups.setdefault(len(entry[1]), []).append(entry)
    return tuple(_Dots(groups[length]) for length in sorted(groups))


def _value_entries(values, row, f, start):
    """Add the value rows of expression ``f`` on the block at ``start`` to
    ``values``: lin.x + const, then each nonempty atom family."""
    values["lin"].append((row, np.arange(start, start + f.dim), None, f.lin, f.const))
    for fam, cen in (("quad", f.quad_center), ("abs", f.abs_center), ("exp", None)):
        idx = getattr(f, f"{fam}_idx")
        if len(idx):
            values[fam].append((row, start + idx, cen, getattr(f, f"{fam}_weight"), None))


def _dot_values(groups, xs, out):
    """Fill ``out`` with every value row of ``groups``, in the order of
    ``ConvexExpr.value``: lin.x + const, then quad, abs and exp.

    ``xs`` is one stacked x, or a (states, total_dim) block whose rows
    fill the rows of ``out``.  A block is gathered with ``np.take``, C
    contiguous, so every dot runs at its exact length over unit strides;
    ``xs[:, coord]`` would put the states innermost, and the BLAS dot of
    a strided row rounds differently (no FMA).  One state is gathered by
    ``x[coord]``, which costs about 1.1 us less per group than
    ``np.take`` on ``_select``'s path.
    """
    take = xs.__getitem__ if xs.ndim == 1 else partial(np.take, xs, axis=1)
    rows = out.T
    for d in groups["lin"]:
        rows[d.rows] = (np.vecdot(d.weight, take(d.coord)) + d.const).T
    for d in groups["quad"]:
        diff = take(d.coord) - d.center
        rows[d.rows] += np.vecdot(d.weight, diff * diff).T
    for d in groups["abs"]:
        rows[d.rows] += np.vecdot(d.weight, np.abs(take(d.coord) - d.center)).T
    for d in groups["exp"]:
        rows[d.rows] += np.vecdot(d.weight, np.exp(take(d.coord))).T
    return out


class VelocityKernel:
    """A set of agents compiled into flat arrays for one velocity evaluation.

    ``agents`` are ``AgentProblem`` rows and ``neighbors[i]`` lists row i's
    (neighbor index, edge weight) pairs in ascending order.  The kernel
    keeps its ``agents``, ``neighbors``, ``depth`` and ``gain`` and derives
    all per-row data: the block and multiplier slices, and each row's kink
    table ``kinks``, the (coordinate, center) pairs of its objective's
    ``abs`` atoms on non-shared coordinates, where kink capture may snap,
    also flattened into ``kink_coord`` (stacked), ``kink_center`` and
    ``kink_row`` for ``capture``.
    The arrays hold the objective atoms in stacked coordinates, the
    constraint rows and one objective value row per agent grouped by exact
    length, the constraint rows as subgradient entries (one per row and
    coordinate, agent by agent and row by row), the neighbor table padded
    with zero weights, and the stacked box bounds.  ``convex._selected``
    (constraint entries) and ``convex._interval`` (objectives) select the
    subgradients on ``_Atoms`` whose ``coord`` indexes the stacked x, as
    ``ConvexExpr`` does on its own, so every sum adds its terms in the
    order ``ConvexExpr`` and ``ConstraintMap`` do.  One evaluator,
    ``_dot_values``, computes value rows at one state or a block.
    ``evaluate`` applies one fixed sequence of numpy operations to every
    row; each row reads only its own block and the payloads delivered to
    it.  An objective that is not a ``ConvexExpr`` is asked for its own
    ``subgradient_interval`` on its block.
    """

    def __init__(self, agents, neighbors, depth, gain):
        self.agents = agents = tuple(agents)
        self.neighbors = neighbors = tuple(tuple(nb) for nb in neighbors)
        self.depth, self.gain, self.twice_gain = depth, gain, 2.0 * gain
        dims = [a.dim for a in agents]
        sizes = [a.constraints.size for a in agents]
        self.total_dim, self.multiplier_dim = sum(dims), sum(sizes)
        self.blocks, self.mu_blocks = _slices(dims), _slices(sizes)
        starts = np.array([s.start for s in self.blocks], dtype=int)
        self.shared = starts[:, None] + np.arange(depth)
        self.kinks = tuple(
            tuple((k, c) for k, c in a.objective.kink_locations() if k >= depth)
            for a in agents
        )
        coord, self.kink_center, row = np.array(
            [(s.start + k, c, i) for i, (t, s) in enumerate(zip(self.kinks, self.blocks))
             for k, c in t], dtype=float).reshape(-1, 3).T
        self.kink_coord, self.kink_row = coord.astype(int), row.astype(int)
        self.lower = np.concatenate([a.box.lower for a in agents])
        self.upper = np.concatenate([a.box.upper for a in agents])

        # neighbors, padded with zero weight on the row itself
        width = max((len(nb) for nb in neighbors), default=0)
        self.nbr = np.tile(np.arange(len(agents))[:, None], (1, width))
        weights = np.zeros((len(agents), width))
        for i, nb in enumerate(neighbors):
            for k, (j, w) in enumerate(nb):
                self.nbr[i, k], weights[i, k] = j, w
        self.weight_columns = tuple(weights[:, k, None].copy() for k in range(width))
        self.edges = tuple((i, j) for i, nb in enumerate(neighbors) for j, _ in nb)

        # the packed state z = [x, lambda, mu]
        self._lam_shared = self.total_dim + self.shared
        self._stay = np.full(self.total_dim, -0.0)

        # objective atoms in stacked coordinates and one value row per agent;
        # constraint rows: values grouped by length, subgradients as one entry
        # per (row, coordinate), agent by agent and row by row
        self.lin, opaque, objectives = np.zeros(self.total_dim), [], []
        con_lin, con_coord, con_row, constraints = [], [], [], []
        objective_values = {"lin": [], "quad": [], "abs": [], "exp": []}
        values = {"lin": [], "quad": [], "abs": [], "exp": []}
        for i, (a, s, ms) in enumerate(zip(agents, self.blocks, self.mu_blocks)):
            f = a.objective
            if isinstance(f, ConvexExpr):
                _value_entries(objective_values, i, f, s.start)
                self.lin[s] = f.lin
                objectives.append((s.start, s.start, f))
            else:
                opaque.append((i, s, f))
            for r, g in enumerate(a.constraints.components, ms.start):
                _value_entries(values, r, g, s.start)
                constraints.append((len(con_lin), s.start, g))
                con_lin.extend(g.lin.tolist())
                con_coord.extend(range(s.start, s.stop))
                con_row.extend([r] * a.dim)
        self.opaque = tuple(opaque)
        self.objective_dots = {fam: _group_dots(v) for fam, v in objective_values.items()}
        self.value_dots = {fam: _group_dots(v) for fam, v in values.items()}
        self.quad, self.abs, self.exp = (_Atoms(fam, objectives) for fam in ("quad", "abs", "exp"))
        self.con_quad, self.con_abs, self.con_exp = (
            _Atoms(fam, constraints) for fam in ("quad", "abs", "exp"))
        self.con_lin = np.asarray(con_lin, dtype=float)
        self.con_coord = np.asarray(con_coord, dtype=int)
        self.con_row = np.asarray(con_row, dtype=int)

    @cached_property
    def gather(self) -> np.ndarray:
        """The x (and lambda) index of every payload each row receives,
        in the shape of ``evaluate``'s ``recv_x``.  Only a kernel whose
        neighbors are its own rows has one, not an ``Agent``'s own kernel."""
        return self.shared[self.nbr]

    def payloads(self, x, lam):
        """The payload table a log records: every row's shared (x, lambda) prefix."""
        return x[self.shared], lam[self.shared]

    def gathered(self, x, lam):
        """Every row's received payloads, as a gather from the payload
        table would deliver them."""
        return x[self.gather], lam[self.gather]

    def constraint_values(self, x):
        """g(x) of every constraint row, as ``ConvexExpr.value`` computes it."""
        return _dot_values(self.value_dots, x, np.empty(self.multiplier_dim))

    @_QUIET
    def objective_values(self, xs):
        """Every row's objective value, as its ``value`` computes it, at
        one stacked x, or at every row of a (states, total_dim) ``xs`` as
        a (states, rows) array; one that overflows is inf, without a
        warning.  ``objective_value_rows`` is the same method."""
        out = _dot_values(self.objective_dots, xs, np.empty((*xs.shape[:-1], len(self.blocks))))
        for i, blk, objective in self.opaque:
            np.atleast_2d(out)[:, i] = [objective.value(x) for x in np.atleast_2d(xs)[:, blk]]
        return out

    objective_value_rows = objective_values

    def evaluate(self, x, lam, mu, recv_x, recv_lam):
        """Velocity of every row from its block and its delivered payloads.

        ``recv_x`` and ``recv_lam`` have shape (rows, table width, depth):
        the payloads each row received, in its neighbor order.  Returns
        (dx, dlambda of the shared block as (rows, depth), dmu, g).
        """
        sel, base, dlam, pp, g = self._select(x, lam, mu, recv_x, recv_lam)
        y = x - sel - base
        dx = self.twice_gain * (np.minimum(np.maximum(y, self.lower), self.upper) - x)
        dmu = self.gain * (pp - mu)
        return dx, dlam, dmu, g

    def selected_subgradient(self, x, lam, mu, recv_x, recv_lam):
        """sel + base: the x-subgradient of the descent function's v1 that
        the flow selects, with the arguments of ``evaluate``."""
        sel, base, *_ = self._select(x, lam, mu, recv_x, recv_lam)
        return sel + base

    def _select(self, x, lam, mu, recv_x, recv_lam):
        """(sel, base, dlambda, p, g): the selected objective subgradient,
        the constraint and coupling terms it is selected against, and the
        parts of the velocity that need no selection."""
        # constraints: values, then sum_j p_j * subgradient(g_j), skipping p_j == 0
        g = self.constraint_values(x)
        pp = np.maximum(mu + g, 0.0)
        base = np.zeros(self.total_dim)
        if self.con_lin.size:
            sub = _selected(self.con_lin.copy(), x, self.con_quad, self.con_abs, self.con_exp)
            m = pp[self.con_row]
            on = m != 0.0
            np.add.at(base, self.con_coord[on], m[on] * sub[on])

        # coupling with the delivered neighbor payloads, one column at a time
        xs, ls = x[self.shared], lam[self.shared]
        us = xs + ls
        coup = np.zeros_like(xs)
        dlam = np.zeros_like(xs)
        for k, w in enumerate(self.weight_columns):
            xj = recv_x[:, k]
            coup += w * (us - (xj + recv_lam[:, k]))
            dlam += w * (xs - xj)
        base[self.shared] += coup

        # objective subdifferential interval
        lo, hi = _interval(self.lin.copy(), x, self.quad, self.abs, self.exp)
        for _, blk, objective in self.opaque:
            lo[blk], hi[blk] = objective.subgradient_interval(x[blk])

        sel = np.minimum(np.maximum(-base, lo), hi)
        return sel, base, dlam, pp, g

    def split(self, z):
        """(x, lambda, mu) views of a packed state or velocity."""
        n = self.total_dim
        return z[:n], z[n : 2 * n], z[2 * n :]

    def pack(self, velocity):
        """``evaluate``'s (dx, dlambda, dmu, g) as (dz, g), with dz packed
        like the state z = [x, lambda, mu].

        The non-shared dlambda entries hold -0.0: adding ``coef * dz`` to a
        state keeps every bit of its non-shared lambda entries, a -0.0
        included.
        """
        dx, dlam, dmu, g = velocity
        dz = np.concatenate((dx, self._stay, dmu))
        dz[self._lam_shared] = dlam
        return dz, g

    def locate(self, k) -> str:
        """Entry ``k`` of a packed state as "agent i, field_j", both 1-based."""
        n = self.total_dim
        field, blocks, k = (("x", self.blocks, k) if k < n else
                            ("lambda", self.blocks, k - n) if k < 2 * n else
                            ("mu", self.mu_blocks, k - 2 * n))
        i = next(i for i, blk in enumerate(blocks) if k < blk.stop)
        return f"agent {i + 1}, {field}_{k - blocks[i].start + 1}"

    def capture(self, x, x_prev, v, mu, h) -> bool:
        """Kink capture, in place, on the stacked x of a step from ``x_prev``
        with stage-1 velocity ``v`` and new multipliers ``mu``: ``_snap`` on
        this kernel, for the rows one vectorised ``_near_kink`` pass flags
        (every row when the kernel has at most ``_FEW_KINKS`` kinks).
        Returns whether a snap was kept."""
        rows = range(len(self.kinks))
        if len(self.kink_row) > _FEW_KINKS:
            k = self.kink_coord
            rows = self.kink_row[_near_kink(x[k], x_prev[k], v[k], self.kink_center, h)].tolist()
        return _snap(self, {i: self.kinks[i] for i in rows}, x, x_prev, v, mu, h)


def _near_kink(x, x_prev, v, center, h):
    """Whether a step from ``x_prev`` to ``x`` with velocity ``v`` may snap
    x onto the kink at ``center``: x is off it, and the step crossed it
    or ended within h*|v| + 1e-12 of it.  Elementwise, or on one entry."""
    d = x - center
    return (x != center) & (((x_prev - center) * d < 0.0) | (abs(d) <= h * abs(v) + 1e-12))


def _snap(kernel, tables, x, x_prev, v, mu, h) -> bool:
    """Snap x onto the kinks of ``tables`` (row of ``kernel`` -> its kink
    table), in place, in rounds: a round snaps each row's next kink in
    table order that the step came near, one ``kernel.evaluate`` checks
    them all, and a snap stays only if its velocity is at most
    ``SNAP_VELOCITY_TOL``.  That velocity, at a non-shared coordinate,
    reads only its row's block and multipliers, so each row runs as it
    would on its own.  Returns whether a snap was kept."""
    def near(start, table):  # each test reads x as the earlier rounds left it
        for k, center in table:
            k += start
            if _near_kink(x[k], x_prev[k], v[k], center, h):
                yield k, center
    rows = [near(kernel.blocks[i].start, table) for i, table in tables.items()]
    changed = False
    while tried := [kink for kink in (next(row, None) for row in rows) if kink]:
        k, center = map(np.array, zip(*tried))
        old = x[k]
        x[k] = center
        dx = kernel.evaluate(x, x, mu, *kernel.gathered(x, x))[0]
        keep = np.abs(dx[k]) <= SNAP_VELOCITY_TOL
        x[k[~keep]] = old[~keep]
        changed |= bool(keep.any())
    return changed


class _Exchange:
    """The stage evaluator of both execution modes: one exchange, then the kernel.

    Each row sends its shared prefix along every incident edge and
    receives its payloads through ``VelocityKernel.gathered``.  Only when
    ``log`` is a ``MessageLog`` (a decentralized run's) is the payload
    table of step index ``n`` built and recorded as round ``n``; ``sent``
    counts the directed payloads.  A call is one exchange at (x, lambda,
    mu) and returns ``evaluate``'s velocity; ``stage`` is the same
    exchange at a packed state, packed by ``VelocityKernel.pack``, as the
    stepper calls it.
    """

    def __init__(self, kernel, log=None):
        self.kernel, self.log, self.sent = kernel, log, 0

    def __call__(self, x, lam, mu, n):
        kernel = self.kernel
        if self.log is not None:
            self.log._record(kernel.edges, n, *kernel.payloads(x, lam))
        self.sent += len(kernel.edges)
        return kernel.evaluate(x, lam, mu, *kernel.gathered(x, lam))

    def stage(self, z, n=0):
        """The packed velocity (dz, g) at the packed state ``z``."""
        return self.kernel.pack(self(*self.kernel.split(z), n))


def _check_state(state, problem):
    """Float copies of (x, lambda, mu) of a state that fits ``problem``.

    Rejects a state that is not a ``SolverState``, entries that are not
    real numbers (``errors._reals``), arrays of the wrong shape,
    non-finite entries and a time that is not a finite real number.
    """
    if not isinstance(state, SolverState):
        raise InvalidInputError(f"state must be a SolverState, got {type(state).__name__}")
    n, m = problem.total_dim, problem.multiplier_dim
    z = tuple(_reals(arr, f"state.{name}", (want,), finite=True).copy() for name, arr, want
              in (("x", state.x, n), ("lambda", state.lam, n), ("mu", state.mu, m)))
    _reals(state.t, "state time", 0, finite=True)
    return z


def _check_settings(h, method, t_max=1.0, kkt_tol=1.0, record_every=1):
    """Reject a step size, method or stopping rule that cannot be run.

    ``h``, ``t_max`` and ``kkt_tol`` must be finite positive reals and
    ``record_every`` an integer >= 1; booleans are neither.  Returns
    (h, t_max, kkt_tol) as floats.
    """
    floats = _positive(h, "h"), _positive(t_max, "t_max"), _positive(kkt_tol, "kkt_tol")
    if method not in METHODS:
        raise InvalidInputError(f"method must be one of {METHODS}, got {method!r}")
    _integer(record_every, "record_every", 1)
    return floats


def _packed_state(state, problem) -> np.ndarray:
    """The packed float state z = [x, lambda, mu] of a checked ``state``."""
    return np.concatenate(_check_state(state, problem))


@_QUIET
def rhs(state: SolverState, problem: ProblemInstance):
    """(dx, dlambda, dmu) of the flow at ``state``; dlambda is +0.0 off
    the shared block."""
    kernel = problem.kernel
    dz, _ = _Exchange(kernel).stage(_packed_state(state, problem))
    finite = np.isfinite(dz)
    if not finite.all():
        where = kernel.locate(int(np.argmin(finite)))
        raise NumericalError(f"non-finite velocity at t={state.t}: {where}")
    dx, dlam_stay, dmu = kernel.split(dz)
    dlam = np.zeros(problem.total_dim)
    dlam[kernel.shared] = dlam_stay[kernel.shared]
    return dx, dlam, dmu


def _norm(v) -> float:
    """``np.linalg.norm`` of a 1-D float array, bit for bit."""
    return math.sqrt(v.dot(v))


def _residual_norms(kernel, velocity):
    """The four KKT residuals of a packed stage velocity (dz, g)."""
    dz, g = velocity
    dx, dlam, dmu = kernel.split(dz)
    gain = kernel.gain
    return (_norm(dx) / (2.0 * gain), _norm(dlam), _norm(dmu) / gain,
            _norm(np.maximum(g, 0.0)))


@_QUIET
def kkt_residual(state: SolverState, problem: ProblemInstance) -> KKTResidual:
    """Stationarity, consensus, complementarity and feasibility norms.

    Stationarity is the distance between x and the projected target
    point (equivalently ||dx|| / (2*gain)), consensus is ||K x||,
    complementarity ||p - mu||, feasibility the norm of the positive
    part of g(x).
    """
    kernel = problem.kernel
    velocity = _Exchange(kernel).stage(_packed_state(state, problem))
    return KKTResidual(*_residual_norms(kernel, velocity))


# -- stepping ----------------------------------------------------------------


def _step(kernel, stage, capture, z, k1, n, t, h, method):
    """One explicit step of step index ``n`` from the packed state ``z`` at t.

    ``stage(z, n)`` returns the packed velocity (dz, g) at a packed stage
    state; ``k1`` is stage 1 when the caller has it, else None.  A stage
    state is ``z + coef * dz``; the -0.0 that ``VelocityKernel.pack``
    puts in the non-shared dlambda entries leaves those lambda entries
    bit for bit.  A non-finite result raises ``NumericalError`` naming
    the first non-finite entry and carrying the state at t; after that
    check, with ``capture`` on, ``VelocityKernel.capture`` snaps the new
    x onto its kinks.  Returns the new packed state.
    """
    if k1 is None:
        k1 = stage(z, n)
    v1 = k1[0]
    if method == "euler":
        new = z + h * v1
    else:
        half = 0.5 * h
        v2 = stage(z + half * v1, n)[0]
        v3 = stage(z + half * v2, n)[0]
        v4 = stage(z + h * v3, n)[0]
        new = z + (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
    finite = np.isfinite(new)
    if not finite.all():
        where = kernel.locate(int(np.argmin(finite)))
        raise NumericalError(f"non-finite state produced at t={t + h}: {where}",
                             state=SolverState(*kernel.split(z), t), t=t + h)
    if capture:
        new_x, _, new_mu = kernel.split(new)
        kernel.capture(new_x, kernel.split(z)[0], v1, new_mu, h)
    return new


@_QUIET
def step(state: SolverState, problem: ProblemInstance, h: float, method: str = "rk4") -> SolverState:
    """One fixed step of the flow (no kink capture; see ``integrate``)."""
    _check_settings(h, method)
    z = _packed_state(state, problem)
    kernel = problem.kernel
    new = _step(kernel, _Exchange(kernel).stage, False, z, None, 0, state.t, h, method)
    return SolverState(*kernel.split(new), state.t + h)


def capture_agent_kinks(agent, table, x_block, x_prev_block, k1_block, mu_block, h, gain):
    """Snap one agent's block onto the (coordinate, center) kinks of
    ``table``, in place, as ``VelocityKernel.capture`` snaps a row, on the
    agent compiled on its own once per call.  Returns whether a snap was kept."""
    kernel = VelocityKernel([agent], [()], 0, gain)
    return _snap(kernel, {0: table}, x_block, x_prev_block, k1_block, mu_block, h)


#: values a ``Trajectory`` or ``network.MessageLog`` block holds, and a CSV
#: writer formats per write: the one bound that keeps every array small
_BLOCK_VALUES = 1 << 14


class Trajectory:
    """Recorded run: states and diagnostics every ``record_every`` steps.

    The record is a list of float blocks of about ``_BLOCK_VALUES``
    values that hold only recorded rows.  A block row is what the driver
    computed at one recorded step: the packed state z = [x, lambda, mu],
    t and the four residuals.  ``times``, ``states``, ``residuals``,
    ``objectives`` and ``box_violations`` are read-only views that build
    their list on each read: floats, ``SolverState``s (over one copy of
    each block, never over the record itself) and ``KKTResidual``s.  The
    objectives and box violations are derived from each block's states,
    one batched kernel call per block.  The stop reason, step count, wall
    time and message counts are set when the run ends.
    """

    def __init__(self, problem: ProblemInstance):
        self._problem = problem
        self._n = n = problem.total_dim
        self._width = w = 2 * n + problem.multiplier_dim
        self._t, self._res = w, slice(w + 1, w + 5)
        self._per_block = max(1, _BLOCK_VALUES // (w + 5))
        self._blocks = []
        self._count = 0
        self.stop_reason = ""
        self.total_steps = 0
        self.wall_time = 0.0
        self.message_count = 0
        self.messages_per_step = 0

    def _record(self, t, z, residuals):
        """Append one row: packed state ``z`` at time t, and its residuals."""
        k = self._count % self._per_block
        if k == 0:
            self._blocks.append(np.empty((self._per_block, self._width + 5)))
        row = self._blocks[-1][k]
        row[: self._width] = z
        row[self._t :] = (t, *residuals)
        self._count += 1

    def _finish(self):
        """Cut the last block to its recorded rows if the run ended inside it."""
        rows = self._count % self._per_block
        if rows:
            self._blocks[-1] = self._blocks[-1][:rows]

    def _column(self, c) -> np.ndarray:
        return np.concatenate([rows[:, c] for rows in self._blocks])

    def _states(self, rows) -> list:
        z, n = rows[:, : self._width].copy(), self._n
        return list(map(SolverState, z[:, :n], z[:, n : 2 * n], z[:, 2 * n :],
                        rows[:, self._t].tolist()))

    @property
    def times(self) -> list:
        return self._column(self._t).tolist()

    @property
    def states(self) -> list:
        return [st for rows in self._blocks for st in self._states(rows)]

    @property
    def residuals(self) -> list:
        return [KKTResidual(*r) for r in self._column(self._res).tolist()]

    @property
    def objectives(self) -> list:
        sums = self._problem._objective_sums
        return np.concatenate([sums(rows[:, : self._n]) for rows in self._blocks]).tolist()

    @property
    def box_violations(self) -> list:
        kernel = self._problem.kernel
        return np.concatenate([_box_violation(kernel, rows[:, : self._n])
                               for rows in self._blocks]).tolist()

    @property
    def final(self) -> SolverState:
        return self._states(self._blocks[-1][-1:])[0]

    @property
    def final_residual(self) -> KKTResidual:
        return KKTResidual(*self._blocks[-1][-1, self._res].tolist())


@_QUIET
def _drive(problem, kernel, stage, capture, z, t0, h, method, t_max, kkt_tol, record_every):
    """The driver loop of both execution modes, from the packed state
    ``z = [x, lambda, mu]`` at t0.

    ``stage`` returns the packed velocity (dz, g) at a packed state and
    ``capture`` turns kink capture on, both as ``_step`` takes them.
    Every step starts with stage 1 at the current state; it gives the
    residual that stops the run and is reused by the step.  A recorded
    step writes z, t and the residuals into the trajectory's current
    block.  The norms are ``sqrt(v.dot(v))``, which is what
    ``np.linalg.norm`` computes.  Arguments are checked by the caller.
    """
    trajectory = Trajectory(problem)
    started = time.perf_counter()
    steps = 0
    while True:
        t = t0 + steps * h
        k1 = stage(z, steps)
        res = _residual_norms(kernel, k1)
        converged = max(res) <= kkt_tol
        done = converged or t >= t_max - 1e-12
        if done or steps % record_every == 0:
            trajectory._record(t, z, res)
        if done:
            break
        new = _step(kernel, stage, capture, z, k1, steps, t, h, method)
        if _norm(new) > DIVERGENCE_NORM:
            where = kernel.locate(int(np.argmax(np.abs(new))))
            raise DivergenceError(
                f"state norm exceeded {DIVERGENCE_NORM:g} at t={t + h}: "
                f"largest entry at {where}",
                state=SolverState(*kernel.split(z), t),
                t=t + h,
            )
        z = new
        steps += 1

    trajectory._finish()
    trajectory.stop_reason = "kkt_converged" if converged else "t_max"
    trajectory.total_steps = steps
    trajectory.wall_time = time.perf_counter() - started
    return trajectory


def integrate(
    problem: ProblemInstance,
    init: SolverState = None,
    h: float = 1e-3,
    method: str = "rk4",
    t_max: float = 100.0,
    kkt_tol: float = 1e-6,
    record_every: int = 1,
    capture_kinks: bool = True,
) -> Trajectory:
    """Run the flow until the KKT residual drops below ``kkt_tol``.

    Stops when the largest residual component is at most ``kkt_tol``
    (stop reason ``"kkt_converged"``) or when t reaches ``t_max``
    (``"t_max"``).  States and diagnostics are recorded every
    ``record_every`` steps plus at the final state.  A state norm beyond
    ``DIVERGENCE_NORM`` raises ``DivergenceError`` carrying the last
    finite state.
    """
    _check_settings(h, method, t_max, kkt_tol, record_every)
    state = init if init is not None else initial_state(problem, "zeros")
    z = _packed_state(state, problem)
    kernel = problem.kernel
    return _drive(problem, kernel, _Exchange(kernel).stage, capture_kinks, z, state.t,
                  h, method, t_max, kkt_tol, record_every)


# -- Lyapunov diagnostics ----------------------------------------------------


@dataclass(frozen=True)
class LyapunovValue:
    """Descent function split into its four parts (total = v1+v2+v3+v4)."""

    total: float
    v1: float
    v2: float
    v3: float
    v4: float


def _v1(state: SolverState, problem: ProblemInstance) -> float:
    pp = np.maximum(state.mu + problem.constraint_values(state.x), 0.0)
    xl = state.x + state.lam
    K = problem.coupling.matrix
    return (
        problem.objective_value(state.x)
        + 0.5 * float(pp @ pp)
        + 0.5 * float(xl @ (K @ xl))
    )


def _lyapunov_reference(reference: SolverState, problem: ProblemInstance, ref_tol: float):
    """(reference as float arrays, v1 at it, its selected subgradient):
    what the descent function needs of a near-equilibrium, after checking
    its residual."""
    ref_res = kkt_residual(reference, problem)
    if ref_res.max_component > ref_tol:
        raise InvalidInputError(
            f"reference point has residual {ref_res.max_component:.3e} > {ref_tol:.3e}; "
            "not a usable equilibrium"
        )
    kernel = problem.kernel
    ref = SolverState(*_check_state(reference, problem), reference.t)
    grad_ref = kernel.selected_subgradient(ref.x, ref.lam, ref.mu, *kernel.gathered(ref.x, ref.lam))
    return ref, _v1(ref, problem), grad_ref


def _lyapunov(state: SolverState, ref, problem: ProblemInstance) -> LyapunovValue:
    """The descent function at ``state`` against ``_lyapunov_reference``'s ``ref``."""
    reference, v1_ref, grad_ref = ref
    K = problem.coupling.matrix
    gain = problem.gain
    v1 = _v1(state, problem)
    dx = state.x - reference.x
    dl = state.lam - reference.lam
    dm = state.mu - reference.mu
    v2 = (
        v1
        - v1_ref
        - float(grad_ref @ dx)
        - float((reference.x + reference.lam) @ (K @ dl))
        - float(reference.mu @ dm)
    )
    v3 = 0.5 * float(dx @ dx) + 0.5 * (2.0 * gain * float(dl @ dl) - float(dl @ (K @ dl)))
    v4 = 0.5 * float(dm @ dm)
    return LyapunovValue(total=v1 + v2 + v3 + v4, v1=v1, v2=v2, v3=v3, v4=v4)


def lyapunov_value(
    state: SolverState,
    reference: SolverState,
    problem: ProblemInstance,
    ref_tol: float = 1e-4,
) -> LyapunovValue:
    """Evaluate the descent function at ``state`` against a converged point.

    ``reference`` must be a near-equilibrium (its residual max-component
    at most ``ref_tol``), otherwise the quadratic comparison terms are
    meaningless and ``InvalidInputError`` is raised; so it is when
    ``ref_tol`` is not a finite positive real.  Along a trajectory of
    ``integrate`` the total is nonincreasing up to discretization error.
    """
    ref_tol = _positive(ref_tol, "ref_tol")
    state = SolverState(*_check_state(state, problem), state.t)
    return _lyapunov(state, _lyapunov_reference(reference, problem, ref_tol), problem)


# -- trajectory export -------------------------------------------------------

def _write_rows(fh, row, columns):
    """Write ``row % values`` for every row of the equal-length 1-D
    ``columns``, a chunk of about ``_BLOCK_VALUES`` values at a time."""
    rows = max(1, _BLOCK_VALUES // len(columns))
    for start in range(0, len(columns[0]), rows):
        part = [c[start : start + rows].tolist() for c in columns]
        fh.write("".join(map(row.__mod__, zip(*part))))


def write_trajectory_csv(trajectory: Trajectory, path, problem: ProblemInstance, reference=None):
    """Write the recorded trajectory as CSV.

    Columns: t, x_1..x_n, lambda_1..lambda_n, mu_1..mu_m, objective, the
    four residuals, and V when a reference state is supplied.  Floats are
    printed with 17 significant digits, so identical runs produce
    byte-identical files.  The rows are formatted straight from the
    trajectory's blocks, and the objective and V columns are computed per
    block from ``problem``, not from the run's own problem.  ``problem``
    must have the trajectory's dimensions, else ``InvalidInputError`` is
    raised before the file is opened.
    """
    n, m = problem.total_dim, problem.multiplier_dim
    if (n, 2 * n + m) != (trajectory._n, trajectory._width):
        raise InvalidInputError(
            f"trajectory of {trajectory._n} primal and {trajectory._width - 2 * trajectory._n} "
            f"multiplier entries written with a problem of {n} and {m}"
        )
    header = (
        ["t"]
        + [f"x_{k}" for k in range(1, n + 1)]
        + [f"lambda_{k}" for k in range(1, n + 1)]
        + [f"mu_{k}" for k in range(1, m + 1)]
        + ["objective", "res_stationarity", "res_consensus",
           "res_complementarity", "res_feasibility"]
    )
    ref = None
    if reference is not None:
        header.append("V")
        ref = _lyapunov_reference(reference, problem, 1e-4)
    w, t = trajectory._width, trajectory._t
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        row = ",".join(["%.17g"] * len(header)) + "\n"
        for rows in trajectory._blocks:
            columns = [rows[:, t], *rows[:, :w].T, problem._objective_sums(rows[:, :n]),
                       *rows[:, trajectory._res].T]
            if ref is not None:
                columns.append(np.array([_lyapunov(st, ref, problem).total
                                         for st in trajectory._states(rows)]))
            _write_rows(fh, row, columns)
