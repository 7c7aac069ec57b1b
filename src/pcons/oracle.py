"""Brute-force grid oracle, independent of the dynamics.

Imposing the consensus constraint reduces the decision space to one
shared block plus each agent's free coordinates.  The objective and the
constraints are separable across agents given the shared block, so the
oracle scans the shared grid once and, for each shared point, minimizes
every agent independently over its own free grid, rejecting infeasible
points.  This evaluates exactly the same minimum as enumerating the full
product grid, at a fraction of the cost, and shares no code path with
the flow it is used to check.

Each agent's S x P mesh (S shared points, P free points) is scanned in
blocks of whole shared rows.  The S shared rows are split into w
contiguous stripes that are scanned at the same time: the calling thread
scans the first and a helper thread each other one, every agent in
agent order over the stripe's own rows.  w is the number of CPUs the
process may run on (its affinity set, else ``os.cpu_count()``), but no
more than S or the smallest per-agent row budget ``_BLOCK_POINTS // P``;
with w = 1 no thread is started.  A stripe's blocks hold at most
``(_BLOCK_POINTS // P) // w`` rows, so the points in flight across all
stripes stay within one block of ``_BLOCK_POINTS`` points, and the
working memory is that plus arrays of length S and P, not S*P.  Each
helper runs in a copy of the caller's context, so the caller's
``np.errstate`` holds in it, and every helper is joined before the
search returns or raises.  Each row's values come from the same
``value_many`` calls on (rows, P, dim) blocks, the rows' totals add the
agents' best values in agent order, and stripes write disjoint rows.
The last bits of a value may still depend on the block size and so on
the worker count, which sets a stripe's block shape: ``value_many``'s
``@`` (BLAS dgemv) can round a row differently by where the row sits in
the call.  With ``_BLOCK_POINTS = 1`` a search on one instance returned
3.3264292702829645 where the whole mesh gives 3.326429270282964.
``MAX_GRID_POINTS`` bounds the time of a search, and it is checked for
every agent before any agent is evaluated.
"""
from __future__ import annotations

import contextvars
import math
import os
import sys
import threading

import numpy as np

from .dynamics import ProblemInstance
from .errors import InvalidInputError, _integer, _positive

#: refuse grids whose largest per-agent mesh would exceed this many points
MAX_GRID_POINTS = 50_000_000

#: points per block of an agent's mesh; bounds the memory of one search
_BLOCK_POINTS = 65_536


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InvalidInputError("brute force needs bounded boxes")
    count = np.floor((hi - lo) / step + 1e-9)
    # NaN fails the test too; checked before np.arange allocates the axis
    if not count < MAX_GRID_POINTS:
        raise InvalidInputError(
            f"grid too fine: {count + 1:.0f} points on one axis exceeds {MAX_GRID_POINTS}"
        )
    count = int(count)
    # lo + step*k can round past hi; the clamp keeps every point in the box
    pts = np.minimum(lo + step * np.arange(count + 1), hi)
    if hi - pts[-1] > 1e-12 * max(1.0, abs(hi)):
        pts = np.append(pts, hi)
    return pts


def _window(lo: float, hi: float, center: float, reach: float, step: float) -> np.ndarray:
    """The axis of ``step`` over the part of [lo, hi] within ``reach`` of ``center``."""
    return _axis(max(lo, center - reach), min(hi, center + reach), step)


def _mesh(axes) -> np.ndarray:
    """(points, len(axes)) product of ``axes``, the last axis varying fastest."""
    if not axes:
        return np.zeros((1, 0))
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _shared_bounds(problem: ProblemInstance):
    depth = problem.depth
    lo = np.max([agent.box.lower[:depth] for agent in problem.agents], axis=0)
    hi = np.min([agent.box.upper[:depth] for agent in problem.agents], axis=0)
    if np.any(lo > hi):
        raise InvalidInputError("shared blocks of the agent boxes do not intersect")
    return lo, hi


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else ``os.cpu_count()``; never fewer than 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return os.cpu_count() or 1


def _stripes(S: int, budgets) -> list:
    """Edges of the contiguous stripes that the S shared rows are scanned
    in, at the same time: one per usable CPU, but never more than S or
    the smallest per-agent row budget."""
    w = max(1, min(_usable_cpus(), S, *budgets))
    return [S * k // w for k in range(w + 1)]


def _search(problem, shared_axes, free_axes_per_agent):
    """Best value over the product of the given axes; None when infeasible."""
    depth = problem.depth
    S = math.prod(len(ax) for ax in shared_axes)
    for free_axes in free_axes_per_agent:
        P = math.prod(len(ax) for ax in free_axes)
        if S * P > MAX_GRID_POINTS:
            raise InvalidInputError(
                f"grid too fine: {S}x{P} evaluations for one agent exceeds {MAX_GRID_POINTS}"
            )
    shared_mesh = _mesh(shared_axes)  # (S, depth)
    free_meshes = [_mesh(free_axes) for free_axes in free_axes_per_agent]  # (P, n_free)
    # rows of one block per agent; the w stripes share that budget, so the
    # points in flight stay within one block of _BLOCK_POINTS
    budgets = [_BLOCK_POINTS // m.shape[0] for m in free_meshes]
    edges = _stripes(S, budgets)
    w = len(edges) - 1
    total = np.zeros(S)
    best_idx = [np.empty(S, dtype=np.intp) for _ in free_meshes]
    failed = threading.Event()  # a stripe raised: the others stop at their next block
    errors = []

    def scan(lo, hi):
        """Every agent, in agent order, over the shared rows [lo, hi)."""
        for agent, free_mesh, budget, best in zip(problem.agents, free_meshes, budgets, best_idx):
            rows = max(1, budget // w)
            # only the shared columns change from block to block
            buf = np.empty((min(rows, hi - lo), free_mesh.shape[0], agent.dim))
            buf[:, :, depth:] = free_mesh
            for a in range(lo, hi, rows):
                if failed.is_set():
                    return
                b = min(a + rows, hi)
                pts = buf[: b - a]
                pts[:, :, :depth] = shared_mesh[a:b, None, :]
                values = agent.objective.value_many(pts)
                # infeasible points, a NaN constraint value among them, score inf
                for comp in agent.constraints.components:
                    values[~(comp.value_many(pts) <= 0.0)] = np.inf
                best[a:b] = np.argmin(values, axis=1)
                total[a:b] += values[np.arange(b - a), best[a:b]]

    def helper(lo, hi):
        try:
            scan(lo, hi)
        except BaseException as exc:
            failed.set()
            errors.append(exc)

    # the caller scans the first stripe and a helper thread each other one
    # (none when w == 1), in a copy of the caller's context, which carries
    # its np.errstate; every helper started is joined, however this ends
    helpers = []
    try:
        for lo, hi in zip(edges[1:-1], edges[2:]):
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(helper, lo, hi))
            thread.start()
            helpers.append(thread)
        scan(edges[0], edges[1])
    except BaseException:
        failed.set()
        raise
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]
    if not np.any(np.isfinite(total)):
        return None
    s_best = int(np.argmin(total))
    point = np.empty(problem.total_dim)
    for i, (free_mesh, best) in enumerate(zip(free_meshes, best_idx)):
        s = problem.block(i)
        point[s][:depth] = shared_mesh[s_best]
        point[s][depth:] = free_mesh[best[s_best]]
    return point, float(total[s_best])


def brute_force_solve(problem: ProblemInstance, grid: float, refine: int = 0):
    """Exhaustive feasible-grid minimum of the consensus-reduced problem.

    ``grid`` is the step per coordinate.  Requires bounded boxes and a
    reduced dimension (shared block plus all free coordinates) of at
    most 4.  Returns ``(point, value)`` with ``point`` the stacked
    full-dimensional minimizer found.  ``refine`` adds rounds of local
    10x-finer search around the incumbent.  ``grid`` must be finite and
    positive and ``refine`` an integer >= 0 whose last step is still a
    positive normal float.
    """
    grid = _positive(grid, "grid step")
    refine = _integer(refine, "refine", 0)
    # each round's step, by repeated division and checked up front: at
    # most ~620 divisions underflow any grid
    steps = [grid]
    for _ in range(refine):
        steps.append(steps[-1] / 10.0)
        if steps[-1] < sys.float_info.min:
            raise InvalidInputError(
                f"refine {refine} is too deep for grid {grid}: it refines the step to "
                f"{steps[-1]!r}, below the smallest normal float {sys.float_info.min!r}"
            )
    depth = problem.depth
    reduced = depth + sum(a.dim - depth for a in problem.agents)
    if reduced > 4:
        raise InvalidInputError(
            f"reduced dimension {reduced} exceeds 4; brute force refused"
        )
    for agent in problem.agents:
        if not agent.box.is_bounded:
            raise InvalidInputError("brute force needs bounded boxes")

    lo_s, hi_s = _shared_bounds(problem)
    # round 0 scans the whole box (an infinite reach around any point),
    # each later round the window of 10 steps around the incumbent
    point, value = np.zeros(problem.total_dim), np.inf
    for r, step in enumerate(steps):
        reach = 10 * step if r else np.inf
        shared_axes = [_window(lo_s[k], hi_s[k], point[k], reach, step) for k in range(depth)]
        free_axes_per_agent = [
            [_window(a.box.lower[k], a.box.upper[k], point[problem.block(i)][k], reach, step)
             for k in range(depth, a.dim)]
            for i, a in enumerate(problem.agents)
        ]
        found = _search(problem, shared_axes, free_axes_per_agent)
        if found is None and r == 0:
            raise InvalidInputError("no feasible grid point; check the constraints")
        if found is not None and found[1] <= value:
            point, value = found
    return point, value
