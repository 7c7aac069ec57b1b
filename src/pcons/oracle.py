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
blocks of whole shared rows of at most ``_BLOCK_POINTS`` points, so the
working memory is one block plus arrays of length S and P, not S*P.
``MAX_GRID_POINTS`` therefore bounds the time of a search, and it is
checked for every agent before any agent is evaluated.
"""
from __future__ import annotations

import math
import sys
from numbers import Integral

import numpy as np

from .dynamics import ProblemInstance
from .errors import InvalidInputError

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


def _mesh(axes) -> np.ndarray:
    """(points, len(axes)) product of ``axes``, the last axis varying fastest."""
    if not axes:
        return np.zeros((1, 0))
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _shared_bounds(problem: ProblemInstance):
    depth = problem.depth
    lo = np.full(depth, -np.inf)
    hi = np.full(depth, np.inf)
    for agent in problem.agents:
        lo = np.maximum(lo, agent.box.lower[:depth])
        hi = np.minimum(hi, agent.box.upper[:depth])
    if np.any(lo > hi):
        raise InvalidInputError("shared blocks of the agent boxes do not intersect")
    return lo, hi


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
    total = np.zeros(S)
    argmins = []
    for agent, free_axes in zip(problem.agents, free_axes_per_agent):
        free_mesh = _mesh(free_axes)  # (P, n_free)
        P = free_mesh.shape[0]
        rows = max(1, _BLOCK_POINTS // P)
        # only the shared columns change from block to block
        buf = np.empty((min(rows, S), P, agent.dim))
        buf[:, :, depth:] = free_mesh
        best_idx = np.empty(S, dtype=np.intp)
        for a in range(0, S, rows):
            b = min(a + rows, S)
            pts = buf[: b - a]
            pts[:, :, :depth] = shared_mesh[a:b, None, :]
            values = agent.objective.value_many(pts)
            feasible = np.ones((b - a, P), dtype=bool)
            for comp in agent.constraints.components:
                feasible &= comp.value_many(pts) <= 0.0
            values = np.where(feasible, values, np.inf)
            best_idx[a:b] = np.argmin(values, axis=1)
            total[a:b] += values[np.arange(b - a), best_idx[a:b]]
        argmins.append((free_mesh, best_idx))
    if not np.any(np.isfinite(total)):
        return None
    s_best = int(np.argmin(total))
    point = np.empty(problem.total_dim)
    for i, (free_mesh, best_idx) in enumerate(argmins):
        s = problem.block(i)
        point[s][:depth] = shared_mesh[s_best]
        point[s][depth:] = free_mesh[best_idx[s_best]]
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
    if not 0.0 < grid < np.inf:
        raise InvalidInputError(f"grid step must be finite and positive, got {grid}")
    if isinstance(refine, bool) or not isinstance(refine, Integral) or refine < 0:
        raise InvalidInputError(f"refine must be an integer >= 0, got {refine!r}")
    # the rounds' steps, checked up front: at most ~620 divisions underflow any grid
    step = grid
    for _ in range(refine):
        step /= 10.0
        if step < sys.float_info.min:
            raise InvalidInputError(
                f"refine {refine} is too deep for grid {grid}: it refines the step to "
                f"{step!r}, below the smallest normal float {sys.float_info.min!r}"
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
    shared_axes = [_axis(lo_s[k], hi_s[k], grid) for k in range(depth)]
    free_axes_per_agent = [
        [_axis(a.box.lower[k], a.box.upper[k], grid) for k in range(depth, a.dim)]
        for a in problem.agents
    ]
    found = _search(problem, shared_axes, free_axes_per_agent)
    if found is None:
        raise InvalidInputError("no feasible grid point; check the constraints")
    point, value = found

    step = grid
    for _ in range(refine):
        step /= 10.0
        shared_axes = [
            _axis(max(lo_s[k], point[k] - 10 * step), min(hi_s[k], point[k] + 10 * step), step)
            for k in range(depth)
        ]
        free_axes_per_agent = []
        for i, a in enumerate(problem.agents):
            blk = point[problem.block(i)]
            free_axes_per_agent.append(
                [
                    _axis(
                        max(a.box.lower[k], blk[k] - 10 * step),
                        min(a.box.upper[k], blk[k] + 10 * step),
                        step,
                    )
                    for k in range(depth, a.dim)
                ]
            )
        found = _search(problem, shared_axes, free_axes_per_agent)
        if found is not None and found[1] <= value:
            point, value = found
    return point, value
