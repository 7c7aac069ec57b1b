"""Brute-force grid oracle, independent of the dynamics.

Imposing the consensus constraint reduces the decision space to one
shared block plus each agent's free coordinates.  The objective and the
constraints are separable across agents given the shared block, so the
oracle scans the shared grid once and, for each shared point, minimizes
every agent independently over its own free grid, rejecting infeasible
points.  This evaluates exactly the same minimum as enumerating the full
product grid, at a fraction of the cost, and shares no code path with
the flow it is used to check.
"""
from __future__ import annotations

import numpy as np

from .dynamics import ProblemInstance
from .errors import InvalidInputError

#: refuse grids whose largest per-agent mesh would exceed this many points
MAX_GRID_POINTS = 50_000_000


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InvalidInputError("brute force needs bounded boxes")
    count = int(np.floor((hi - lo) / step + 1e-9))
    # lo + step*k can round past hi; the clamp keeps every point in the box
    pts = np.minimum(lo + step * np.arange(count + 1), hi)
    if hi - pts[-1] > 1e-12 * max(1.0, abs(hi)):
        pts = np.append(pts, hi)
    return pts


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
    shared_mesh = np.stack(
        [m.ravel() for m in np.meshgrid(*shared_axes, indexing="ij")], axis=-1
    )  # (S, depth)
    S = shared_mesh.shape[0]
    total = np.zeros(S)
    argmins = []
    for agent, free_axes in zip(problem.agents, free_axes_per_agent):
        if free_axes:
            free_mesh = np.stack(
                [m.ravel() for m in np.meshgrid(*free_axes, indexing="ij")], axis=-1
            )  # (P, n_free)
        else:
            free_mesh = np.zeros((1, 0))
        P = free_mesh.shape[0]
        if S * P > MAX_GRID_POINTS:
            raise InvalidInputError(
                f"grid too fine: {S}x{P} evaluations for one agent exceeds {MAX_GRID_POINTS}"
            )
        pts = np.empty((S, P, agent.dim))
        pts[:, :, :depth] = shared_mesh[:, None, :]
        if free_mesh.shape[1]:
            pts[:, :, depth:] = free_mesh[None, :, :]
        values = agent.objective.value_many(pts)
        feasible = np.ones((S, P), dtype=bool)
        for comp in agent.constraints.components:
            feasible &= comp.value_many(pts) <= 0.0
        values = np.where(feasible, values, np.inf)
        best_idx = np.argmin(values, axis=1)
        best_val = values[np.arange(S), best_idx]
        total += best_val
        argmins.append(free_mesh[best_idx])  # (S, n_free)
    if not np.any(np.isfinite(total)):
        return None
    s_best = int(np.argmin(total))
    point = np.empty(problem.total_dim)
    for i, agent in enumerate(problem.agents):
        s = problem.block(i)
        point[s][:depth] = shared_mesh[s_best]
        point[s][depth:] = argmins[i][s_best]
    return point, float(total[s_best])


def brute_force_solve(problem: ProblemInstance, grid: float, refine: int = 0):
    """Exhaustive feasible-grid minimum of the consensus-reduced problem.

    ``grid`` is the step per coordinate.  Requires bounded boxes and a
    reduced dimension (shared block plus all free coordinates) of at
    most 4.  Returns ``(point, value)`` with ``point`` the stacked
    full-dimensional minimizer found.  ``refine`` adds rounds of local
    10x-finer search around the incumbent.
    """
    if grid <= 0:
        raise InvalidInputError(f"grid step must be positive, got {grid}")
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
