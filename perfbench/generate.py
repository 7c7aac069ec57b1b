"""Seeded problem instances for the benchmark, written as pcons problem files.

Two families:

* ``graph``: N agents on a ring plus N/2 random chords (weights U(0.5, 2)),
  dims 2-4, consensus depth 2, atoms drawn like the test suite's random
  agents.  Used by the ``graph-n256`` workload and the scaling sweep.
* ``oracle``: two agents with dims [2, 3] and depth 1 (reduced dimension
  4), whose shared box ranges overlap and whose constraints hold at a
  common point.  Each comes with the grid step that spends a fixed point
  budget, so the oracle's time and memory hardly depend on the seed.

The program only ever sees the JSON written by ``pcons.serialize_problem``.
``perfbench/run.py`` leaves every file it generates under ``.perfbench-out/``.
"""
from __future__ import annotations

import numpy as np

from pcons import convex
from pcons.dynamics import AgentProblem, ProblemInstance
from pcons.problemfile import SolverSettings, serialize_problem

#: largest single-agent mesh the oracle scans at the coarse grid
ORACLE_POINT_BUDGET = 2_000_000

#: graph-family virtual time limit: 50 rk4 steps at h=1e-3
GRAPH_T_MAX = 0.05


def random_agent(rng, dim):
    """Random convex agent with a bounded box, feasible at the box centre."""
    lower = rng.uniform(-1.5, 0.0, dim)
    upper = lower + rng.uniform(0.5, 2.0, dim)
    objective = convex.ConvexExpr.zero(dim)
    for k in range(dim):
        objective = objective + convex.quadratic(
            dim, k, center=rng.uniform(-1.0, 2.0), weight=rng.uniform(0.2, 2.0)
        )
        if rng.random() < 0.5:
            objective = objective + convex.absolute(
                dim, k, center=rng.uniform(lower[k], upper[k]), weight=rng.uniform(0.2, 1.5)
            )
    if rng.random() < 0.3:
        k = int(rng.integers(0, dim))
        objective = objective + convex.exponential(dim, k, weight=rng.uniform(0.05, 0.3))
    center = 0.5 * (lower + upper)
    rows = []
    for _ in range(int(rng.integers(0, 3))):
        coeffs = rng.uniform(-1.0, 1.0, dim)
        rows.append(convex.affine(coeffs, -float(coeffs @ center) - rng.uniform(0.1, 1.0)))
    constraints = convex.ConstraintMap(tuple(rows)) if rows else convex.no_constraints()
    return AgentProblem(objective=objective, constraints=constraints,
                        box=convex.Box(lower, upper))


def ring_with_chords(rng, nodes):
    """Laplacian of a ring plus nodes//2 distinct random chords."""
    w = np.zeros((nodes, nodes))
    for i in range(nodes):
        j = (i + 1) % nodes
        w[i, j] = w[j, i] = rng.uniform(0.5, 2.0)
    chords = 0
    while chords < nodes // 2 and nodes > 3:
        i, j = (int(v) for v in rng.integers(0, nodes, 2))
        if i == j or w[i, j] != 0.0:
            continue
        w[i, j] = w[j, i] = rng.uniform(0.5, 2.0)
        chords += 1
    return np.diag(w.sum(axis=1)) - w


def graph_problem(seed, agents):
    """The graph-family problem file for ``seed`` and ``agents``."""
    rng = np.random.default_rng([seed, agents])
    lap = ring_with_chords(rng, agents)
    dims = [int(d) for d in rng.integers(2, 5, agents)]
    problem = ProblemInstance([random_agent(rng, d) for d in dims], lap, 2)
    settings = SolverSettings(h=1e-3, method="rk4", t_max=GRAPH_T_MAX, kkt_tol=1e-6)
    return serialize_problem(problem, settings)


def oracle_agent(rng, lower, upper):
    """Agent with a square and a kink on every coordinate and one constraint.

    The atom and row counts are fixed, so the oracle's cost per grid point
    is the same for every seed.
    """
    dim = len(lower)
    objective = convex.ConvexExpr.zero(dim)
    for k in range(dim):
        objective = objective + convex.quadratic(
            dim, k, center=rng.uniform(-1.0, 2.0), weight=rng.uniform(0.2, 2.0)
        )
        objective = objective + convex.absolute(
            dim, k, center=rng.uniform(lower[k], upper[k]), weight=rng.uniform(0.2, 1.5)
        )
    center = 0.5 * (lower + upper)
    coeffs = rng.uniform(-1.0, 1.0, dim)
    row = convex.affine(coeffs, -float(coeffs @ center) - rng.uniform(0.1, 1.0))
    return AgentProblem(objective=objective, constraints=convex.ConstraintMap((row,)),
                        box=convex.Box(lower, upper))


def oracle_problem(seed, index=0):
    """(problem file, grid step) of the oracle family for ``seed``."""
    rng = np.random.default_rng([seed, index, 2])
    shared_lo = rng.uniform(-1.0, 0.0)
    shared_hi = shared_lo + rng.uniform(0.5, 1.5)
    agents = []
    for dim in (2, 3):
        lower = rng.uniform(-1.5, 0.0, dim)
        upper = lower + rng.uniform(0.5, 2.0, dim)
        lower[0], upper[0] = shared_lo, shared_hi
        agents.append(oracle_agent(rng, lower, upper))
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    problem = ProblemInstance(agents, lap, 1)
    # the widest agent mesh spans the shared axis and agent 2's two free axes
    volume = float(np.prod(agents[1].box.upper - agents[1].box.lower))
    grid = float(f"{(volume / ORACLE_POINT_BUDGET) ** (1.0 / 3.0):.3g}")
    return serialize_problem(problem), grid

