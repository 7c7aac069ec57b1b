"""Shared fixtures: the packaged example problems and random instances."""
import warnings

import numpy as np
import pytest

# hypothesis imports this module to print a patch for a falsified property;
# it pulls in libcst, whose mypy_extensions DeprecationWarning the
# session's error filter would turn into an INTERNALERROR that ends the run
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst, hypothesis prints no patch either
        pass

import pcons
from pcons import convex
from pcons.dynamics import AgentProblem, ProblemInstance


@pytest.fixture(scope="session")
def example2():
    return pcons.parse_problem(pcons.fixture_path("example2.json"), slater_probe=False)


@pytest.fixture(scope="session")
def example2_run(example2):
    """Reference rk4 solve of the packaged three-agent problem."""
    return pcons.integrate(
        example2.problem, h=1e-3, method="rk4", t_max=100.0, kkt_tol=1e-6
    )


@pytest.fixture(scope="session")
def example2_run_tight(example2):
    """Same solve driven to a much smaller residual (for equilibrium tests)."""
    return pcons.integrate(
        example2.problem, h=1e-3, method="rk4", t_max=100.0, kkt_tol=1e-9
    )


def random_connected_laplacian(rng, nodes, integer_weights=True):
    """Random spanning tree plus extra edges; PSD sign convention."""
    w = np.zeros((nodes, nodes))
    order = rng.permutation(nodes)
    for k in range(1, nodes):
        i, j = order[k], order[rng.integers(0, k)]
        weight = float(rng.integers(1, 4)) if integer_weights else float(rng.uniform(0.5, 2.0))
        w[i, j] = w[j, i] = weight
    for i in range(nodes):
        for j in range(i + 1, nodes):
            if w[i, j] == 0.0 and rng.random() < 0.3:
                weight = float(rng.integers(1, 4)) if integer_weights else float(rng.uniform(0.5, 2.0))
                w[i, j] = w[j, i] = weight
    return np.diag(w.sum(axis=1)) - w


def random_agent(rng, dim, with_exp=True):
    """Random convex agent with a bounded box and feasible constraints."""
    lower = rng.uniform(-1.5, 0.0, dim)
    upper = lower + rng.uniform(0.5, 2.0, dim)
    box = convex.Box(lower, upper)
    objective = convex.ConvexExpr.zero(dim)
    for k in range(dim):
        objective = objective + convex.quadratic(
            dim, k, center=rng.uniform(-1.0, 2.0), weight=rng.uniform(0.2, 2.0)
        )
        if rng.random() < 0.5:
            objective = objective + convex.absolute(
                dim, k, center=rng.uniform(lower[k], upper[k]), weight=rng.uniform(0.2, 1.5)
            )
    if with_exp and rng.random() < 0.3:
        k = int(rng.integers(0, dim))
        objective = objective + convex.exponential(dim, k, weight=rng.uniform(0.05, 0.3))
    center = 0.5 * (lower + upper)
    rows = []
    for _ in range(int(rng.integers(0, 3))):
        coeffs = rng.uniform(-1.0, 1.0, dim)
        row = convex.affine(coeffs, -float(coeffs @ center) - rng.uniform(0.1, 1.0))
        rows.append(row)
    constraints = convex.ConstraintMap(tuple(rows)) if rows else convex.no_constraints()
    return AgentProblem(objective=objective, constraints=constraints, box=box)


def random_problem(rng, max_agents=4, max_dim=3, with_exp=True):
    n_agents = int(rng.integers(2, max_agents + 1))
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(n_agents)]
    depth = int(rng.integers(1, min(dims) + 1))
    lap = random_connected_laplacian(rng, n_agents, integer_weights=False)
    agents = [random_agent(rng, d, with_exp=with_exp) for d in dims]
    return ProblemInstance(agents, lap, depth)
