"""The packed-state stepper and the block-table trajectory against the
three-array stepper, driver loop and list trajectory they replace."""
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcons import convex, dynamics, network
from pcons.dynamics import (
    DIVERGENCE_NORM,
    METHODS,
    SNAP_VELOCITY_TOL,
    AgentProblem,
    KKTResidual,
    ProblemInstance,
    SolverState,
    Trajectory,
    capture_agent_kinks,
    integrate,
    rhs,
    step,
    write_trajectory_csv,
)
from pcons.errors import DivergenceError, NumericalError
from pcons.network import build_agents, run_decentralized, synchronous_round

from conftest import random_problem
from test_kernel import Opaque, assert_bits_equal, instances


# -- the reference: the three-array stepper, driver loop and list trajectory --


def reference_gather_stage(kernel, x, lam, mu, n=0):
    px, pl = kernel.payloads(x, lam)
    return kernel.evaluate(x, lam, mu, px[kernel.nbr], pl[kernel.nbr])


def reference_packed(kernel, velocity):
    dx, dlam, dmu, _ = velocity
    n = kernel.total_dim
    dz = np.zeros(2 * n + kernel.multiplier_dim)
    dz[:n] = dx
    dz[n : 2 * n][kernel.shared] = dlam
    dz[2 * n :] = dmu
    return dz


def reference_residuals(kernel, velocity):
    dz = reference_packed(kernel, velocity)
    n, gain = kernel.total_dim, kernel.gain
    return KKTResidual(
        stationarity=float(np.linalg.norm(dz[:n])) / (2.0 * gain),
        consensus=float(np.linalg.norm(dz[n : 2 * n])),
        complementarity=float(np.linalg.norm(dz[2 * n :])) / gain,
        feasibility=float(np.linalg.norm(np.maximum(velocity[3], 0.0))),
    )


def reference_step(kernel, stage, rows, z, k1, n, t, h, method):
    x, lam, mu = z
    if k1 is None:
        k1 = stage(x, lam, mu, n)

    def at(coef, k):
        stage_lam = lam.copy()
        stage_lam[kernel.shared] += coef * k[1]
        return x + coef * k[0], stage_lam, mu + coef * k[2]

    if method == "euler":
        new = at(h, k1)
    else:
        k2 = stage(*at(0.5 * h, k1), n)
        k3 = stage(*at(0.5 * h, k2), n)
        k4 = stage(*at(h, k3), n)
        new = at(h / 6.0, [a + 2.0 * b + 2.0 * c + d
                           for a, b, c, d in zip(k1[:3], k2[:3], k3[:3], k4[:3])])
    if not np.isfinite(np.concatenate(new)).all():
        raise NumericalError(f"non-finite state produced at t={t + h}")
    new_x, _, new_mu = new
    for (agent, table), s, ms in zip(rows, kernel.blocks, kernel.mu_blocks):
        if table:
            capture_agent_kinks(
                agent, table, new_x[s], x[s], k1[0][s], new_mu[ms], h, kernel.gain
            )
    return new


@dataclass
class ReferenceTrajectory:
    times: list
    states: list
    residuals: list
    objectives: list
    box_violations: list
    stop_reason: str
    total_steps: int
    wall_time: float


def reference_drive(problem, kernel, stage, rows, z, t0, h, method, t_max, kkt_tol,
                    record_every):
    times, states, residuals, objectives, violations = [], [], [], [], []
    started = time.perf_counter()
    steps = 0
    while True:
        t = t0 + steps * h
        k1 = stage(*z, steps)
        res = reference_residuals(kernel, k1)
        converged = res.max_component <= kkt_tol
        done = converged or t >= t_max - 1e-12
        if done or steps % record_every == 0:
            times.append(t)
            states.append(SolverState(*z, t))
            residuals.append(res)
            objectives.append(problem.objective_value(z[0]))
            violations.append(problem.box_violation(z[0]))
        if done:
            break
        new = reference_step(kernel, stage, rows, z, k1, steps, t, h, method)
        if np.linalg.norm(np.concatenate(new)) > DIVERGENCE_NORM:
            raise DivergenceError(
                f"state norm exceeded {DIVERGENCE_NORM:g} at t={t + h}",
                state=SolverState(*z, t),
                t=t + h,
            )
        z = new
        steps += 1
    return ReferenceTrajectory(times, states, residuals, objectives, violations,
                               "kkt_converged" if converged else "t_max", steps,
                               time.perf_counter() - started)


def reference_write_trajectory_csv(trajectory, path, problem):
    """The CSV written by stacking the recorded lists."""
    n, m = problem.total_dim, problem.multiplier_dim
    header = (["t"] + [f"x_{k}" for k in range(1, n + 1)]
              + [f"lambda_{k}" for k in range(1, n + 1)] + [f"mu_{k}" for k in range(1, m + 1)]
              + ["objective", "res_stationarity", "res_consensus",
                 "res_complementarity", "res_feasibility"])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for t, s, obj, res in zip(trajectory.times, trajectory.states, trajectory.objectives,
                                  trajectory.residuals, strict=True):
            values = [t, *s.x, *s.lam, *s.mu, obj, *res.as_tuple()]
            fh.write(",".join(f"{v:.17g}" for v in values) + "\n")


def reference_run(problem, init, decentralized, h, method, t_max, kkt_tol, record_every):
    """The parent's integrate or run_decentralized, on the reference driver."""
    z = tuple(np.asarray(a, dtype=float).copy() for a in (init.x, init.lam, init.mu))
    if decentralized:
        agents = build_agents(problem, init)
        kernel = network._stacked_kernel(agents)
        stage = network._Exchange(kernel, None)
        rows = network._capture_rows(agents, True)
    else:
        kernel = problem.kernel
        stage = lambda x, lam, mu, n: reference_gather_stage(kernel, x, lam, mu, n)  # noqa: E731
        rows = tuple(zip(problem.agents, problem._capture_table))
    return reference_drive(problem, kernel, stage, rows, z, init.t, h, method, t_max,
                           kkt_tol, record_every)


def run(problem, init, decentralized, **kwargs):
    return (run_decentralized if decentralized else integrate)(problem, init, **kwargs)


def outcome(fn):
    """(trajectory, None) or (None, the NumericalError raised)."""
    try:
        return fn(), None
    except NumericalError as exc:
        return None, exc


def assert_same_state(a, b):
    for name in ("x", "lam", "mu"):
        assert_bits_equal(getattr(a, name), getattr(b, name))
    assert_bits_equal(a.t, b.t)


def assert_same_trajectory(got, want):
    assert (got.stop_reason, got.total_steps) == (want.stop_reason, want.total_steps)
    assert got.times == want.times
    assert_bits_equal(got.times, want.times)
    assert len(got.states) == len(want.states)
    for a, b in zip(got.states, want.states, strict=True):
        assert_same_state(a, b)
    assert_bits_equal([r.as_tuple() for r in got.residuals],
                      [r.as_tuple() for r in want.residuals])
    assert_bits_equal(got.objectives, want.objectives)
    assert_bits_equal(got.box_violations, want.box_violations)
    assert_same_state(got.final, want.states[-1])
    assert_bits_equal(got.final_residual.as_tuple(), want.residuals[-1].as_tuple())


# -- the differential test ------------------------------------------------------

signed = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False))


class TestMatchesTheThreeArrayStepper:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from([2e-3, 0.05]),
           st.sampled_from([1e-15, 1.0]), st.sampled_from([1, 40, 1 << 14]),
           st.booleans(), st.data())
    def test_runs_are_bit_identical(self, tmp_path_factory, seed, every, h, kkt_tol,
                                    block_values, far, data):
        p = random_problem(np.random.default_rng(seed))
        n, m = p.total_dim, p.multiplier_dim
        init = SolverState(*(np.array(data.draw(st.lists(signed, min_size=k, max_size=k)))
                             for k in (n, n, m)))
        if far:  # a start whose first step ends past DIVERGENCE_NORM
            init.lam[0] = 1.5e12
        out = tmp_path_factory.mktemp("csv")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_BLOCK_VALUES", block_values)
            for method in METHODS:
                kwargs = dict(h=h, method=method, t_max=20 * h, kkt_tol=kkt_tol,
                              record_every=every)
                for decentralized in (False, True):
                    got, got_exc = outcome(lambda: run(p, init, decentralized, **kwargs))
                    want, want_exc = outcome(
                        lambda: reference_run(p, init, decentralized, **kwargs))
                    assert type(got_exc) is type(want_exc)
                    if want_exc is not None:
                        assert str(got_exc).startswith(str(want_exc))
                        if isinstance(want_exc, DivergenceError):
                            assert_bits_equal(got_exc.t, want_exc.t)
                            assert_same_state(got_exc.state, want_exc.state)
                        continue
                    assert_same_trajectory(got, want)
                    write_trajectory_csv(got, out / "got.csv", p)
                    reference_write_trajectory_csv(want, out / "want.csv", p)
                    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()

    @pytest.mark.parametrize("decentralized", [False, True])
    def test_example2_divergence_is_bit_identical(self, example2, decentralized):
        # euler at h=0.3 is unstable on example2 and leaves after several steps
        kwargs = dict(h=0.3, method="euler", t_max=100.0, kkt_tol=1e-6, record_every=5)
        init = dynamics.initial_state(example2.problem)
        _, got = outcome(lambda: run(example2.problem, init, decentralized, **kwargs))
        _, want = outcome(lambda: reference_run(example2.problem, init, decentralized, **kwargs))
        assert isinstance(got, DivergenceError) and isinstance(want, DivergenceError)
        assert str(got).startswith(str(want) + ": largest entry at agent ")
        assert want.state.t == pytest.approx(2.1)  # eight steps in
        assert_bits_equal(got.t, want.t)
        assert_same_state(got.state, want.state)

    @settings(max_examples=30, deadline=None)
    @given(instances(), st.data())
    def test_step_and_rhs_keep_their_bits(self, case, data):
        problem, x, lam, mu = case
        state = SolverState(x, lam, mu)
        kernel = problem.kernel
        want = reference_packed(kernel, reference_gather_stage(kernel, x, lam, mu))
        if np.isfinite(want).all():
            n = problem.total_dim
            parts = (want[:n], want[n : 2 * n], want[2 * n :])
            for got, part in zip(rhs(state, problem), parts, strict=True):
                assert_bits_equal(got, part)
        method = data.draw(st.sampled_from(METHODS))
        z = tuple(a.astype(float) for a in (x, lam, mu))
        stage = lambda x, lam, mu, n: reference_gather_stage(kernel, x, lam, mu, n)  # noqa: E731
        want, want_exc = outcome(lambda: reference_step(kernel, stage, (), z, None, 0, 0.0,
                                                        1e-2, method))
        got, got_exc = outcome(lambda: step(state, problem, 1e-2, method))
        assert type(got_exc) is type(want_exc)
        if want_exc is None:
            assert_same_state(got, SolverState(*want, 1e-2))


class TestBlockColumns:
    @settings(max_examples=100, deadline=None)
    @given(instances(), st.integers(1, 30), st.data())
    def test_objective_and_box_columns_are_the_scalar_values(self, case, rows, data):
        problem, x, lam, mu = case
        agents = [AgentProblem(Opaque(a.objective), a.constraints, a.box)
                  if data.draw(st.booleans()) else a for a in problem.agents]
        problem = ProblemInstance(agents, problem.laplacian, problem.depth)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        xs = [x]
        for _ in range(rows - 1):  # moves, sign flips and kink hits of x
            y = x.copy()
            pick = rng.random(x.shape) < 0.5
            y[pick] = rng.choice([-0.0, 0.0, 1.0, -2.5, 4.0], size=int(pick.sum()))
            xs.append(y)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_BLOCK_VALUES", data.draw(st.sampled_from([1, 64, 1 << 14])))
            trajectory = Trajectory(problem)
            for k, y in enumerate(xs):
                trajectory._record(0.5 * k, np.concatenate([y, lam, mu]), (1.0, 2.0, 3.0, 4.0))
            trajectory._finish()
        assert_bits_equal(trajectory.objectives, [problem.objective_value(y) for y in xs])
        assert_bits_equal(trajectory.box_violations, [problem.box_violation(y) for y in xs])
        assert trajectory.times == [0.5 * k for k in range(rows)]
        for state, y in zip(trajectory.states, xs, strict=True):
            assert_bits_equal(state.x, y)
            assert_bits_equal(state.lam, lam)

    def test_batched_columns_on_random_problems(self):
        # wider agents than ``instances``: dots of length 2-5, where an FMA
        # chain and a plain sum round differently
        rng = np.random.default_rng(11)
        for _ in range(60):
            p = random_problem(rng, max_agents=6, max_dim=5)
            xs = rng.uniform(-3.0, 3.0, (40, p.total_dim))
            trajectory = Trajectory(p)
            for x in xs:
                trajectory._record(0.0, np.concatenate([x, np.zeros(p.total_dim),
                                                        np.zeros(p.multiplier_dim)]),
                                   (0.0, 0.0, 0.0, 0.0))
            trajectory._finish()
            assert_bits_equal(trajectory.objectives, [p.objective_value(x) for x in xs])
            assert_bits_equal(trajectory.box_violations, [p.box_violation(x) for x in xs])

    def test_views_do_not_share_the_record(self, example2_run):
        first = example2_run.states[0]
        first.x[:] = 7.0
        example2_run.final.lam[:] = 7.0
        assert not np.any(example2_run.states[0].x == 7.0)
        assert not np.any(example2_run.final.lam == 7.0)

    def test_blocks_hold_the_recorded_rows_and_objectives_wait_for_a_read(self, example2):
        calls = []
        rows = dynamics.VelocityKernel.objective_value_rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_BLOCK_VALUES", 1000)  # blocks of 55 rows
            mp.setattr(dynamics.VelocityKernel, "objective_value_rows",
                       lambda kernel, xs: calls.append(len(xs)) or rows(kernel, xs))
            trajectory = integrate(example2.problem, h=1e-3, t_max=0.2, kkt_tol=1e-15)
            assert len(trajectory._blocks) > 1
            assert sum(len(b) for b in trajectory._blocks) == len(trajectory.times) == 201
            assert calls == []
            objectives = trajectory.objectives
        assert sum(calls) == 201
        assert_bits_equal(objectives, [example2.problem.objective_value(s.x)
                                       for s in trajectory.states])

    def test_example2_fills_many_blocks(self, example2_run):
        assert len(example2_run._blocks) > 1
        assert len(example2_run.states) == len(example2_run.times) == 9851


# -- failures say where they happened ----------------------------------------


def _overflowing_problem():
    """Two agents; agent 2's second coordinate has an exp atom."""
    agents = [AgentProblem(objective=convex.quadratic(1, 0, center=1.0)),
              AgentProblem(objective=convex.quadratic(2, 0, center=1.0)
                           + convex.exponential(2, 1))]
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return ProblemInstance(agents, lap, 1)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
class TestFailureLocation:
    @pytest.mark.parametrize("method", METHODS)
    def test_both_modes_name_the_same_entry_and_state(self, method):
        p = _overflowing_problem()
        init = SolverState(np.array([0.5, 0.5, 1000.0]), np.array([-0.0, 0.25, -0.0]),
                           np.zeros(0), 2.0)
        errors = []
        for runner in (integrate, run_decentralized):
            with pytest.raises(NumericalError) as info:
                runner(p, init, h=1e-3, method=method, t_max=10.0)
            errors.append(info.value)
        central, decentral = errors
        assert str(central) == str(decentral)
        assert str(central).startswith("non-finite state produced at t=2.001: agent 2, x_2")
        assert central.t == decentral.t == 2.0 + 1e-3
        for err in errors:
            assert_same_state(err.state, SolverState(init.x, init.lam, init.mu, 2.0))

    def test_synchronous_round_names_the_entry(self):
        p = _overflowing_problem()
        agents = build_agents(p, SolverState(np.array([0.5, 0.5, 1000.0]), np.zeros(3),
                                             np.zeros(0)))
        with pytest.raises(NumericalError, match=r"at t=0.001: agent 2, x_2$") as info:
            synchronous_round(agents, 1e-3, "euler")
        assert info.value.t == 1e-3 and info.value.state.t == 0.0

    def test_rhs_names_the_entry(self):
        p = _overflowing_problem()
        state = SolverState(np.array([0.5, 0.5, 1000.0]), np.zeros(3), np.zeros(0))
        with pytest.raises(NumericalError, match=r"^non-finite velocity at t=0.0: agent 2, x_2$"):
            rhs(state, p)

    def test_divergence_names_the_largest_entry(self):
        p = _overflowing_problem()
        init = SolverState(np.zeros(3), np.array([0.0, 0.0, 2e12]), np.zeros(0))
        for runner in (integrate, run_decentralized):
            with pytest.raises(DivergenceError) as info:
                runner(p, init, h=1e-3, t_max=1.0)
            assert str(info.value) == (f"state norm exceeded {DIVERGENCE_NORM:g} at t=0.001: "
                                       "largest entry at agent 2, lambda_2")
            assert_same_state(info.value.state, SolverState(init.x, init.lam, init.mu, 0.0))

    def test_numerical_error_carries_optional_state(self):
        assert NumericalError("plain").state is None
        err = DivergenceError("far", state="s", t=1.5)
        assert isinstance(err, NumericalError) and (err.state, err.t) == ("s", 1.5)


# -- kink capture ------------------------------------------------------------


class TestCaptureProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 2e-2]), st.data())
    def test_kept_snaps_are_stationary(self, seed, h, data):
        rng = np.random.default_rng(seed)
        p = random_problem(rng)
        x = dynamics.initial_state(p, "random", rng).x
        # put some kink coordinates right next to their kink
        for i, table in enumerate(p._capture_table):
            for k, center in table:
                if data.draw(st.booleans()):
                    offset = data.draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-6, -1e-6]))
                    x[p.block(i)][k] = center + offset
        init = SolverState(x, np.zeros(p.total_dim), np.zeros(p.multiplier_dim))
        method = data.draw(st.sampled_from(METHODS))
        plain = step(init, p, h, method)
        captured = integrate(p, init, h=h, method=method, t_max=h, kkt_tol=1e-300).final
        assert_bits_equal(captured.lam, plain.lam)
        assert_bits_equal(captured.mu, plain.mu)
        kinks = {(p.block(i).start + k, c)
                 for i, table in enumerate(p._capture_table) for k, c in table}
        velocity = rhs(captured, p)[0]
        for k in np.flatnonzero(captured.x != plain.x).tolist():
            assert (k, captured.x[k]) in kinks
            assert abs(velocity[k]) <= SNAP_VELOCITY_TOL, (k, velocity[k])


def test_norm_matches_numpy():
    rng = np.random.default_rng(5)
    for size in (0, 1, 5, 13, 1553):
        v = rng.standard_normal(size) * 10.0 ** rng.integers(-150, 150, size)
        assert dynamics._norm(v) == float(np.linalg.norm(v))
        assert math.sqrt(v.dot(v)) == float(np.linalg.norm(v))
