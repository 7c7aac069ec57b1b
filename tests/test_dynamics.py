"""Flow evaluation, stepping, termination, residuals and descent."""
import numpy as np
import pytest

import pcons
from pcons import convex
from pcons.dynamics import (
    AgentProblem,
    ProblemInstance,
    SolverState,
    coupling_gain,
    initial_state,
    integrate,
    kkt_residual,
    lyapunov_value,
    rhs,
    step,
)
from pcons.errors import DivergenceError, InvalidInputError

PATH_L3 = np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]])
COMPLETE_L3 = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def single_agent_problem():
    """One unconstrained agent, f = (x - 1.5)^2 on the whole line."""
    return ProblemInstance(
        [AgentProblem(objective=convex.quadratic(1, 0, center=1.5))],
        np.zeros((1, 1)),
        1,
    )


class TestCouplingGain:
    def test_example1(self):
        pc = pcons.build_partial_consensus_matrix(COMPLETE_L3, [3, 4, 5], 3)
        assert coupling_gain(pc) == pytest.approx(4.0, abs=1e-10)

    def test_path_graph(self):
        pc = pcons.build_partial_consensus_matrix(PATH_L3, [1, 2, 2], 1)
        assert coupling_gain(pc) == pytest.approx(4.0, abs=1e-10)

    def test_zero_laplacian(self):
        pc = pcons.build_partial_consensus_matrix(np.zeros((2, 2)), [1, 1], 1)
        assert coupling_gain(pc) == pytest.approx(1.0, abs=1e-12)


class TestRhs:
    def test_gradient_zero_point_is_stationary(self):
        p = single_agent_problem()
        s = SolverState(np.array([1.5]), np.zeros(1), np.zeros(0))
        dx, dlam, dmu = rhs(s, p)
        assert np.all(dx == 0.0) and np.all(dlam == 0.0) and dmu.shape == (0,)

    def test_projected_pull(self):
        # f' (0) = -3, whole space: dx = 2*gain*(0 - (-3) - 0) = 6 with gain 1
        p = single_agent_problem()
        assert p.gain == pytest.approx(1.0)
        s = SolverState(np.array([0.0]), np.zeros(1), np.zeros(0))
        dx, _, _ = rhs(s, p)
        assert dx[0] == pytest.approx(6.0, abs=1e-12)

    def test_vanishes_at_converged_point(self, example2, example2_run_tight):
        final = example2_run_tight.final
        dx, dlam, dmu = rhs(final, example2.problem)
        assert np.linalg.norm(np.concatenate([dx, dlam, dmu])) <= 1e-8

    def test_residual_velocity_identity(self, example2):
        # ||dx|| = 2*gain*stationarity, ||dlam|| = consensus, ||dmu|| = gain*compl
        p = example2.problem
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = SolverState(
                rng.uniform(0, 2, p.total_dim),
                rng.standard_normal(p.total_dim),
                rng.standard_normal(p.multiplier_dim),
            )
            dx, dlam, dmu = rhs(s, p)
            res = kkt_residual(s, p)
            assert np.linalg.norm(dx) == pytest.approx(2 * p.gain * res.stationarity, rel=1e-12)
            assert np.linalg.norm(dlam) == pytest.approx(res.consensus, rel=1e-12)
            assert np.linalg.norm(dmu) == pytest.approx(p.gain * res.complementarity, rel=1e-12)


class TestStep:
    def test_fixed_point_preserved(self):
        p = single_agent_problem()
        s = SolverState(np.array([1.5]), np.zeros(1), np.zeros(0))
        for method in ("euler", "rk4"):
            s2 = step(s, p, 0.1, method)
            assert s2.x[0] == 1.5 and s2.t == pytest.approx(0.1)

    def test_euler_hand_computed(self):
        p = single_agent_problem()
        s = SolverState(np.array([0.0]), np.zeros(1), np.zeros(0))
        s2 = step(s, p, 0.1, "euler")
        assert s2.x[0] == pytest.approx(0.6, abs=1e-15)

    def test_euler_rk4_gap_shrinks_quadratically(self):
        p = single_agent_problem()
        s = SolverState(np.array([0.0]), np.zeros(1), np.zeros(0))

        def gap(h):
            return abs(step(s, p, h, "euler").x[0] - step(s, p, h, "rk4").x[0])

        h = 0.01
        ratio = gap(h) / gap(h / 2)
        assert 3.3 < ratio < 4.7

    def test_bad_inputs(self):
        p = single_agent_problem()
        s = SolverState(np.array([0.0]), np.zeros(1), np.zeros(0))
        with pytest.raises(InvalidInputError):
            step(s, p, -0.1, "euler")
        with pytest.raises(InvalidInputError):
            step(s, p, 0.1, "heun")


class TestIntegrate:
    def test_single_agent_quadratic(self):
        p = single_agent_problem()
        traj = integrate(p, h=1e-3, method="rk4", t_max=50.0, kkt_tol=1e-8)
        assert traj.stop_reason == "kkt_converged"
        assert traj.final.x[0] == pytest.approx(1.5, abs=1e-6)

    def test_t_max_after_one_step(self):
        p = single_agent_problem()
        traj = integrate(p, h=1e-3, t_max=0.001, kkt_tol=1e-12)
        assert traj.stop_reason == "t_max"
        assert traj.total_steps == 1

    def test_example2_converges_to_consensus(self, example2, example2_run):
        traj = example2_run
        assert traj.stop_reason == "kkt_converged"
        assert traj.final.t <= 100.0
        res = traj.final_residual
        assert res.consensus <= 1e-6
        x = traj.final.x
        # shared component: agent blocks start at 0, 1, 3
        assert abs(x[0] - x[1]) <= 1e-6 and abs(x[0] - x[3]) <= 1e-6

    def test_example2_euler_also_converges(self, example2):
        traj = integrate(example2.problem, h=1e-3, method="euler", kkt_tol=1e-6)
        assert traj.stop_reason == "kkt_converged"
        assert example2.problem.objective_value(traj.final.x) == pytest.approx(0.75, abs=1e-4)

    def test_step_halving_stability(self, example2, example2_run):
        coarse = integrate(example2.problem, h=2e-3, method="rk4", kkt_tol=1e-6)
        diff = np.max(np.abs(coarse.final.x - example2_run.final.x))
        assert diff <= 1e-4

    def test_divergence_raises(self):
        p = single_agent_problem()
        s = SolverState(np.array([1e13]), np.zeros(1), np.zeros(0))
        with pytest.raises(DivergenceError) as info:
            integrate(p, init=s, h=1e-3, t_max=1.0, kkt_tol=1e-9)
        assert info.value.state is not None
        assert np.isfinite(info.value.state.x[0])

    def test_boundedness_along_trajectory(self, example2, example2_run):
        ref = example2_run.final
        v0 = lyapunov_value(example2_run.states[0], ref, example2.problem).total
        bound = 10.0 * (1.0 + 0.0 + abs(v0))
        for st in example2_run.states[:: max(1, len(example2_run.states) // 200)]:
            norm = np.linalg.norm(np.concatenate([st.x, st.lam, st.mu]))
            assert norm <= bound

    def test_lambda_complement_frozen(self, example2_run):
        # non-shared multiplier coordinates never move (indices 2 and 4)
        for st in example2_run.states:
            assert st.lam[2] == 0.0 and st.lam[4] == 0.0

    def test_record_every(self):
        p = single_agent_problem()
        traj = integrate(p, h=1e-3, t_max=0.01, kkt_tol=1e-15, record_every=5)
        # records at steps 0, 5, 10 plus the final state
        assert len(traj.times) == 3
        assert traj.times[0] == pytest.approx(0.0)
        assert traj.times[-1] == pytest.approx(0.01)

    def test_box_violation_reported(self, example2):
        traj = integrate(example2.problem, h=1e-3, t_max=0.05, kkt_tol=1e-12)
        # zeros init starts outside the boxes; violation must be recorded
        assert traj.box_violations[0] > 0.9
        assert all(v >= 0.0 for v in traj.box_violations)


class TestKKTResidual:
    def test_zero_at_hand_built_equilibrium(self):
        lap = np.array([[1.0, -1], [-1, 1]])
        agents = [
            AgentProblem(objective=convex.quadratic(1, 0, center=1.0)),
            AgentProblem(objective=convex.quadratic(1, 0, center=1.0)),
        ]
        p = ProblemInstance(agents, lap, 1)
        s = SolverState(np.array([1.0, 1.0]), np.zeros(2), np.zeros(0))
        res = kkt_residual(s, p)
        assert res.as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_converged_run_residuals(self, example2, example2_run):
        res = kkt_residual(example2_run.final, example2.problem)
        assert res.max_component <= 1e-6

    def test_unit_perturbation_consensus(self, example2, example2_run_tight):
        p = example2.problem
        s = example2_run_tight.final
        k = 1  # shared coordinate of agent 2
        x = s.x.copy()
        x[k] += 1.0
        res = kkt_residual(SolverState(x, s.lam.copy(), s.mu.copy()), p)
        expected = np.linalg.norm(p.coupling.matrix[:, k])
        assert res.consensus == pytest.approx(expected, abs=1e-9)
        assert res.consensus > 0.1

    def test_feasibility_positive_part(self, example2):
        p = example2.problem
        x = np.array([2.5, 1.0, 1.5, 1.0, 1.5])  # violates x1 <= 2
        res = kkt_residual(SolverState(x, np.zeros(5), np.zeros(3)), p)
        assert res.feasibility == pytest.approx(0.5, abs=1e-12)


class TestLyapunov:
    def test_zero_at_reference(self, example2, example2_run_tight):
        ref = example2_run_tight.final
        val = lyapunov_value(ref, ref, example2.problem)
        assert val.v2 == 0.0 and val.v3 == 0.0 and val.v4 == 0.0
        assert val.total == val.v1

    def test_mu_perturbation_gives_half(self, example2, example2_run_tight):
        ref = example2_run_tight.final
        s = ref.copy()
        s.mu = s.mu.copy()
        s.mu[0] += 1.0
        val = lyapunov_value(s, ref, example2.problem)
        assert val.v4 == pytest.approx(0.5, abs=1e-12)

    def test_kernel_perturbation_v3(self, example2, example2_run_tight):
        ref = example2_run_tight.final
        p = example2.problem
        delta = np.array([0.01, 0.01, 0.0, 0.01, 0.0])  # shift the shared block
        assert np.linalg.norm(p.coupling.matrix @ delta) < 1e-15
        s = ref.copy()
        s.x = s.x + delta
        val = lyapunov_value(s, ref, p)
        assert val.v3 == pytest.approx(0.5 * float(delta @ delta), rel=1e-12)

    def test_rejects_non_equilibrium_reference(self, example2):
        p = example2.problem
        bad = initial_state(p, "zeros")
        with pytest.raises(InvalidInputError):
            lyapunov_value(bad, bad, p)

    def test_v2_nonnegative_along_run(self, example2, example2_run, example2_run_tight):
        ref = example2_run_tight.final
        p = example2.problem
        stride = max(1, len(example2_run.states) // 100)
        for st in example2_run.states[::stride]:
            val = lyapunov_value(st, ref, p)
            assert val.v2 >= -1e-10
            assert val.v3 >= -1e-12 and val.v4 >= -1e-12


class TestTrajectoryExport:
    def test_csv_with_reference_has_descent_column(self, tmp_path, example2,
                                                   example2_run, example2_run_tight):
        path = tmp_path / "traj.csv"
        pcons.write_trajectory_csv(
            example2_run, path, example2.problem, reference=example2_run_tight.final
        )
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].endswith(",V")
        first_v = float(lines[1].rsplit(",", 1)[1])
        last_v = float(lines[-1].rsplit(",", 1)[1])
        assert last_v < first_v

    def test_descent_column_is_lyapunov_value(self, tmp_path, example2, example2_run_tight):
        p, ref = example2.problem, example2_run_tight.final
        traj = integrate(p, h=1e-3, t_max=0.2, kkt_tol=1e-15)
        path = tmp_path / "traj.csv"
        pcons.write_trajectory_csv(traj, path, p, reference=ref)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert len(lines) == len(traj.states) == 201
        for line, st in zip(lines, traj.states, strict=True):
            got, want = float(line.rsplit(",", 1)[1]), lyapunov_value(st, ref, p).total
            assert got == want and np.signbit(got) == np.signbit(want)
        with pytest.raises(InvalidInputError, match="not a usable equilibrium"):
            pcons.write_trajectory_csv(traj, path, p, reference=traj.states[0])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_step_raises(self):
        p = ProblemInstance(
            [AgentProblem(objective=convex.exponential(1, 0))],
            np.zeros((1, 1)),
            1,
        )
        s = SolverState(np.array([1000.0]), np.zeros(1), np.zeros(0))
        with pytest.raises(pcons.NumericalError):
            step(s, p, 1e-3, "euler")


class TestSlaterProbe:
    def test_warns_when_no_strictly_feasible_point(self):
        # g(x) = x + 0.5 >= 1.5 on the box [1, 2]: nothing feasible
        agent = AgentProblem(
            objective=convex.quadratic(1, 0),
            constraints=convex.ConstraintMap((convex.affine([1.0], 0.5),)),
            box=convex.Box(np.array([1.0]), np.array([2.0])),
        )
        with pytest.warns(UserWarning, match="strictly feasible"):
            ProblemInstance([agent], np.zeros((1, 1)), 1, slater_probe=True)

    def test_silent_when_feasible(self, recwarn):
        agent = AgentProblem(
            objective=convex.quadratic(1, 0),
            constraints=convex.ConstraintMap((convex.affine([1.0], -3.0),)),
            box=convex.Box(np.array([1.0]), np.array([2.0])),
        )
        ProblemInstance([agent], np.zeros((1, 1)), 1, slater_probe=True)
        assert not [w for w in recwarn if "feasible" in str(w.message)]


class TestInitialState:
    def test_zeros(self, example2):
        s = initial_state(example2.problem, "zeros")
        assert not s.x.any() and not s.lam.any() and not s.mu.any()

    def test_random_inside_boxes(self, example2):
        rng = np.random.default_rng(5)
        s = initial_state(example2.problem, "random", rng)
        assert np.all(s.x >= 1.0) and np.all(s.x <= 2.0)
        assert not s.lam.any() and not s.mu.any()

    def test_unknown_kind(self, example2):
        with pytest.raises(InvalidInputError):
            initial_state(example2.problem, "ones")


class TestStateValidation:
    """A state that does not fit the problem is rejected, never re-sliced."""

    @staticmethod
    def bad_states(problem):
        n, m = problem.total_dim, problem.multiplier_dim
        good = (np.ones(n), np.zeros(n), np.zeros(m))
        yield SolverState(np.ones(2), good[1], good[2])  # x too short
        yield SolverState(good[0], np.zeros(n + 1), good[2])  # lambda too long
        yield SolverState(good[0], good[1], np.zeros((m, 1)))  # mu not 1-d
        yield SolverState(np.array([1.0, np.nan, 1.0, 1.0, 1.0]), good[1], good[2])
        yield SolverState(good[0], np.array([0.0, 0.0, np.inf, 0.0, 0.0]), good[2])
        yield SolverState(*good, t=np.nan)

    def test_integrate(self, example2):
        for state in self.bad_states(example2.problem):
            with pytest.raises(InvalidInputError):
                integrate(example2.problem, init=state, h=1e-3, t_max=0.01)

    def test_step(self, example2):
        for state in self.bad_states(example2.problem):
            with pytest.raises(InvalidInputError):
                step(state, example2.problem, 1e-3, "rk4")

    def test_rhs(self, example2):
        for state in self.bad_states(example2.problem):
            with pytest.raises(InvalidInputError):
                rhs(state, example2.problem)

    def test_kkt_residual(self, example2):
        for state in self.bad_states(example2.problem):
            with pytest.raises(InvalidInputError):
                kkt_residual(state, example2.problem)

    def test_box_violation_rejects_wrong_shape(self, example2):
        p = example2.problem
        for bad in ([100.0], 5.0, np.zeros(6), np.zeros((5, 1))):
            with pytest.raises(InvalidInputError):
                p.box_violation(bad)

    def test_lyapunov_value_short_multipliers(self, example2, example2_run_tight):
        ref = example2_run_tight.final
        state = SolverState(ref.x, np.zeros(1), np.zeros(1))
        with pytest.raises(InvalidInputError, match="lambda"):
            lyapunov_value(state, ref, example2.problem)

    def test_lyapunov_value_nan_lambda(self, example2, example2_run_tight):
        ref = example2_run_tight.final
        state = ref.copy()
        state.lam = np.full_like(ref.lam, np.nan)
        with pytest.raises(InvalidInputError, match="non-finite"):
            lyapunov_value(state, ref, example2.problem)


class TestSettingsValidation:
    """Step size, method and stopping rule are checked before any step."""

    GOOD = dict(h=0.01, method="rk4", t_max=20.0, kkt_tol=1e-6, record_every=1)
    BAD = [
        dict(h=np.nan), dict(h=np.inf), dict(h=0.0), dict(h=-0.1),
        dict(t_max=np.nan), dict(t_max=np.inf), dict(t_max=0.0),
        dict(kkt_tol=np.nan), dict(kkt_tol=-1.0),
        dict(record_every=0), dict(record_every=2.5), dict(record_every=True),
        dict(method="heun"),
    ]

    def test_integrate(self):
        # the quadratic converges in a few hundred steps, so a setting that
        # slips through ends the run instead of hanging the test
        p = single_agent_problem()
        for bad in self.BAD:
            with pytest.raises(InvalidInputError):
                integrate(p, **{**self.GOOD, **bad})

    def test_step(self):
        p = single_agent_problem()
        s = SolverState(np.array([0.0]), np.zeros(1), np.zeros(0))
        for h in (np.nan, np.inf, 0.0):
            with pytest.raises(InvalidInputError, match="h must be finite and positive"):
                step(s, p, h, "euler")


class TestObjectiveValue:
    def test_agents_are_added_left_to_right_from_zero(self):
        # 1e16 + 1.0 rounds back to 1e16, so plain left-to-right addition
        # gives 1.0; a compensated sum (Python 3.12's float sum) gives 2.0
        values = (1e16, 1.0, -1e16, 1.0)
        agents = [AgentProblem(objective=convex.affine([0.0], v)) for v in values]
        lap = np.diag([1.0, 2.0, 2.0, 1.0]) - np.eye(4, k=1) - np.eye(4, k=-1)
        p = ProblemInstance(agents, lap, 1)
        assert p.kernel.objective_values(np.zeros(4)).tolist() == list(values)
        assert p.objective_value(np.zeros(4)) == 1.0


EXAMPLE2_TRAJECTORY_SHA256 = "fcef8f9ccfd3ad0ba911a1e0048f9875419f41d8717a5113b87c897caff1062b"


def test_example2_trajectory_csv_reference_hash(tmp_path, example2, example2_run):
    import hashlib

    path = tmp_path / "trajectory.csv"
    pcons.write_trajectory_csv(example2_run, path, example2.problem)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXAMPLE2_TRAJECTORY_SHA256
