"""``dynamics._check_state`` is the one reader of a ``SolverState``: it
returns the packed float state z = [x, lambda, mu] and the time as a
float, and the descent function runs on packed states.  The former
readers (three float copies, then a packed copy of them, and a
``SolverState`` rebuilt for every descent-function call and every ``V``
row) are kept here as references and compared bit for bit."""
import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_problem
from pcons import dynamics
from pcons.dynamics import (
    LyapunovValue, SolverState, _check_state, _write_rows, initial_state, integrate,
    kkt_residual, lyapunov_value, step, write_trajectory_csv,
)
from pcons.errors import InvalidInputError, _positive, _reals
from pcons.network import build_agents, run_decentralized

from test_settings_read_as_floats import assert_same_run


# -- the former bodies --------------------------------------------------------


def reference_check_state(state, problem):
    if not isinstance(state, SolverState):
        raise InvalidInputError(f"state must be a SolverState, got {type(state).__name__}")
    n, m = problem.total_dim, problem.multiplier_dim
    z = tuple(_reals(arr, f"state.{name}", (want,), finite=True).copy() for name, arr, want
              in (("x", state.x, n), ("lambda", state.lam, n), ("mu", state.mu, m)))
    _reals(state.t, "state time", 0, finite=True)
    return z


def reference_packed_state(state, problem):
    return np.concatenate(reference_check_state(state, problem))


def reference_v1(state, problem):
    pp = np.maximum(state.mu + problem.constraint_values(state.x), 0.0)
    xl = state.x + state.lam
    K = problem.coupling.matrix
    return (
        problem.objective_value(state.x)
        + 0.5 * float(pp @ pp)
        + 0.5 * float(xl @ (K @ xl))
    )


def reference_lyapunov_reference(reference, problem, ref_tol):
    ref_res = kkt_residual(reference, problem)
    if ref_res.max_component > ref_tol:
        raise InvalidInputError(
            f"reference point has residual {ref_res.max_component:.3e} > {ref_tol:.3e}; "
            "not a usable equilibrium"
        )
    kernel = problem.kernel
    ref = SolverState(*reference_check_state(reference, problem), reference.t)
    grad_ref = kernel.selected_subgradient(ref.x, ref.lam, ref.mu, *kernel.gathered(ref.x, ref.lam))
    return ref, reference_v1(ref, problem), grad_ref


def reference_lyapunov(state, ref, problem):
    reference, v1_ref, grad_ref = ref
    K = problem.coupling.matrix
    gain = problem.gain
    v1 = reference_v1(state, problem)
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


def reference_lyapunov_value(state, reference, problem, ref_tol=1e-4):
    ref_tol = _positive(ref_tol, "ref_tol")
    state = SolverState(*reference_check_state(state, problem), state.t)
    return reference_lyapunov(state, reference_lyapunov_reference(reference, problem, ref_tol),
                              problem)


def reference_write_trajectory_csv(trajectory, path, problem, reference):
    """``write_trajectory_csv`` with a reference, its ``V`` column computed
    from one ``SolverState`` per row."""
    n, m = problem.total_dim, problem.multiplier_dim
    header = (["t"] + [f"x_{k}" for k in range(1, n + 1)]
              + [f"lambda_{k}" for k in range(1, n + 1)] + [f"mu_{k}" for k in range(1, m + 1)]
              + ["objective", "res_stationarity", "res_consensus", "res_complementarity",
                 "res_feasibility", "V"])
    ref = reference_lyapunov_reference(reference, problem, 1e-4)
    w, t = trajectory._width, trajectory._t
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        row = ",".join(["%.17g"] * len(header)) + "\n"
        for rows in trajectory._blocks:
            columns = [rows[:, t], *rows[:, :w].T, problem._objective_sums(rows[:, :n]),
                       *rows[:, trajectory._res].T]
            columns.append(np.array([reference_lyapunov(st, ref, problem).total
                                     for st in trajectory._states(rows)]))
            _write_rows(fh, row, columns)


# -- states in every form a caller may pass -------------------------------------

reals = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: -0.0 if v == 0.0 else v)
times = st.one_of(st.floats(0.0, 10.0), st.integers(0, 10),
                  st.integers(0, 10).map(np.int64), st.floats(0.0, 10.0, width=32).map(np.float32))


@st.composite
def entries(draw, length):
    """``length`` reals as a list, an integer array, a float32 or a float64 array."""
    values = [draw(reals) for _ in range(length)]
    form = draw(st.sampled_from(["list", "int", "float32", "float64"]))
    if form == "list":
        return values
    if form == "int":
        return np.array(np.round(values), dtype=np.int64)
    return np.array(values, dtype=form)


@st.composite
def states(draw, problem):
    n, m = problem.total_dim, problem.multiplier_dim
    return SolverState(draw(entries(n)), draw(entries(n)), draw(entries(m)), draw(times))


@st.composite
def problems_and_states(draw, count=1):
    problem = random_problem(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return (problem, *(draw(states(problem)) for _ in range(count)))


def assert_same_parts(got, want):
    assert [float.hex(v) for v in (got.total, got.v1, got.v2, got.v3, got.v4)] == \
        [float.hex(v) for v in (want.total, want.v1, want.v2, want.v3, want.v4)]


class TestTheOneRead:
    @settings(max_examples=200, deadline=None)
    @given(problems_and_states())
    def test_packed_state_and_float_time(self, case):
        problem, state = case
        z, t = _check_state(state, problem)
        want = reference_packed_state(state, problem)
        assert z.dtype == want.dtype and z.tobytes() == want.tobytes()
        assert type(t) is float and t == float(state.t)

    @settings(max_examples=50, deadline=None)
    @given(problems_and_states())
    def test_the_packed_state_is_fresh(self, case):
        problem, state = case
        state.x = np.asarray(state.x, dtype=float)
        z, _ = _check_state(state, problem)
        z[:] = 7.0
        assert not np.any(state.x == 7.0)

    @pytest.mark.parametrize("bad", [
        lambda p: (np.zeros(p.total_dim + 1), np.zeros(p.total_dim), np.zeros(p.multiplier_dim), 0.0),
        lambda p: (np.zeros(p.total_dim), [np.nan] * p.total_dim, np.zeros(p.multiplier_dim), 0.0),
        lambda p: (np.zeros(p.total_dim), np.zeros(p.total_dim), [True] * p.multiplier_dim, 0.0),
        lambda p: (np.zeros(p.total_dim), np.zeros(p.total_dim), np.zeros(p.multiplier_dim), np.inf),
        lambda p: (np.zeros(p.total_dim), np.zeros(p.total_dim), np.zeros(p.multiplier_dim), "0"),
        lambda p: (np.zeros(p.total_dim), np.zeros(p.total_dim), np.zeros(2), [0.0, 1.0]),
    ])
    def test_the_same_faults_in_the_same_words(self, example2, bad):
        state = SolverState(*bad(example2.problem))
        with pytest.raises(InvalidInputError) as want:
            reference_check_state(state, example2.problem)
        with pytest.raises(InvalidInputError, match=re.escape(str(want.value))):
            _check_state(state, example2.problem)

    def test_not_a_state(self, example2):
        with pytest.raises(InvalidInputError, match="state must be a SolverState, got tuple"):
            _check_state((0.0,), example2.problem)


class TestTheDescentFunction:
    @settings(max_examples=200, deadline=None)
    @given(problems_and_states(2), st.sampled_from([1e-12, 1e300]))
    def test_parts_against_the_state_rebuilding_body(self, case, ref_tol):
        problem, state, reference = case
        try:
            want = reference_lyapunov_value(state, reference, problem, ref_tol)
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError, match=re.escape(str(exc))):
                lyapunov_value(state, reference, problem, ref_tol)
            return
        assert_same_parts(lyapunov_value(state, reference, problem, ref_tol), want)

    def test_example2_along_a_run(self, example2, example2_run, example2_run_tight):
        problem, final = example2.problem, example2_run_tight.final
        for state in example2_run.states[::400]:
            assert_same_parts(lyapunov_value(state, final, problem),
                              reference_lyapunov_value(state, final, problem))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_v_column_bytes(self, tmp_path_factory, example2, example2_run_tight, data):
        problem = example2.problem
        init = data.draw(states(problem))
        every = data.draw(st.integers(1, 7))
        trajectory = integrate(problem, init, h=1e-2, t_max=init.t + 0.3, record_every=every)
        final = example2_run_tight.final
        reference = SolverState(*(data.draw(st.sampled_from([list, np.asarray]))(v)
                                  for v in (final.x, final.lam, final.mu)), final.t)
        folder = tmp_path_factory.mktemp("v")
        write_trajectory_csv(trajectory, folder / "got.csv", problem, reference=reference)
        reference_write_trajectory_csv(trajectory, folder / "want.csv", problem, reference)
        assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()


class TestAFloat32TimeRunsAsItsFloat:
    """From example2's zero state at t = np.float32(0.1), a run gives the
    bits of the same run from t = float(np.float32(0.1))."""

    @pytest.fixture
    def times(self, example2):
        f32, f64 = initial_state(example2.problem), initial_state(example2.problem)
        f32.t, f64.t = np.float32(0.1), float(np.float32(0.1))
        return f32, f64

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_step(self, example2, times, method):
        got, want = (step(s, example2.problem, 1e-3, method) for s in times)
        assert type(got.t) is float and got.t == want.t == 0.10100000149011612
        for name in ("x", "lam", "mu"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("run", [integrate, run_decentralized])
    def test_run(self, example2, times, run):
        got, want = (run(example2.problem, s, h=1e-3, t_max=0.15, kkt_tol=1e-12) for s in times)
        assert_same_run(got, want)
        assert got.times[-1] == 0.1500000014901161

    def test_agents_read_the_same_state(self, example2, times):
        for a, b in zip(*(build_agents(example2.problem, s) for s in times), strict=True):
            for name in ("x", "lam", "mu"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_only_check_state_reads_a_solver_state():
    read = re.compile(r"\b(state|reference|init|ref)\.(x|lam|mu|t)\b")
    body = inspect.getsource(_check_state).splitlines()
    found = [(path.name, line) for path in sorted(Path(dynamics.__file__).parent.glob("*.py"))
             for line in path.read_text(encoding="utf-8").splitlines() if read.search(line)]
    assert len(found) == 2
    assert all(name == "dynamics.py" and line in body for name, line in found)
