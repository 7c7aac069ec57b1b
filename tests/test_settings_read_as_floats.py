"""The run entry points run on the floats their settings are read as: a
numpy float32 ``h``, ``t_max`` or ``kkt_tol`` gives the bits of the same
value passed as a Python float (example2)."""
import numpy as np
import pytest

from pcons.dynamics import initial_state, integrate, step
from pcons.network import build_agents, run_decentralized, synchronous_round

H32, T32 = np.float32(1e-3), np.float32(0.05)


def assert_same_run(got, want):
    assert len(got.times) == len(want.times)
    assert np.array(got.times).tobytes() == np.array(want.times).tobytes()
    for a, b in zip(got.states, want.states, strict=True):
        for name in ("x", "lam", "mu"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("run", [integrate, run_decentralized])
@pytest.mark.parametrize("setting, value", [("h", H32), ("t_max", T32),
                                            ("kkt_tol", np.float32(1e-12))])
def test_a_float32_setting_runs_as_its_float(example2, run, setting, value):
    settings = {"h": 1e-3, "t_max": 0.05, "kkt_tol": 1e-12}
    got = run(example2.problem, **{**settings, setting: value})
    want = run(example2.problem, **{**settings, setting: float(value)})
    assert_same_run(got, want)


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_step_returns_a_float_time(example2, method):
    state = initial_state(example2.problem, "zeros")
    got = step(state, example2.problem, H32, method)
    want = step(state, example2.problem, float(H32), method)
    assert type(got.t) is float and got.t == want.t
    for name in ("x", "lam", "mu"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_a_round_moves_the_agents_as_its_float(example2, method):
    got, want = build_agents(example2.problem), build_agents(example2.problem)
    synchronous_round(got, H32, method)
    synchronous_round(want, float(H32), method)
    for a, b in zip(got, want, strict=True):
        for name in ("x", "lam", "mu"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
