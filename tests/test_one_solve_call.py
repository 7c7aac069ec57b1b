"""``pcons solve`` runs both modes through one library call, and leaves
the zero initial state to the library.  The former ``cmd_solve``, which
spelled the run out once per mode, and the former ``_resolve_init``,
which built the zero state itself, are kept here as references and
compared with the command through ``cli.main``: exit code, printed
lines and output files byte for byte."""
import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import pcons
from pcons import cli
from pcons.cli import (
    EXIT_DIVERGED, EXIT_OK, EXIT_TMAX, _parse_init, _parsed, _text, _write_summary,
)
from pcons.dynamics import initial_state, integrate, write_trajectory_csv
from pcons.errors import DivergenceError, InvalidInputError, NumericalError, _integer
from pcons.network import MessageLog, run_decentralized, write_message_log_csv
from pcons.problemfile import parse_problem

EX2 = pcons.fixture_path("example2.json")
QUAD = pcons.fixture_path("single_quadratic.json")


# -- the former bodies --------------------------------------------------------


def reference_resolve_init(args, problem, file_init):
    if args.init is None:
        return file_init if file_init is not None else initial_state(problem, "zeros")
    if args.init == "zeros":
        return initial_state(problem, "zeros")
    if args.init == "random":
        seed, what = args.seed, "--seed"
        if seed is None:
            what = "PCONS_SEED"
            seed = _parsed(int, os.environ.get(what, "0"), f"{what} must be an integer")
        return initial_state(problem, "random",
                             rng=np.random.default_rng(_integer(seed, what, 0)))
    return _parse_init(json.loads(_text(args.init, "--init file")), problem)


def reference_cmd_solve(args) -> int:
    if args.log_messages and not args.decentralized:
        raise InvalidInputError("--log-messages needs --decentralized")
    if args.seed is not None and args.init != "random":
        raise InvalidInputError("--seed needs --init random")
    loaded = parse_problem(args.problem)
    problem, settings = loaded.problem, loaded.settings
    h = args.h if args.h is not None else settings.h
    method = args.method if args.method is not None else settings.method
    t_max = args.t_max if args.t_max is not None else settings.t_max
    kkt_tol = args.kkt_tol if args.kkt_tol is not None else settings.kkt_tol
    init = reference_resolve_init(args, problem, loaded.init)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mode = "decentralized" if args.decentralized else "centralized"
    message_log = MessageLog() if args.log_messages else None

    code = EXIT_OK
    try:
        if args.decentralized:
            trajectory = run_decentralized(
                problem, init, h=h, method=method, t_max=t_max,
                kkt_tol=kkt_tol, record_every=args.record_every,
                message_log=message_log,
            )
        else:
            trajectory = integrate(
                problem, init, h=h, method=method, t_max=t_max,
                kkt_tol=kkt_tol, record_every=args.record_every,
            )
    except (DivergenceError, NumericalError) as exc:
        (out / "summary.txt").write_text(
            f"status: diverged\nmessage: {exc}\n", encoding="utf-8"
        )
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED

    write_trajectory_csv(trajectory, out / "trajectory.csv", problem)
    _write_summary(out / "summary.txt", problem, trajectory, mode, method, h)
    if message_log is not None:
        write_message_log_csv(message_log, out / "messages.csv")

    final = trajectory.final
    print(
        f"{trajectory.stop_reason}: t={final.t:g} steps={trajectory.total_steps} "
        f"objective={problem.objective_value(final.x):.10g} "
        f"max_residual={trajectory.final_residual.max_component:.3e}"
    )
    print(f"wrote {out / 'trajectory.csv'} and {out / 'summary.txt'}")
    if trajectory.stop_reason == "t_max":
        code = EXIT_TMAX
    return code


# -- running a command line ------------------------------------------------------

WALL_TIME = re.compile(rb"^wall_time_s: .*\n", re.MULTILINE)


def outcome(argv, out):
    """Exit code, stdout, stderr and the files ``cli.main(argv)`` leaves in
    ``out`` (summary.txt without its wall_time_s line); ``out`` is removed
    afterwards, so the next run prints the same paths."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    files = {}
    if out.exists():
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
    if "summary.txt" in files:
        files["summary.txt"] = WALL_TIME.sub(b"", files["summary.txt"])
    return code, stdout.getvalue(), stderr.getvalue(), files


def write_problems(root):
    """The problem files the test draws from: the two fixtures, example2
    with an ``init`` block, and an ``exp`` objective whose ``init`` block
    diverges in the first step."""
    with_init = json.loads(EX2.read_text(encoding="utf-8"))
    with_init["init"] = {"x": [1.2, 1.9, 1.1, 1.4, 1.6], "lambda": [0.1, -0.2, 0.0, 0.3, 0.0],
                         "mu": [0.0, 0.5, 0.2]}
    diverging = {"agents": [{"dim": 1, "objective": "exp(x1)"}], "laplacian": [[0]],
                 "consensus_depth": 1, "init": {"x": [750.0]}}
    paths = {"example2": EX2, "single_quadratic": QUAD}
    for name, doc in (("example2_init", with_init), ("diverging", diverging)):
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    return paths


def write_init_file(path, problem_path, seed):
    """An --init FILE for the problem at ``problem_path``, drawn from ``seed``."""
    problem = parse_problem(problem_path, slater_probe=False).problem
    rng = np.random.default_rng(seed)
    n, m = problem.total_dim, problem.multiplier_dim
    path.write_text(json.dumps({"x": rng.uniform(1.0, 2.0, n).tolist(),
                                "lambda": rng.uniform(-1.0, 1.0, n).tolist(),
                                "mu": rng.uniform(0.0, 1.0, m).tolist()}), encoding="utf-8")


# -- the differential test ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(problem=st.sampled_from(["example2", "single_quadratic", "example2_init", "diverging"]),
       mode=st.sampled_from([[], ["--decentralized"], ["--decentralized", "--log-messages"]]),
       init=st.sampled_from(["none", "zeros", "random", "file"]),
       seed=st.integers(0, 2**32 - 1),
       method=st.sampled_from(["euler", "rk4"]),
       record_every=st.sampled_from([1, 2, 7]),
       t_max=st.sampled_from(["0.004", "0.013"]),
       kkt_tol=st.sampled_from([[], ["--kkt-tol", "10"]]))
def test_solve_matches_the_per_mode_body(problem, mode, init, seed, method, record_every,
                                          t_max, kkt_tol):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = write_problems(root)[problem]
        init_args = {"none": [], "zeros": ["--init", "zeros"],
                     "random": ["--init", "random", "--seed", str(seed)],
                     "file": ["--init", str(root / "init.json")]}[init]
        if init == "file":
            write_init_file(root / "init.json", path, seed)
        out = root / "out"
        argv = ["solve", str(path), "--out", str(out), "--method", method, "--t-max", t_max,
                "--record-every", str(record_every), *mode, *init_args, *kkt_tol]
        got = outcome(argv, out)
        with mock.patch.object(cli, "cmd_solve", reference_cmd_solve):
            want = outcome(argv, out)
    assert got == want


# -- the one call ------------------------------------------------------------------


@mock.patch.object(cli, "run_decentralized", wraps=run_decentralized)
@mock.patch.object(cli, "integrate", wraps=integrate)
def test_the_run_is_looked_up_when_the_command_runs(fake_integrate, fake_decentralized, tmp_path):
    """A function put in place of ``cli.integrate`` or
    ``cli.run_decentralized`` after import gets the run: the problem as the
    first argument, ``h`` and ``method`` as keywords, and no initial state
    for a zero start."""
    out = str(tmp_path / "out")
    argv = ["solve", str(EX2), "--out", out, "--t-max", "0.002", "--init", "zeros"]
    assert cli.main(argv) == EXIT_TMAX
    assert cli.main(argv + ["--decentralized", "--log-messages"]) == EXIT_TMAX
    for fake, extra in ((fake_integrate, {}), (fake_decentralized, {"message_log"})):
        (args, kwargs), = fake.call_args_list
        assert args[1] is None and isinstance(args[0], pcons.ProblemInstance)
        assert set(kwargs) == {"h", "method", "t_max", "kkt_tol", "record_every", *extra}
        assert (kwargs["h"], kwargs["method"]) == (1e-3, "rk4")
