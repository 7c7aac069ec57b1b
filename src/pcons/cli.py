"""Command-line front end: solve problem files and run the grid oracle.

Exit codes are a stable contract: 0 solver converged, 1 usage or parse
error, 2 time limit reached, 3 divergence, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import initial_state, integrate, write_trajectory_csv
from .errors import DivergenceError, InvalidInputError, NumericalError, _integer
from .network import MessageLog, run_decentralized, write_message_log_csv
from .oracle import brute_force_solve
from .problemfile import _fmt, _parse_init, parse_problem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TMAX = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="pcons", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pcons {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="integrate a problem to a KKT point")
    solve.add_argument("problem", help="problem file (JSON)")
    solve.add_argument("--out", default="out", help="output directory (default: out)")
    solve.add_argument("--h", type=float, default=None, help="step size")
    solve.add_argument("--method", choices=["euler", "rk4"], default=None)
    solve.add_argument("--t-max", type=float, default=None, help="virtual time limit")
    solve.add_argument("--kkt-tol", type=float, default=None, help="residual tolerance")
    solve.add_argument("--decentralized", action="store_true",
                       help="run the message-passing agents instead of the stacked flow")
    solve.add_argument("--log-messages", action="store_true",
                       help="with --decentralized, also write messages.csv")
    solve.add_argument("--init", default=None,
                       help="zeros | random | FILE with {x, lambda, mu} arrays")
    solve.add_argument("--seed", type=int, default=None,
                       help="seed for --init random (falls back to PCONS_SEED)")
    solve.add_argument("--record-every", type=int, default=1,
                       help="record every k-th step (default 1)")
    solve.set_defaults(func=cmd_solve)

    oracle = sub.add_parser("oracle", help="brute-force grid search ground truth")
    oracle.add_argument("problem", help="problem file (JSON)")
    oracle.add_argument("--grid", type=float, default=1e-3, help="grid step per coordinate")
    oracle.add_argument("--refine", type=int, default=0, help="local refinement rounds")
    oracle.add_argument("--compare", default=None,
                        help="summary.txt of a solve run to compare against")
    oracle.set_defaults(func=cmd_oracle)
    return parser


def _parsed(kind, text, what):
    """``kind(text)`` for a string read from outside a problem file."""
    try:
        return kind(text)
    except ValueError:
        raise InvalidInputError(f"{what}, got {text.strip()!r}") from None


def _text(path, what) -> str:
    """The UTF-8 text of the file ``path``; other bytes are a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{what} {path} is not UTF-8 text: {exc.reason}") from None


def _resolve_init(args, problem, file_init):
    """The run's initial state; None starts the run from the zero state."""
    if args.init is None:
        return file_init
    if args.init == "zeros":
        return None
    if args.init == "random":
        seed, what = args.seed, "--seed"
        if seed is None:
            what = "PCONS_SEED"
            seed = _parsed(int, os.environ.get(what, "0"), f"{what} must be an integer")
        return initial_state(problem, "random",
                             rng=np.random.default_rng(_integer(seed, what, 0)))
    return _parse_init(json.loads(_text(args.init, "--init file")), problem)


def _consensus_spread(problem, x) -> float:
    """Largest pairwise gap across agents in any shared coordinate."""
    shared = x[problem.kernel.shared]
    return float(np.max(shared.max(axis=0) - shared.min(axis=0)))


def _write_summary(path, problem, trajectory, mode, method, h):
    final = trajectory.final
    res = trajectory.final_residual
    lines = [
        f"status: {trajectory.stop_reason}",
        f"mode: {mode}",
        f"method: {method}",
        f"h: {_fmt(h)}",
        f"t_final: {_fmt(final.t)}",
        f"steps: {trajectory.total_steps}",
        f"objective: {_fmt(problem.objective_value(final.x))}",
        f"consensus_spread: {_fmt(_consensus_spread(problem, final.x))}",
        *(f"res_{name}: {_fmt(value)}" for name, value in vars(res).items()),
        f"box_violation: {_fmt(problem.box_violation(final.x))}",
        "x: " + " ".join(_fmt(v) for v in final.x),
        "lambda: " + " ".join(_fmt(v) for v in final.lam),
        "mu: " + " ".join(_fmt(v) for v in final.mu),
        f"wall_time_s: {trajectory.wall_time:.3f}",
    ]
    if mode == "decentralized":
        lines.append(f"messages_total: {trajectory.message_count}")
        lines.append(f"messages_per_step: {trajectory.messages_per_step}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_solve(args) -> int:
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
    init = _resolve_init(args, problem, loaded.init)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mode = "decentralized" if args.decentralized else "centralized"
    message_log = MessageLog() if args.log_messages else None

    run = integrate
    if args.decentralized:
        run = functools.partial(run_decentralized, message_log=message_log)
    try:
        trajectory = run(problem, init, h=h, method=method, t_max=t_max,
                         kkt_tol=kkt_tol, record_every=args.record_every)
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
    return EXIT_TMAX if trajectory.stop_reason == "t_max" else EXIT_OK


def _read_summary_objective(path) -> float:
    for line in _text(path, "--compare file").splitlines():
        if line.startswith("objective:"):
            return _parsed(float, line.split(":", 1)[1], f"'objective:' in {path} must be a number")
    raise InvalidInputError(f"no 'objective:' line found in {path}")


def cmd_oracle(args) -> int:
    loaded = parse_problem(args.problem)
    # a bad summary is reported before the search, not after it
    solver_value = None if args.compare is None else _read_summary_objective(args.compare)
    point, value = brute_force_solve(loaded.problem, grid=args.grid, refine=args.refine)
    print(f"oracle value: {_fmt(value)}")
    print("oracle point: " + " ".join(_fmt(v) for v in point))
    if solver_value is not None:
        print(f"solver objective: {_fmt(solver_value)}")
        print(f"gap (solver - oracle): {_fmt(solver_value - value)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (InvalidInputError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
