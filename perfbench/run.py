"""pcons benchmark: time to a KKT point, decentralized and oracle workloads.

    python3 perfbench/run.py --workload example2-kkt --seed 1 --seconds 35 --trace 0

Runs one workload's ``pcons`` commands in this process through
``pcons.cli.main`` (no threads, no child processes), checks every output,
and prints the end-to-end metrics (``--trace 0``) or the per-layer
metrics and a span file (``--trace 1``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--seconds 0`` makes one pass, checks it and reports no
timings.  See perfbench/README.md for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

if not (SRC / "pcons" / "__init__.py").is_file():
    sys.exit(f"perfbench: no pcons sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import pcons  # noqa: E402
from pcons import cli  # noqa: E402

import generate  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("example2-kkt", "graph-n256", "oracle-grid")

#: example2 facts that pin the workload (ROADMAP "Recent")
EXAMPLE2_STEPS = 9850
EXAMPLE2_PAYLOADS = 157_604
EXAMPLE2_PAYLOADS_PER_STEP = 16
EXAMPLE2_OBJECTIVE = 0.75
GAP_TOL = 1e-9

#: graph-n256: 256 agents, 50 rk4 steps (generate.GRAPH_T_MAX)
GRAPH_AGENTS = 256
GRAPH_STEPS = 50

#: seeded oracle instances per oracle-grid pass
ORACLE_INSTANCES = 3

#: share of a timed run spent on set-up repetitions
SETUP_SHARE = 0.03


@dataclass
class Command:
    """One ``pcons`` invocation of a workload pass."""

    name: str
    kind: str  # "solve", "solve_decentralized" or "oracle"
    argv: list
    expect_code: int
    problem: Path
    out: Path = None


@dataclass
class Workload:
    """A workload's input files, its commands and the facts they must reproduce."""

    name: str
    seed: int
    problems: list  # files whose parse time is setup_s
    commands: list
    flow_problem: Path  # instance for the kernel and network probes
    expect: dict = field(default_factory=dict)


def build_workload(name, seed, work) -> Workload:
    """Write the workload's input files under ``work`` and list its commands."""
    example2 = Path(pcons.fixture_path("example2.json"))
    if name == "example2-kkt":
        solve, dec = work / "solve", work / "dec"
        commands = [
            Command("solve", "solve", ["solve", str(example2), "--out", str(solve)],
                    0, example2, solve),
            Command("solve_decentralized", "solve_decentralized",
                    ["solve", str(example2), "--decentralized", "--log-messages",
                     "--out", str(dec)], 0, example2, dec),
            Command("oracle_compare", "oracle",
                    ["oracle", str(example2), "--grid", "1e-3",
                     "--compare", str(solve / "summary.txt")], 0, example2),
        ]
        expect = {"steps": EXAMPLE2_STEPS, "payloads_total": EXAMPLE2_PAYLOADS,
                  "payloads_per_step": EXAMPLE2_PAYLOADS_PER_STEP,
                  "objective": EXAMPLE2_OBJECTIVE}
        return Workload(name, seed, [example2], commands, example2, expect)
    if name == "graph-n256":
        path = work / f"graph-n{GRAPH_AGENTS}-seed{seed}.json"
        path.write_text(json.dumps(generate.graph_problem(seed, GRAPH_AGENTS)), encoding="utf-8")
        solve, dec = work / "solve", work / "dec"
        commands = [
            Command("solve", "solve",
                    ["solve", str(path), "--record-every", "10", "--out", str(solve)],
                    2, path, solve),
            Command("solve_decentralized", "solve_decentralized",
                    ["solve", str(path), "--decentralized", "--record-every", "10",
                     "--out", str(dec)], 2, path, dec),
        ]
        return Workload(name, seed, [path], commands, path, {"steps": GRAPH_STEPS})
    if name == "oracle-grid":
        problems = [example2]
        commands = [Command("oracle_example2", "oracle",
                            ["oracle", str(example2), "--grid", "5e-4", "--refine", "2"],
                            0, example2)]
        for k in range(ORACLE_INSTANCES):
            doc, grid = generate.oracle_problem(seed, k)
            path = work / f"oracle-seed{seed}-{k}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            problems.append(path)
            commands.append(Command(f"oracle_{k}", "oracle",
                                    ["oracle", str(path), "--grid", repr(grid), "--refine", "2"],
                                    0, path))
        return Workload(name, seed, problems, commands, example2)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# -- running and checking ----------------------------------------------------


def run_command(cmd, tracer=None):
    """Run one command in process; returns (exit code, stdout text, seconds).

    With a ``tracer``, a ``cli.<kind>`` span covers ``cli.main`` alone.
    """
    gc.collect()  # start every command from the same heap state
    buf = io.StringIO()
    span = tracer.span(f"cli.{cmd.kind}", command=cmd.name) if tracer else contextlib.nullcontext()
    started = time.perf_counter()
    with span, contextlib.redirect_stdout(buf):
        code = cli.main(cmd.argv)
    return code, buf.getvalue(), time.perf_counter() - started


def read_summary(path):
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Checker:
    """Checks each command's outputs against the workload's expectations."""

    def __init__(self, workload):
        self.workload = workload
        self.loaded = {}
        self.digests = {}  # csv label -> sha256 of its first write

    def problem(self, path):
        if path not in self.loaded:
            self.loaded[path] = pcons.parse_problem(path, slater_probe=False)
        return self.loaded[path]

    def check(self, cmd, code, text):
        """Failure messages for one command's outputs (empty when it passed)."""
        fails = []
        if code != cmd.expect_code:
            return [f"exit code {code}, expected {cmd.expect_code}"]
        try:
            if cmd.kind == "oracle":
                self.check_oracle(cmd, text, fails)
            else:
                self.check_solve(cmd, fails)
        except (KeyError, ValueError, OSError, StopIteration) as exc:
            fails.append(f"unreadable output: {exc!r}")
        return fails

    def check_solve(self, cmd, fails):
        summary = read_summary(cmd.out / "summary.txt")
        loaded = self.problem(cmd.problem)
        expect = self.workload.expect
        status = "kkt_converged" if cmd.expect_code == 0 else "t_max"
        if summary.get("status") != status:
            fails.append(f"status {summary.get('status')!r}, expected {status!r}")
        if status == "kkt_converged":
            res = max(float(summary[k]) for k in ("res_stationarity", "res_consensus",
                                                  "res_complementarity", "res_feasibility"))
            if not res <= loaded.settings.kkt_tol:
                fails.append(f"final max residual {res:.3e} above kkt_tol")
        if "steps" in expect and int(summary["steps"]) != expect["steps"]:
            fails.append(f"{summary['steps']} steps, expected {expect['steps']}")
        if "objective" in expect and not abs(float(summary["objective"]) - expect["objective"]) <= GAP_TOL:
            fails.append(f"objective {summary['objective']}, expected {expect['objective']}")
        if cmd.kind == "solve_decentralized":
            total = int(summary["messages_total"])
            if "payloads_total" in expect and total != expect["payloads_total"]:
                fails.append(f"{total} payloads, expected {expect['payloads_total']}")
            per_step = int(summary["messages_per_step"])
            if "payloads_per_step" in expect and per_step != expect["payloads_per_step"]:
                fails.append(f"{per_step} payloads per step, expected {expect['payloads_per_step']}")
            if "--log-messages" in cmd.argv:
                with open(cmd.out / "messages.csv", "rb") as fh:
                    rows = sum(1 for _ in fh) - 1
                if rows != total:
                    fails.append(f"messages.csv has {rows} rows, summary says {total}")
            central = next(c for c in self.workload.commands if c.kind == "solve")
            if (central.out / "trajectory.csv").read_bytes() != (cmd.out / "trajectory.csv").read_bytes():
                fails.append("trajectory.csv differs from the centralized run")
        for csv in sorted(cmd.out.glob("*.csv")):
            label = f"{cmd.name}/{csv.name}"
            digest = sha256(csv)
            first = self.digests.setdefault(label, digest)
            if digest != first:
                fails.append(f"{label} bytes differ from the first pass")

    def check_oracle(self, cmd, text, fails):
        lines = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        value = float(lines["oracle value"])
        point = np.array([float(v) for v in lines["oracle point"].split()])
        problem = self.problem(cmd.problem).problem
        for i, agent in enumerate(problem.agents):
            if not agent.box.contains(point[problem.block(i)]):
                by = agent.box.violation(point[problem.block(i)])
                fails.append(f"oracle point outside agent {i + 1}'s box by {by:.3g}")
        if problem.multiplier_dim and np.any(problem.constraint_values(point) > 0.0):
            fails.append("oracle point violates a constraint")
        exact = problem.objective_value(point)
        if not abs(exact - value) <= 1e-12 * max(1.0, abs(exact)):
            fails.append(f"oracle value {value!r} but objective_value {exact!r} at its point")
        if cmd.problem.name == "example2.json" and not abs(value - EXAMPLE2_OBJECTIVE) <= GAP_TOL:
            fails.append(f"oracle value {value!r} on example2, expected 0.75")
        if "--compare" in cmd.argv and not abs(float(lines["gap (solver - oracle)"])) <= GAP_TOL:
            fails.append(f"solver-oracle gap {lines['gap (solver - oracle)']} above {GAP_TOL:g}")


class Tally:
    """Runs commands and counts the operations attempted and failed."""

    def __init__(self, workload):
        self.checker = Checker(workload)
        self.attempted = 0
        self.failed = 0

    def run(self, cmd, tracer=None):
        """Run and check one command; returns the wall seconds of ``cli.main``."""
        code, text, seconds = run_command(cmd, tracer)
        fails = self.checker.check(cmd, code, text)
        self.attempted += 1
        self.failed += bool(fails)
        for msg in fails:
            print(f"FAILED {cmd.name}: {msg}")
        return seconds


# -- timing helpers ----------------------------------------------------------


def summarize(samples):
    """(median, max, n) of a list of timings."""
    return statistics.median(samples), max(samples), len(samples)


def parse_all(problems):
    """Seconds to parse every problem file as the CLI does."""
    started = time.perf_counter()
    for path in problems:
        pcons.parse_problem(path)
    return time.perf_counter() - started


def calibrate():
    """Seconds for a fixed Python and numpy loop; read it, never scale by it."""
    started = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    a = np.arange(40_000, dtype=float).reshape(200, 200) / 40_000.0
    for _ in range(30):
        a = np.tanh(a @ a)
    return time.perf_counter() - started


def git_sha():
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(workload, seed, seconds, trace):
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "machine": platform.machine(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the two kinds of run ----------------------------------------------------


def timed_run(workload, tally, seconds):
    """End-to-end metrics and the per-command timings behind them.

    The commands run round-robin, at least once each, while the next one
    is expected to end within ``seconds``.  ``commands_s`` sums the
    per-command medians, so a partial last round does not bias it.
    Set-up repetitions are spread over the same run (at least one per
    round, ``SETUP_SHARE`` of the time) so that they see the same machine
    drift as the commands.
    """
    pcons.parse_problem(pcons.fixture_path("example2.json"))  # warm-up
    setup = []
    samples = {cmd.name: [] for cmd in workload.commands}
    started = time.perf_counter()
    for i, cmd in enumerate(itertools.cycle(workload.commands)):
        done = samples[cmd.name]
        if done and (seconds <= 0 or time.perf_counter() - started
                     + statistics.median(done) > seconds):
            break
        if i % len(workload.commands) == 0:
            setup.append(parse_all(workload.problems))
        while sum(setup) < SETUP_SHARE * (time.perf_counter() - started):
            setup.append(parse_all(workload.problems))
        done.append(tally.run(cmd))
    timings = {"setup_s": setup, **{f"{name}_s": v for name, v in samples.items()}}
    for name, values in timings.items():
        med, top, n = summarize(values)
        print(f"{name}: median {med:.6f} s, max {top:.6f} s, n={n}")
    commands_s = sum(statistics.median(v) for v in samples.values())
    rss = peak_rss_mb()
    print(f"commands_s: {commands_s:.6f} s (sum of the command medians)")
    print(f"peak_rss_mb: {rss:.3f} MB")
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "commands_s": {"value": commands_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return (metrics if seconds > 0 else {}), timings


def traced_run(workload, tally, work):
    """Per-layer metrics: the traced commands, then layer probes.

    Each command runs plain, traced and plain again.  The tracing overhead
    is the traced time minus the mean of the two plain times, so neither a
    cold first call nor a steady drift counts as overhead.
    """
    tracer = layers.Tracer()
    plain_s = traced_s = 0.0
    for cmd in workload.commands:
        before = tally.run(cmd)
        with tracer.patch_cli():
            traced_s += tally.run(cmd, tracer)
        plain_s += (before + tally.run(cmd)) / 2
    metrics = layers.probe(workload, tracer, work)
    metrics["bench.trace_overhead_s"] = (traced_s - plain_s, "s")
    metrics.update(layers.sweep(workload.seed, work))
    spans = OUT / f"spans-{workload.name}-seed{workload.seed}.json"
    tracer.write(spans)
    print(f"spans: {spans}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring time; 0 makes one checked pass without timings")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    record["calibration_start_s"] = calibrate()

    workload = build_workload(args.workload, args.seed, work)
    tally = Tally(workload)
    if args.trace:
        metrics = traced_run(workload, tally, work)
    else:
        metrics, timings = timed_run(workload, tally, args.seconds)
        record["timings_s"] = timings
    for label, digest in sorted(tally.checker.digests.items()):
        print(f"sha256 {label} {digest}")
    record["sha256"] = tally.checker.digests
    record["calibration_end_s"] = calibrate()
    record["attempted"], record["failed"] = tally.attempted, tally.failed
    print(f"failed_ops: {tally.failed}/{tally.attempted}")
    print("run record: " + json.dumps(record))
    (work / "run.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
