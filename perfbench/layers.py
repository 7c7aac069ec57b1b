"""Per-layer timings for the traced benchmark run.

Nothing in ``src/`` is instrumented.  Spans come from two places, both in
this file:

* ``Tracer.patch_cli`` wraps the public functions that ``pcons.cli``
  calls (parse, integrate, run_decentralized, the CSV writers, the
  oracle), so a traced pass of the workload's commands records how each
  command's time splits across modules;
* ``probe`` times single calls into each module's public functions at
  states taken from the workload's own trajectory, so kink and active-set
  behaviour is the real one.

Spans are kept in memory and written as JSON at the end of the run.
"""
from __future__ import annotations

import contextlib
import json
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np

import pcons
from pcons import cli, oracle
from pcons.dynamics import capture_agent_kinks

import generate

#: pcons.cli names wrapped during the traced pass, with their span names
CLI_CALLS = {
    "parse_problem": "problemfile.parse_problem",
    "integrate": "dynamics.integrate",
    "write_trajectory_csv": "dynamics.write_trajectory_csv",
    "run_decentralized": "network.run_decentralized",
    "write_message_log_csv": "network.write_message_log_csv",
    "brute_force_solve": "oracle.brute_force_solve",
}

#: kernel probes use at most this many states along the trajectory
SAMPLED_STATES = 16

#: the kink-capture probe uses at most this many (snaps are rare)
CAPTURE_STATES = 256

#: the message-log memory probe logs at most this many payloads
LOG_PROBE_PAYLOADS = 20_000

#: points per value_many call in the vectorized-evaluation probe
VALUE_MANY_POINTS = 200_000

SWEEP_AGENTS = (16, 64, 256)
SWEEP_STEPS = 10


class Tracer:
    """In-memory spans: name, start, end, parent and the root they belong to."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.stack = []
        self.calls = {name: [] for name in CLI_CALLS}
        self.oracle_points = 0

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self.stack[-1] if self.stack else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "root": self.spans[parent]["root"] if parent is not None else len(self.spans),
            "start": time.perf_counter() - self.origin,
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self.stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self.stack.pop()

    @contextlib.contextmanager
    def patch_cli(self):
        """Wrap the module functions ``pcons.cli`` calls; restore them on exit."""
        originals = {name: getattr(cli, name) for name in CLI_CALLS if hasattr(cli, name)}

        def wrapped(name, fn):
            def call(*args, **kwargs):
                with self.span(CLI_CALLS[name]):
                    result = fn(*args, **kwargs)
                self.calls[name].append((args, kwargs, result))
                return result
            return call

        for name, fn in originals.items():
            setattr(cli, name, wrapped(name, fn))
        try:
            with self.count_oracle_points():
                yield self
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)

    @contextlib.contextmanager
    def count_oracle_points(self):
        """Count the points ``pcons.oracle`` evaluates, refine rounds included."""
        search = oracle._search

        def counted(problem, shared_axes, free_axes_per_agent):
            shared = int(np.prod([len(ax) for ax in shared_axes]))
            self.oracle_points += sum(shared * int(np.prod([len(ax) for ax in free]))
                                      for free in free_axes_per_agent)
            return search(problem, shared_axes, free_axes_per_agent)

        oracle._search = counted
        try:
            yield self
        finally:
            oracle._search = search

    def total(self, name):
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, prefix):
        """Summed duration of spans named ``prefix*`` minus their children's."""
        out = 0.0
        for s in self.spans:
            if s["name"].startswith(prefix):
                out += s["end"] - s["start"]
                out -= sum(c["end"] - c["start"] for c in self.spans if c["parent"] == s["id"])
        return out

    def write(self, path):
        Path(path).write_text(json.dumps({"spans": self.spans}, indent=0) + "\n",
                              encoding="utf-8")


def per_call(fn, min_reps=3, budget=0.05):
    """Median seconds of one ``fn()`` call over at least ``min_reps`` calls."""
    samples = []
    started = time.perf_counter()
    while len(samples) < min_reps or (time.perf_counter() - started < budget
                                      and len(samples) < 1000):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def sample(seq, count=SAMPLED_STATES):
    idx = np.unique(np.linspace(0, len(seq) - 1, min(count, len(seq))).round().astype(int))
    return [seq[i] for i in idx]


def setup_probes(path):
    """problemfile and pcmatrix layers, on the workload's flow instance."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    strings = [(a.get("objective", "0"), a["dim"]) for a in doc["agents"]]
    strings += [(c, a["dim"]) for a in doc["agents"] for c in a.get("constraints", [])]
    problem = pcons.parse_problem(path, slater_probe=False).problem
    agents, depth = problem.agents, problem.depth
    lap = np.asarray(doc["laplacian"], dtype=float)
    dims = [a.dim for a in agents]

    def build(probe):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pcons.ProblemInstance(agents, lap, depth, slater_probe=probe)

    build_s = per_call(lambda: build(False))
    pc = pcons.build_partial_consensus_matrix(lap, dims, depth)
    return {
        "problemfile.parse_expressions_s": (
            per_call(lambda: [pcons.parse_expression(s, d) for s, d in strings]), "s"),
        "dynamics.problem_build_s": (build_s, "s"),
        "dynamics.slater_probe_s": (per_call(lambda: build(True)) - build_s, "s"),
        "pcmatrix.build_s": (
            per_call(lambda: pcons.build_partial_consensus_matrix(lap, dims, depth)), "s"),
        "pcmatrix.gain_s": (per_call(lambda: pcons.coupling_gain(pc)), "s"),
        "pcmatrix.connected_s": (per_call(lambda: pcons.laplacian_is_connected(lap)), "s"),
        "pcmatrix.order": (pc.order, "count"),
        "pcmatrix.matrix_bytes": (pc.matrix.nbytes, "bytes"),
    }


def kernel_probes(problem, states, capture_states, h, method):
    """dynamics and convex layers: single calls at trajectory states."""
    blocks = [problem.block(i) for i in range(len(problem.agents))]
    mu_blocks = [problem.mu_block(i) for i in range(len(problem.agents))]
    constrained = [i for i, a in enumerate(problem.agents) if a.constraints.size]
    tables = [[(k, c) for k, c in a.objective.kink_locations() if k >= problem.depth]
              for a in problem.agents]
    n_agents = len(problem.agents)
    out = {k: [] for k in ("rhs", "step", "kkt", "interval", "gvalue", "weighted",
                           "record", "capture")}
    for st in states:
        xs = [st.x[b] for b in blocks]
        out["rhs"].append(per_call(lambda: pcons.rhs(st, problem)))
        out["step"].append(per_call(lambda: pcons.step(st, problem, h, method)))
        out["kkt"].append(per_call(lambda: pcons.kkt_residual(st, problem)))
        out["record"].append(per_call(lambda: (problem.objective_value(st.x),
                                               problem.box_violation(st.x))))
        out["interval"].append(per_call(
            lambda: [a.objective.subgradient_interval(x) for a, x in zip(problem.agents, xs)]
        ) / n_agents)
        out["gvalue"].append(per_call(
            lambda: [a.constraints.value(x) for a, x in zip(problem.agents, xs)]) / n_agents)
        if constrained:
            pps = {i: np.maximum(st.mu[mu_blocks[i]] + problem.agents[i].constraints.value(xs[i]), 0.0)
                   for i in constrained}
            out["weighted"].append(per_call(
                lambda: [problem.agents[i].constraints.weighted_subgradient(xs[i], pps[i])
                         for i in constrained]) / len(constrained))
    kept = 0
    for st in capture_states:
        # kink capture over all agents, on copies, for the step from this state
        new = pcons.step(st, problem, h, method)
        k1 = pcons.rhs(st, problem)[0]
        xb = [new.x[b].copy() for b in blocks]
        mb = [new.mu[m].copy() for m in mu_blocks]
        t0 = time.perf_counter()
        changed = [capture_agent_kinks(a, tables[i], xb[i], st.x[blocks[i]],
                                       k1[blocks[i]], mb[i], h, problem.gain)
                   for i, a in enumerate(problem.agents) if tables[i]]
        out["capture"].append(time.perf_counter() - t0)
        kept += any(changed)
    us = {k: float(np.median(v)) * 1e6 if v else 0.0 for k, v in out.items()}
    return {
        "dynamics.rhs_us": (us["rhs"], "us"),
        "dynamics.step_us": (us["step"], "us"),
        "dynamics.kkt_residual_us": (us["kkt"], "us"),
        "convex.subgradient_interval_us": (us["interval"], "us"),
        "convex.constraint_value_us": (us["gvalue"], "us"),
        "convex.weighted_subgradient_us": (us["weighted"], "us"),
        "dynamics.capture_us": (us["capture"], "us"),
        "dynamics.capture_kept_ratio": (kept / len(capture_states), "ratio"),
        "dynamics.record_us": (us["record"], "us"),
    }, kept


def network_probes(problem, states, h, method, settings):
    """network layer: agent construction, one round, and the message log size."""
    build_s = per_call(lambda: pcons.build_agents(problem, states[0]))
    rounds, log = [], []
    for st in states:
        agents = pcons.build_agents(problem, st)
        t0 = time.perf_counter()
        _, count = pcons.synchronous_round(agents, h, method, log=log)
        rounds.append(time.perf_counter() - t0)
    steps = max(1, min(200, LOG_PROBE_PAYLOADS // max(1, count)))
    tracemalloc.start()
    try:
        probe_log = []
        pcons.run_decentralized(problem, h=h, method=method, t_max=steps * h,
                                kkt_tol=settings.kkt_tol, message_log=probe_log)
        held = tracemalloc.get_traced_memory()[0]
        probe_log.clear()
        log_bytes = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    depth = problem.depth
    return {
        "network.build_agents_s": (build_s, "s"),
        "network.round_us": (float(np.median(rounds)) * 1e6, "us"),
        "network.log_peak_mb": (log_bytes / 2**20, "MB"),
        "network.payload_bytes_per_step": (count * 2 * depth * 8, "bytes"),
    }, log


def oracle_probes(tracer):
    """oracle layer from the traced pass's calls, or one probe call.

    The probe solves example2 at grid 1e-3: the workloads without an
    oracle command (graph-n256) have instances the oracle refuses.
    """
    if not tracer.calls["brute_force_solve"]:
        example2 = pcons.fixture_path("example2.json")
        problem = pcons.parse_problem(example2, slater_probe=False).problem
        with tracer.span("oracle.brute_force_solve", probe=True), tracer.count_oracle_points():
            pcons.brute_force_solve(problem, grid=1e-3)
        tracer.calls["brute_force_solve"].append(((problem,), {"grid": 1e-3}, None))
    points = tracer.oracle_points
    per_point = []
    rng = np.random.default_rng(0)
    for args, _, _ in tracer.calls["brute_force_solve"]:
        for a in args[0].agents:
            pts = rng.uniform(a.box.lower, a.box.upper, (VALUE_MANY_POINTS, a.dim))
            per_point.append(per_call(lambda: a.objective.value_many(pts)) / VALUE_MANY_POINTS)
    seconds = tracer.total("oracle.brute_force_solve")
    return {
        "oracle.brute_force_s": (seconds, "s"),
        "oracle.grid_points": (points, "count"),
        "oracle.ns_per_point": (seconds / points * 1e9, "ns"),
        "convex.value_many_ns_per_point": (float(np.median(per_point)) * 1e9, "ns"),
    }


def probe(workload, tracer, work):
    """Every per-layer metric except the sweep and the tracing overhead."""
    metrics = setup_probes(workload.flow_problem)
    loaded = pcons.parse_problem(workload.flow_problem, slater_probe=False)
    settings = loaded.settings
    if tracer.calls["integrate"]:
        args, kwargs, trajectory = tracer.calls["integrate"][0]
        problem, h, method = args[0], kwargs["h"], kwargs["method"]
    else:
        # no solve command: integrate the flow instance for 2000 steps
        problem, h, method = loaded.problem, settings.h, settings.method
        with tracer.span("dynamics.integrate", probe=True):
            trajectory = pcons.integrate(problem, h=h, method=method,
                                         t_max=min(settings.t_max, 2000 * h),
                                         kkt_tol=settings.kkt_tol)
        tracer.calls["integrate"].append(((problem,), {}, trajectory))
    states = sample(trajectory.states)
    capture_states = sample(trajectory.states, CAPTURE_STATES)
    kernel, kept = kernel_probes(problem, states, capture_states, h, method)
    metrics.update(kernel)
    steps = trajectory.total_steps
    integrate_s = tracer.total("dynamics.integrate")
    metrics["dynamics.integrate_s"] = (integrate_s, "s")
    metrics["dynamics.us_per_step"] = (integrate_s / steps * 1e6, "us")
    metrics["dynamics.steps"] = (steps, "count")
    metrics["dynamics.velocity_evals"] = (steps * (4 if method == "rk4" else 1) + 1, "count")

    if not tracer.calls["write_trajectory_csv"]:
        path = work / "probe-trajectory.csv"
        with tracer.span("dynamics.write_trajectory_csv", probe=True):
            pcons.write_trajectory_csv(trajectory, path, problem)
        tracer.calls["write_trajectory_csv"].append(((trajectory, path, problem), {}, None))
    metrics["dynamics.csv_write_s"] = (tracer.total("dynamics.write_trajectory_csv"), "s")
    metrics["dynamics.csv_bytes"] = (
        sum(Path(args[1]).stat().st_size for args, _, _ in tracer.calls["write_trajectory_csv"]),
        "bytes")

    network, log = network_probes(problem, states, h, method, settings)
    metrics.update(network)
    if not tracer.calls["run_decentralized"]:
        with tracer.span("network.run_decentralized", probe=True):
            dec = pcons.run_decentralized(problem, h=h, method=method,
                                          t_max=min(settings.t_max, 2000 * h),
                                          kkt_tol=settings.kkt_tol)
        tracer.calls["run_decentralized"].append(((problem,), {}, dec))
    dec = tracer.calls["run_decentralized"][0][2]
    metrics["network.run_s"] = (tracer.total("network.run_decentralized"), "s")
    metrics["network.payloads_per_step"] = (dec.messages_per_step, "count")
    metrics["network.payloads_total"] = (dec.message_count, "count")
    if not tracer.calls["write_message_log_csv"]:
        path = work / "probe-messages.csv"
        with tracer.span("network.write_message_log_csv", probe=True):
            pcons.write_message_log_csv(log, path)
        tracer.calls["write_message_log_csv"].append(((log, path), {}, None))
    metrics["network.message_csv_s"] = (tracer.total("network.write_message_log_csv"), "s")
    metrics["network.message_csv_bytes"] = (
        sum(Path(args[1]).stat().st_size for args, _, _ in tracer.calls["write_message_log_csv"]),
        "bytes")

    metrics.update(oracle_probes(tracer))
    metrics["cli.other_s"] = (tracer.self_time("cli."), "s")
    print(f"kernel probes at {len(states)} states; capture kept on {kept} of "
          f"{len(capture_states)} sampled steps")
    return metrics


def sweep(seed, work):
    """Set-up and per-step cost of the graph family at several agent counts."""
    out = {}
    for n in SWEEP_AGENTS:
        path = work / f"sweep-n{n}.json"
        path.write_text(json.dumps(generate.graph_problem(seed, n)), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            setup_s = per_call(lambda: pcons.parse_problem(path), min_reps=1, budget=0.2)
        problem = pcons.parse_problem(path, slater_probe=False).problem
        t0 = time.perf_counter()
        traj = pcons.integrate(problem, h=1e-3, method="rk4", t_max=SWEEP_STEPS * 1e-3,
                               record_every=SWEEP_STEPS)
        elapsed = time.perf_counter() - t0
        out[f"sweep.n{n}.setup_s"] = (setup_s, "s")
        out[f"sweep.n{n}.us_per_step"] = (elapsed / traj.total_steps * 1e6, "us")
    return out
