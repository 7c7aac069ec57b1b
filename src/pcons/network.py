"""Decentralized execution of the flow as message-passing agents.

Each agent owns only its objective, constraints and box, plus the
Laplacian weights of its incident edges.  A decentralized run is the
centralized one with another stage evaluator: the stepper and driver
loop of ``pcons.dynamics`` ask for the velocity at every stage state,
and here each such evaluation is one exchange, in which every agent
sends the shared components of (x_i, lambda_i) along its edges,
followed by one call of the compiled velocity kernel on every agent's
row, which receives its payloads through the gather index of the
centralized stage.  An agent keeps only its own problem, neighbors and
state; the kernel, whose rows are the agents in id order, is compiled
from the agents' current problems, neighbors, depth and gain, and
derives each row's slices and kink table from them.  A row reads only
its own block and the payloads delivered to it, and kink capture is the
kernel's own (``VelocityKernel.capture``), which checks the snaps with
the kernel's own ``evaluate``, so the run reproduces the centralized
trajectory bit for bit.  The "network" is an in-process simulation:
rounds are lockstep, there is no loss or delay.

One round is one step.  rk4 needs neighbor values at every stage state,
so an rk4 round costs four exchanges; an Euler round costs one.

A ``MessageLog`` keeps the traffic as one payload table per exchange,
built only for a log, and builds a ``Message``, with read-only payload
views, only when one is read; ``write_message_log_csv`` formats the
tables in bulk.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .dynamics import (
    AgentProblem,
    ProblemInstance,
    SolverState,
    Trajectory,
    VelocityKernel,
    _QUIET,
    _check_settings,
    _drive,
    _packed_state,
    _step,
    _write_rows,
    initial_state,
)
from .errors import InvalidInputError, ProtocolError, _integer, _reals
from .pcmatrix import laplacian_is_connected


@dataclass(frozen=True)
class Message:
    """One directed payload: the sender's shared (x, lambda) components.

    A ``MessageLog`` hands out its payloads as read-only views."""

    round_index: int
    sender: int
    receiver: int
    x_shared: np.ndarray
    lam_shared: np.ndarray


#: payloads an ``_Exchanges`` block holds, which keeps every array of a
#: log and of its CSV tables small
_BLOCK_PAYLOADS = 4096


class _Exchanges:
    """Consecutive exchanges over one edge list: their step indices and
    payload tables, in blocks of a fixed number of exchanges."""

    def __init__(self, edges, shape):
        self.edges, self.shape, self.rounds = edges, shape, []
        self.per_block = max(1, _BLOCK_PAYLOADS // len(edges))
        self.blocks = []  # (x tables, lambda tables) of per_block exchanges

    def append(self, n, px, pl):
        k = len(self.rounds) % self.per_block
        if k == 0:
            size = (self.per_block, *self.shape)
            self.blocks.append((np.empty(size), np.empty(size)))
        x, lam = self.blocks[-1]
        x[k], lam[k] = px, pl
        self.rounds.append(n)

    def messages(self, e, edges):
        """The ``Message``s of exchange ``e`` along ``edges``, (receiver,
        sender) pairs; their payloads are read-only views of the log."""
        (x, lam), b = self.blocks[e // self.per_block], e % self.per_block
        n, px, pl = self.rounds[e], x[b].view(), lam[b].view()
        px.flags.writeable = pl.flags.writeable = False
        return [Message(round_index=n, sender=j + 1, receiver=i + 1,
                        x_shared=px[j], lam_shared=pl[j]) for i, j in edges]


class MessageLog:
    """Every payload of a run, kept as one table per exchange.

    An exchange is recorded as its step index (the round of its
    payloads), the kernel's (receiver, sender) edge list and the payload
    table ``VelocityKernel.payloads`` returns: every row's shared x and
    lambda prefix.  No per-payload object is kept.  ``len()`` counts the
    payloads; indexing, slicing and iteration build each ``Message`` on
    demand, in the order of a list log: exchange by exchange, receiver by
    receiver, neighbors ascending.  A slice is a list, as a list log's.
    """

    def __init__(self):
        self.clear()

    def clear(self):
        self._runs = []  # _Exchanges, one per change of edge list
        self._count = 0

    def record(self, edges, n, px, pl):
        """Log the exchange of step index ``n`` with payload table (px, pl)."""
        if not edges:
            return
        if not self._runs or self._runs[-1].edges is not edges:
            self._runs.append(_Exchanges(edges, px.shape))
        self._runs[-1].append(n, px, pl)
        self._count += len(edges)

    def __len__(self):
        return self._count

    def __iter__(self):
        for run in self._runs:
            for e in range(len(run.rounds)):
                yield from run.messages(e, run.edges)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(self._count)[k]]
        k = range(self._count)[k]  # IndexError and negative indices as a list
        for run in self._runs:
            size = len(run.rounds) * len(run.edges)
            if k < size:
                e, edge = divmod(k, len(run.edges))
                return run.messages(e, run.edges[edge : edge + 1])[0]
            k -= size

    def tables(self):
        """(round, sender, receiver, payload) columns, one set per block of
        exchanges; payload rows are x then lambda."""
        for run in self._runs:
            receiver, sender = np.array(run.edges).T
            for b, (x, lam) in enumerate(run.blocks):
                rounds = run.rounds[b * run.per_block : (b + 1) * run.per_block]
                e = len(rounds)
                payload = np.concatenate((x[:e, sender], lam[:e, sender]), axis=2)
                yield (np.repeat(rounds, len(sender)), np.tile(sender + 1, e),
                       np.tile(receiver + 1, e),
                       payload.reshape(e * len(sender), payload.shape[2]))


class Agent:
    """Holds one agent's private problem data and its state block.

    ``neighbors`` lists (0-based neighbor index, edge weight) in
    ascending index order; the weights are the negated off-diagonal
    Laplacian entries, so they are positive.  ``problem``, ``neighbors``,
    ``depth`` and ``gain`` may be reassigned: a kernel compiled from
    earlier values is not reused, and the kink table comes from the
    kernel, so it follows the problem.
    """

    def __init__(self, agent_id, problem, depth, gain, neighbors, x, lam, mu):
        self.id = agent_id  # 1-based, for logs
        self.depth = depth
        self.gain = gain
        self.neighbors = tuple(neighbors)
        self.problem: AgentProblem = problem
        self.x, self.lam, self.mu = self._own_block(x, lam, mu)
        self.round_index = 0
        self._own = None  # one-agent kernel, compiled on first use
        self._stack = None  # the stacked kernel this agent was last a row of

    def payload(self, x=None, lam=None):
        """Shared components broadcast to neighbors (stage state override)."""
        x = self.x if x is None else x
        lam = self.lam if lam is None else lam
        return x[: self.depth].copy(), lam[: self.depth].copy()

    def local_velocity(self, x, lam, mu, received):
        """Velocity of the own block from own data plus neighbor payloads.

        ``received`` maps neighbor index to (x_shared, lam_shared); a
        missing payload, or a part that is not ``depth`` real numbers, is a
        protocol violation.  Runs the velocity kernel on this agent's
        one-agent slice and returns (dx, dlambda_shared, dmu, g).
        """
        parts = []
        for j, _w in self.neighbors:
            if j not in received:
                raise ProtocolError(f"agent {self.id} missing payload from agent {j + 1}")
            parts.append([_reals(part, f"agent {self.id} received a payload from agent {j + 1} "
                                 f"whose {name} part", (self.depth,), ProtocolError)
                          for part, name in zip(received[j], ("x", "lambda"))])
        if self._own is None or not _compiled_from(self._own, [self]):
            self._own = VelocityKernel([self.problem], [self.neighbors], self.depth, self.gain)
        shape = (1, len(self.neighbors), self.depth)
        recv_x, recv_lam = (np.array([p[k] for p in parts]).reshape(shape) for k in (0, 1))
        dx, dlam, dmu, g = self._own.evaluate(*self._own_block(x, lam, mu), recv_x, recv_lam)
        return dx, dlam[0], dmu, g

    def _own_block(self, x, lam, mu):
        """Float copies of (x, lambda, mu) of this agent's block, each of
        its problem's length (``errors._reals``)."""
        n, m = self.problem.dim, self.problem.constraints.size
        return tuple(_reals(v, f"agent {self.id} {name}", (want,)).copy()
                     for v, name, want in ((x, "x", n), (lam, "lambda", n), (mu, "mu", m)))


def build_agents(problem: ProblemInstance, init: SolverState = None):
    """Instantiate one Agent per block of the problem.

    The gain is computed centrally once (it needs the full spectrum) and
    distributed; everything else an agent receives is local.  Requires a
    connected graph.
    """
    if not laplacian_is_connected(problem.laplacian):
        raise InvalidInputError("the coupling graph must be connected")
    state = init if init is not None else initial_state(problem, "zeros")
    kernel, agents = problem.kernel, []
    for i, (ap, s, ms) in enumerate(zip(kernel.agents, kernel.blocks, kernel.mu_blocks)):
        agents.append(Agent(i + 1, ap, problem.depth, problem.gain, problem.neighbors[i],
                            state.x[s], state.lam[s], state.mu[ms]))
        agents[-1]._stack = kernel
    return agents


def _compiled_from(kernel, agents) -> bool:
    """Whether ``kernel``'s rows were compiled from ``agents``' current
    problems (compared by identity), neighbors, depth and gain."""
    return len(kernel.agents) == len(agents) and all(
        a.problem is p and tuple(a.neighbors) == nb
        and a.depth == kernel.depth and a.gain == kernel.gain
        for a, p, nb in zip(agents, kernel.agents, kernel.neighbors)
    )


def _stacked_kernel(agents) -> VelocityKernel:
    """The kernel whose rows are ``agents``, compiled from their own data.

    The agents must be listed in id order 1..N with every neighbor among
    them, and agree on the depth and the gain, else ``ProtocolError``.  A
    kernel is reused only if it was compiled from the agents' current
    problems, neighbors, depth and gain.
    """
    n = len(agents)
    if [a.id for a in agents] != list(range(1, n + 1)):
        raise ProtocolError(f"agents must be listed in id order 1..{n}")
    kernel = agents[0]._stack
    stale = kernel is None or any(a._stack is not kernel for a in agents)
    if stale or not _compiled_from(kernel, agents):
        if any(j >= n for a in agents for j, _ in a.neighbors):
            raise ProtocolError(f"a neighbor lies outside the {n} listed agents")
        for field in ("depth", "gain"):
            first = getattr(agents[0], field)
            for a in agents:
                if getattr(a, field) != first:
                    raise ProtocolError(
                        f"agents disagree on the {field}: agent 1 has {first!r}, "
                        f"agent {a.id} has {getattr(a, field)!r}"
                    )
        kernel = VelocityKernel(
            [a.problem for a in agents], [a.neighbors for a in agents],
            agents[0].depth, agents[0].gain,
        )
        for agent in agents:
            agent._stack = kernel
    return kernel


class _Exchange:
    """The decentralized stage evaluator: one exchange, then the kernel.

    Each agent sends its shared prefix along every incident edge; the
    receivers get their payloads through ``VelocityKernel.gathered``, as
    the centralized stage does.  Only when ``log`` is a ``MessageLog`` is
    the payload table of step index ``n`` built and recorded as round
    ``n``; ``sent`` counts the directed payloads.  A call is one exchange
    at (x, lambda, mu) and returns ``evaluate``'s velocity; ``stage`` is
    the same exchange at a packed state, as the stepper calls it.
    """

    def __init__(self, kernel, log):
        self.kernel, self.log, self.sent = kernel, log, 0

    def __call__(self, x, lam, mu, n):
        kernel = self.kernel
        if self.log is not None:
            self.log.record(kernel.edges, n, *kernel.payloads(x, lam))
        self.sent += len(kernel.edges)
        return kernel.evaluate(x, lam, mu, *kernel.gathered(x, lam))

    def stage(self, z, n):
        """The packed velocity (dz, g) at the packed state ``z``, packed
        by ``VelocityKernel.pack`` as the centralized gather packs it."""
        return self.kernel.pack(self(*self.kernel.split(z), n))


@contextmanager
def _table_log(log):
    """The ``MessageLog`` an exchange records into: ``log`` itself (or
    None), or for a list a fresh one whose messages extend the list when
    the block ends, however it ends."""
    if log is None or isinstance(log, MessageLog):
        yield log
        return
    table = MessageLog()
    try:
        yield table
    finally:
        log.extend(table)


def _capture_rows(agents, capture):
    """Each agent's problem and kink table, as ``capture_agent_kinks`` takes them."""
    kernel = _stacked_kernel(agents)
    return tuple(zip(kernel.agents, kernel.kinks)) if capture else ()


@_QUIET
def synchronous_round(agents, h, method="rk4", capture=True, log=None):
    """One synchronous exchange-and-step for every agent, in lockstep.

    All agents must be at the same round number.  Agents are mutated in
    place and returned; the second element of the result is the number
    of directed payloads sent.  A non-finite new state raises
    ``NumericalError`` (its t counts rounds from 0) and leaves the agents
    as they were.
    """
    _check_settings(h, method)
    rounds = {a.round_index for a in agents}
    if len(rounds) != 1:
        raise ProtocolError(f"agents out of sync: round numbers {sorted(rounds)}")
    rnd = agents[0].round_index
    kernel = _stacked_kernel(agents)
    z = np.concatenate([getattr(a, f) for f in ("x", "lam", "mu") for a in agents])
    with _table_log(log) as table:
        exchange = _Exchange(kernel, table)
        x, lam, mu = kernel.split(_step(kernel, exchange.stage, capture, z, None, rnd,
                                        rnd * h, h, method))
    for agent, s, ms in zip(agents, kernel.blocks, kernel.mu_blocks):
        agent.x, agent.lam, agent.mu = x[s], lam[s], mu[ms]
        agent.round_index += 1
    return agents, exchange.sent


def run_decentralized(
    problem: ProblemInstance,
    init: SolverState = None,
    h: float = 1e-3,
    method: str = "rk4",
    t_max: float = 100.0,
    kkt_tol: float = 1e-6,
    record_every: int = 1,
    capture_kinks: bool = True,
    message_log=None,
) -> Trajectory:
    """Decentralized counterpart of ``integrate`` with identical results.

    The driver loop of ``integrate`` runs with an exchange as its stage
    evaluator and the stacked kernel's kink capture, so
    termination, recording, capture and a ``DivergenceError`` are those
    of the centralized run; additionally the trajectory carries the
    total number of directed payloads and the per-step cost.  Pass a
    ``MessageLog`` or a list as ``message_log`` to record every payload;
    a list receives the messages when the run ends, also when it raises.
    """
    _check_settings(h, method, t_max, kkt_tol, record_every)
    state = init if init is not None else initial_state(problem, "zeros")
    z = _packed_state(state, problem)
    agents = build_agents(problem, state)
    kernel = _stacked_kernel(agents)
    with _table_log(message_log) as table:
        exchange = _Exchange(kernel, table)
        trajectory = _drive(problem, kernel, exchange.stage, capture_kinks, z, state.t, h,
                            method, t_max, kkt_tol, record_every)
    trajectory.message_count = exchange.sent
    trajectory.messages_per_step = len(kernel.edges) * (1 if method == "euler" else 4)
    return trajectory


def _pack(messages):
    """A sequence of ``Message``s as the columns of ``MessageLog.tables``,
    one set per run of one payload width.  Every field is read first, the
    round, sender and receiver by ``errors._integer`` and the payloads by
    ``errors._reals``, so a fault raises before a file is opened."""
    rows = []
    for n, m in enumerate(messages):
        ids = [_integer(getattr(m, f), f"messages[{n}].{f}", least)
               for f, least in (("round_index", 0), ("sender", 1), ("receiver", 1))]
        rows.append((ids, np.concatenate([_reals(getattr(m, f), f"messages[{n}].{f}", 1)
                                          for f in ("x_shared", "lam_shared")])))
    tables = []
    for _, run in groupby(rows, key=lambda row: len(row[1])):
        ids, payloads = zip(*run)
        tables.append((*np.array(ids).T, np.array(payloads)))
    return tables


def write_message_log_csv(messages, path):
    """CSV dump of a message log: round, sender, receiver, payload.

    ``messages`` is a ``MessageLog`` or a sequence of ``Message``s, whose
    fields must be integers and real numbers (non-finite payloads pass, as
    a log's do), else ``InvalidInputError`` is raised before the file is
    opened.  The payload column joins the shared x components and the
    shared lambda components with semicolons.
    """
    tables = messages.tables() if isinstance(messages, MessageLog) else _pack(messages)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("round,sender,receiver,payload\n")
        for rounds, senders, receivers, payload in tables:
            row = "%d,%d,%d," + ";".join(["%.17g"] * payload.shape[1]) + "\n"
            _write_rows(fh, row, [rounds, senders, receivers, *payload.T])
