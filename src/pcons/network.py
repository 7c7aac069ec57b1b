"""Decentralized execution of the flow as message-passing agents.

Each agent owns only its objective, constraints and box, plus the
Laplacian weights of its incident edges.  A decentralized run is the
centralized one with another stage evaluator: the stepper and driver
loop of ``pcons.dynamics`` ask for the velocity at every stage state,
and here each such evaluation is one exchange, in which every agent
sends the shared components of (x_i, lambda_i) along its edges,
followed by one call of the compiled velocity kernel on every agent's
row.  A row reads only its own block and the payloads delivered to it,
and kink capture reads only the agent's own problem, so the run
reproduces the centralized trajectory bit for bit.  The "network" is an
in-process simulation: rounds are lockstep, there is no loss or delay.

One round is one step.  rk4 needs neighbor values at every stage state,
so an rk4 round costs four exchanges; an Euler round costs one.

A ``MessageLog`` keeps the traffic as one payload table per exchange
(the table the gather reads) and builds a ``Message`` only when one is
read; ``write_message_log_csv`` formats the tables in bulk.
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
    _check_settings,
    _drive,
    _packed_state,
    _step,
    _write_rows,
    initial_state,
)
from .errors import InvalidInputError, ProtocolError
from .pcmatrix import laplacian_is_connected


@dataclass(frozen=True)
class Message:
    """One directed payload: the sender's shared (x, lambda) components."""

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

    def table(self, e):
        """The (x, lambda) payload table of exchange ``e``."""
        x, lam = self.blocks[e // self.per_block]
        return x[e % self.per_block], lam[e % self.per_block]


class MessageLog:
    """Every payload of a run, kept as one table per exchange.

    An exchange is recorded as its step index (the round of its
    payloads), the kernel's (receiver, sender) edge list and the payload
    table ``VelocityKernel.payloads`` returns: every row's shared x and
    lambda prefix.  No per-payload object is kept.  ``len()`` counts the
    payloads; indexing and iteration build each ``Message`` on demand, in
    the order of a list log: exchange by exchange, receiver by receiver,
    neighbors ascending.
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
            for e, n in enumerate(run.rounds):
                px, pl = run.table(e)
                for i, j in run.edges:
                    yield Message(round_index=n, sender=j + 1, receiver=i + 1,
                                  x_shared=px[j], lam_shared=pl[j])

    def __getitem__(self, k):
        k = range(self._count)[k]  # IndexError and negative indices as a list
        for run in self._runs:
            size = len(run.rounds) * len(run.edges)
            if k < size:
                e, edge = divmod(k, len(run.edges))
                i, j = run.edges[edge]
                px, pl = run.table(e)
                return Message(round_index=run.rounds[e], sender=j + 1, receiver=i + 1,
                               x_shared=px[j], lam_shared=pl[j])
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
    Laplacian entries, so they are positive.  Assigning ``problem``
    discards every kernel compiled from the previous one.
    """

    def __init__(self, agent_id, problem, depth, gain, neighbors, capture_table,
                 x, lam, mu):
        self.id = agent_id  # 1-based, for logs
        self.depth = depth
        self.gain = gain
        self.neighbors = tuple(neighbors)
        self.problem: AgentProblem = problem
        self.capture_table = tuple(capture_table)
        self.x = np.asarray(x, dtype=float).copy()
        self.lam = np.asarray(lam, dtype=float).copy()
        self.mu = np.asarray(mu, dtype=float).copy()
        self.round_index = 0

    @property
    def problem(self) -> AgentProblem:
        return self._problem

    @problem.setter
    def problem(self, value):
        self._problem = value
        self._own = None  # one-agent kernel, compiled on first use
        self._stack = None  # the stacked kernel this agent is a row of

    def payload(self, x=None, lam=None):
        """Shared components broadcast to neighbors (stage state override)."""
        x = self.x if x is None else x
        lam = self.lam if lam is None else lam
        return x[: self.depth].copy(), lam[: self.depth].copy()

    def local_velocity(self, x, lam, mu, received):
        """Velocity of the own block from own data plus neighbor payloads.

        ``received`` maps neighbor index to (x_shared, lam_shared); a
        missing payload is a protocol violation.  Runs the velocity kernel
        on this agent's one-agent slice and returns (dx, dlambda_shared,
        dmu, g).
        """
        for j, _w in self.neighbors:
            if j not in received:
                raise ProtocolError(f"agent {self.id} missing payload from agent {j + 1}")
        if self._own is None:
            self._own = VelocityKernel([self.problem], [self.neighbors], self.depth, self.gain)
        shape = (1, len(self.neighbors), self.depth)
        recv_x = np.array([received[j][0] for j, _ in self.neighbors], dtype=float)
        recv_lam = np.array([received[j][1] for j, _ in self.neighbors], dtype=float)
        dx, dlam, dmu, g = self._own.evaluate(
            np.asarray(x, dtype=float), np.asarray(lam, dtype=float),
            np.asarray(mu, dtype=float), recv_x.reshape(shape), recv_lam.reshape(shape),
        )
        return dx, dlam[0], dmu, g


def build_agents(problem: ProblemInstance, init: SolverState = None):
    """Instantiate one Agent per block of the problem.

    The gain is computed centrally once (it needs the full spectrum) and
    distributed; everything else an agent receives is local.  Requires a
    connected graph.
    """
    if not laplacian_is_connected(problem.laplacian):
        raise InvalidInputError("the coupling graph must be connected")
    state = init if init is not None else initial_state(problem, "zeros")
    agents = []
    for i, ap in enumerate(problem.agents):
        s = problem.block(i)
        ms = problem.mu_block(i)
        agents.append(
            Agent(
                agent_id=i + 1,
                problem=ap,
                depth=problem.depth,
                gain=problem.gain,
                neighbors=problem.neighbors[i],
                capture_table=problem._capture_table[i],
                x=state.x[s],
                lam=state.lam[s],
                mu=state.mu[ms],
            )
        )
    for agent in agents:
        agent._stack = problem.kernel
    return agents


def _stacked_kernel(agents) -> VelocityKernel:
    """The kernel whose rows are ``agents``, compiled from their own data."""
    kernel = agents[0]._stack
    if kernel is None or len(kernel.blocks) != len(agents) or any(
        a._stack is not kernel for a in agents
    ):
        kernel = VelocityKernel(
            [a.problem for a in agents], [a.neighbors for a in agents],
            agents[0].depth, agents[0].gain,
        )
        for agent in agents:
            agent._stack = kernel
    return kernel


class _Exchange:
    """The decentralized stage evaluator: one exchange, then the kernel.

    Each agent sends its shared prefix along every incident edge; a
    receiver's payloads are gathered from the senders' payload table.
    The table of step index ``n`` is recorded (when ``log`` is a
    ``MessageLog``) as round ``n``; ``sent`` counts the directed payloads.
    A call is one exchange at (x, lambda, mu) and returns ``evaluate``'s
    velocity; ``stage`` is the same exchange at a packed state, as the
    stepper calls it.
    """

    def __init__(self, kernel, log):
        self.kernel, self.log, self.sent = kernel, log, 0

    def __call__(self, x, lam, mu, n):
        kernel = self.kernel
        px, pl = kernel.payloads(x, lam)
        if self.log is not None:
            self.log.record(kernel.edges, n, px, pl)
        self.sent += len(kernel.edges)
        return kernel.evaluate(x, lam, mu, px[kernel.nbr], pl[kernel.nbr])

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
    """Each agent's own problem and capture table, for kink capture."""
    return tuple((a.problem, a.capture_table) for a in agents) if capture else ()


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
        x, lam, mu = kernel.split(_step(kernel, exchange.stage, _capture_rows(agents, capture),
                                        z, None, rnd, rnd * h, h, method))
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
    evaluator and each agent's own data for kink capture, so
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
        trajectory = _drive(problem, kernel, exchange.stage, _capture_rows(agents, capture_kinks),
                            z, state.t, h, method, t_max, kkt_tol, record_every)
    trajectory.message_rounds = trajectory.total_steps
    trajectory.message_count = exchange.sent
    trajectory.messages_per_step = len(kernel.edges) * (1 if method == "euler" else 4)
    return trajectory


def _pack(messages):
    """Consecutive ``Message``s with one payload shape, as the columns of
    ``MessageLog.tables``."""
    def shape(m):
        return len(m.x_shared), len(m.lam_shared)

    for _, run in groupby(messages, key=shape):
        run = list(run)
        payload = np.hstack((np.array([m.x_shared for m in run], dtype=float),
                             np.array([m.lam_shared for m in run], dtype=float)))
        yield (np.array([m.round_index for m in run]), np.array([m.sender for m in run]),
               np.array([m.receiver for m in run]), payload)


def write_message_log_csv(messages, path):
    """CSV dump of a message log: round, sender, receiver, payload.

    ``messages`` is a ``MessageLog`` or a sequence of ``Message``s.  The
    payload column joins the shared x components and the shared lambda
    components with semicolons.
    """
    tables = messages.tables() if isinstance(messages, MessageLog) else _pack(messages)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("round,sender,receiver,payload\n")
        for rounds, senders, receivers, payload in tables:
            row = "%d,%d,%d," + ";".join(["%.17g"] * payload.shape[1]) + "\n"
            _write_rows(fh, row, [rounds, senders, receivers, *payload.T])
