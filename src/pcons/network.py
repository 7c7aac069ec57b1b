"""Decentralized execution of the flow as message-passing agents.

Each agent owns only its objective, constraints and box, plus the
Laplacian weights of its incident edges.  A decentralized run drives the
stepper, driver loop and stage evaluator (``_Exchange``) of
``pcons.dynamics`` that the centralized run drives: each stage is one
exchange, in which every agent sends the shared components of
(x_i, lambda_i) along its edges, followed by one call of the compiled
velocity kernel on every agent's row.  Here the exchange may also record
every payload in a message log, and the run counts the payloads.  An
agent keeps only its own problem, neighbors and state; the kernel, whose
rows are the agents in id order, is compiled from the agents' current
problems, neighbors, depth and gain, and derives each row's slices and
kink table from them.  A row reads only its own block and the payloads
delivered to it, and kink capture is the kernel's own
(``VelocityKernel.capture``), which checks the snaps with the kernel's
own ``evaluate``, so the run reproduces the centralized trajectory bit
for bit.  The "network" is an in-process simulation:
rounds are lockstep, there is no loss or delay.

One round is one step.  rk4 needs neighbor values at every stage state,
so an rk4 round costs four exchanges; an Euler round costs one.

A ``MessageLog`` keeps the traffic as one list of blocks of payload
tables, built only for a log, and builds a ``Message``, with read-only
payload views, only when one is read; ``write_message_log_csv`` formats
each block's table in bulk.
"""
from __future__ import annotations

import reprlib
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import dynamics
from .dynamics import (
    AgentProblem,
    ProblemInstance,
    SolverState,
    Trajectory,
    VelocityKernel,
    _QUIET,
    _Exchange,
    _check_settings,
    _check_state,
    _drive,
    _step,
    _write_rows,
    initial_state,
)
from .errors import InvalidInputError, ProtocolError, _integer, _positive, _reals
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


class MessageLog:
    """Every payload of a run, kept as one payload table per exchange.

    The log is one list of blocks ``[edges, step indices, tables]`` of
    consecutive exchanges over one (receiver, sender) edge list, the
    kernel's ``edges``.  An exchange's table is every row's shared x and
    lambda prefix side by side, ``[x | lambda]``; a block holds as many as
    keep the payload table its CSV writes within ``dynamics._BLOCK_VALUES``
    values, and at least one.  ``len()`` counts the payloads; indexing,
    slicing and iteration build each ``Message`` on demand, its payloads
    read-only views of the two halves of its sender's row, in the order of
    a list log: exchange by exchange, receiver by receiver, neighbors
    ascending.  A slice is a list, as a list log's.
    """

    def __init__(self):
        self.clear()

    def clear(self):
        self._blocks = []
        self._count = 0

    def _record(self, edges, n, px, pl):
        """Log the exchange of step index ``n`` with payload table (px, pl)."""
        if not edges:
            return
        block = self._blocks[-1] if self._blocks else None
        if block is None or block[0] is not edges or len(block[1]) == len(block[2]):
            rows, depth = px.shape
            size = max(1, dynamics._BLOCK_VALUES // (2 * depth * len(edges)))
            block = [edges, [], np.empty((size, rows, 2 * depth))]
            self._blocks.append(block)
            self._x, self._lam = block[2][..., :depth], block[2][..., depth:]  # halves to fill
        rounds = block[1]
        self._x[len(rounds)], self._lam[len(rounds)] = px, pl
        rounds.append(n)
        self._count += len(edges)

    @staticmethod
    def _messages(block, e, edges):
        """The ``Message``s of exchange ``e`` of ``block`` along ``edges``."""
        table = block[2][e].view()
        table.flags.writeable = False
        depth, n = table.shape[1] // 2, block[1][e]
        return [Message(round_index=n, sender=j + 1, receiver=i + 1,
                        x_shared=table[j, :depth], lam_shared=table[j, depth:])
                for i, j in edges]

    def __len__(self):
        return self._count

    def __iter__(self):
        for block in self._blocks:
            for e in range(len(block[1])):
                yield from self._messages(block, e, block[0])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(self._count)[k]]
        k = range(self._count)[k]  # IndexError and negative indices as a list
        for block in self._blocks:
            edges, rounds, _ = block
            if k < len(rounds) * len(edges):
                e, edge = divmod(k, len(edges))
                return self._messages(block, e, edges[edge : edge + 1])[0]
            k -= len(rounds) * len(edges)

    def _tables(self):
        """(round, sender, receiver, payload) columns, one set per block;
        payload rows are x then lambda."""
        for edges, rounds, tables in self._blocks:
            receiver, sender = np.array(edges).T
            e = len(rounds)
            yield (np.repeat(rounds, len(edges)), np.tile(sender + 1, e),
                   np.tile(receiver + 1, e), tables[:e, sender].reshape(e * len(edges), -1))


class Agent:
    """Holds one agent's private problem data and its state block.

    ``neighbors`` lists (0-based neighbor index, edge weight) in
    ascending index order; the weights are the negated off-diagonal
    Laplacian entries, so they are positive.  ``problem``, ``neighbors``,
    ``depth`` and ``gain`` may be reassigned: a kernel compiled from
    earlier values is not reused, and the kink table comes from the
    kernel, so it follows the problem.  A kernel is compiled from the
    fields as ``_read`` reads them, else ``ProtocolError`` names the agent.
    """

    def __init__(self, agent_id, problem, depth, gain, neighbors, x, lam, mu):
        self.id = agent_id  # 1-based, for logs
        self.depth = depth
        self.gain = gain
        self.neighbors = tuple(neighbors)
        self.problem: AgentProblem = problem
        self.x, self.lam, self.mu = self._own_block(x, lam, mu)
        self.round_index = 0
        self._stack = None  # the stacked kernel this agent was last a row of

    def _read(self, n=None):
        """(id, depth, gain, neighbors) as a kernel is compiled from them,
        else ``ProtocolError``: integer id and depth (``errors._integer``),
        the depth from 1 to the problem's dimension; a finite positive gain
        and weights (``errors._positive``); integer neighbor indices that
        ascend (a repeat is a parallel edge), skip the agent's own and,
        among ``n`` agents, are below n; each neighbor is one (index,
        weight) pair."""
        i = _integer(self.id, "an agent id", 1, ProtocolError)
        depth = _integer(self.depth, f"agent {i}'s depth", 1, ProtocolError)
        if depth > self.problem.dim:
            raise ProtocolError(f"agent {i}'s depth {depth} exceeds its dimension "
                                f"{self.problem.dim}")
        try:
            pairs = [(j, w) for j, w in self.neighbors]
        except (TypeError, ValueError):  # not iterable, or an entry that is not a pair
            raise ProtocolError(f"agent {i}'s neighbors must be (index, weight) pairs, "
                                f"got {reprlib.repr(self.neighbors)}") from None
        neighbors = tuple((_integer(j, f"agent {i}'s neighbor index", 0, ProtocolError),
                           _positive(w, f"agent {i}'s weight of neighbor {j!r}",
                                     error=ProtocolError)) for j, w in pairs)
        index = [j for j, _ in neighbors]
        if index != sorted(index) or i - 1 in index or n is not None and max(index, default=0) >= n:
            raise ProtocolError(f"agent {i}'s neighbor indices {index} must ascend, skip its "
                                f"own index {i - 1}" + ("" if n is None else f" and be below {n}"))
        return i, depth, _positive(self.gain, f"agent {i}'s gain", error=ProtocolError), neighbors

    def payload(self, x=None, lam=None):
        """Shared components broadcast to neighbors: float copies of the
        first ``depth`` entries of x and lambda, the agent's own or a stage
        state's.  The agent's fields are read by ``_read``, x and lambda as
        ``_own_block`` reads them."""
        depth, n = self._read()[1], self.problem.dim
        return tuple(_reals(v, f"agent {self.id} {name}", (n,))[:depth].copy()
                     for v, name in ((self.x if x is None else x, "x"),
                                     (self.lam if lam is None else lam, "lambda")))

    def local_velocity(self, x, lam, mu, received):
        """Velocity of the own block from own data plus neighbor payloads.

        ``received`` maps neighbor index to (x_shared, lam_shared); a
        missing payload, or a part that is not ``depth`` finite real
        numbers, is a protocol violation.  x, lambda and mu are read as
        ``_own_block`` reads them and must be finite, else
        ``InvalidInputError`` names the first non-finite entry, as
        ``synchronous_round`` does.  Compiles this agent alone into a
        velocity kernel, runs it and returns (dx, dlambda_shared, dmu, g).
        """
        i, depth, gain, neighbors = self._read()
        parts = []
        for j, _w in neighbors:
            if j not in received:
                raise ProtocolError(f"agent {i} missing payload from agent {j + 1}")
            parts.append([_reals(part, f"agent {i} received a payload from agent {j + 1} "
                                 f"whose {name} part", (depth,), ProtocolError, finite=True)
                          for part, name in zip(received[j], ("x", "lambda"))])
        own = self._own_block(x, lam, mu)
        for v, name in zip(own, ("x", "lambda", "mu")):
            bad = np.flatnonzero(~np.isfinite(v))
            if len(bad):
                raise InvalidInputError(f"agent {i}, {name}_{bad[0] + 1} must be finite")
        kernel = VelocityKernel([self.problem], [neighbors], depth, gain)
        shape = (1, len(neighbors), depth)
        recv_x, recv_lam = (np.array([p[k] for p in parts]).reshape(shape) for k in (0, 1))
        dx, dlam, dmu, g = kernel.evaluate(*own, recv_x, recv_lam)
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
    connected graph, and ``init`` is read as ``integrate`` reads it
    (``dynamics._check_state``).
    """
    if not laplacian_is_connected(problem.laplacian):
        raise InvalidInputError("the coupling graph must be connected")
    kernel, agents = problem.kernel, []
    z, _ = _check_state(init if init is not None else initial_state(problem, "zeros"), problem)
    x, lam, mu = kernel.split(z)
    for i, (ap, s, ms) in enumerate(zip(kernel.agents, kernel.blocks, kernel.mu_blocks)):
        agents.append(Agent(i + 1, ap, problem.depth, problem.gain, problem.neighbors[i],
                            x[s], lam[s], mu[ms]))
        agents[-1]._stack = kernel
    return agents


def _stacked_kernel(agents) -> VelocityKernel:
    """The kernel whose rows are ``agents``, compiled from their own data.

    The kernel the first agent was last a row of is reused only while the
    agents' ids (by type and value), problems, neighbors, depth and gain
    are the objects it was compiled from.  Otherwise every agent is read
    (``Agent._read``); they must be listed in id order 1..N and agree on
    the depth and gain, else ``ProtocolError``, and each keeps its fields
    as read.
    """
    n = len(agents)
    kernel = agents[0]._stack
    if kernel is None or len(kernel.agents) != n or not all(
        type(a.id) is int and a.id == i and a.problem is p and a.neighbors is nb
        and a.depth is kernel.depth and a.gain is kernel.gain
        for i, a, p, nb in zip(range(1, n + 1), agents, kernel.agents, kernel.neighbors)
    ):
        ids, depths, gains, neighbors = zip(*(a._read(n) for a in agents))
        if ids != tuple(range(1, n + 1)):
            raise ProtocolError(f"agents must be listed in id order 1..{n}")
        for field, values in (("depth", depths), ("gain", gains)):
            for i, value in zip(ids, values):
                if value != values[0]:
                    raise ProtocolError(f"agents disagree on the {field}: agent 1 has "
                                        f"{values[0]!r}, agent {i} has {value!r}")
        kernel = VelocityKernel([a.problem for a in agents], neighbors, depths[0], gains[0])
        for a, i, nb in zip(agents, ids, kernel.neighbors):
            a.id, a.depth, a.gain, a.neighbors, a._stack = i, kernel.depth, kernel.gain, nb, kernel
    return kernel


@contextmanager
def _table_log(log):
    """The ``MessageLog`` an exchange records into: ``log`` itself (or
    None), or for a list a fresh one whose messages extend the list when
    the block ends, however it ends.  A ``log`` that is none of these,
    nor has an ``extend``, raises ``InvalidInputError`` before the block."""
    if log is None or isinstance(log, MessageLog):
        yield log
        return
    if not callable(getattr(log, "extend", None)):
        raise InvalidInputError(
            f"a message log must be a MessageLog, a list or None, got {type(log).__name__}")
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

    There must be at least one agent (checked first), all at the same
    round number.  Every agent's x, lambda and mu are read before the
    step: real numbers of its problem's lengths, all finite, else
    ``InvalidInputError`` names the agent (and the first non-finite
    entry, as "agent 2, mu_1").  Agents are mutated in place and
    returned; the second element of the result is the number of directed
    payloads sent.  A non-finite new state raises ``NumericalError`` (its
    t counts rounds from 0); on any error the agents are left as they were.
    """
    if not agents:
        raise InvalidInputError("synchronous_round needs at least one agent")
    h = _check_settings(h, method)[0]
    rounds = {a.round_index for a in agents}
    if len(rounds) != 1:
        raise ProtocolError(f"agents out of sync: round numbers {sorted(rounds)}")
    rnd = agents[0].round_index
    kernel = _stacked_kernel(agents)
    xs, lams, mus = zip(*(a._own_block(a.x, a.lam, a.mu) for a in agents))
    z = np.concatenate(xs + lams + mus)
    finite = np.isfinite(z)
    if not finite.all():
        raise InvalidInputError(f"{kernel.locate(int(np.argmin(finite)))} must be finite")
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
    h, t_max, kkt_tol = _check_settings(h, method, t_max, kkt_tol, record_every)
    z, t = _check_state(init if init is not None else initial_state(problem, "zeros"), problem)
    if not laplacian_is_connected(problem.laplacian):
        raise InvalidInputError("the coupling graph must be connected")
    kernel = problem.kernel
    with _table_log(message_log) as table:
        exchange = _Exchange(kernel, table)
        trajectory = _drive(problem, kernel, exchange.stage, capture_kinks, z, t, h,
                            method, t_max, kkt_tol, record_every)
    trajectory.message_count = exchange.sent
    trajectory.messages_per_step = len(kernel.edges) * (1 if method == "euler" else 4)
    return trajectory


def _pack(messages):
    """A sequence of ``Message``s as the columns of ``MessageLog._tables``,
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
    tables = messages._tables() if isinstance(messages, MessageLog) else _pack(messages)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("round,sender,receiver,payload\n")
        for rounds, senders, receivers, payload in tables:
            row = "%d,%d,%d," + ";".join(["%.17g"] * payload.shape[1]) + "\n"
            _write_rows(fh, row, [rounds, senders, receivers, *payload.T])
