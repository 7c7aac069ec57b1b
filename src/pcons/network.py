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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    AgentProblem,
    ProblemInstance,
    SolverState,
    Trajectory,
    VelocityKernel,
    _check_settings,
    _check_state,
    _drive,
    _step,
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
    Payloads of step index ``n`` are logged (when ``log`` is a list) as
    round ``n``, receiver by receiver, neighbors ascending; ``sent``
    counts the directed payloads.
    """

    def __init__(self, kernel, log):
        self.kernel, self.log, self.sent = kernel, log, 0

    def __call__(self, x, lam, mu, n):
        kernel = self.kernel
        px, pl = kernel.payloads(x, lam)
        if self.log is not None:
            xs, ls = list(px), list(pl)
            self.log.extend(
                Message(round_index=n, sender=j + 1, receiver=i + 1,
                        x_shared=xs[j], lam_shared=ls[j])
                for i, j in kernel.edges
            )
        self.sent += len(kernel.edges)
        return kernel.evaluate(x, lam, mu, px[kernel.nbr], pl[kernel.nbr])


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
    exchange = _Exchange(kernel, log)
    z = tuple(np.concatenate([getattr(a, f) for a in agents]) for f in ("x", "lam", "mu"))
    x, lam, mu = _step(kernel, exchange, _capture_rows(agents, capture), z, None,
                       rnd, rnd * h, h, method)
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
    list as ``message_log`` to record every payload.
    """
    _check_settings(h, method, t_max, kkt_tol, record_every)
    state = init if init is not None else initial_state(problem, "zeros")
    z = _check_state(state, problem)
    agents = build_agents(problem, state)
    kernel = _stacked_kernel(agents)
    exchange = _Exchange(kernel, message_log)
    trajectory = _drive(problem, kernel, exchange, _capture_rows(agents, capture_kinks), z,
                        state.t, h, method, t_max, kkt_tol, record_every)
    trajectory.message_rounds = trajectory.total_steps
    trajectory.message_count = exchange.sent
    trajectory.messages_per_step = len(kernel.edges) * (1 if method == "euler" else 4)
    return trajectory


def write_message_log_csv(messages, path):
    """CSV dump of a message log: round, sender, receiver, payload.

    The payload column joins the shared x components and the shared
    lambda components with semicolons.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("round,sender,receiver,payload\n")
        for m in messages:
            payload = ";".join(
                f"{v:.17g}" for v in np.concatenate([m.x_shared, m.lam_shared])
            )
            fh.write(f"{m.round_index},{m.sender},{m.receiver},{payload}\n")
