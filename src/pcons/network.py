"""Decentralized execution of the flow as message-passing agents.

Each agent owns only its objective, constraints and box, plus the
Laplacian weights of its incident edges.  In every synchronous round the
agents exchange the shared components of (x_i, lambda_i) along graph
edges, and then the compiled velocity kernel of ``pcons.dynamics``
evaluates every agent's row at once.  A row reads only its own block and
the payloads delivered to it, and it goes through the same operations as
in the centralized integrator, so a decentralized run reproduces the
centralized trajectory bit for bit.  The "network" is an in-process
simulation: rounds are lockstep, there is no loss or delay.

rk4 needs neighbor values at every stage state, so one rk4 step costs
four exchanges; Euler costs one.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    AgentProblem,
    ProblemInstance,
    SolverState,
    Trajectory,
    VelocityKernel,
    _check_state,
    _residuals,
    capture_agent_kinks,
    initial_state,
    DIVERGENCE_NORM,
    METHODS,
)
from .errors import DivergenceError, InvalidInputError, NumericalError, ProtocolError
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


def _stage(kernel, x, lam, mu, log, round_index):
    """One exchange, then every row's velocity from what it received.

    Each agent sends its shared prefix along every incident edge; a
    receiver's payloads are gathered from the senders' payload table.
    Payloads are logged receiver by receiver, neighbors ascending.
    Returns the kernel's velocity and the number of directed payloads.
    """
    px, pl = kernel.payloads(x, lam)
    if log is not None:
        xs, ls = list(px), list(pl)
        log.extend(
            Message(round_index=round_index, sender=j + 1, receiver=i + 1,
                    x_shared=xs[j], lam_shared=ls[j])
            for i, j in kernel.edges
        )
    velocity = kernel.evaluate(x, lam, mu, px[kernel.nbr], pl[kernel.nbr])
    return velocity, len(kernel.edges)


def _advance(agents, kernel, x, lam, mu, k1, h, method, log, round_index, capture):
    """One step of every agent from the already-exchanged stage 1.

    Returns the new (x, lambda, mu) and the number of directed payloads
    sent by the remaining exchanges.
    """
    shared = kernel.shared

    def at(coef, vel):
        stage_lam = lam.copy()
        stage_lam[shared] += coef * vel[1]
        return x + coef * vel[0], stage_lam, mu + coef * vel[2]

    count = 0
    if method == "euler":
        new_x, new_lam, new_mu = at(h, k1)
    else:
        k2, c2 = _stage(kernel, *at(0.5 * h, k1), log, round_index)
        k3, c3 = _stage(kernel, *at(0.5 * h, k2), log, round_index)
        k4, c4 = _stage(kernel, *at(h, k3), log, round_index)
        count = c2 + c3 + c4
        dx, dlam, dmu = (
            (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for a, b, c, d in zip(k1[:3], k2[:3], k3[:3], k4[:3])
        )
        new_x, new_lam, new_mu = x + dx, lam.copy(), mu + dmu
        new_lam[shared] += dlam
    if capture:
        for agent, s, ms in zip(agents, kernel.blocks, kernel.mu_blocks):
            if agent.capture_table:
                capture_agent_kinks(
                    agent.problem, agent.capture_table, new_x[s], x[s],
                    k1[0][s], new_mu[ms], h, agent.gain,
                )
    return (new_x, new_lam, new_mu), count


def synchronous_round(agents, h, method="rk4", capture=True, log=None):
    """One synchronous exchange-and-step for every agent, in lockstep.

    All agents must be at the same round number.  Agents are mutated in
    place and returned; the second element of the result is the number
    of directed payloads sent.
    """
    if method not in METHODS:
        raise InvalidInputError(f"method must be one of {METHODS}, got {method!r}")
    rounds = {a.round_index for a in agents}
    if len(rounds) != 1:
        raise ProtocolError(f"agents out of sync: round numbers {sorted(rounds)}")
    rnd = agents[0].round_index
    kernel = _stacked_kernel(agents)
    x, lam, mu = (np.concatenate([getattr(a, f) for a in agents]) for f in ("x", "lam", "mu"))
    k1, count = _stage(kernel, x, lam, mu, log, rnd)
    (x, lam, mu), more = _advance(agents, kernel, x, lam, mu, k1, h, method, log, rnd, capture)
    for agent, s, ms in zip(agents, kernel.blocks, kernel.mu_blocks):
        agent.x, agent.lam, agent.mu = x[s], lam[s], mu[ms]
        agent.round_index += 1
    return agents, count + more


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

    Termination, recording and kink capture follow the centralized
    integrator exactly, and a ``DivergenceError`` likewise carries the
    last finite state; additionally the trajectory carries the total
    number of directed payloads and the per-step cost.  Pass a list as
    ``message_log`` to record every payload.
    """
    if h <= 0 or t_max <= 0 or kkt_tol <= 0:
        raise InvalidInputError("h, t_max and kkt_tol must all be positive")
    if method not in METHODS:
        raise InvalidInputError(f"method must be one of {METHODS}, got {method!r}")
    if record_every < 1:
        raise InvalidInputError("record_every must be at least 1")
    state0 = init if init is not None else initial_state(problem, "zeros")
    _check_state(state0, problem)

    agents = build_agents(problem, state0)
    kernel = _stacked_kernel(agents)
    x, lam, mu = (np.array(a, dtype=float) for a in (state0.x, state0.lam, state0.mu))
    t0 = state0.t

    times, states, residuals, objectives, violations = [], [], [], [], []
    started = time.perf_counter()
    total_messages = 0

    def record(t, res):
        st = SolverState(x.copy(), lam.copy(), mu.copy(), t)
        times.append(t)
        states.append(st)
        residuals.append(res)
        objectives.append(problem.objective_value(st.x))
        violations.append(problem.box_violation(st.x))

    stop_reason = "t_max"
    steps = 0
    while True:
        t = t0 + steps * h
        k1, count = _stage(kernel, x, lam, mu, message_log, steps)
        total_messages += count
        res = _residuals(kernel.packed(k1), k1[3], problem)
        if res.max_component <= kkt_tol:
            record(t, res)
            stop_reason = "kkt_converged"
            break
        if t >= t_max - 1e-12:
            record(t, res)
            stop_reason = "t_max"
            break
        if steps % record_every == 0:
            record(t, res)
        new, count = _advance(
            agents, kernel, x, lam, mu, k1, h, method, message_log, steps, capture_kinks
        )
        total_messages += count
        z_new = np.concatenate(new)
        if not np.all(np.isfinite(z_new)):
            raise NumericalError(f"non-finite state produced at t={t + h}")
        if np.linalg.norm(z_new) > DIVERGENCE_NORM:
            raise DivergenceError(
                f"state norm exceeded {DIVERGENCE_NORM:g} at t={t + h}",
                state=SolverState(x.copy(), lam.copy(), mu.copy(), t),
                t=t + h,
            )
        x, lam, mu = new
        steps += 1

    return Trajectory(
        times=times,
        states=states,
        residuals=residuals,
        objectives=objectives,
        box_violations=violations,
        stop_reason=stop_reason,
        total_steps=steps,
        wall_time=time.perf_counter() - started,
        message_rounds=steps,
        message_count=total_messages,
        messages_per_step=len(kernel.edges) * (1 if method == "euler" else 4),
    )


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
