"""Finite discounted MDPs and their exact evaluation / improvement oracles.

All value functions here use the normalized return convention
``Q(s, a) = (1 - gamma) * E[sum_t gamma^t r_t]``, so every Q-table is bounded
by ``r_max`` regardless of the discount.  Operators are exact: expectations
are sums over the finite state-action space and policy evaluation is an S×S
solve for V^π.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ErgodicityError

# Desk-scale cap: everything is dense, so keep tables small.
MAX_STATE_ACTIONS = 4096

_PROB_TOL = 1e-12

# Stationary-distribution solve: residual target, and the weight of the uniform
# restart mixed into each power-iteration step.
_STATIONARY_TOL = 1e-10
_DAMPING = 1e-6

# Discount of every builtin MDP.
_GAMMA = 0.9


def _check_probabilities(name: str, table: np.ndarray) -> None:
    """Reject a negative entry, or a row (the last axis) that does not sum to 1, naming the first."""
    # np.any before the index lookup: check_policy_matrix runs several times per iteration.
    if np.any(table < -_PROB_TOL):
        index = tuple(map(int, np.argwhere(table < -_PROB_TOL)[0]))
        raise ContractViolationError(f"{name} entry {index} is {float(table[index])!r}, negative")
    sums = table.sum(axis=-1)
    off = np.abs(sums - 1.0) > _PROB_TOL
    if np.any(off):
        # initial_dist is 1-D: its one sum is 0-d, in which np.argwhere finds no index.
        index = tuple(map(int, np.argwhere(off)[0])) if sums.ndim else ()
        where = f" row {index}" if index else ""
        raise ContractViolationError(f"{name}{where} sums to {float(sums[index])!r}, expected 1")


def _check_size(n_states: int, n_actions: int) -> None:
    if n_states < 1 or n_actions < 1:
        raise ContractViolationError(f"an MDP needs n_states >= 1 and n_actions >= 1, got {n_states} and {n_actions}")
    if n_states * n_actions > MAX_STATE_ACTIONS:
        raise ContractViolationError(f"n_states * n_actions = {n_states * n_actions} exceeds cap {MAX_STATE_ACTIONS}")


@dataclass(frozen=True)
class TabularMDP:
    """A finite discounted MDP (states, actions, kernel, rewards, discount, start)."""

    transition: np.ndarray  # (S, A, S), rows are next-state distributions
    reward: np.ndarray  # (S, A)
    gamma: float
    initial_dist: np.ndarray  # (S,)
    r_max: float = 1.0

    def __post_init__(self):
        p = np.asarray(self.transition, dtype=float)
        r = np.asarray(self.reward, dtype=float)
        zeta = np.asarray(self.initial_dist, dtype=float)
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "reward", r)
        object.__setattr__(self, "initial_dist", zeta)
        if p.ndim != 3 or p.shape[0] != p.shape[2]:
            raise ContractViolationError(f"transition must have shape (S, A, S), got {p.shape}")
        n_states, n_actions, _ = p.shape
        _check_size(n_states, n_actions)
        if r.shape != (n_states, n_actions):
            raise ContractViolationError(f"reward must have shape {(n_states, n_actions)}, got {r.shape}")
        if zeta.shape != (n_states,):
            raise ContractViolationError(f"initial_dist must have shape ({n_states},), got {zeta.shape}")
        # Every comparison below is False for NaN, so non-finite entries must be rejected first.
        for name, table in (("transition", p), ("reward", r), ("initial_dist", zeta)):
            bad = np.argwhere(~np.isfinite(table))
            if bad.size:
                index = tuple(int(i) for i in bad[0])
                raise ContractViolationError(f"{name} entry {index} is {float(table[index])}, not finite")
        if not np.isfinite(self.r_max):
            raise ContractViolationError(f"r_max must be finite, got {self.r_max!r}")
        if not (0.0 <= self.gamma < 1.0):
            raise ContractViolationError(f"gamma must lie in [0, 1), got {self.gamma}")
        _check_probabilities("transition", p)
        _check_probabilities("initial_dist", zeta)
        if np.any(np.abs(r) > self.r_max + 1e-12):
            raise ContractViolationError(f"|reward| exceeds declared r_max={self.r_max}")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]


def check_policy_matrix(mdp: TabularMDP, policy: np.ndarray) -> np.ndarray:
    """Validate that ``policy`` is an (S, A) row-stochastic matrix for ``mdp``."""
    pi = np.asarray(policy, dtype=float)
    if pi.shape != (mdp.n_states, mdp.n_actions):
        raise ContractViolationError(
            f"policy must have shape {(mdp.n_states, mdp.n_actions)}, got {pi.shape}"
        )
    _check_probabilities("policy", pi)
    return pi


def apply_P_pi(mdp: TabularMDP, policy: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Expected next-state-action value under ``policy``.

    result[s, a] = sum_{s'} P[s, a, s'] sum_{a'} policy[s', a'] q[s', a'].
    """
    pi = check_policy_matrix(mdp, policy)
    q = np.asarray(q, dtype=float)
    if q.shape != (mdp.n_states, mdp.n_actions):
        raise ContractViolationError(f"q must have shape {(mdp.n_states, mdp.n_actions)}, got {q.shape}")
    next_value = (pi * q).sum(axis=1)  # V(s') under policy
    return mdp.transition @ next_value


def bellman_eval(mdp: TabularMDP, policy: np.ndarray, q: np.ndarray) -> np.ndarray:
    """One application of the evaluation operator: (1-gamma) r + gamma P^pi q."""
    return (1.0 - mdp.gamma) * mdp.reward + mdp.gamma * apply_P_pi(mdp, policy, q)


def policy_transition(mdp: TabularMDP, pi: np.ndarray) -> np.ndarray:
    """State-to-state kernel of an already checked policy: P_pi[s, s'] = sum_a pi[s, a] P[s, a, s']."""
    return np.einsum("sa,sat->st", pi, mdp.transition)


def exact_q_pi(mdp: TabularMDP, policy: np.ndarray) -> np.ndarray:
    """Action-value table of ``policy``, from an S×S solve for V^π.

    V = (I - gamma P_pi)^{-1} (1-gamma) r_pi with r_pi[s] = sum_a pi[s, a] r[s, a],
    then Q = (1-gamma) r + gamma P V.
    """
    pi = check_policy_matrix(mdp, policy)
    r_pi = (pi * mdp.reward).sum(axis=1)
    v = np.linalg.solve(np.eye(mdp.n_states) - mdp.gamma * policy_transition(mdp, pi), (1.0 - mdp.gamma) * r_pi)
    return (1.0 - mdp.gamma) * mdp.reward + mdp.gamma * (mdp.transition @ v)


def optimal_q(mdp: TabularMDP) -> tuple[np.ndarray, np.ndarray]:
    """Optimal Q-table and a greedy deterministic policy (lowest action index on ties).

    Value iteration on the normalized optimality operator, stopped when the
    sup-norm change is below ``1e-12 * (1 - gamma) / (2 gamma)``.
    """
    gamma, tol = mdp.gamma, 1e-12
    stop = tol if gamma == 0.0 else tol * (1.0 - gamma) / (2.0 * gamma)
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(10_000_000):
        q_next = (1.0 - gamma) * mdp.reward + gamma * (mdp.transition @ q.max(axis=1))
        delta = float(np.max(np.abs(q_next - q)))
        q = q_next
        if delta <= stop:
            break
    greedy_actions = q.argmax(axis=1)
    greedy = np.zeros_like(q)
    greedy[np.arange(mdp.n_states), greedy_actions] = 1.0
    return q, greedy


def _stationary_residual(nu: np.ndarray, p_pi: np.ndarray) -> float:
    return float(np.abs(nu @ p_pi - nu).sum())


def _dense_stationary(p_pi: np.ndarray) -> np.ndarray:
    # Least-squares on the stacked system [P^T - I; 1^T] nu = [0; 1].
    n = p_pi.shape[0]
    a = np.vstack([p_pi.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    nu, *_ = np.linalg.lstsq(a, b, rcond=None)
    nu = np.clip(nu, 0.0, None)
    return nu / nu.sum()


def stationary_dists(mdp: TabularMDP, policy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary state and state-action distributions of ``policy``.

    Damped power iteration with an undamped polish phase; a chain that does
    not settle that way (periodic or slowly mixing) gets the exact S x S
    least-squares solve instead.  Raises ErgodicityError, naming the residual
    reached, when that solve misses the tolerance too.
    """
    pi = check_policy_matrix(mdp, policy)
    p_pi = policy_transition(mdp, pi)
    n = mdp.n_states
    uniform = np.full(n, 1.0 / n)

    nu = uniform.copy()
    for _ in range(50_000):
        nu_next = (1.0 - _DAMPING) * (nu @ p_pi) + _DAMPING * uniform
        if float(np.abs(nu_next - nu).sum()) <= _DAMPING * 1e-3:
            nu = nu_next
            break
        nu = nu_next

    # Undamped polish, geometric for aperiodic chains; each product both tests nu and steps it.
    for _ in range(20_001):
        nu_next = nu @ p_pi
        if float(np.abs(nu_next - nu).sum()) <= 0.5 * _STATIONARY_TOL:
            break
        nu = nu_next
    else:
        nu = _dense_stationary(p_pi)
        residual = _stationary_residual(nu, p_pi)
        if residual > _STATIONARY_TOL:
            raise ErgodicityError(
                f"stationary distribution did not converge: the exact solve reached residual {residual:.3e} "
                f"> {_STATIONARY_TOL} for the given policy (n_states={n}); the induced chain may be reducible"
            )
    nu = np.clip(nu, 0.0, None)
    nu /= nu.sum()
    rho = nu[:, None] * pi
    return nu, rho


def visitation_dist(mdp: TabularMDP, policy: np.ndarray) -> np.ndarray:
    """Discounted state-action occupancy (1-gamma) sum_t gamma^t Pr[s_t, a_t] from the start distribution."""
    pi = check_policy_matrix(mdp, policy)
    p_pi = policy_transition(mdp, pi)
    # d^T (I - gamma P_pi) = (1-gamma) zeta^T
    d = np.linalg.solve(np.eye(mdp.n_states) - mdp.gamma * p_pi.T, (1.0 - mdp.gamma) * mdp.initial_dist)
    return d[:, None] * pi


def objective_J(mdp: TabularMDP, policy: np.ndarray) -> float:
    """Expected normalized return of ``policy`` from the initial distribution."""
    pi = check_policy_matrix(mdp, policy)
    q = exact_q_pi(mdp, pi)
    return float(np.sum(mdp.initial_dist[:, None] * pi * q))


# ---------------------------------------------------------------------------
# Built-in environments
# ---------------------------------------------------------------------------


def chain2() -> TabularMDP:
    """Two-state chain: action 0 ("go") hops to the other state, action 1 ("stay") self-loops.

    Reward is 1 in state 1 regardless of action; the start state is 0; gamma = 0.9.
    """
    p = np.zeros((2, 2, 2))
    p[0, 0, 1] = 1.0  # go
    p[0, 1, 0] = 1.0  # stay
    p[1, 0, 0] = 1.0
    p[1, 1, 1] = 1.0
    r = np.array([[0.0, 0.0], [1.0, 1.0]])
    return TabularMDP(transition=p, reward=r, gamma=_GAMMA, initial_dist=np.array([1.0, 0.0]))


def gridworld5() -> TabularMDP:
    """5x5 gridworld: four moves, slip-in-place probability 0.1, goal at the far corner, gamma = 0.9.

    The goal state pays reward 1 and teleports back to the start, which keeps
    the chain recurrent under any policy.
    """
    size, slip = 5, 0.1
    n_states = size * size
    goal = n_states - 1
    moves = [(-1, 0), (0, 1), (1, 0), (0, -1)]  # up, right, down, left
    p = np.zeros((n_states, 4, n_states))
    r = np.zeros((n_states, 4))
    for s in range(n_states):
        row, col = divmod(s, size)
        for a, (dr, dc) in enumerate(moves):
            if s == goal:
                p[s, a, 0] = 1.0
                r[s, a] = 1.0
                continue
            nr, nc = row + dr, col + dc
            target = s if not (0 <= nr < size and 0 <= nc < size) else nr * size + nc
            p[s, a, target] += 1.0 - slip
            p[s, a, s] += slip
    zeta = np.zeros(n_states)
    zeta[0] = 1.0
    return TabularMDP(transition=p, reward=r, gamma=_GAMMA, initial_dist=zeta)


def random_mdp(n_states: int, n_actions: int, seed: int) -> TabularMDP:
    """Random dense MDP: Dirichlet(1) transition rows, uniform rewards in [0, 1], gamma = 0.9."""
    _check_size(n_states, n_actions)  # before drawing S * A * S transition entries
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    r = rng.uniform(0.0, 1.0, size=(n_states, n_actions))
    zeta = rng.dirichlet(np.ones(n_states))
    return TabularMDP(transition=p, reward=r, gamma=_GAMMA, initial_dist=zeta)


_BUILTIN_RE = re.compile(r"^random\((\d+),(\d+),(\d+)\)$")


def build_mdp(source: str) -> TabularMDP:
    """Resolve an MDP from a builtin name, ``random(S,A,seed)``, or a JSON path."""
    if source == "chain2":
        return chain2()
    if source == "gridworld5":
        return gridworld5()
    match = _BUILTIN_RE.match(source.replace(" ", ""))
    if match:
        n_s, n_a, seed = (int(g) for g in match.groups())
        return random_mdp(n_s, n_a, seed)
    return load_mdp(source)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def mdp_to_json(mdp: TabularMDP) -> dict:
    return {
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "gamma": mdp.gamma,
        "r_max": mdp.r_max,
        "transition": mdp.transition.tolist(),
        "reward": mdp.reward.tolist(),
        "initial_dist": mdp.initial_dist.tolist(),
    }


def mdp_from_json(doc: dict) -> TabularMDP:
    if not isinstance(doc, dict):
        raise ContractViolationError(f"MDP document must be a JSON object, got {type(doc).__name__}")
    required = {"n_states", "n_actions", "gamma", "r_max", "transition", "reward", "initial_dist"}
    missing = required - doc.keys()
    if missing:
        raise ContractViolationError(f"MDP document missing keys: {sorted(missing)}")
    p = np.asarray(doc["transition"], dtype=float)
    expected = (int(doc["n_states"]), int(doc["n_actions"]), int(doc["n_states"]))
    if p.shape != expected:
        raise ContractViolationError(f"transition shape {p.shape} does not match declared {expected}")
    return TabularMDP(
        transition=p,
        reward=np.asarray(doc["reward"], dtype=float),
        gamma=float(doc["gamma"]),
        initial_dist=np.asarray(doc["initial_dist"], dtype=float),
        r_max=float(doc["r_max"]),
    )


def load_mdp(path) -> TabularMDP:
    with open(path) as fh:
        return mdp_from_json(json.load(fh))
