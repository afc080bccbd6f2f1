"""Finite discounted MDPs and their exact evaluation / improvement oracles.

All value functions here use the normalized return convention
``Q(s, a) = (1 - gamma) * E[sum_t gamma^t r_t]``, so every Q-table is bounded
by ``r_max`` regardless of the discount.  Operators are exact: expectations
are sums over the finite state-action space and policy evaluation is an S×S
solve for V^π.
"""

from __future__ import annotations

import json
import numbers
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolationError, ErgodicityError, check_finite, check_probabilities, check_shape

# Desk-scale cap: everything is dense, so keep tables small.
MAX_STATE_ACTIONS = 4096

# Stationary-distribution solve: residual target, weight of the uniform restart mixed into each
# power step, and the first and largest number of power steps between two convergence tests.
_STATIONARY_TOL = 1e-10
_DAMPING = 1e-6
_BLOCK_FIRST, _BLOCK_MAX = 8, 64
_TABLE_BLOCK = 1 << 16  # next-state CDF entries that one block of step_table's build sorts
_MAX_SWEEPS = 10_000_000  # value-iteration sweeps optimal_q makes before it gives up

# Discount of every builtin MDP.
_GAMMA = 0.9


def _check_size(n_states: int, n_actions: int) -> None:
    if n_states < 1 or n_actions < 1:
        raise ContractViolationError(f"an MDP needs n_states >= 1 and n_actions >= 1, got {n_states} and {n_actions}")
    if n_states * n_actions > MAX_STATE_ACTIONS:
        raise ContractViolationError(f"n_states * n_actions = {n_states * n_actions} exceeds cap {MAX_STATE_ACTIONS}")


@dataclass(frozen=True, eq=False)
class TabularMDP:
    """A finite discounted MDP (states, actions, kernel, rewards, discount, start).

    The kernel is stored as a private read-only copy, so what is derived from it can be kept and
    never goes stale: ``step_table``, and a memo of the policies that passed ``check_policy_matrix``
    and of the last P_pi built.  ``dataclasses.replace`` starts both afresh.
    """

    transition: np.ndarray  # (S, A, S), rows are next-state distributions
    reward: np.ndarray  # (S, A)
    gamma: float
    initial_dist: np.ndarray  # (S,)
    r_max: float = 1.0
    # Bytes of the last three policies that passed the probability check, least recently used first, and the bytes
    # and read-only P_pi of the last policy whose P_pi was built.  Each update assigns a new tuple, so an update lost
    # to another thread only repeats work.
    _policy_memo: tuple = field(default=((), (None, None)), init=False, repr=False)

    def __post_init__(self):
        p = np.array(self.transition, dtype=float)  # a private, read-only copy keeps the cached step table in step
        p.flags.writeable = False
        object.__setattr__(self, "transition", p)
        if p.ndim != 3 or p.shape[0] != p.shape[2]:
            raise ContractViolationError(f"transition must have shape (S, A, S), got {p.shape}")
        n_states, n_actions, _ = p.shape
        _check_size(n_states, n_actions)
        r = check_shape("reward", self.reward, (n_states, n_actions))
        zeta = check_shape("initial_dist", self.initial_dist, (n_states,))
        object.__setattr__(self, "reward", r)
        object.__setattr__(self, "initial_dist", zeta)
        check_probabilities("transition", p)
        check_probabilities("initial_dist", zeta)
        check_finite("reward", r)  # NaN passes the r_max bound below
        if not np.isfinite(self.r_max):
            raise ContractViolationError(f"r_max must be finite, got {self.r_max!r}")
        if not (0.0 <= self.gamma < 1.0):
            raise ContractViolationError(f"gamma must lie in [0, 1), got {self.gamma}")
        if np.any(np.abs(r) > self.r_max + 1e-12):
            raise ContractViolationError(f"|reward| exceeds declared r_max={self.r_max}")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]

    @cached_property
    def step_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Next-state CDFs c = cumsum(transition, axis=2) as step functions, built on first use, read-only.

        Row r = s * n_actions + a: ``values[:, r]`` lists the distinct entries of c[s, a] in increasing
        order, inf-padded; ``counts[r, j]`` counts its entries <= values[j - 1, r] (counts[r, 0] = 0),
        clipped to S - 1, in the smallest integer type that holds S - 1.  The draw of s' for u, in any
        row order, is then counts[r, #(values[:, r] <= u)].
        """
        n_states, n_actions = self.n_states, self.n_actions
        states = max(1, _TABLE_BLOCK // (n_states * n_actions))  # built in blocks of states, to bound its peak

        def sorted_rows(lo: int):  # the sorted CDF rows of one block, and where each run of equal entries ends
            cum = np.cumsum(self.transition[lo : lo + states], axis=2).reshape(-1, n_states)
            cum.sort(axis=1)
            return cum, np.append(cum[:, 1:] != cum[:, :-1], np.ones((len(cum), 1), bool), axis=1)

        starts = range(0, n_states, states)
        width = np.concatenate([sorted_rows(lo)[1].sum(axis=1) for lo in starts])
        values = np.full((width.max(), len(width)), np.inf)
        counts = np.zeros((len(width), len(values) + 1), dtype=np.min_scalar_type(n_states - 1))
        clipped = np.minimum(np.arange(1, n_states + 1), n_states - 1)
        for lo in starts:
            cum, last = sorted_rows(lo)
            rows = slice(lo * n_actions, lo * n_actions + len(cum))
            filled = np.arange(1.0, len(values) + 1) <= width[rows, None]  # boolean masks fill rows in order
            values.T[rows][filled] = cum[last]
            counts[rows, 1:][filled] = np.broadcast_to(clipped, cum.shape)[last]
        values.flags.writeable = counts.flags.writeable = False
        return values, counts


def check_policy_matrix(mdp: TabularMDP, policy: np.ndarray) -> np.ndarray:
    """Validate that ``policy`` is an (S, A) row-stochastic matrix for ``mdp``.

    The probability check runs once per distinct policy per MDP: ``mdp`` remembers the bytes of the last three
    policies that passed it and compares them.  A policy edited in place has new bytes and is checked again.
    """
    return _checked_kernel(mdp, policy, build=False)[0]


def _checked_kernel(mdp: TabularMDP, policy: np.ndarray, build: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The checked policy and, if ``build``, its read-only P_pi, built once for the last policy that needed one."""
    pi = check_shape("policy", policy, (mdp.n_states, mdp.n_actions))
    key, (recent, (built, p_pi)) = pi.tobytes(), mdp._policy_memo
    if key not in recent:
        check_probabilities("policy", pi)
    if build and key != built:
        built, p_pi = key, policy_transition(mdp, pi)
        p_pi.flags.writeable = False
    if recent[-1:] != (key,) or built is key:  # a new order, or a new P_pi
        recent = tuple(known for known in recent if known != key)[-2:] + (key,)
        object.__setattr__(mdp, "_policy_memo", (recent, (built, p_pi)))
    return pi, p_pi


def apply_P_pi(mdp: TabularMDP, policy: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Expected next-state-action value under ``policy``.

    result[s, a] = sum_{s'} P[s, a, s'] sum_{a'} policy[s', a'] q[s', a'].
    """
    pi = check_policy_matrix(mdp, policy)
    q = check_shape("q", q, (mdp.n_states, mdp.n_actions))
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
    pi, p_pi = _checked_kernel(mdp, policy)
    r_pi = (pi * mdp.reward).sum(axis=1)
    v = np.linalg.solve(np.eye(mdp.n_states) - mdp.gamma * p_pi, (1.0 - mdp.gamma) * r_pi)
    return (1.0 - mdp.gamma) * mdp.reward + mdp.gamma * (mdp.transition @ v)


def optimal_q(mdp: TabularMDP) -> tuple[np.ndarray, np.ndarray]:
    """Optimal Q-table and a greedy deterministic policy (lowest action index on ties).

    Value iteration on the normalized optimality operator, stopped when the sup-norm change is below
    ``1e-12 * (1 - gamma) / (2 gamma)``; ContractViolationError when _MAX_SWEEPS sweeps do not get there.
    """
    gamma, tol = mdp.gamma, 1e-12
    stop = tol if gamma == 0.0 else tol * (1.0 - gamma) / (2.0 * gamma)
    base, q = (1.0 - gamma) * mdp.reward, np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(_MAX_SWEEPS):
        q_next = base + gamma * (mdp.transition @ q.max(axis=1))
        delta = float(np.abs(q_next - q).max())
        q = q_next
        if delta <= stop:
            break
    else:
        raise ContractViolationError(
            f"value iteration at gamma={gamma!r} did not converge in {_MAX_SWEEPS} sweeps: "
            f"the last sup-norm change {delta:.3e} is above the stop threshold {stop:.3e}"
        )
    return q, np.eye(mdp.n_actions)[q.argmax(axis=1)]  # greedy: one-hot rows


def _power_until(nu: np.ndarray, p_pi: np.ndarray, tol: float, limit: int, restart=None):
    """The first (nu_i, nu_{i+1}) with |nu_{i+1} - nu_i|_1 <= tol, or (nu_limit, None), of the power steps
    nu_{i+1} = nu_i P_pi, or (1 - _DAMPING) nu_i P_pi + restart when a ``restart`` is given.

    Steps run in blocks that double from _BLOCK_FIRST to _BLOCK_MAX, each tested in one pass.  A step is
    written in place into its own row of the block, with the float operations of the expression above.
    """
    keep = np.full(len(nu), 1.0 - _DAMPING)  # (1 - d) * x has the bits of x * (1 - d)
    dot, multiply, add = np.dot, np.multiply, np.add  # local names: the loop runs thousands of steps
    done, size = 0, _BLOCK_FIRST
    while done < limit:
        seq = np.empty((min(size, limit - done) + 1, len(nu)))
        seq[0] = nu
        nu = seq[0]
        for row in seq[1:]:
            dot(nu, p_pi, out=row)
            if restart is not None:
                multiply(row, keep, out=row)
                add(row, restart, out=row)
            nu = row
        passed = np.abs(seq[1:] - seq[:-1]).sum(axis=1) <= tol
        first = int(passed.argmax())
        if passed[first]:
            return seq[first], seq[first + 1]
        done, size = done + len(seq) - 1, min(2 * size, _BLOCK_MAX)
    return nu, None


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
    pi, p_pi = _checked_kernel(mdp, policy)
    n = mdp.n_states
    uniform = np.full(n, 1.0 / n)

    before, after = _power_until(uniform, p_pi, _DAMPING * 1e-3, 50_000, restart=_DAMPING * uniform)
    # Undamped polish, geometric for aperiodic chains; it keeps the iterate that passed the test.
    nu, after = _power_until(before if after is None else after, p_pi, 0.5 * _STATIONARY_TOL, 20_001)
    if after is None:
        nu = _dense_stationary(p_pi)
        residual = float(np.abs(nu @ p_pi - nu).sum())
        if residual > _STATIONARY_TOL:
            raise ErgodicityError(
                f"stationary distribution did not converge: the exact solve reached residual {residual:.3e} "
                f"> {_STATIONARY_TOL} for the given policy (n_states={n}); the induced chain may be reducible"
            )
    nu = np.clip(nu, 0.0, None)
    nu /= nu.sum()
    return nu, nu[:, None] * pi


def visitation_dist(mdp: TabularMDP, policy: np.ndarray) -> np.ndarray:
    """Discounted state-action occupancy (1-gamma) sum_t gamma^t Pr[s_t, a_t] from the start distribution."""
    pi, p_pi = _checked_kernel(mdp, policy)
    # d^T (I - gamma P_pi) = (1-gamma) zeta^T
    d = np.linalg.solve(np.eye(mdp.n_states) - mdp.gamma * p_pi.T, (1.0 - mdp.gamma) * mdp.initial_dist)
    return d[:, None] * pi


def objective_J(mdp: TabularMDP, policy: np.ndarray) -> float:
    """Expected normalized return of ``policy`` from the initial distribution."""
    q = exact_q_pi(mdp, policy)  # checks the policy
    return float(np.sum(mdp.initial_dist[:, None] * policy * q))


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


def _json_number(key: str, value, kind=numbers.Real):
    """``value`` if it is a ``kind`` and not a bool, else ContractViolationError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a number"
        raise ContractViolationError(f"{key} must be {noun}, got {value!r}")
    return value


def _json_table(doc: dict, key: str) -> np.ndarray:
    """``doc[key]`` as a float array, once each entry has passed ``_json_number``."""
    table = np.asarray(doc[key], dtype=object)
    for index, value in np.ndenumerate(table):
        _json_number(f"{key} entry {index}" if index else key, value)
    return table.astype(float)


def mdp_from_json(doc: dict) -> TabularMDP:
    if not isinstance(doc, dict):
        raise ContractViolationError(f"MDP document must be a JSON object, got {type(doc).__name__}")
    required = {"n_states", "n_actions", "gamma", "r_max", "transition", "reward", "initial_dist"}
    missing = required - doc.keys()
    if missing:
        raise ContractViolationError(f"MDP document missing keys: {sorted(missing)}")
    n_states, n_actions = (_json_number(key, doc[key], numbers.Integral) for key in ("n_states", "n_actions"))
    p = _json_table(doc, "transition")
    expected = (n_states, n_actions, n_states)
    if p.shape != expected:
        raise ContractViolationError(f"transition shape {p.shape} does not match declared {expected}")
    return TabularMDP(
        transition=p,
        reward=_json_table(doc, "reward"),
        gamma=float(_json_number("gamma", doc["gamma"])),
        initial_dist=_json_table(doc, "initial_dist"),
        r_max=float(_json_number("r_max", doc["r_max"])),
    )


def load_mdp(path) -> TabularMDP:
    with open(path) as fh:
        return mdp_from_json(json.load(fh))
