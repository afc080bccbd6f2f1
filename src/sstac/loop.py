"""The single-timescale iteration shared by the linear and neural actor-critic:
one actor and one critic step per k, scored by the exact oracles."""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import __version__, mdp as mdp_mod
from .diagnostics import error_decomposition, run_optimum
from .errors import BALL_SLACK, ParameterError, SstacError
from .policy import softmax_rows
from .sampling import RNG_ID
from .trace import RunTrace


# The run settings a config and a driver share: type, lower bound, and whether the bound is exclusive.
SETTINGS = {
    "K": (int, 1, False), "N": (int, 1, False), "N_a": (int, 1, False), "N_c": (int, 1, False),
    "m": (int, 1, False), "H": (int, 1, False), "seed": (int, 0, False),
    "R": (float, 0.0, False), "beta": (float, 0.0, True), "ridge": (float, 0.0, False),
}


def check_setting(key: str, value, error: type = ParameterError):
    """``value`` as an int or float, as SETTINGS types ``key``, or ``error`` naming the key when outside its range.

    An integer setting takes any integral value up to 2**53 but a bool, so that a float such as
    sqrt(K) or N_a**-0.5 reads its exact value; a float setting takes any finite real but a bool.
    """
    kind, minimum, strict = SETTINGS[key]
    if kind is int:
        integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        bits = int(value).bit_length() if integral else 0  # no repr past 4,300 digits, so a long one shows its size
        shown = f"a {'negative ' if value < 0 else ''}{bits}-bit integer" if bits > 64 else repr(value)
        if not integral or value < minimum:
            raise error(f"{key} must be an integer >= {minimum}, got {shown}")
        if value > 2**53:
            raise error(f"{key} must be <= 2**53, got {shown}")
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{key} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf if value > 0 else -math.inf
    if not value >= minimum or (strict and value <= minimum):  # NaN fails the first test
        raise error(f"{key} must be {'>' if strict else '>='} {minimum}, got {value}")
    if math.isinf(value):  # JSON's Infinity token parses too
        raise error(f"{key} must be finite, got {value}")
    return value


def run_settings(K, beta, R, default_R: float, **others) -> dict:
    """The ``params`` entries K, beta (sqrt(K) if None) and R (``default_R`` if None) every driver writes,
    then ``others`` keyed by their SETTINGS names, each checked."""
    K = check_setting("K", K)
    beta = check_setting("beta", math.sqrt(K) if beta is None else beta)
    settings = {"K": K, "beta": beta, "R": check_setting("R", default_R if R is None else R)}
    return settings | {key: check_setting(key, value) for key, value in others.items()}


def run_single_timescale(
    mdp: mdp_mod.TabularMDP, actor_fit, critic_fit, *, q_0: np.ndarray, features, params: dict
) -> RunTrace:
    """Run one actor and one critic update for k = 0 .. ``params["K"]`` and score each against the exact oracles.

    The run starts from the uniform pi_0 (tau_0^{-1} = 0) and the critic
    table ``q_0``.  ``run_optimum`` solves the optimum once, before k = 0, and ``error_decomposition``
    scores each update against it: the gap is E_rho*[Q* - Q^{pi_{k+1}}] under rho* = nu* pi*.

    ``actor_fit(k, pi_k, q_k)`` makes the actor update and returns its (S, A) energy table f_{k+1}.
    The loop forms pi_{k+1} = softmax(tau_{k+1}^{-1} f_{k+1}) with tau_{k+1}^{-1} = (k+1) / beta and
    its stationary state-action distribution rho_{k+1}; ``critic_fit(pi_next, rho_next, q_k)`` then
    makes the critic update and returns ``(q_next, logged)``: the new critic table and a dict of the
    driver's own trace columns.  An ``actor_norm`` or ``critic_norm`` (distance to
    the ball centre) above ``params["R"]``, beyond BALL_SLACK and 1e-9 for the
    round-off of averaged iterates, raises ``SstacError``.  The trace columns are ``k``, the columns
    of ``error_decomposition`` with ``cum_regret`` after ``gap``, ``inv_tau``, then the keys of ``logged``.
    An ``SstacError`` raised inside an iteration gains "at k=<k>: " in front
    of its message; its class and attributes are kept.  The manifest holds
    what every run shares: ``rng_id``, ``version`` and the driver's ``params`` plus the MDP's ``gamma``.
    """
    pi_k, q_k = softmax_rows(np.zeros((mdp.n_states, mdp.n_actions))), q_0
    run = run_optimum(mdp)

    K, beta, R = params["K"], params["beta"], params["R"]
    ball_bound = R * (1.0 + BALL_SLACK) + 1e-9
    rows: list[list[float]] = []
    cum_regret = 0.0
    for k in range(K + 1):
        try:
            inv_tau = (k + 1) / beta
            pi_next = softmax_rows(inv_tau * actor_fit(k, pi_k, q_k))
            _, rho_next = mdp_mod.stationary_dists(mdp, pi_next)
            q_next, logged = critic_fit(pi_next, rho_next, q_k)
            for name in ("actor_norm", "critic_norm"):
                if not logged[name] <= ball_bound:
                    raise SstacError(f"{name} {logged[name]!r} left the projection ball of radius {R!r}")
            diag = error_decomposition(
                mdp,
                run,
                pi_k=pi_k,
                pi_next=pi_next,
                q_omega_k=q_k,
                q_omega_next=q_next,
                rho_next=rho_next,
                beta=beta,
                features=features,
            )
        except SstacError as exc:
            exc.args = (f"at k={k}: {exc}",)
            raise
        cum_regret += diag["gap"]
        # "gap" keeps its place when diag repeats it, so cum_regret follows it.
        row = {"k": k, "gap": diag["gap"], "cum_regret": cum_regret, **diag, "inv_tau": inv_tau, **logged}
        rows.append(list(row.values()))
        pi_k, q_k = pi_next, q_next

    manifest = {"rng_id": RNG_ID, "version": __version__, "params": {**params, "gamma": mdp.gamma}}
    return RunTrace(manifest=manifest, columns=list(row), rows=rows)
