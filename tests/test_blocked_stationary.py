"""``stationary_dists`` tests convergence once per block of power steps; it must return what the per-step loops did.

The reference below is the solve as it was written, one L1 test per power
step, kept inline.  Both run the same steps, so ν, ρ and any
``ErgodicityError`` text must agree bit for bit (``np.array_equal``).  The
chains are random MDPs of up to 30 states, dense, sparse or deterministic
(so periodic and reducible chains occur), under softmax policies of logit
scale 0 to 50; sharp gridworld5 policies, which run all 70,001 power steps
and then fall back to the dense solve; and the periodic and slowly mixing
chains of ``test_mdp.py``.  The block helper itself must stop at exactly its
step limit, return the first pair that passes, and write each in-place step
with the bits of the expressions it replaced, ``(1 - d) * (nu @ p_pi) +
restart`` and ``nu @ p_pi``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sstac import ErgodicityError, TabularMDP, gridworld5, random_mdp, softmax_rows, stationary_dists
from sstac import mdp as mdp_module
from sstac.mdp import _STATIONARY_TOL, _power_until, check_policy_matrix, policy_transition

DAMPING = 1e-6


def reference_stationary(mdp, policy):
    """The solve as written with one convergence test per power step."""
    pi = check_policy_matrix(mdp, policy)
    p_pi = policy_transition(mdp, pi)
    n = mdp.n_states
    uniform = np.full(n, 1.0 / n)

    nu = uniform.copy()
    for _ in range(50_000):
        nu_next = (1.0 - DAMPING) * (nu @ p_pi) + DAMPING * uniform
        if float(np.abs(nu_next - nu).sum()) <= DAMPING * 1e-3:
            nu = nu_next
            break
        nu = nu_next

    for _ in range(20_001):
        nu_next = nu @ p_pi
        if float(np.abs(nu_next - nu).sum()) <= 0.5 * _STATIONARY_TOL:
            break
        nu = nu_next
    else:
        nu = mdp_module._dense_stationary(p_pi)
        residual = mdp_module._stationary_residual(nu, p_pi)
        if residual > _STATIONARY_TOL:
            raise ErgodicityError(
                f"stationary distribution did not converge: the exact solve reached residual {residual:.3e} "
                f"> {_STATIONARY_TOL} for the given policy (n_states={n}); the induced chain may be reducible"
            )
    nu = np.clip(nu, 0.0, None)
    nu /= nu.sum()
    return nu, nu[:, None] * pi


def outcome(solve, mdp, policy):
    try:
        return solve(mdp, policy)
    except ErgodicityError as err:
        return str(err)


def assert_same_outcome(mdp, policy):
    got, expected = outcome(stationary_dists, mdp, policy), outcome(reference_stationary, mdp, policy)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)


def sharp_policy(rng, n_states, n_actions, scale):
    return softmax_rows(scale * rng.standard_normal((n_states, n_actions)))


@st.composite
def chains(draw):
    """A random MDP of up to 30 states, dense, sparse or deterministic, and a softmax policy.

    A sparse MDP keeps each transition entry with probability 1/2 and every row's largest one;
    a deterministic MDP keeps only the largest, so its chains may be periodic or reducible.
    """
    n_states, n_actions = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    keep = draw(st.sampled_from([1.0, 0.5, 0.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mdp = random_mdp(n_states, n_actions, seed=int(rng.integers(2**32)))
    if keep < 1.0:
        p = mdp.transition
        p = np.where((rng.random(p.shape) < keep) | (p == p.max(axis=2, keepdims=True)), p, 0.0)
        mdp = TabularMDP(p / p.sum(axis=2, keepdims=True), mdp.reward, mdp.gamma, mdp.initial_dist)
    return mdp, sharp_policy(rng, n_states, n_actions, draw(st.floats(0.0, 50.0)))


@settings(max_examples=100, deadline=None, database=None)
@given(chains())
def test_blocked_solve_matches_per_step_loops(chain):
    assert_same_outcome(*chain)


@pytest.mark.parametrize("seed", range(3))
def test_sharp_gridworld5_policies_run_every_step_and_match(seed, monkeypatch):
    fallbacks = []
    dense = mdp_module._dense_stationary
    monkeypatch.setattr(mdp_module, "_dense_stationary", lambda p_pi: fallbacks.append(1) or dense(p_pi))
    assert_same_outcome(gridworld5(), sharp_policy(np.random.default_rng(seed), 25, 4, 50.0))
    assert len(fallbacks) == 2  # both solves ran 50,000 + 20,001 steps and fell back


def _single_action_chain(p_pi):
    n = len(p_pi)
    return TabularMDP(p_pi[:, None, :], np.zeros((n, 1)), 0.9, np.eye(n)[0])


def _path_chain(n):
    p_pi = 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
    p_pi[0, 1] = p_pi[-1, -2] = 1.0
    return p_pi


def _birth_death_chain(n, up=1e-4, down=2e-4):
    p_pi = up * np.eye(n, k=1) + down * np.eye(n, k=-1)
    return p_pi + np.diag(1.0 - p_pi.sum(axis=1))


@pytest.mark.parametrize(
    "p_pi", [_path_chain(65), _path_chain(4), _birth_death_chain(65)], ids=["periodic", "periodic-4", "slow"]
)
def test_periodic_and_slowly_mixing_chains_match(p_pi):
    assert_same_outcome(_single_action_chain(p_pi), np.ones((len(p_pi), 1)))


def test_failed_exact_solve_raises_the_same_text(monkeypatch):
    monkeypatch.setattr(mdp_module, "_dense_stationary", lambda p_pi: np.array([1.0, 0.0, 0.0]))
    mdp = _single_action_chain(_path_chain(3))
    assert outcome(stationary_dists, mdp, np.ones((3, 1))) == outcome(reference_stationary, mdp, np.ones((3, 1)))
    with pytest.raises(ErgodicityError, match=r"exact solve reached residual 2\.000e\+00"):
        stationary_dists(mdp, np.ones((3, 1)))


def reference_power_until(nu, step, tol, limit):
    """The block helper as first written, with a ``step`` callable in place of the in-place steps."""
    done, size = 0, mdp_module._BLOCK_FIRST
    while done < limit:
        seq = np.empty((min(size, limit - done) + 1, len(nu)))
        seq[0] = nu
        for i in range(1, len(seq)):
            seq[i] = nu = step(nu)
        passed = np.abs(seq[1:] - seq[:-1]).sum(axis=1) <= tol
        first = int(passed.argmax())
        if passed[first]:
            return seq[first], seq[first + 1]
        done, size = done + len(seq) - 1, min(2 * size, mdp_module._BLOCK_MAX)
    return nu, None


# nu @ COUNTER = [x + 1, 1] for nu = [x, 1]: each power step adds one to the first entry.
COUNTER = np.array([[1.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("limit", [1, 7, 8, 9, 24, 56, 57, 120, 121, 20_001, 50_000])
def test_block_helper_runs_exactly_its_limit(limit):
    nu, after = _power_until(np.array([0.0, 1.0]), COUNTER, 0.5, limit)
    assert after is None and nu.tolist() == [limit, 1.0]


@pytest.mark.parametrize("first_pass", [1, 8, 9, 57, 300])
def test_block_helper_returns_the_first_passing_pair(first_pass):
    # nu_i = 2**-i, so |nu_{i+1} - nu_i| = 2**-(i + 1) first meets tol = 2**-first_pass at i = first_pass - 1.
    nu, after = _power_until(np.ones(1), np.array([[0.5]]), 2.0**-first_pass, 1000)
    assert nu.tolist() == [2.0 ** (1 - first_pass)] and after.tolist() == [2.0**-first_pass]


@settings(max_examples=200, deadline=None, database=None)
@given(
    n=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 50.0),
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-3]),
    limit=st.integers(1, 200),
)
def test_in_place_steps_match_the_step_expressions_byte_for_byte(n, seed, scale, tol, limit):
    rng = np.random.default_rng(seed)
    p_pi = softmax_rows(scale * rng.standard_normal((n, n)))
    p_pi.flags.writeable = False  # as the memo hands it out
    nu = rng.dirichlet(np.ones(n))
    restart = DAMPING * np.full(n, 1.0 / n)
    cases = [
        (_power_until(nu, p_pi, tol, limit, restart=restart), lambda v: (1.0 - DAMPING) * (v @ p_pi) + restart),
        (_power_until(nu, p_pi, tol, limit), lambda v: v @ p_pi),
    ]
    for got, step in cases:
        want = reference_power_until(nu, step, tol, limit)
        assert (want[1] is None) == (got[1] is None)
        assert [g.tobytes() for g in got if g is not None] == [w.tobytes() for w in want if w is not None]
