import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sstac import (
    ContractViolationError,
    ErgodicityError,
    TabularMDP,
    apply_P_pi,
    bellman_eval,
    build_mdp,
    chain2,
    exact_q_pi,
    objective_J,
    optimal_q,
    random_mdp,
    softmax_rows,
    stationary_dists,
    visitation_dist,
)
from sstac import mdp as mdp_module
from sstac.mdp import check_policy_matrix, load_mdp, mdp_from_json
from sstac.sampling import sample_sa

from conftest import mdp_doc, random_policy

ALWAYS_GO = np.array([[1.0, 0.0], [1.0, 0.0]])
ALWAYS_STAY = np.array([[0.0, 1.0], [0.0, 1.0]])


class TestConstruction:
    def test_rejects_non_stochastic_transition(self):
        p = np.zeros((2, 1, 2))
        p[0, 0, 0] = 0.5  # row sums to 0.5
        p[1, 0, 1] = 1.0
        with pytest.raises(ContractViolationError, match=r"^transition row \(0, 0\) sums to 0\.5, expected 1$"):
            TabularMDP(transition=p, reward=np.zeros((2, 1)), gamma=0.9, initial_dist=[1.0, 0.0])

    def test_rejects_bad_initial_dist(self):
        p = np.zeros((2, 1, 2))
        p[:, 0, 0] = 1.0
        with pytest.raises(ContractViolationError, match=r"^initial_dist sums to 1\.29+8, expected 1$"):
            TabularMDP(transition=p, reward=np.zeros((2, 1)), gamma=0.9, initial_dist=[0.7, 0.6])

    def test_rejects_reward_above_r_max(self):
        p = np.zeros((1, 1, 1))
        p[0, 0, 0] = 1.0
        with pytest.raises(ContractViolationError, match="r_max"):
            TabularMDP(transition=p, reward=[[2.0]], gamma=0.5, initial_dist=[1.0], r_max=1.0)

    def test_rejects_gamma_one(self):
        p = np.ones((1, 1, 1))
        with pytest.raises(ContractViolationError, match="gamma"):
            TabularMDP(transition=p, reward=[[0.0]], gamma=1.0, initial_dist=[1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "table, index",
        [("transition", (1, 0, 1)), ("reward", (0, 1)), ("initial_dist", (1,))],
    )
    def test_rejects_non_finite_entry(self, chain, table, index, bad):
        # NaN fails every comparison, so without this check it slips past the
        # stochasticity and r_max invariants and hangs value iteration.
        fields = {name: getattr(chain, name).copy() for name in ("transition", "reward", "initial_dist")}
        fields[table][index] = bad
        with pytest.raises(ContractViolationError, match=re.escape(f"{table} entry {index} is {bad}")):
            TabularMDP(gamma=0.9, **fields)

    def test_rejects_empty_table(self):
        with pytest.raises(ContractViolationError, match=r"n_states >= 1 and n_actions >= 1, got 0 and 2"):
            TabularMDP(transition=np.zeros((0, 2, 0)), reward=np.zeros((0, 2)), gamma=0.9, initial_dist=[])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_r_max(self, chain, bad):
        with pytest.raises(ContractViolationError, match="r_max must be finite"):
            TabularMDP(chain.transition, chain.reward, 0.9, chain.initial_dist, r_max=bad)


class TestApplyPPi:
    def test_constant_table(self, mdp5):
        rng = np.random.default_rng(1)
        pi = random_policy(rng, 5, 3)
        out = apply_P_pi(mdp5, pi, np.full((5, 3), -2.5))
        np.testing.assert_allclose(out, -2.5)

    def test_chain2_indicator(self, chain):
        g = np.zeros((2, 2))
        g[1, 0] = 1.0  # indicator of (1, go)
        out = apply_P_pi(chain, ALWAYS_GO, g)
        assert out[0, 0] == 1.0

    def test_matches_triple_loop_oracle(self, mdp5):
        rng = np.random.default_rng(2)
        pi = random_policy(rng, 5, 3)
        g = rng.standard_normal((5, 3))
        out = apply_P_pi(mdp5, pi, g)
        for s in range(5):
            for a in range(3):
                expected = sum(
                    mdp5.transition[s, a, t] * pi[t, b] * g[t, b] for t in range(5) for b in range(3)
                )
                assert abs(out[s, a] - expected) < 1e-14

    def test_rejects_non_stochastic_policy(self, chain):
        with pytest.raises(ContractViolationError):
            apply_P_pi(chain, np.array([[0.5, 0.2], [0.5, 0.5]]), np.zeros((2, 2)))


class TestBellmanEval:
    def test_constant_reward_fixed_point(self):
        p = np.ones((1, 1, 1))
        m = TabularMDP(transition=p, reward=[[1.0]], gamma=0.5, initial_dist=[1.0])
        out = bellman_eval(m, np.ones((1, 1)), np.ones((1, 1)))
        np.testing.assert_allclose(out, 1.0)

    def test_zero_input(self, mdp5):
        rng = np.random.default_rng(3)
        pi = random_policy(rng, 5, 3)
        out = bellman_eval(mdp5, pi, np.zeros((5, 3)))
        np.testing.assert_allclose(out, (1 - mdp5.gamma) * mdp5.reward)

    @pytest.mark.parametrize("kind", ["softmax", "deterministic"])
    @pytest.mark.parametrize("source", ["chain2", "gridworld5", "random(16,4,7)", "random(64,8,0)"])
    def test_exact_q_is_fixed_point(self, source, kind):
        m = build_mdp(source)
        rng = np.random.default_rng(5)
        if kind == "softmax":
            pi = softmax_rows(2.0 * rng.standard_normal((m.n_states, m.n_actions)))
        else:
            pi = np.eye(m.n_actions)[rng.integers(0, m.n_actions, m.n_states)]
        q = exact_q_pi(m, pi)
        np.testing.assert_allclose(bellman_eval(m, pi, q), q, rtol=0, atol=1e-12)


class TestExactQPi:
    def test_constant_reward_gives_constant_q(self):
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(4), size=(4, 2))
        m = TabularMDP(transition=p, reward=np.full((4, 2), 0.3), gamma=0.8, initial_dist=np.full(4, 0.25))
        pi = random_policy(rng, 4, 2)
        np.testing.assert_allclose(exact_q_pi(m, pi), 0.3, atol=1e-12)

    def test_chain2_always_go_regression(self, chain):
        # Frozen from the 4x4 linear solve: Q(0,go) = 9/19, Q(1,go) = 10/19.
        q = exact_q_pi(chain, ALWAYS_GO)
        assert abs(q[0, 0] - 9.0 / 19.0) < 1e-12
        assert abs(q[1, 0] - 10.0 / 19.0) < 1e-12
        assert abs(q[0, 1] - 0.9 * 9.0 / 19.0) < 1e-12
        assert abs(q[1, 1] - (0.1 + 0.9 * 10.0 / 19.0)) < 1e-12

    def test_matches_monte_carlo_rollouts(self, chain):
        # Vectorized rollouts: (1-gamma) sum_t gamma^t r_t, T=500, 1e5 episodes.
        pi = np.array([[0.7, 0.3], [0.4, 0.6]])
        q = exact_q_pi(chain, pi)
        rng = np.random.default_rng(5)
        n, horizon = 100_000, 500
        s0, a0 = 0, 0
        s = np.full(n, s0)
        a = np.full(n, a0)
        returns = np.zeros(n)
        discount = 1.0
        # chain2 transitions are deterministic given (s, a)
        next_state = np.array([[1, 0], [0, 1]])
        for t in range(horizon):
            returns += discount * chain.reward[s, a]
            discount *= chain.gamma
            s = next_state[s, a]
            a = (rng.random(n) > pi[s, 0]).astype(int)
        returns *= 1.0 - chain.gamma
        se = returns.std(ddof=1) / np.sqrt(n)
        assert abs(returns.mean() - q[s0, a0]) < 3 * se


class TestOptimalQ:
    def test_single_state_two_actions(self):
        p = np.ones((1, 2, 1))
        m = TabularMDP(transition=p, reward=[[0.0, 1.0]], gamma=0.5, initial_dist=[1.0])
        q, greedy = optimal_q(m)
        # V* = 1 (always take the rewarding action)
        np.testing.assert_allclose(q[0], [(1 - 0.5) * 0.0 + 0.5, (1 - 0.5) * 1.0 + 0.5], atol=1e-10)
        assert greedy[0, 1] == 1.0

    def test_chain2_greedy_by_enumeration(self, chain):
        # Brute force over all 4 deterministic policies.
        best_q = None
        for a0 in range(2):
            for a1 in range(2):
                pi = np.zeros((2, 2))
                pi[0, a0] = 1.0
                pi[1, a1] = 1.0
                q = exact_q_pi(chain, pi)
                if best_q is None:
                    best_q = q
                else:
                    best_q = np.maximum(best_q, q)
        q_star, greedy = optimal_q(chain)
        np.testing.assert_allclose(q_star, best_q, atol=1e-9)
        assert greedy[0, 0] == 1.0  # go in state 0
        assert greedy[1, 1] == 1.0  # stay in state 1

    def test_tie_breaks_to_lowest_index(self):
        p = np.ones((1, 3, 1))
        m = TabularMDP(transition=p, reward=[[0.5, 0.5, 0.5]], gamma=0.9, initial_dist=[1.0])
        _, greedy = optimal_q(m)
        np.testing.assert_array_equal(greedy, [[1.0, 0.0, 0.0]])

    def test_greedy_value_matches_q_star(self, mdp5):
        q_star, greedy = optimal_q(mdp5)
        np.testing.assert_allclose(exact_q_pi(mdp5, greedy), q_star, atol=1e-10)


class TestStationaryDists:
    def test_doubly_stochastic_gives_uniform(self):
        # Symmetric random-walk kernel: both rows average to uniform.
        p = np.zeros((2, 1, 2))
        p[0, 0] = [0.3, 0.7]
        p[1, 0] = [0.7, 0.3]
        m = TabularMDP(transition=p, reward=np.zeros((2, 1)), gamma=0.9, initial_dist=[1.0, 0.0])
        nu, rho = stationary_dists(m, np.ones((2, 1)))
        np.testing.assert_allclose(nu, 0.5, atol=1e-10)
        np.testing.assert_allclose(rho[:, 0], nu)

    def test_chain2_period_two_cycle(self, chain):
        nu, _ = stationary_dists(chain, ALWAYS_GO)
        np.testing.assert_allclose(nu, [0.5, 0.5], atol=1e-10)

    def test_matches_null_space_oracle(self):
        m = random_mdp(6, 2, seed=21)
        rng = np.random.default_rng(22)
        pi = random_policy(rng, 6, 2)
        nu, _ = stationary_dists(m, pi)
        # Independent oracle: replace one row of (P^T - I) with the normalization.
        p_pi = np.einsum("sa,sat->st", pi, m.transition)
        a = p_pi.T - np.eye(6)
        a[-1] = 1.0
        b = np.zeros(6)
        b[-1] = 1.0
        oracle = np.linalg.solve(a, b)
        np.testing.assert_allclose(nu, oracle, atol=1e-8)

    def test_residual_postcondition(self, mdp5):
        rng = np.random.default_rng(23)
        for _ in range(20):
            pi = random_policy(rng, 5, 3)
            nu, _ = stationary_dists(mdp5, pi)
            p_pi = np.einsum("sa,sat->st", pi, mdp5.transition)
            assert np.abs(nu @ p_pi - nu).sum() <= 1e-10

    @staticmethod
    def _single_action_chain(p_pi):
        n = len(p_pi)
        zeta = np.zeros(n)
        zeta[0] = 1.0
        return TabularMDP(transition=p_pi[:, None, :], reward=np.zeros((n, 1)), gamma=0.9, initial_dist=zeta)

    @staticmethod
    def _path_chain(n):
        # Irreducible period-2 walk on an n-state path.
        p_pi = 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
        p_pi[0, 1] = p_pi[-1, -2] = 1.0
        return p_pi

    def test_slowly_mixing_chain_is_solved(self):
        # 65-state birth-death chain with tiny transition rates: power iteration
        # does not settle in its budget, so the exact solve answers.
        n, up, down = 65, 1e-4, 2e-4
        p_pi = up * np.eye(n, k=1) + down * np.eye(n, k=-1)
        p_pi += np.diag(1.0 - p_pi.sum(axis=1))
        nu, rho = stationary_dists(self._single_action_chain(p_pi), np.ones((n, 1)))
        assert np.abs(nu @ p_pi - nu).sum() <= 1e-10
        # Detailed balance: nu_{i+1} / nu_i = up / down.
        ratio = up / down
        np.testing.assert_allclose(nu, ratio ** np.arange(n) * (1 - ratio) / (1 - ratio**n), atol=1e-10)
        np.testing.assert_array_equal(rho[:, 0], nu)

    def test_periodic_path_chain_is_solved(self):
        # The iterates oscillate forever, so the exact solve answers.
        n = 65
        p_pi = self._path_chain(n)
        nu, _ = stationary_dists(self._single_action_chain(p_pi), np.ones((n, 1)))
        assert np.abs(nu @ p_pi - nu).sum() <= 1e-10
        expected = np.full(n, 1.0 / (n - 1))
        expected[[0, -1]] = 0.5 / (n - 1)
        np.testing.assert_allclose(nu, expected, atol=1e-12)

    def test_failed_exact_solve_names_its_residual(self, monkeypatch):
        monkeypatch.setattr(mdp_module, "_dense_stationary", lambda p_pi: np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ErgodicityError, match=r"exact solve reached residual 2\.000e\+00"):
            stationary_dists(self._single_action_chain(self._path_chain(3)), np.ones((3, 1)))


class TestVisitationDist:
    def test_gamma_zero_limit(self):
        m = dataclasses.replace(random_mdp(4, 2, seed=31), gamma=1e-12)
        rng = np.random.default_rng(32)
        pi = random_policy(rng, 4, 2)
        rho = visitation_dist(m, pi)
        np.testing.assert_allclose(rho, m.initial_dist[:, None] * pi, atol=1e-9)

    def test_single_state(self):
        p = np.ones((1, 2, 1))
        m = TabularMDP(transition=p, reward=np.zeros((1, 2)), gamma=0.7, initial_dist=[1.0])
        rho = visitation_dist(m, np.array([[0.3, 0.7]]))
        np.testing.assert_allclose(rho, [[0.3, 0.7]], atol=1e-12)

    def test_chain2_truncated_sum_oracle(self, chain):
        rho = visitation_dist(chain, ALWAYS_GO)
        # (1-gamma) sum_{t<=2000} gamma^t Pr[s_t=s, a_t=a] by forward propagation
        dist = chain.initial_dist[:, None] * ALWAYS_GO
        acc = np.zeros((2, 2))
        w = 1.0 - chain.gamma
        for _ in range(2001):
            acc += w * dist
            marg = np.einsum("sa,sat->t", dist, chain.transition)
            dist = marg[:, None] * ALWAYS_GO
            w *= chain.gamma
        np.testing.assert_allclose(rho, acc, atol=1e-9)
        assert abs(rho.sum() - 1.0) < 1e-10


class TestObjective:
    def test_constant_reward(self):
        rng = np.random.default_rng(41)
        p = rng.dirichlet(np.ones(3), size=(3, 2))
        m = TabularMDP(transition=p, reward=np.full((3, 2), 0.6), gamma=0.9, initial_dist=np.full(3, 1 / 3))
        for _ in range(5):
            assert abs(objective_J(m, random_policy(rng, 3, 2)) - 0.6) < 1e-10

    def test_optimal_dominates_random_policies(self, mdp5):
        _, greedy = optimal_q(mdp5)
        j_star = objective_J(mdp5, greedy)
        rng = np.random.default_rng(42)
        for _ in range(200):
            assert j_star >= objective_J(mdp5, random_policy(rng, 5, 3)) - 1e-10

    def test_chain2_go_beats_stay(self, chain):
        assert objective_J(chain, ALWAYS_GO) > objective_J(chain, ALWAYS_STAY)


mdp_seeds = st.integers(0, (1 << 30) - 1)


def _normalize_rows(weights):
    weights = np.where(weights.sum(axis=1, keepdims=True) > 0.0, weights, 1.0)  # an all-zero row becomes uniform
    return weights / weights.sum(axis=1, keepdims=True)


def policies(n_states, n_actions):
    """Row-stochastic (S, A) matrices, deterministic rows and zero entries included."""
    weights = arrays(np.float64, (n_states, n_actions), elements=st.floats(0.0, 1.0, allow_subnormal=False))
    return weights.map(_normalize_rows)


def q_tables(n_states, n_actions):
    return arrays(np.float64, (n_states, n_actions), elements=st.floats(-4.0, 4.0))


class TestProperties:
    @settings(max_examples=200, deadline=None, database=None)
    @given(mdp_seeds, policies(4, 3), q_tables(4, 3), q_tables(4, 3))
    def test_gamma_contraction(self, seed, pi, q1, q2):
        m = random_mdp(4, 3, seed=seed)
        lhs = np.max(np.abs(bellman_eval(m, pi, q1) - bellman_eval(m, pi, q2)))
        assert lhs <= m.gamma * np.max(np.abs(q1 - q2)) + 1e-12

    @settings(max_examples=50, deadline=None, database=None)
    @given(mdp_seeds, policies(4, 2))
    def test_q_bounded_by_r_max(self, seed, pi):
        m = random_mdp(4, 2, seed=seed)
        q = exact_q_pi(m, pi)
        assert np.all(np.abs(q) <= m.r_max + 1e-12)

    @settings(max_examples=50, deadline=None, database=None)
    @given(mdp_seeds, policies(5, 3))
    def test_optimality_dominance(self, seed, pi):
        m = random_mdp(5, 3, seed=seed)
        q_star, _ = optimal_q(m)
        assert np.all(q_star >= exact_q_pi(m, pi) - 1e-8)


non_finite = st.sampled_from([np.nan, np.inf, -np.inf])


class TestNonFinite:
    """A NaN or infinite entry fails the one probability check, which names it."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(policies(4, 3), st.integers(0, 3), st.integers(0, 2), non_finite)
    def test_policy_names_the_entry(self, pi, s, a, bad):
        pi[s, a] = bad
        with pytest.raises(ContractViolationError, match=f"^{re.escape(f'policy entry {(s, a)} is {bad}, not finite')}$"):
            check_policy_matrix(random_mdp(4, 3, seed=0), pi)

    @settings(max_examples=100, deadline=None, database=None)
    @given(policies(1, 6), st.integers(0, 1), st.integers(0, 2), non_finite)
    def test_sample_sa_names_the_pair(self, probs, s, a, bad):
        rho = probs.reshape(2, 3)  # one distribution over the six (s, a) pairs
        rho[s, a] = bad
        with pytest.raises(ContractViolationError, match=f"^{re.escape(f'rho entry {(s, a)} is {bad}, not finite')}$"):
            sample_sa(rho, np.random.default_rng(0), 4)

    def test_opposite_infinities_in_one_row(self, chain):
        # Summed, inf + (-inf) would warn; the entry test stops -inf first.
        with pytest.raises(ContractViolationError, match=r"^policy entry \(0, 0\) is inf, not finite$"):
            check_policy_matrix(chain, np.array([[np.inf, -np.inf], [0.5, 0.5]]))

    @pytest.mark.parametrize("oracle", [exact_q_pi, stationary_dists, visitation_dist, objective_J])
    def test_oracles_reject_nan_policy_silently(self, chain, oracle, capfd):
        with pytest.raises(ContractViolationError, match=r"^policy entry \(0, 0\) is nan, not finite$"):
            oracle(chain, np.array([[np.nan, np.nan], [0.5, 0.5]]))
        assert capfd.readouterr() == ("", "")


class TestSerialization:
    def test_round_trip(self, tmp_path, mdp5):
        path = tmp_path / "mdp.json"
        path.write_text(json.dumps(mdp_doc(mdp5)))
        loaded = load_mdp(path)
        np.testing.assert_array_equal(loaded.transition, mdp5.transition)
        np.testing.assert_array_equal(loaded.reward, mdp5.reward)
        np.testing.assert_array_equal(loaded.initial_dist, mdp5.initial_dist)
        assert loaded.gamma == mdp5.gamma
        assert loaded.r_max == mdp5.r_max

    def test_loader_names_first_violation(self, chain, tmp_path):
        doc = mdp_doc(chain)
        doc["transition"][0][0] = [0.4, 0.4]  # row no longer sums to 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ContractViolationError, match=r"^transition row \(0, 0\) sums to 0\.8, expected 1$"):
            load_mdp(path)

    def test_loader_rejects_nan(self, chain, tmp_path):
        doc = mdp_doc(chain)
        doc["reward"][1][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # written as the bare token NaN, which json.load accepts
        with pytest.raises(ContractViolationError, match=r"reward entry \(1, 0\) is nan"):
            load_mdp(path)

    def test_loader_rejects_missing_keys(self):
        with pytest.raises(ContractViolationError, match="missing"):
            mdp_from_json({"n_states": 1})
        with pytest.raises(ContractViolationError, match="must be a JSON object, got list"):
            mdp_from_json([1])
