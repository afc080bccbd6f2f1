import dataclasses
import json
import re
import sys
import threading
import tracemalloc

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
    run_linear_ac,
    run_neural_ac,
    softmax_rows,
    stationary_dists,
    tabular_features,
    visitation_dist,
)
from sstac import mdp as mdp_module
from sstac.mdp import check_policy_matrix, load_mdp, mdp_from_json
from sstac.sampling import sample_sa, sample_tuples

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


class TestReadOnlyTransition:
    """The MDP keeps a read-only copy of its kernel, so the cached step table cannot fall out of step."""

    def test_writes_to_the_stored_tables_raise(self):
        mdp = random_mdp(3, 2, seed=1)
        values, counts = mdp.step_table
        for table, index in [(mdp.transition, (0, 0, 0)), (values, (0, 0)), (counts, (0, 1))]:
            with pytest.raises(ValueError, match="read-only"):
                table[index] = 0

    def test_callers_array_stays_writeable(self):
        p = chain2().transition.copy()
        mdp = TabularMDP(transition=p, reward=np.zeros((2, 2)), gamma=0.9, initial_dist=[1.0, 0.0])
        assert p.flags.writeable
        p[0, 0] = [1.0, 0.0]  # the caller's edit does not reach the MDP
        np.testing.assert_array_equal(mdp.transition, chain2().transition)
        # Every chain2 CDF row is [0, 1] or [1, 1]: values per row, counts of entries <= each, clipped to S - 1.
        values, counts = mdp.step_table
        np.testing.assert_array_equal(values, [[0.0, 1.0, 1.0, 0.0], [1.0, np.inf, np.inf, 1.0]])
        np.testing.assert_array_equal(counts, [[0, 1, 1], [0, 1, 0], [0, 1, 0], [0, 1, 1]])
        assert counts.dtype == np.uint8

    def test_replace_builds_a_fresh_step_table(self):
        mdp = random_mdp(3, 2, seed=2)
        values, counts = mdp.step_table
        p = mdp.transition.copy()
        p[0, 0] = [0.0, 0.0, 1.0]
        replaced = dataclasses.replace(mdp, transition=p)
        fresh = TabularMDP(p, mdp.reward, mdp.gamma, mdp.initial_dist).step_table
        for got, want in zip(replaced.step_table, fresh):
            np.testing.assert_array_equal(got, want)
        assert mdp.step_table[0] is values and mdp.step_table[1] is counts
        assert not np.array_equal(replaced.step_table[0], values)

    def test_step_table_is_built_on_first_use_only(self):
        mdp = random_mdp(3, 2, seed=3)
        run_linear_ac(mdp, tabular_features(3, 2), 2)  # the exact critic never samples
        assert "step_table" not in vars(mdp)
        assert mdp.step_table is mdp.step_table

    @pytest.mark.parametrize("n_states, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_counts_take_the_smallest_type_that_holds_the_last_state(self, n_states, dtype):
        counts = random_mdp(n_states, 1, seed=4).step_table[1]
        assert counts.dtype == dtype and counts.max() == n_states - 1


def one_pass_step_table(transition):
    """``TabularMDP.step_table`` as it was built before row blocks: every CDF row sorted at once."""
    n_states = transition.shape[0]
    cum = np.cumsum(transition, axis=2).reshape(-1, n_states)
    cum.sort(axis=1)
    last = np.append(cum[:, 1:] != cum[:, :-1], np.ones((len(cum), 1), bool), axis=1)
    width = last.sum(axis=1)
    filled = np.arange(1.0, width.max() + 1) <= width[:, None]
    values = np.full(filled.shape[::-1], np.inf)
    values.T[filled] = cum[last]
    counts = np.zeros((len(cum), len(values) + 1), dtype=np.min_scalar_type(n_states - 1))
    counts[:, 1:][filled] = np.broadcast_to(np.minimum(np.arange(1, n_states + 1), n_states - 1), cum.shape)[last]
    return values, counts


class TestStepTableBuild:
    """The table is built in blocks of states, to the bytes of the one-pass build, with a bounded peak."""

    # random(300,3) holds 270,000 CDF entries: five blocks of 72 states, the last one short.
    @pytest.mark.parametrize(
        "source, keep",
        [("chain2", 1), ("gridworld5", 1), ("random(64,8,0)", 1), ("random(300,3,1)", 1), ("random(300,3,2)", 0.05)],
    )
    def test_blocks_keep_the_one_pass_bytes(self, source, keep):
        mdp = build_mdp(source)
        if keep < 1:  # sparse rows of unequal widths, with ties, across several blocks
            p = mdp.transition
            kept = (np.random.default_rng(0).random(p.shape) < keep) | (p == p.max(axis=2, keepdims=True))
            p = np.where(kept, p, 0.0)
            mdp = TabularMDP(p / p.sum(axis=2, keepdims=True), mdp.reward, mdp.gamma, mdp.initial_dist)
        for got, want in zip(mdp.step_table, one_pass_step_table(mdp.transition)):
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_build_peak_stays_near_the_table(self):
        mdp = random_mdp(512, 8, seed=0)  # dense at the S * A cap: the one-pass build peaked at 2.8x the table
        tracemalloc.start()
        try:
            values, counts = mdp.step_table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (values.nbytes + counts.nbytes)


class TestPolicyMemo:
    """Each MDP checks a policy once and builds its P_pi once, and what it remembers can never be stale."""

    UNIFORM = np.full((2, 2), 0.5)

    @staticmethod
    def routes(mdp, pi):
        rng = np.random.default_rng(0)
        rho = np.full((mdp.n_states, mdp.n_actions), 1.0 / pi.size)
        return {
            "check_policy_matrix": lambda: check_policy_matrix(mdp, pi),
            "apply_P_pi": lambda: apply_P_pi(mdp, pi, np.zeros(pi.shape)),
            "stationary_dists": lambda: stationary_dists(mdp, pi),
            "exact_q_pi": lambda: exact_q_pi(mdp, pi),
            "visitation_dist": lambda: visitation_dist(mdp, pi),
            "sample_tuples": lambda: sample_tuples(mdp, rho, pi, rng, 4),
        }

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda pi: pi.__setitem__(0, [-0.5, 1.5]), r"^policy entry \(0, 0\) is -0\.5, negative$"),
            (lambda pi: pi.__setitem__((1, 1), 0.75), r"^policy row \(1,\) sums to 1\.25, expected 1$"),
        ],
        ids=["negative", "row-sum"],
    )
    @pytest.mark.parametrize("route", list(routes(chain2(), UNIFORM)))
    def test_a_policy_edited_in_place_is_checked_again(self, edit, message, route):
        mdp, pi = chain2(), self.UNIFORM.copy()
        for call in self.routes(mdp, pi).values():
            call()  # passes, and is remembered with its P_pi
        edit(pi)
        with pytest.raises(ContractViolationError, match=message):
            self.routes(mdp, pi)[route]()

    def test_mdps_of_one_shape_never_share_a_kernel(self):
        mdps = [random_mdp(5, 3, seed=seed) for seed in (1, 2)]
        pi = random_policy(np.random.default_rng(0), 5, 3)
        for mdp in mdps + mdps:
            fresh = dataclasses.replace(mdp)
            assert exact_q_pi(mdp, pi).tobytes() == exact_q_pi(fresh, pi).tobytes()
            for got, want in zip(stationary_dists(mdp, pi), stationary_dists(dataclasses.replace(mdp), pi)):
                assert got.tobytes() == want.tobytes()

    def test_it_holds_three_policies_and_one_read_only_kernel(self):
        mdp, rng = random_mdp(4, 2, seed=0), np.random.default_rng(1)
        p1, p2, p3, p4 = (random_policy(rng, 4, 2) for _ in range(4))
        stationary_dists(mdp, p1)
        check_policy_matrix(mdp, p2)
        check_policy_matrix(mdp, p3)
        apply_P_pi(mdp, p1, np.zeros((4, 2)))
        exact_q_pi(mdp, p4)
        recent, (built, kernel) = mdp._policy_memo
        assert recent == (p3.tobytes(), p1.tobytes(), p4.tobytes())  # least recently used first; p2 fell out
        assert built == p4.tobytes()  # p4's kernel replaced p1's
        np.testing.assert_array_equal(kernel, mdp_module.policy_transition(mdp, p4))
        with pytest.raises(ValueError, match="read-only"):
            kernel[0, 0] = 0.0

    def test_a_failing_policy_is_not_remembered(self, chain):
        bad = np.array([[0.5, 0.5], [0.5, 0.75]])
        for _ in range(2):
            with pytest.raises(ContractViolationError, match=r"^policy row \(1,\) sums to 1\.25, expected 1$"):
                exact_q_pi(chain, bad)
            assert chain._policy_memo == ((), (None, None))

    def test_replace_starts_an_empty_memo(self):
        mdp = random_mdp(3, 2, seed=2)
        stationary_dists(mdp, np.full((3, 2), 0.5))
        assert len(mdp._policy_memo[0]) == 1
        replaced = dataclasses.replace(mdp, gamma=0.5)
        assert replaced._policy_memo == ((), (None, None)) and replaced._policy_memo is not mdp._policy_memo
        assert "_policy_memo" not in repr(mdp)

    def test_threads_sharing_an_mdp_never_read_a_stale_entry(self):
        # Each memo update assigns a new tuple, so a lost update only repeats work: every result is the fresh one.
        mdp, rng = random_mdp(6, 3, seed=4), np.random.default_rng(5)
        policies = [random_policy(rng, 6, 3) for _ in range(5)]
        want = [exact_q_pi(dataclasses.replace(mdp), pi).tobytes() for pi in policies]
        wrong = []

        def work(offset):
            for i in range(300):
                j = (i * (offset + 1)) % len(policies)
                if exact_q_pi(mdp, policies[j]).tobytes() != want[j]:
                    wrong.append((offset, i))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("mode", ["exact", "sampled", "neural"])
    def test_a_run_checks_each_policy_once_and_builds_each_kernel_once(self, mode, monkeypatch):
        checks, builds = [], []
        check, build = mdp_module.check_probabilities, mdp_module.policy_transition
        monkeypatch.setattr(mdp_module, "check_probabilities", lambda name, t: checks.append(name) or check(name, t))
        monkeypatch.setattr(mdp_module, "policy_transition", lambda mdp, pi: builds.append(1) or build(mdp, pi))
        K = 8 if mode == "neural" else 5
        if mode == "neural":
            run_neural_ac(chain2(), 8, 2, K, N_a=16, N_c=16)
        else:
            run_linear_ac(random_mdp(4, 2, seed=0), tabular_features(4, 2), K, mode=mode, N=64)
        # pi* once, pi_0 once where the neural actor samples under it, then pi_{k+1} once in each of the K + 1
        # iterations: the memo holds pi*, pi_k and pi_{k+1} at once, so none is checked again as they take turns.
        assert checks.count("policy") == len(builds) == K + 2 + (mode == "neural")


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


class TestValueIterationCap:
    @staticmethod
    def changes(mdp, n):
        """The sup-norm change of each of ``n`` value-iteration sweeps from q = 0, and the stop threshold."""
        q, changes = np.zeros(mdp.reward.shape), []
        for _ in range(n):
            q_next = (1.0 - mdp.gamma) * mdp.reward + mdp.gamma * (mdp.transition @ q.max(axis=1))
            changes.append(float(np.abs(q_next - q).max()))
            q = q_next
        return changes, 1e-12 * (1.0 - mdp.gamma) / (2.0 * mdp.gamma)

    def test_a_capped_run_raises_with_gamma_cap_change_and_threshold(self, chain, monkeypatch):
        changes, stop = self.changes(chain, 3)
        monkeypatch.setattr(mdp_module, "_MAX_SWEEPS", 3)
        message = (
            f"value iteration at gamma=0.9 did not converge in 3 sweeps: "
            f"the last sup-norm change {changes[-1]:.3e} is above the stop threshold {stop:.3e}"
        )
        with pytest.raises(ContractViolationError, match=f"^{re.escape(message)}$"):
            optimal_q(chain)

    def test_a_cap_the_stop_test_meets_returns_q_star(self, chain, monkeypatch):
        changes, stop = self.changes(chain, 1000)
        n_stop = 1 + next(i for i, change in enumerate(changes) if change <= stop)
        want = optimal_q(chain)
        monkeypatch.setattr(mdp_module, "_MAX_SWEEPS", n_stop)
        got = optimal_q(chain)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        monkeypatch.setattr(mdp_module, "_MAX_SWEEPS", n_stop - 1)
        with pytest.raises(ContractViolationError, match=f"did not converge in {n_stop - 1} sweeps"):
            optimal_q(chain)


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
