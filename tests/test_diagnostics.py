import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sstac import (
    build_mdp,
    chain2,
    error_decomposition,
    exact_q_pi,
    random_mdp,
    run_linear_ac,
    run_optimum,
    stationary_dists,
    tabular_features,
)

from conftest import random_policy, reference_scores


def decomposition_inputs(mdp, pi_k, pi_next, q_omega_k, q_omega_next, beta=4.0):
    _, rho_next = stationary_dists(mdp, pi_next)
    return dict(
        pi_k=pi_k,
        pi_next=pi_next,
        q_omega_k=q_omega_k,
        q_omega_next=q_omega_next,
        rho_next=rho_next,
        beta=beta,
        features=tabular_features(mdp.n_states, mdp.n_actions),
    )


class TestErrorDecomposition:
    def test_stationary_policy_with_exact_critic(self):
        # pi_{k+1} = pi_k and omega exact for that policy: no tracking error,
        # no KL movement.
        m = chain2()
        rng = np.random.default_rng(0)
        pi = random_policy(rng, 2, 2)
        q = exact_q_pi(m, pi)
        diag = error_decomposition(m, run_optimum(m), **decomposition_inputs(m, pi, pi, q, q))
        assert diag["e_sup"] < 1e-12
        assert abs(diag["theta_kl"]) < 1e-12

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @example(4, 3, 2, 1)  # the MDP and generator seed of the former 20-draw loop
    def test_identity_residual_random_inputs(self, n_states, n_actions, mdp_seed, seed):
        # A1 + A2 + A3 equals T^{pi*} Q^{pi_next} - Q^{pi_next} on any random MDP, for random policies
        # pi_k, pi_next and random critic tables.
        m = random_mdp(n_states, n_actions, seed=mdp_seed)
        rng = np.random.default_rng(seed)
        pi_k, pi_next = random_policy(rng, n_states, n_actions), random_policy(rng, n_states, n_actions)
        q_k, q_next = rng.standard_normal((2, n_states, n_actions))
        diag = error_decomposition(m, run_optimum(m), **decomposition_inputs(m, pi_k, pi_next, q_k, q_next))
        # Non-finite tables would make a_resid NaN, which fails this bound too.
        assert diag["a_resid"] < 1e-10

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_a_carry_is_read_only_for_the_very_pi_k_it_holds(self, n_states, n_actions, mdp_seed, seed):
        m, rng = random_mdp(n_states, n_actions, seed=mdp_seed), np.random.default_rng(seed)
        pis = [random_policy(rng, n_states, n_actions) for _ in range(3)]
        qs = rng.standard_normal((3, n_states, n_actions))
        first, second = (decomposition_inputs(m, pis[k], pis[k + 1], qs[k], qs[k + 1]) for k in range(2))
        run = run_optimum(m)
        # The second call's pi_k is the first call's pi_next, so it reads the carried rows; the third call's pi_k is
        # not the carried policy, so its rows are computed afresh.
        for inputs in (first, second, first):
            diag = error_decomposition(m, run, **inputs)
            assert repr(diag) == repr(reference_scores(m, **inputs))
            assert run["pi"] is inputs["pi_next"]

    def test_linear_exact_run_actor_errors_vanish(self):
        # With linear energies the KL-regularized subproblem is solved
        # exactly, so both actor-error inner products are zero throughout.
        m = chain2()
        trace = run_linear_ac(m, tabular_features(2, 2), 32, mode="exact", seed=0)
        assert max(trace.column("eps_a")) < 1e-10
        assert max(trace.column("eps_b")) < 1e-10

    def test_chain2_run_decomposition_identity(self):
        m = chain2()
        trace = run_linear_ac(m, tabular_features(2, 2), 64, mode="exact", seed=0)
        assert max(trace.column("a_resid")) < 1e-10

    def test_exact_critic_eps_c_vanishes(self):
        m = chain2()
        trace = run_linear_ac(m, tabular_features(2, 2), 32, mode="exact", seed=0)
        assert max(trace.column("eps_c_sup")) < 1e-9

    def test_regret_is_running_sum_of_gaps(self):
        m = chain2()
        trace = run_linear_ac(m, tabular_features(2, 2), 32, mode="exact", seed=0)
        gap = trace.column("gap")
        cum = trace.column("cum_regret")
        np.testing.assert_allclose(cum, np.cumsum(gap), atol=1e-12)

    @settings(max_examples=30, deadline=None, database=None)
    @given(
        st.one_of(st.just("chain2"), st.builds("random({},{},{})".format, st.integers(1, 6), st.integers(1, 6),
                                               st.integers(0, 2**32 - 1))),
        st.sampled_from(["exact", "sampled"]),
        st.integers(1, 12),
    )
    @example("chain2", "exact", 48)
    def test_theta_kl_telescopes(self, source, mode, K):
        # Each row's theta_kl reads pi_k's KL rows as the previous row carried them, so the sum over k = 0 .. j
        # is KL_0 - kl_to_opt_j.
        m = build_mdp(source)
        trace = run_linear_ac(m, tabular_features(m.n_states, m.n_actions), K, mode=mode, N=256, ridge=1e-3, seed=0)
        theta_kl = np.array(trace.column("theta_kl"))
        kl_to_opt = np.array(trace.column("kl_to_opt"))
        kl_initial = theta_kl[0] + kl_to_opt[0]
        partial = np.cumsum(theta_kl)
        np.testing.assert_allclose(partial, kl_initial - kl_to_opt, atol=1e-9)
