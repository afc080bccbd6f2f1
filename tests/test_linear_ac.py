import tracemalloc

import numpy as np
import pytest

from sstac import (
    ConditioningError,
    FeatureMap,
    ParameterError,
    RunRng,
    actor_step,
    bellman_eval,
    build_mdp,
    chain2,
    critic_step_exact,
    critic_step_sampled,
    draw_batch,
    exact_q_pi,
    gridworld5,
    kl_regularized_argmax,
    objective_J,
    run_linear_ac,
    softmax_rows,
    stationary_dists,
    tabular_features,
)
from sstac.linear_ac import project_l2

from conftest import random_policy


class TestActorStep:
    def test_first_step_copies_critic(self):
        theta = actor_step(np.array([5.0, -1.0]), np.array([0.25, 0.5]), 0, 4.0)
        np.testing.assert_allclose(theta, [0.25, 0.5])

    def test_second_step_averages(self):
        # theta_1 = omega_0 = (1, 0); omega_1 = (0, 1)
        theta = actor_step(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1, 4.0)
        np.testing.assert_allclose(theta, [0.5, 0.5])

    def test_direct_formula_arithmetic(self):
        # beta=4, k=2, theta_2=(1,0), omega_2=(0,3): inv_tau_3=3/4,
        # theta_3 = (4/3) * (omega_2/4 + (2/4) theta_2) = (2/3, 1)
        theta = actor_step(np.array([1.0, 0.0]), np.array([0.0, 3.0]), 2, 4.0)
        np.testing.assert_allclose(theta, [2.0 / 3.0, 1.0], atol=1e-15)

    def test_running_average_identity(self):
        rng = np.random.default_rng(0)
        omegas = rng.standard_normal((100, 3))
        theta = np.zeros(3)
        for k in range(100):
            theta = actor_step(theta, omegas[k], k, 10.0)
            np.testing.assert_allclose(theta, omegas[: k + 1].mean(axis=0), atol=1e-12)


class TestProjection:
    def test_inside_unchanged(self):
        w = np.array([0.3, 0.4])
        assert project_l2(w, 1.0) is w

    def test_shrinks_to_radius(self):
        w = project_l2(np.array([3.0, 4.0]), 1.0)
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12

    def test_zero_radius(self):
        np.testing.assert_array_equal(project_l2(np.array([3.0, 4.0]), 0.0), [0.0, 0.0])


class TestCriticStepExact:
    def test_tabular_full_support_equals_bellman_table(self):
        m = chain2()
        feats = tabular_features(2, 2)
        rng = np.random.default_rng(1)
        pi = random_policy(rng, 2, 2)
        _, rho = stationary_dists(m, pi)
        q_k = rng.standard_normal((2, 2)) * 0.2
        got = critic_step_exact(q_k, m, pi, feats, rho, radius=100.0)
        expected = bellman_eval(m, pi, q_k).reshape(-1)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_zero_reward_zero_critic(self):
        m = chain2()
        zero_m = type(m)(transition=m.transition, reward=np.zeros((2, 2)), gamma=m.gamma, initial_dist=m.initial_dist)
        feats = tabular_features(2, 2)
        pi = np.full((2, 2), 0.5)
        _, rho = stationary_dists(zero_m, pi)
        got = critic_step_exact(np.zeros((2, 2)), zero_m, pi, feats, rho, radius=20.0)
        np.testing.assert_allclose(got, 0.0, atol=1e-14)

    def test_zero_radius_projects_to_origin(self):
        m = chain2()
        feats = tabular_features(2, 2)
        pi = np.full((2, 2), 0.5)
        _, rho = stationary_dists(m, pi)
        np.testing.assert_array_equal(critic_step_exact(np.zeros((2, 2)), m, pi, feats, rho, radius=0.0), np.zeros(4))

    def test_missing_support_raises_conditioning(self):
        m = chain2()
        feats = tabular_features(2, 2)
        pi = np.full((2, 2), 0.5)
        rho = np.array([[0.5, 0.5], [0.0, 0.0]])  # no mass on state 1
        with pytest.raises(ConditioningError) as exc:
            critic_step_exact(np.zeros((2, 2)), m, pi, feats, rho, radius=20.0)
        assert exc.value.sigma_min is not None
        assert "zero-weight (s, a) pairs: 2" in str(exc.value)


class TestCriticStepSampled:
    def test_full_enumeration_matches_exact(self):
        # Deterministic MDP + deterministic policy: a batch enumerating every
        # (s, a) once has exact expectation targets.
        m = chain2()
        feats = tabular_features(2, 2)
        always_go = np.array([[1.0, 0.0], [1.0, 0.0]])
        rng = np.random.default_rng(2)
        q_k = rng.standard_normal((2, 2)) * 0.3

        pairs = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        s, a = pairs[:, 0], pairs[:, 1]
        s2 = np.where(a == 0, 1 - s, s)
        a2 = np.zeros(4, dtype=int)
        batch = pairs, (s, a, m.reward[s, a], s2, a2)
        got = critic_step_sampled(q_k, batch, feats, m.gamma, radius=100.0)

        uniform_rho = np.full((2, 2), 0.25)
        expected = critic_step_exact(q_k, m, always_go, feats, uniform_rho, radius=100.0)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_zero_inputs_give_zero(self):
        m = chain2()
        zero_m = type(m)(transition=m.transition, reward=np.zeros((2, 2)), gamma=m.gamma, initial_dist=m.initial_dist)
        feats = tabular_features(2, 2)
        pi = np.full((2, 2), 0.5)
        batch = draw_batch(zero_m, np.full((2, 2), 0.25), pi, RunRng(3), 64)
        np.testing.assert_allclose(
            critic_step_sampled(np.zeros((2, 2)), batch, feats, zero_m.gamma, radius=20.0), 0.0, atol=1e-14
        )

    def test_singular_batch_raises_conditioning(self):
        m = chain2()
        feats = tabular_features(2, 2)
        pairs = np.array([[0, 0], [0, 0], [0, 1], [1, 0]])  # (1,1) never sampled
        s, a = pairs[:, 0], pairs[:, 1]
        batch = pairs, (s, a, m.reward[s, a], 1 - s, np.zeros(4, dtype=int))
        with pytest.raises(ConditioningError, match="ridge"):
            critic_step_sampled(np.zeros((2, 2)), batch, feats, m.gamma, radius=20.0)
        # the ridge rescues the same batch
        out = critic_step_sampled(np.zeros((2, 2)), batch, feats, m.gamma, radius=20.0, ridge=1e-6)
        assert np.all(np.isfinite(out))

    def test_error_decays_with_batch_size(self):
        m = chain2()
        feats = tabular_features(2, 2)
        pi = np.full((2, 2), 0.5)
        _, rho = stationary_dists(m, pi)
        q_k = exact_q_pi(m, pi)
        exact = critic_step_exact(q_k, m, pi, feats, rho, radius=20.0)
        rms = {}
        for n in (256, 4096):
            errs = []
            for seed in range(20):
                batch = draw_batch(m, rho, pi, RunRng(seed), n)
                w = critic_step_sampled(q_k, batch, feats, m.gamma, radius=20.0)
                errs.append(np.linalg.norm(w - exact) ** 2)
            rms[n] = np.sqrt(np.mean(errs))
        assert rms[4096] < rms[256]


class TestRunLinearAc:
    def test_first_iterate_formulas(self):
        m = chain2()
        feats = tabular_features(2, 2)
        trace = run_linear_ac(m, feats, 1, mode="exact", seed=0)
        # theta_1 = omega_0 = 0, so pi_1 = softmax(Q_{omega_0}/beta) is uniform.
        assert trace.column("actor_norm")[0] == 0.0
        assert trace.column("J_pi")[0] == pytest.approx(objective_J(m, np.full((2, 2), 0.5)), abs=1e-15)

    def test_final_gap_improves_on_uniform(self):
        m = chain2()
        feats = tabular_features(2, 2)
        trace = run_linear_ac(m, feats, 256, mode="exact", seed=0)
        gap = trace.column("gap")
        assert gap[-1] < gap[0]

    def test_deterministic_trace_bytes(self):
        m = chain2()
        feats = tabular_features(2, 2)
        a = run_linear_ac(m, feats, 8, mode="sampled", N=64, seed=3)
        b = run_linear_ac(m, feats, 8, mode="sampled", N=64, seed=3)
        assert a.to_csv_text() == b.to_csv_text()

    def test_row_count_and_schema(self):
        m = chain2()
        feats = tabular_features(2, 2)
        trace = run_linear_ac(m, feats, 5, mode="exact", seed=0)
        assert len(trace.rows) == 6
        assert trace.columns[:12] == [
            "k", "gap", "cum_regret", "eps_c_l2", "eps_c_sup", "e_sup",
            "theta_kl", "eps_a", "eps_b", "phi_star", "sigma_star", "J_pi",
        ]

    def test_critic_ball_invariant_all_modes(self):
        m = chain2()
        feats = tabular_features(2, 2)
        for mode, kwargs in [("exact", {}), ("sampled", {"N": 128})]:
            trace = run_linear_ac(m, feats, 12, mode=mode, seed=1, radius=0.45, **kwargs)
            # critic_norm in row k is ||omega_{k+1}||.
            assert max(trace.column("critic_norm")) <= 0.45 + 1e-12

    def test_policy_identity_with_closed_form_improvement(self):
        # The materialized pi_{k+1} must equal the KL-regularized argmax of
        # (pi_k, Q_{omega_k}, beta) row by row.  The steps are replayed by
        # hand, and their norms must be the driver's trace columns exactly.
        m = chain2()
        feats = tabular_features(2, 2)
        trace = run_linear_ac(m, feats, 24, mode="exact", seed=0)
        params = trace.manifest["params"]
        beta = params["beta"]
        theta, omega = np.zeros(feats.dim), np.zeros(feats.dim)
        for k, (actor_norm, critic_norm) in enumerate(zip(trace.column("actor_norm"), trace.column("critic_norm"))):
            q_omega = feats.value_table(omega)
            improved = kl_regularized_argmax((k / beta) * feats.value_table(theta), q_omega, beta)
            theta = actor_step(theta, omega, k, beta)
            pi_next = softmax_rows(((k + 1) / beta) * feats.value_table(theta))
            np.testing.assert_allclose(pi_next, improved, atol=1e-10)
            _, rho_next = stationary_dists(m, pi_next)
            omega = critic_step_exact(q_omega, m, pi_next, feats, rho_next, radius=params["radius"])
            assert float(np.linalg.norm(theta)) == actor_norm
            assert float(np.linalg.norm(omega)) == critic_norm

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_value_table_once_per_iterate(self, monkeypatch, mode):
        # Q_{omega_0}, then pi_{k+1} from theta_{k+1} and Q_{omega_{k+1}} per iteration:
        # the critic steps regress the Q_{omega_k} table the loop already holds.
        calls = []
        value_table = FeatureMap.value_table
        monkeypatch.setattr(FeatureMap, "value_table", lambda self, w: calls.append(w) or value_table(self, w))
        K = 6
        run_linear_ac(chain2(), tabular_features(2, 2), K, mode=mode, N=64, seed=0)
        assert len(calls) == 1 + 2 * (K + 1)

    def test_conditioning_error_names_iteration_and_unvisited_pairs(self):
        # Without a ridge, N=1024 draws on gridworld5's 100 pairs leave some undrawn at k=0.
        m = gridworld5()
        feats = tabular_features(m.n_states, m.n_actions)
        with pytest.raises(ConditioningError, match="ridge") as exc:
            run_linear_ac(m, feats, 4, mode="sampled", N=1024, seed=0)
        assert exc.value.code == "conditioning"
        assert exc.value.sigma_min == 0.0
        # The k=0 critic step draws its batch under pi_1, the uniform policy.
        pi_1 = softmax_rows(np.zeros((m.n_states, m.n_actions)))
        _, rho_1 = stationary_dists(m, pi_1)
        gram_pairs, _ = draw_batch(m, rho_1, pi_1, RunRng(0), 1024)
        undrawn = feats.dim - len(np.unique(gram_pairs[:, 0] * m.n_actions + gram_pairs[:, 1]))
        assert undrawn > 0
        assert "at k=0:" in str(exc.value)
        assert f"zero-weight (s, a) pairs: {undrawn})" in str(exc.value)

    def test_parameter_validation(self):
        # K, beta and radius are checked for both drivers in test_loop.py.
        m = chain2()
        feats = tabular_features(2, 2)
        with pytest.raises(ParameterError):
            run_linear_ac(m, feats, 4, mode="bogus")
        with pytest.raises(ParameterError):
            run_linear_ac(m, feats, 4, mode="sampled", N=0)

    @pytest.mark.parametrize("mode, kwargs", [("exact", {}), ("sampled", {"N": 256, "ridge": 1e-3})], ids=["exact", "sampled"])
    def test_retained_memory_is_the_trace_rows(self, mode, kwargs):
        # A run keeps theta_k and omega_k only; what it retains per iteration is one
        # trace row (under 1 KB), not the 512-dim iterates or the policy tables.
        m = build_mdp("random(64,8,0)")
        feats = tabular_features(m.n_states, m.n_actions)
        run_linear_ac(m, feats, 2, mode=mode, **kwargs)  # first-call caches stay out of the measurement

        def retained(K):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                trace = run_linear_ac(m, feats, K, mode=mode, **kwargs)
                assert trace.history == {}
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        per_iteration = (retained(160) - retained(32)) / 128
        assert per_iteration < 2048, per_iteration
