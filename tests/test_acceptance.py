"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  Three
trend criteria (4, the sqrt-K clause of 5, and the gap-halving clause of 8)
fail on a faithful implementation; the failure analyses live in the project
notes.  The assertions are kept at their stated thresholds rather than
loosened to force green.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from sstac import (
    RunRng,
    bellman_eval,
    chain2,
    exact_q_pi,
    kl_regularized_argmax,
    optimal_q,
    random_mdp,
    run_linear_ac,
    run_neural_ac,
    sample_sa,
    sample_tuples,
    softmax_rows,
    stationary_dists,
    tabular_features,
)
from sstac.deep_net import forward_many, gradient, init_params, project_ball_inplace, sa_encoding_table
from sstac.harness import ExperimentConfig, execute_run
from sstac.linear_ac import actor_step, critic_step_exact, critic_step_sampled, draw_batch
from sstac.neural_ac import actor_inner_loop, critic_inner_loop

from conftest import random_policy
from test_deep_net import FD_MATRIX, finite_difference_grads, sample_away_from_kinks
from test_policy import pga_oracle

GOLDEN = Path(__file__).parent / "data" / "golden_chain2" / "trace.csv"


def report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


def test_c1_operator_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_contraction = -np.inf
    for _ in range(1000):
        m = random_mdp(4, 3, seed=int(rng.integers(1 << 30)))
        pi = random_policy(rng, 4, 3)
        q1 = rng.uniform(-1, 1, size=(4, 3))
        q2 = rng.uniform(-1, 1, size=(4, 3))
        lhs = np.max(np.abs(bellman_eval(m, pi, q1) - bellman_eval(m, pi, q2)))
        slack = lhs - m.gamma * np.max(np.abs(q1 - q2))
        worst_contraction = max(worst_contraction, slack)
    worst_fixed_point = 0.0
    for _ in range(50):
        m = random_mdp(5, 2, seed=int(rng.integers(1 << 30)))
        pi = random_policy(rng, 5, 2)
        q = exact_q_pi(m, pi)
        worst_fixed_point = max(worst_fixed_point, float(np.max(np.abs(bellman_eval(m, pi, q) - q))))
    elapsed = time.perf_counter() - t0
    ok = worst_contraction <= 1e-12 and worst_fixed_point <= 1e-10 and elapsed < 5.0
    assert report(
        "C1 operator suite",
        ok,
        f"contraction slack {worst_contraction:.2e}, fixed-point {worst_fixed_point:.2e}, {elapsed:.1f}s",
    )


def test_c2_closed_form_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_tv = 0.0
    for _ in range(50):
        n_states = int(rng.integers(2, 5))
        n_actions = int(rng.integers(2, 5))
        inv_temp = float(rng.uniform(0.0, 0.8))
        logits = inv_temp * rng.standard_normal((n_states, n_actions))
        base = softmax_rows(logits)
        q = rng.uniform(0.0, 1.0, size=(n_states, n_actions))
        beta = float(rng.uniform(1.0, 3.0))
        closed = kl_regularized_argmax(logits, q, beta)
        for s in range(n_states):
            oracle = pga_oracle(q[s], base[s], beta)
            worst_tv = max(worst_tv, 0.5 * float(np.abs(closed[s] - oracle).sum()))

    # actor running-average identity over 100 steps
    omegas = rng.standard_normal((100, 5))
    theta = np.zeros(5)
    worst_drift = 0.0
    for k in range(100):
        theta = actor_step(theta, omegas[k], k, 10.0)
        worst_drift = max(worst_drift, float(np.max(np.abs(theta - omegas[: k + 1].mean(axis=0)))))
    elapsed = time.perf_counter() - t0
    ok = worst_tv <= 1e-6 and worst_drift <= 1e-12 and elapsed < 10.0
    assert report(
        "C2 closed-form suite",
        ok,
        f"worst TV {worst_tv:.2e}, identity drift {worst_drift:.2e}, {elapsed:.1f}s",
    )


def test_c3_critic_statistical_rate():
    t0 = time.perf_counter()
    m = chain2()
    feats = tabular_features(2, 2)
    pi = np.full((2, 2), 0.5)
    _, rho = stationary_dists(m, pi)
    q_k = exact_q_pi(m, pi)
    exact = critic_step_exact(q_k, m, pi, feats, rho, radius=20.0)
    rms = {}
    for n in (256, 1024, 4096):
        sq_errs = []
        for seed in range(50):
            batch = draw_batch(m, rho, pi, RunRng(seed), n)
            w = critic_step_sampled(q_k, batch, feats, m.gamma, radius=20.0)
            sq_errs.append(float(np.sum((w - exact) ** 2)))
        rms[n] = float(np.sqrt(np.mean(sq_errs)))
    r1 = rms[256] / rms[1024]
    r2 = rms[1024] / rms[4096]
    elapsed = time.perf_counter() - t0
    ok = 1.6 <= r1 <= 2.6 and 1.6 <= r2 <= 2.6 and elapsed < 30.0
    assert report("C3 critic statistical rate", ok, f"ratios {r1:.2f}, {r2:.2f}, {elapsed:.1f}s")


def test_c4_double_contraction_slope():
    # Known red: the tracking error is single-signed and follows the policy
    # drift once the geometric component dies out (around k=40 here), so the
    # measured slope over [64, 256] is ~-0.0023, above the stated bound.
    t0 = time.perf_counter()
    m = chain2()
    trace = run_linear_ac(m, tabular_features(2, 2), 256, mode="exact", beta=16.0, seed=0)
    e_sup = np.array(trace.column("e_sup"))
    ks = np.arange(64, 257)
    slope = float(np.polyfit(ks, np.log(e_sup[64:257]), 1)[0])
    bound = np.log(0.9) + 0.1
    elapsed = time.perf_counter() - t0
    ok = slope <= bound and elapsed < 10.0
    assert report(
        "C4 double contraction", ok, f"slope {slope:.5f} vs bound {bound:.5f}, {elapsed:.1f}s"
    ), "tracking-error slope over k in [64,256] sits on the policy-drift floor, not the gamma-contraction rate"


def test_c5_regret_trend():
    # First clause (cum_regret/sqrt(K) non-increasing within 20%) is known
    # red: the statistic rises toward its asymptote at these K values.
    t0 = time.perf_counter()
    details = []
    sqrt_ok = True
    avg_ok = True
    for label, m in (("chain2", chain2()), ("random10x5", random_mdp(10, 5, seed=7))):
        feats = tabular_features(m.n_states, m.n_actions)
        per_sqrt = []
        per_avg = []
        for K in (64, 256, 1024):
            trace = run_linear_ac(m, feats, K, mode="exact", seed=0)
            cum = trace.column("cum_regret")[-1]
            per_sqrt.append(cum / np.sqrt(K))
            per_avg.append(cum / K)
        for a, b in zip(per_sqrt, per_sqrt[1:]):
            if b > 1.2 * a:
                sqrt_ok = False
        for a, b in zip(per_avg, per_avg[1:]):
            if b >= a:
                avg_ok = False
        details.append(f"{label} cum/sqrtK={['%.2f' % v for v in per_sqrt]} cum/K={['%.3f' % v for v in per_avg]}")
    elapsed = time.perf_counter() - t0
    ok = sqrt_ok and avg_ok and elapsed < 120.0
    assert report("C5 regret trend", ok, "; ".join(details) + f", {elapsed:.1f}s"), (
        "cum_regret/sqrt(K) rises toward its asymptote over K in {64,256,1024}; "
        "the average-gap clause does hold"
    )


def test_c6_error_decomposition_identity():
    trace = run_linear_ac(chain2(), tabular_features(2, 2), 64, mode="exact", seed=0)
    worst_resid = max(trace.column("a_resid"))
    theta_kl = np.array(trace.column("theta_kl"))
    kl_to_opt = np.array(trace.column("kl_to_opt"))
    kl_initial = theta_kl[0] + kl_to_opt[0]
    telescoped = np.max(np.abs(np.cumsum(theta_kl) - (kl_initial - kl_to_opt)))
    ok = worst_resid <= 1e-10 and telescoped <= 1e-9
    assert report(
        "C6 decomposition identity", ok, f"residual {worst_resid:.2e}, telescoping {telescoped:.2e}"
    )


def test_c7_neural_gradient_suite():
    t0 = time.perf_counter()
    worst_rel = 0.0
    for d, m, depth in FD_MATRIX:
        rng = np.random.default_rng(700 + d)
        params = init_params(d, m, depth, seed=d + m)
        x, _ = sample_away_from_kinks(params, rng)
        _, grads = gradient(params, x)
        fd = finite_difference_grads(params, x)
        for g, g_fd in zip(grads, fd):
            denom = np.maximum(np.maximum(np.abs(g), np.abs(g_fd)), 1e-8)
            worst_rel = max(worst_rel, float((np.abs(g - g_fd) / denom).max()))

    # projection idempotence and ball containment
    proj_exact = True
    params = init_params(6, 16, 3, seed=9)
    for w in params.weights:
        w += np.random.default_rng(10).standard_normal(w.shape)
    once = params.clone()
    project_ball_inplace(once, radius=0.3)
    twice = once.clone()
    project_ball_inplace(twice, radius=0.3)
    for a, b in zip(once.weights, twice.weights):
        if not np.array_equal(a, b):
            proj_exact = False
    if float(once.anchor_distances().max()) > 0.3 * (1 + 1e-9):
        proj_exact = False
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-4 and proj_exact and elapsed < 20.0
    assert report(
        "C7 neural gradient suite", ok, f"worst FD rel err {worst_rel:.2e}, projection exact {proj_exact}, {elapsed:.1f}s"
    )


def test_c8_neural_end_to_end_trend():
    # Gap-halving clause is known red: the temperature schedule bounds the
    # achievable sharpening; the exact-critic run at the same schedule ends at
    # 0.66x the uniform gap, above the 0.5x target.  The inner-loop MSE
    # clause holds and is asserted.
    t0 = time.perf_counter()
    m = chain2()
    q_star, pi_star = optimal_q(m)
    _, rho_star = stationary_dists(m, pi_star)
    uniform = np.full((2, 2), 0.5)
    gap0 = float(np.sum(rho_star * (q_star - exact_q_pi(m, uniform))))

    finals = []
    for seed in range(10):
        trace = run_neural_ac(m, 32, 2, 64, N_a=400, N_c=400, seed=seed)
        finals.append(trace.column("gap")[-1])
    median_final = float(np.median(finals))

    # inner-loop MSE trend on a frozen mid-run state, N vs 16N
    enc = sa_encoding_table(2, 2)
    flat = enc.reshape(-1, 4)
    probe = run_neural_ac(m, 32, 2, 4, N_a=200, N_c=200, seed=3)
    actor, critic = probe.history["actor"], probe.history["critic"]
    beta, radius = probe.manifest["params"]["beta"], probe.manifest["params"]["R"]
    inv_tau = (4 + 1) / beta  # tau_{K+1}^{-1} after the probe's last update, K = 4
    f_k = forward_many(actor, flat).reshape(2, 2)
    q_k = forward_many(critic, flat).reshape(2, 2)
    from sstac.policy import softmax_rows

    pi_k = softmax_rows(inv_tau * f_k)
    _, rho_k = stationary_dists(m, pi_k)
    target = (q_k / beta + inv_tau * f_k) / (inv_tau + 1.0 / beta)
    med = {"actor": {}, "critic": {}}
    for n in (400, 6400):
        a_mses, c_mses = [], []
        for seed in range(10):
            rng = RunRng(800 + seed)
            pairs = sample_sa(rho_k, rng.stream("actor_loop"), n)
            a_out = actor_inner_loop(actor, target, enc, pairs, radius=radius, alpha=1.0 / np.sqrt(n))
            f_out = forward_many(a_out, flat).reshape(2, 2)
            a_mses.append(float(np.sum(rho_k * (f_out - target) ** 2)))
            tuples = sample_tuples(m, rho_k, pi_k, rng.stream("critic_loop"), n)
            c_out = critic_inner_loop(critic, tuples, enc, m.gamma, radius=radius, eta=1.0 / np.sqrt(n))
            q_out = forward_many(c_out, flat).reshape(2, 2)
            bellman_target = bellman_eval(m, pi_k, q_k)
            c_mses.append(float(np.sum(rho_k * (q_out - bellman_target) ** 2)))
        med["actor"][n] = float(np.median(a_mses))
        med["critic"][n] = float(np.median(c_mses))
    mse_ok = med["actor"][6400] < med["actor"][400] and med["critic"][6400] < med["critic"][400]
    elapsed = time.perf_counter() - t0
    gap_ok = median_final <= 0.5 * gap0
    ok = gap_ok and mse_ok and elapsed < 300.0
    assert report(
        "C8 neural end-to-end trend",
        ok,
        f"median final gap {median_final:.3f} vs target {0.5 * gap0:.3f}, "
        f"actor MSE {med['actor'][400]:.1e}->{med['actor'][6400]:.1e}, "
        f"critic MSE {med['critic'][400]:.1e}->{med['critic'][6400]:.1e}, {elapsed:.0f}s",
    ), "the temperature schedule caps sharpening at K=64; see the gap floor of the exact-critic run"


def test_c9_determinism_and_golden_trace():
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_dict(
        {"mdp": "chain2", "algorithm": "linear_exact", "K": 16, "seeds": [0]}
    )
    a = execute_run(cfg, 0).to_csv_text()
    b = execute_run(cfg, 0).to_csv_text()
    golden_ok = a == GOLDEN.read_text()
    elapsed = time.perf_counter() - t0
    ok = (a == b) and golden_ok and elapsed < 5.0
    assert report(
        "C9 determinism", ok, f"re-run identical {a == b}, golden match {golden_ok}, {elapsed:.1f}s"
    )
