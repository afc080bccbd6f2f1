"""Exact MDP oracles on the two-state chain.

Shows the value of a fixed policy from an S×S solve for V^π, the Bellman
fixed-point property, the optimal policy from value iteration, and the
stationary / occupancy distributions.
"""
import numpy as np

from sstac import (
    bellman_eval,
    chain2,
    exact_q_pi,
    objective_J,
    optimal_q,
    stationary_dists,
    visitation_dist,
)

np.set_printoptions(precision=4, suppress=True)


def main():
    m = chain2()
    print(f"chain2: {m.n_states} states, {m.n_actions} actions (0=go, 1=stay), gamma={m.gamma}")

    always_go = np.array([[1.0, 0.0], [1.0, 0.0]])
    q_go = exact_q_pi(m, always_go)
    print("\nQ of always-go (rows = states, cols = actions):")
    print(q_go)
    residual = np.max(np.abs(bellman_eval(m, always_go, q_go) - q_go))
    print(f"Bellman fixed-point residual: {residual:.2e}")

    q_star, greedy = optimal_q(m)
    print("\noptimal Q:")
    print(q_star)
    print("greedy policy (one-hot rows):")
    print(greedy)

    nu, rho = stationary_dists(m, always_go)
    print(f"\nstationary state distribution of always-go: {nu}  (period-2 chain)")
    occupancy = visitation_dist(m, always_go)
    print("discounted occupancy from the start state:")
    print(occupancy)

    print(f"\nJ(always-go) = {objective_J(m, always_go):.4f}")
    print(f"J(greedy)    = {objective_J(m, greedy):.4f}")


if __name__ == "__main__":
    main()
