"""The KL-regularized policy improvement step and its closed form.

The improvement of a softmax policy toward a Q-table with a KL penalty has an
exact softmax solution; this compares it against brute-force maximization
over random simplex points.
"""
import numpy as np

from sstac import kl, kl_regularized_argmax, softmax_rows

np.set_printoptions(precision=4, suppress=True)


def objective(p, q_row, base_row, beta):
    return p @ q_row - beta * kl(p, base_row)


def main():
    rng = np.random.default_rng(0)
    logits = 0.5 * rng.standard_normal((2, 4))
    base = softmax_rows(logits)
    q = rng.uniform(0.0, 1.0, size=(2, 4))
    beta = 2.0

    improved = kl_regularized_argmax(logits, q, beta)
    print("base policy:")
    print(base)
    print("\nQ table:")
    print(q)
    print(f"\nclosed-form improvement (beta={beta}):")
    print(improved)

    for s in range(2):
        best_random = max(
            objective(rng.dirichlet(np.ones(4)), q[s], base[s], beta) for _ in range(20000)
        )
        closed_val = objective(improved[s], q[s], base[s], beta)
        print(
            f"state {s}: closed-form objective {closed_val:.6f} vs best of 20000 random "
            f"simplex points {best_random:.6f}"
        )

    # beta controls the step size: large beta stays near the base policy
    for b in (0.5, 2.0, 1e6):
        step = kl_regularized_argmax(logits, q, b)
        move = np.abs(step - base).max()
        print(f"beta={b:>8g}: max |pi_new - pi_base| = {move:.2e}")


if __name__ == "__main__":
    main()
