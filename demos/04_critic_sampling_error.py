"""Statistical error of the sampled projected critic vs the exact one.

The root-mean-square parameter error decays at the 1/sqrt(N) rate: each 4x
increase in batch size should roughly halve the error.
"""
import numpy as np

from sstac import RunRng, chain2, exact_q_pi, stationary_dists, tabular_features
from sstac.linear_ac import critic_step_exact, critic_step_sampled, draw_batch


def main():
    m = chain2()
    feats = tabular_features(2, 2)
    pi = np.full((2, 2), 0.5)
    _, rho = stationary_dists(m, pi)
    omega_k = exact_q_pi(m, pi).reshape(-1)
    exact = critic_step_exact(omega_k, m, pi, feats, rho, radius=20.0)

    print("N       RMS error    ratio to previous")
    prev = None
    for n in (64, 256, 1024, 4096, 16384):
        errs = []
        for seed in range(50):
            batch = draw_batch(m, rho, pi, RunRng(seed), n)
            w = critic_step_sampled(omega_k, batch, feats, m.gamma, radius=20.0)
            errs.append(np.sum((w - exact) ** 2))
        rms = float(np.sqrt(np.mean(errs)))
        ratio = "" if prev is None else f"{prev / rms:.2f}"
        print(f"{n:<7d} {rms:.5f}      {ratio}")
        prev = rms
    print("\n(1/sqrt(N) rate predicts a ratio of 2.00 per 4x increase)")


if __name__ == "__main__":
    main()
