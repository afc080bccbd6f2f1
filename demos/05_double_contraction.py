"""The two decay regimes of the critic's tracking error.

With the exact critic, the tracking error e_{k+1} = Q_w_k - T^{pi_{k+1}} Q_w_k
first contracts geometrically (the discount factor at work), then settles on
a floor driven by policy drift, whose decay rate is the sharpening rate of
the softmax policy (~ action-gap / beta per step) rather than gamma.  It also
prints where acceptance C4's 193-point window would first meet its bound.
"""
import numpy as np

from sstac import chain2, run_linear_ac, tabular_features


def main():
    m = chain2()
    trace = run_linear_ac(m, tabular_features(2, 2), K=1024, mode="exact", beta=16.0, seed=0)
    e_sup = np.array(trace.column("e_sup"))

    print("k      e_sup        e_sup / gamma^k")
    for k in (1, 4, 8, 16, 32, 64, 256, 1024):
        print(f"{k:<6d} {e_sup[k]:.3e}    {e_sup[k] / 0.9**k:.3e}")

    print("\nlog-slope of e_sup by window (gamma-contraction would be ln 0.9 = -0.105):")
    for lo, hi in ((1, 16), (16, 64), (64, 256), (256, 512), (512, 1024)):
        ks = np.arange(lo, hi + 1)
        slope = np.polyfit(ks, np.log(e_sup[lo : hi + 1]), 1)[0]
        print(f"  [{lo:>4d},{hi:>4d}]: {slope:+.5f}")
    print("\nearly windows show the geometric phase; late windows approach the")
    print("policy-drift rate 0.09/beta = -0.005625 on this chain")

    # Acceptance C4 fits 193 points (k = 64..256) against ln(gamma) + 0.1; the same window, moved later.
    def window_slope(start):
        ks = np.arange(start, start + 193)
        return np.polyfit(ks, np.log(e_sup[start : start + 193]), 1)[0]

    bound = np.log(0.9) + 0.1
    first = next(k for k in range(64, len(e_sup) - 192) if window_slope(k) <= bound)
    print(f"\nC4 bound ln 0.9 + 0.1 = {bound:.5f}; 193-point window slope at start 64: {window_slope(64):.5f},")
    print(f"  at 512: {window_slope(512):.5f}, at 576: {window_slope(576):.5f}; first start meeting the bound: {first}")


if __name__ == "__main__":
    main()
