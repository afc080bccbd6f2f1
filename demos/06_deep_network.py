"""The anchored deep ReLU network: backprop check, ball projection, linearization.

The network output is b . x_H with x_h = relu(W_h^T x_{h-1}) / sqrt(m) and a
frozen sign vector b.  Training is restricted to a per-layer Frobenius ball
around the initialization.
"""
import numpy as np

from sstac.deep_net import (
    forward,
    gradient,
    init_params,
    linearization_gap,
    project_ball,
    sa_encoding_table,
)


def main():
    rng = np.random.default_rng(0)
    d, m, depth = 6, 32, 2
    net = init_params(d, m, depth, seed=42)
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)

    value, grads = gradient(net, x)
    print(f"net (d={d}, m={m}, H={depth}): u(x) = {value:+.4f}")

    # spot-check backprop against central differences on a few coordinates
    step = 1e-5
    worst = 0.0
    for _ in range(20):
        h = int(rng.integers(depth))
        i = int(rng.integers(net.weights[h].shape[0]))
        j = int(rng.integers(net.weights[h].shape[1]))
        orig = net.weights[h][i, j]
        net.weights[h][i, j] = orig + step
        up = forward(net, x)[0]
        net.weights[h][i, j] = orig - step
        down = forward(net, x)[0]
        net.weights[h][i, j] = orig
        fd = (up - down) / (2 * step)
        worst = max(worst, abs(fd - grads[h][i, j]) / max(abs(fd), 1e-8))
    print(f"worst relative backprop-vs-FD error over 20 spot checks: {worst:.2e}")

    # ball projection pulls the weights back toward the anchor per layer
    drifted = net.clone()
    for w in drifted.weights:
        w += 0.5 * rng.standard_normal(w.shape)
    print("\nanchor distances before projection:", np.round(drifted.anchor_distances(), 3))
    projected = project_ball(drifted, radius=0.25)
    print("anchor distances after  projection:", np.round(projected.anchor_distances(), 3))

    # linearization gap grows superlinearly with the perturbation size
    print("\nperturbation eps -> |u - linearized u| at the anchor:")
    direction = [rng.standard_normal(w.shape) for w in net.weights]
    direction = [v / np.linalg.norm(v) for v in direction]
    for eps in (1e-3, 1e-2, 1e-1):
        p = net.clone()
        for w, v in zip(p.weights, direction):
            w += eps * v
        print(f"  eps={eps:.0e}: gap = {linearization_gap(p, x):.3e}")

    enc = sa_encoding_table(2, 2)
    print("\nstate-action encodings are unit vectors:", np.linalg.norm(enc, axis=2).round(12).tolist())


if __name__ == "__main__":
    main()
