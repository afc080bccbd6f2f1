"""Byte pins for the neural loop and the sampled linear critic (C9 pins linear exact)."""

from pathlib import Path

import pytest

from sstac import build_mdp, chain2, run_linear_ac, run_neural_ac, tabular_features

DATA = Path(__file__).parent / "data"


def neural_chain2():
    return run_neural_ac(chain2(), 8, 2, 3, n_actor=20, n_critic=20, seed=2)


def sampled_random16():
    mdp = build_mdp("random(16,4,7)")
    features = tabular_features(mdp.n_states, mdp.n_actions)
    return run_linear_ac(mdp, features, 6, mode="sampled", N=512, ridge=1e-3, seed=0)


@pytest.mark.parametrize(
    "golden, run",
    [("golden_neural_chain2", neural_chain2), ("golden_sampled_random16", sampled_random16)],
)
def test_trace_matches_golden_bytes(golden, run):
    assert run().to_csv_text() == (DATA / golden / "trace.csv").read_text()
