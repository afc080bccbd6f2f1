import numpy as np
import pytest

from sstac import chain2, random_mdp, tabular_features


@pytest.fixture
def chain():
    return chain2()


@pytest.fixture
def chain_features():
    return tabular_features(2, 2)


@pytest.fixture
def mdp5():
    return random_mdp(5, 3, seed=11)


def mdp_doc(mdp):
    """The JSON document that ``mdp_from_json`` reads back as ``mdp``."""
    return {
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "gamma": mdp.gamma,
        "r_max": mdp.r_max,
        "transition": mdp.transition.tolist(),
        "reward": mdp.reward.tolist(),
        "initial_dist": mdp.initial_dist.tolist(),
    }


def random_policy(rng, n_states, n_actions):
    return rng.dirichlet(np.ones(n_actions), size=n_states)
