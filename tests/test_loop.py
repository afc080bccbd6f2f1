"""The shared single-timescale loop and its run settings, checked through both entry points."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sstac import (
    ConfigError,
    ErgodicityError,
    ExperimentConfig,
    ParameterError,
    SstacError,
    chain2,
    linear_ac,
    neural_ac,
    run_linear_ac,
    run_neural_ac,
    tabular_features,
)
from sstac.harness import ALGORITHM_KEYS
from sstac.loop import SETTINGS, run_single_timescale
from sstac.mdp import stationary_dists
from sstac.policy import softmax_rows


def linear(**kwargs):
    return run_linear_ac(chain2(), tabular_features(2, 2), kwargs.pop("K", 2), **kwargs)


def neural(**kwargs):
    return run_neural_ac(chain2(), **{"m": 4, "H": 1, "K": 2, "N_a": 4, "N_c": 4, **kwargs})


def test_loop_forms_each_policy_and_distribution_from_the_actor_energy():
    # Stub fits on chain2: the actor returns a fixed energy per k, and the critic records what the loop hands it.
    mdp, beta, K = chain2(), 3.0, 3
    energies = [np.array([[0.3, -1.2], [2.0, 0.5]]) * (k + 1) for k in range(K + 1)]
    actor_pis, handed = [], []

    def actor_fit(k, pi_k, q_k):
        actor_pis.append(pi_k)
        return energies[k]

    def critic_fit(pi_next, rho_next, q_k):
        handed.append((pi_next, rho_next))
        return q_k, {"actor_norm": 0.0, "critic_norm": 0.0, "fit_column": 7.0}

    params = {"K": K, "beta": beta, "R": 1.0}
    trace = run_single_timescale(
        mdp, actor_fit, critic_fit, q_0=np.zeros((2, 2)), features=tabular_features(2, 2), params=params
    )
    assert len(handed) == K + 1
    for k, (pi_next, rho_next) in enumerate(handed):
        expected_pi = softmax_rows((k + 1) / beta * energies[k])
        assert pi_next.tobytes() == expected_pi.tobytes()
        assert rho_next.tobytes() == stationary_dists(mdp, expected_pi)[1].tobytes()
    assert actor_pis[0].tolist() == [[0.5, 0.5], [0.5, 0.5]]
    assert all(pi_k is pi_next for pi_k, (pi_next, _) in zip(actor_pis[1:], handed))
    assert trace.columns[-5:] == ["a_resid", "inv_tau", "actor_norm", "critic_norm", "fit_column"]
    assert trace.column("inv_tau") == [(k + 1) / beta for k in range(K + 1)]


@pytest.mark.parametrize("run", [linear, neural], ids=["linear", "neural"])
@pytest.mark.parametrize(
    "key, value",
    [("K", 0), ("beta", -1.0), ("R", -1.0), ("beta", math.inf), ("beta", math.nan), ("R", math.inf)],
)
def test_shared_parameter_validation(run, key, value):
    with pytest.raises(ParameterError):
        run(**{key: value})


@pytest.mark.parametrize("run", [linear, neural], ids=["linear", "neural"])
def test_none_R_and_beta_take_the_driver_defaults(run):
    assert run(R=None, beta=None).to_csv_text() == run().to_csv_text()


@pytest.mark.parametrize("run", [linear, neural], ids=["linear", "neural"])
def test_numpy_integer_settings_are_recorded_as_ints(run):
    trace = run(K=np.int64(2))
    assert trace.to_csv_text() == run().to_csv_text()
    assert type(trace.manifest["params"]["K"]) is int


DRIVERS = {"linear_exact": run_linear_ac, "linear_sampled": run_linear_ac, "neural": run_neural_ac}


@pytest.mark.parametrize("algorithm", DRIVERS)
def test_drivers_take_the_config_names(algorithm):
    # execute_run passes a config's settings straight through, with arch's m and H as m and H.
    parameters = inspect.signature(DRIVERS[algorithm]).parameters
    keys = {"K", "R", "beta", "seed", *ALGORITHM_KEYS[algorithm]}
    for key in keys - {"arch"} | ({"m", "H"} if "arch" in keys else set()):
        assert key in parameters and parameters[key].kind is not inspect.Parameter.POSITIONAL_ONLY, key


# The algorithm whose config reads each setting; K, R, beta and seed are read by every one.
SETTING_ALGORITHM = {"K": "linear_exact", "R": "linear_exact", "beta": "linear_exact", "seed": "linear_exact",
                     "N": "linear_sampled", "ridge": "linear_sampled",
                     "N_a": "neural", "N_c": "neural", "m": "neural", "H": "neural"}
SETTING_CONFIGS = {
    "linear_exact": {"mdp": "chain2", "algorithm": "linear_exact", "K": 2},
    "linear_sampled": {"mdp": "chain2", "algorithm": "linear_sampled", "K": 2, "N": 8},
    "neural": {"mdp": "chain2", "algorithm": "neural", "K": 2, "arch": {"m": 4, "H": 1}},
}
SETTING_DRIVERS = {
    "linear_exact": linear, "linear_sampled": lambda **kw: linear(mode="sampled", **kw), "neural": neural,
}


def config_setting(doc, key, value):
    """``doc`` with ``key`` set where a config sets it: m and H under arch, a seed as the one entry of seeds."""
    if key in ("m", "H"):
        return {**doc, "arch": {**doc["arch"], key: value}}
    return {**doc, "seeds": [value]} if key == "seed" else {**doc, key: value}


class Accepted(Exception):
    """Raised by the first step after a driver's setting checks, so no accepted size allocates anything."""


def accept(*args, **kwargs):
    raise Accepted


def rejection(call, error):
    """The message of the ``error`` that ``call()`` raises, or None when it returns or raises Accepted."""
    try:
        call()
    except error as exc:
        return str(exc)
    except Accepted:
        pass
    return None


@given(
    key=st.sampled_from(sorted(SETTINGS)),
    value=st.one_of(
        st.integers(-(2**1100), 2**1100), st.floats(), st.booleans(), st.sampled_from([0.0, -0.0, math.nan, math.inf])
    ),
)
@example(key="R", value=10**400)
@example(key="beta", value=-(10**400))
@example(key="K", value=2**53)
@example(key="N_a", value=2**53 + 1)
@example(key="seed", value=2**1024)
def test_config_and_driver_apply_one_rule(key, value):
    algorithm = SETTING_ALGORITHM[key]
    doc = config_setting(SETTING_CONFIGS[algorithm], key, value)
    config = rejection(lambda: ExperimentConfig.from_dict(doc), ConfigError)
    with pytest.MonkeyPatch.context() as patch:
        # The drivers check every setting before they build anything.
        patch.setattr(linear_ac, "run_single_timescale", accept)
        patch.setattr(neural_ac, "sa_encoding_table", accept)
        driver = rejection(lambda: SETTING_DRIVERS[algorithm](**{key: value}), ParameterError)
    assert config == driver


def test_neural_loop_errors_name_the_iteration(monkeypatch):
    calls = []
    real = neural_ac.critic_inner_loop

    def fail_second_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise ErgodicityError("power iteration did not converge")
        return real(*args, **kwargs)

    monkeypatch.setattr(neural_ac, "critic_inner_loop", fail_second_call)
    with pytest.raises(ErgodicityError) as exc:
        neural(K=3)
    assert type(exc.value) is ErgodicityError
    assert exc.value.code == "ergodicity"
    assert str(exc.value).count("k=1") == 1
    assert str(exc.value) == "at k=1: power iteration did not converge"


def test_broken_critic_projection_names_norm_and_radius(monkeypatch):
    # A critic step that skips its projection leaves omega = (2, 0, 0, 0) outside the radius-1 ball.
    monkeypatch.setattr(linear_ac, "critic_step_exact", lambda q_omega, *args, radius: np.eye(4)[0] * 2.0 * radius)
    with pytest.raises(SstacError) as exc:
        linear(R=1.0)
    assert type(exc.value) is SstacError
    assert str(exc.value) == "at k=0: critic_norm 2.0 left the projection ball of radius 1.0"


def test_broken_ball_projection_names_distance_and_radius(monkeypatch):
    # The loop checks the averaged networks a step returns.  At k=0 the actor's target is
    # its own output (both networks share one initialization), so only the critic moves.
    monkeypatch.setattr(neural_ac, "project_ball_inplace", lambda params, radius: None)
    with pytest.raises(SstacError) as exc:
        neural(R=0.0)
    assert type(exc.value) is SstacError
    prefix, suffix = "at k=0: critic_norm ", " left the projection ball of radius 0.0"
    message = str(exc.value)
    assert message.startswith(prefix) and message.endswith(suffix)
    assert float(message[len(prefix) : -len(suffix)]) > 1e-9


def test_actor_outside_the_ball_names_actor_norm(monkeypatch):
    # An actor loop that returns a network 4 from its anchor (every entry of the 4x4 layer moved by 1).
    real = neural_ac.actor_inner_loop

    def drifted(*args, **kwargs):
        out = real(*args, **kwargs)
        out.weights[0] = out.weights[0] + 1.0
        return out

    monkeypatch.setattr(neural_ac, "actor_inner_loop", drifted)
    with pytest.raises(SstacError) as exc:
        neural(R=1.0)
    assert type(exc.value) is SstacError
    assert str(exc.value) == "at k=0: actor_norm 4.0 left the projection ball of radius 1.0"


def test_neural_run_at_zero_radius_stays_on_the_anchor():
    # Every iterate is reset to the anchor; the averaged networks differ from it by
    # round-off only, which the loop's absolute bound of 1e-9 admits.
    trace = run_neural_ac(chain2(), 32, 2, 2, N_a=400, N_c=400, R=0.0)
    assert len(trace.rows) == 3
    norms = [row[trace.columns.index(name)] for row in trace.rows for name in ("actor_norm", "critic_norm")]
    assert 0.0 < max(norms) <= 1e-9
