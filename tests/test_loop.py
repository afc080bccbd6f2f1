"""The shared single-timescale loop, checked through both entry points."""

import math

import numpy as np
import pytest

from sstac import (
    ErgodicityError,
    ParameterError,
    SstacError,
    chain2,
    linear_ac,
    neural_ac,
    run_linear_ac,
    run_neural_ac,
    tabular_features,
)


def linear(**kwargs):
    return run_linear_ac(chain2(), tabular_features(2, 2), kwargs.pop("K", 2), **kwargs)


def neural(**kwargs):
    return run_neural_ac(chain2(), 4, 1, kwargs.pop("K", 2), n_actor=4, n_critic=4, **kwargs)


@pytest.mark.parametrize("run", [linear, neural], ids=["linear", "neural"])
@pytest.mark.parametrize(
    "key, value",
    [("K", 0), ("beta", -1.0), ("radius", -1.0), ("beta", math.inf), ("beta", math.nan), ("radius", math.inf)],
)
def test_shared_parameter_validation(run, key, value):
    with pytest.raises(ParameterError):
        run(**{key: value})


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
        linear(radius=1.0)
    assert type(exc.value) is SstacError
    assert str(exc.value) == "at k=0: critic_norm 2.0 left the projection ball of radius 1.0"


def test_broken_ball_projection_names_distance_and_radius(monkeypatch):
    # The loop checks the averaged networks a step returns.  At k=0 the actor's target is
    # its own output (both networks share one initialization), so only the critic moves.
    monkeypatch.setattr(neural_ac, "project_ball_inplace", lambda params, radius: None)
    with pytest.raises(SstacError) as exc:
        neural(radius=0.0)
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
        neural(radius=1.0)
    assert type(exc.value) is SstacError
    assert str(exc.value) == "at k=0: actor_norm 4.0 left the projection ball of radius 1.0"


def test_neural_run_at_zero_radius_stays_on_the_anchor():
    # Every iterate is reset to the anchor; the averaged networks differ from it by
    # round-off only, which the loop's absolute bound of 1e-9 admits.
    trace = run_neural_ac(chain2(), 32, 2, 2, n_actor=400, n_critic=400, radius=0.0)
    assert len(trace.rows) == 3
    norms = [row[trace.columns.index(name)] for row in trace.rows for name in ("actor_norm", "critic_norm")]
    assert 0.0 < max(norms) <= 1e-9
