"""The shared single-timescale loop, checked through both entry points."""

import math

import pytest

from sstac import ErgodicityError, ParameterError, chain2, neural_ac, run_linear_ac, run_neural_ac, tabular_features


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
