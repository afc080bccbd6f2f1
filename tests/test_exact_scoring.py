"""The exact scorer's fast forms give the bytes of the forms they replaced.

Value iteration writes each sweep in place, ``softmax_rows`` tests finiteness
and the clamp with one reduction, and ``error_decomposition`` reads its run
state (the run constants and the previous policy's KL rows and log).  Each is
checked here against its pre-change reference in ``conftest``: output bytes,
error messages and warnings.
"""

import dataclasses
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sstac import (
    ContractViolationError,
    chain2,
    gridworld5,
    optimal_q,
    random_mdp,
    run_linear_ac,
    run_neural_ac,
    softmax_rows,
    tabular_features,
)
from sstac import loop

from conftest import (
    reference_optimal_q,
    reference_scores,
    reference_softmax_rows,
)

GAMMAS = [0.0, 0.5, 0.9, 0.99]


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestOptimalQ:
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from(GAMMAS))
    def test_random_mdps_give_the_reference_bytes(self, n_states, n_actions, seed, gamma):
        mdp = dataclasses.replace(random_mdp(n_states, n_actions, seed), gamma=gamma)
        assert_same_bytes(optimal_q(mdp), reference_optimal_q(mdp))

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("build", [chain2, gridworld5])
    def test_builtins_give_the_reference_bytes(self, build, gamma):
        mdp = dataclasses.replace(build(), gamma=gamma)
        assert_same_bytes(optimal_q(mdp), reference_optimal_q(mdp))


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def softmax_outcome(softmax, logits):
    """What ``softmax`` makes of a copy of ``logits``: (shape and bytes, or error class and message), warnings."""
    handler, logger = _Messages(), logging.getLogger("sstac.policy")
    logger.addHandler(handler)
    z = logits.copy()
    try:
        out = softmax(z)
        result = (out.shape, out.tobytes())
    except (ContractViolationError, ValueError) as exc:
        result = (type(exc), str(exc))
    finally:
        logger.removeHandler(handler)
    assert z.tobytes() == logits.tobytes()  # the input is never written
    return result, handler.messages


EDGE = [np.nan, np.inf, -np.inf, 700.0, -700.0, np.nextafter(700.0, np.inf), -np.nextafter(700.0, np.inf), 701.0]
LOGIT = st.one_of(st.sampled_from(EDGE + [-701.0, 0.0, -0.0]), st.floats(-1e3, 1e3), st.floats(allow_nan=True))


class TestSoftmaxClamping:
    @settings(max_examples=300, deadline=None, database=None)
    @given(arrays(float, st.one_of(st.tuples(st.integers(0, 5)), st.tuples(st.integers(0, 4), st.integers(0, 5))),
                  elements=LOGIT))
    @example(np.array([[800.0, 0.0], [-900.0, 0.0]]))  # the clamp test's input
    @example(np.array([[0.0, np.nan], [np.inf, 701.0]]))  # the first non-finite entry is named
    @example(np.zeros((3, 0)))  # empty rows have no maximum
    @example(np.zeros((0, 3)))
    def test_the_fused_test_gives_the_reference_outcome(self, logits):
        got, want = softmax_outcome(softmax_rows, logits), softmax_outcome(reference_softmax_rows, logits)
        assert got == want
        assert len(got[1]) <= 1  # at most one clamp warning per call


class TestCarry:
    @settings(max_examples=30, deadline=None, database=None)
    @given(
        st.sampled_from(["linear_exact", "linear_sampled", "neural"]),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
    )
    @example("linear_exact", 2, 2, 0, 6)
    @example("linear_sampled", 2, 2, 0, 6)
    @example("neural", 2, 2, 0, 6)
    def test_a_run_writes_the_trace_bytes_of_a_run_without_it(self, algorithm, n_states, n_actions, mdp_seed, K):
        mdp = random_mdp(n_states, n_actions, mdp_seed)

        def trace_text():
            if algorithm == "neural":
                trace = run_neural_ac(mdp, 4, 2, K, N_a=8, N_c=8, seed=1)
            else:
                features = tabular_features(n_states, n_actions)
                trace = run_linear_ac(mdp, features, K, mode=algorithm[7:], N=64, seed=1, ridge=1e-3)
            return trace.to_csv_text()

        with_carry = trace_text()
        drop = lambda mdp, run, **inputs: reference_scores(mdp, **inputs)  # noqa: E731
        with mock.patch.object(loop, "error_decomposition", drop):
            without = trace_text()
        assert with_carry == without
