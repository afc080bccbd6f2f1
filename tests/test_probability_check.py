"""``check_probabilities`` tests with min/max reductions; it must accept and reject what the ``np.all`` form did.

The reference below is the check as it was written with ``np.all``, kept
inline.  Tables mix ordinary probabilities with NaN, +-inf, entries within
one ulp of the entry tolerance -1e-12 and rows whose sums land within a
few ulps of 1 +- 1e-12, in 1-D, 2-D, 3-D and empty shapes.  Both forms must
pass the same tables and raise the same class with the same message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sstac.errors import ContractViolationError, check_finite, check_nonnegative, check_probabilities

PROB_TOL = 1e-12


def reference_check(name, table):
    """The check as written with ``np.all``."""
    if not np.all(table >= -PROB_TOL):
        check_nonnegative(name, table)
    sums = table.sum(axis=-1)
    if np.all(np.abs(sums - 1.0) <= PROB_TOL):
        return
    check_finite(name, table)
    index = tuple(map(int, np.argwhere(np.abs(sums - 1.0) > PROB_TOL)[0])) if sums.ndim else ()
    where = f" row {index}" if index else ""
    raise ContractViolationError(f"{name}{where} sums to {float(sums[index])!r}, expected 1")


_near_entry = [np.nextafter(-PROB_TOL, d) for d in (-np.inf, np.inf)] + [-PROB_TOL]
_entry = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, np.nan, np.inf, -np.inf, *_near_entry]),
    st.floats(min_value=0.0, max_value=1.0),
)
# Row sums 1 and 1 +- 1e-12, each with its two float neighbours.
_edges = (1.0 + PROB_TOL, 1.0 - PROB_TOL)
_sum_target = st.sampled_from([1.0] + [x for e in _edges for x in (np.nextafter(e, 0.0), e, np.nextafter(e, 2.0))])


@st.composite
def tables(draw):
    """A float table whose rows are free entries, or entries with the last set to hit a sum near 1 +- 1e-12."""
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    table = np.array(draw(st.lists(_entry, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))).reshape(shape)
    if table.size and draw(st.booleans()):
        rows = table.reshape(-1, shape[-1])
        with np.errstate(invalid="ignore"):  # rows that hold inf or NaN keep their own sums
            rows[:, -1] = draw(_sum_target) - rows[:, :-1].sum(axis=1)
    return table


def outcome(check, table):
    try:
        check("policy", table)
    except ContractViolationError as exc:
        return str(exc)
    return None


@settings(max_examples=600, deadline=None, database=None)
@given(tables())
def test_probability_check_matches_np_all_form(table):
    assert outcome(check_probabilities, table) == outcome(reference_check, table)


@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (2, 0, 4), (2, 3, 0)])
def test_empty_tables_behave_as_before(shape):
    table = np.zeros(shape)
    assert outcome(check_probabilities, table) == outcome(reference_check, table)
