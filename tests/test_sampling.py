import itertools
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sstac import RunRng, TabularMDP, chain2, random_mdp, sample_sa, sample_tuples, sampling

from conftest import single_pass_sample_sa, single_pass_sample_tuples


class ZeroRng:
    """A generator stub whose every uniform draw is exactly 0.0."""

    def random(self, n):
        return np.zeros(n)


class ScriptedRng:
    """A generator stub that returns the given uniform draws, one array per call."""

    def __init__(self, *draws):
        self._draws = iter(draws)

    def random(self, n):
        u = np.asarray(next(self._draws), dtype=float)
        assert u.shape == (n,)
        return u


class TestRunRng:
    def test_same_seed_same_purpose_same_draws(self):
        a = RunRng(7).stream("actor_loop").random(100)
        b = RunRng(7).stream("actor_loop").random(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_purposes_are_independent_streams(self):
        a = RunRng(7).stream("actor_loop").random(10)
        b = RunRng(7).stream("critic_loop").random(10)
        assert np.any(a != b)

    def test_consuming_one_stream_leaves_others_untouched(self):
        plain = RunRng(3)
        interleaved = RunRng(3)
        interleaved.stream("actor_loop").random(1000)  # consume unrelated stream first
        expected = plain.stream("critic_loop").random(50)
        got = interleaved.stream("critic_loop").random(50)
        np.testing.assert_array_equal(got, expected)

    def test_streams_are_cached(self):
        rng = RunRng(1)
        first = rng.stream("gram_batch").random(5)
        second = rng.stream("gram_batch").random(5)
        assert np.any(first != second)  # cached stream advances, never restarts


class TestSampleSa:
    def test_point_mass(self):
        rho = np.zeros((3, 2))
        rho[2, 1] = 1.0
        pairs = sample_sa(rho, RunRng(0).stream("gram_batch"), 50)
        assert np.all(pairs == [2, 1])

    def test_uniform_frequencies(self):
        rho = np.full((2, 2), 0.25)
        pairs = sample_sa(rho, RunRng(1).stream("gram_batch"), 40_000)
        flat = pairs[:, 0] * 2 + pairs[:, 1]
        freqs = np.bincount(flat, minlength=4) / 40_000
        assert np.all((freqs >= 0.22) & (freqs <= 0.28))

    def test_seeded_reproducibility(self):
        rho = np.full((2, 2), 0.25)
        a = sample_sa(rho, RunRng(5).stream("gram_batch"), 100)
        b = sample_sa(rho, RunRng(5).stream("gram_batch"), 100)
        np.testing.assert_array_equal(a, b)

    def test_zero_probability_pairs_never_drawn(self):
        rho = np.array([[0.5, 0.0], [0.0, 0.5]])
        pairs = sample_sa(rho, RunRng(2).stream("gram_batch"), 10_000)
        assert not np.any((pairs[:, 0] == 0) & (pairs[:, 1] == 1))
        assert not np.any((pairs[:, 0] == 1) & (pairs[:, 1] == 0))


class TestSampleTuples:
    def test_deterministic_mdp_and_policy(self):
        m = chain2()
        always_go = np.array([[1.0, 0.0], [1.0, 0.0]])
        rho = np.full((2, 2), 0.25)
        s, a, r, s2, a2 = sample_tuples(m, rho, always_go, RunRng(3).stream("target_batch"), 500)
        np.testing.assert_array_equal(s2, np.where(a == 0, 1 - s, s))
        np.testing.assert_array_equal(a2, 0)
        np.testing.assert_array_equal(r, m.reward[s, a])

    def test_rewards_read_from_table(self):
        m = chain2()
        rng = np.random.default_rng(4)
        pi = rng.dirichlet(np.ones(2), size=2)
        rho = np.full((2, 2), 0.25)
        s, a, r, _, _ = sample_tuples(m, rho, pi, RunRng(4).stream("target_batch"), 200)
        np.testing.assert_array_equal(r, m.reward[s, a])

    def test_conditional_next_state_frequencies(self):
        # random kernel with full support rows; check s' | (s, a) empirically
        rng = np.random.default_rng(5)
        from sstac import random_mdp

        m = random_mdp(3, 2, seed=50)
        pi = rng.dirichlet(np.ones(2), size=3)
        rho = np.full((3, 2), 1.0 / 6.0)
        s, a, _, s2, _ = sample_tuples(m, rho, pi, RunRng(6).stream("target_batch"), 100_000)
        for si, ai in itertools.product(range(3), range(2)):
            mask = (s == si) & (a == ai)
            freqs = np.bincount(s2[mask], minlength=3) / mask.sum()
            tv = 0.5 * np.abs(freqs - m.transition[si, ai]).sum()
            assert tv < 0.02


class TestTieRule:
    """A uniform draw of exactly 0.0 lands on the first outcome with positive mass, in both samplers."""

    def test_conditional_draws_skip_zero_mass(self):
        # The step table of a kernel whose rows for (0, 0) and (1, 0) are these; u = 0.0 for s'.
        rows = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        mdp = TabularMDP(np.vstack([rows, [1.0, 0.0, 0.0]])[:, None, :], np.zeros((3, 1)), 0.9, [1.0, 0.0, 0.0])
        rng = ScriptedRng([0.0, 0.5], [0.0, 0.0], [0.0, 0.0])  # (s, a), then s', then a'
        s, _, _, s_next, _ = sample_tuples(mdp, np.array([[0.5], [0.5], [0.0]]), np.ones((3, 1)), rng, 2)
        np.testing.assert_array_equal(s, [0, 1])
        np.testing.assert_array_equal(s_next, [1, 2])

    def test_sample_sa_skips_zero_mass(self):
        rho = np.array([[0.0, 0.5], [0.5, 0.0]])
        np.testing.assert_array_equal(sample_sa(rho, ZeroRng(), 2), [[0, 1], [0, 1]])

    def test_next_action_skips_zero_mass(self):
        rho = np.array([[0.0, 1.0], [0.0, 0.0]])
        always_second = np.array([[0.0, 1.0], [0.0, 1.0]])
        s, a, _, _, a_next = sample_tuples(chain2(), rho, always_second, ZeroRng(), 3)
        np.testing.assert_array_equal(np.stack([s, a, a_next]), [[0] * 3, [1] * 3, [1] * 3])

    def test_next_state_skips_zero_mass(self):
        # From state 0, "go" moves to state 1 with mass 1: the zero-mass next state 0 comes first.
        rho = np.array([[1.0, 0.0], [0.0, 0.0]])
        s, a, _, s_next, _ = sample_tuples(chain2(), rho, np.full((2, 2), 0.5), ZeroRng(), 3)
        np.testing.assert_array_equal(np.stack([s, a, s_next]), [[0] * 3, [0] * 3, [1] * 3])


def reference_draws(rng, row_probs):
    """The conditional draw as written with a cumsum over the gathered rows."""
    cum = np.cumsum(row_probs, axis=1)
    idx = (cum <= rng.random(row_probs.shape[0])[:, None]).sum(axis=1)
    return np.minimum(idx, row_probs.shape[1] - 1)


def reference_sample_tuples(mdp, rho, pi_next, rng, n):
    """sample_tuples as written before the cumulative tables: gather the rows, then cumsum them."""
    pairs = sample_sa(rho, rng, n)
    s, a = pairs[:, 0], pairs[:, 1]
    s_next = reference_draws(rng, mdp.transition[s, a])
    return s, a, mdp.reward[s, a], s_next, reference_draws(rng, pi_next[s_next])


def _sparse_rows(rng, shape, dip=False):
    """Dirichlet rows with about half their entries set to exact zeros; every row keeps its largest entry.

    With ``dip``, about half the zeros become entries in [-1e-12, 0), which the probability check
    admits, and each row's largest entry takes their mass back, so the row still sums to 1.
    """
    p = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    top = p == p.max(axis=-1, keepdims=True)
    p = np.where((rng.random(p.shape) < 0.5) | top, p, 0.0)
    p /= p.sum(axis=-1, keepdims=True)
    if dip:
        neg = np.where((p == 0.0) & (rng.random(p.shape) < 0.5), -1e-12 * rng.random(p.shape), 0.0)
        p += neg
        p -= np.where(top & (np.cumsum(top, axis=-1) == 1), neg.sum(axis=-1, keepdims=True), 0.0)
    return p


def _cdf_ties(cum_rows, rng):
    """One uniform per CDF row, about half of them an entry of that row or 0.0, so u ties with an entry."""
    n, k = cum_rows.shape
    ties = np.hstack([cum_rows, np.zeros((n, 1))])[np.arange(n), rng.integers(0, k + 1, n)]
    return np.where(rng.random(n) < 0.5, ties, rng.random(n))


def _tied_tuple_draws(mdp, rho, pi_next, seed, n):
    """sample_tuples' three uniform arrays, each tying with entries of the CDF rows it is compared with."""
    rng = np.random.default_rng(seed)
    u_sa = _cdf_ties(np.broadcast_to(np.cumsum(rho.ravel()), (n, rho.size)), rng)
    s, a = sample_sa(rho, ScriptedRng(u_sa), n).T
    u_next = _cdf_ties(np.cumsum(mdp.transition[s, a], axis=1), rng)
    s_next = reference_draws(ScriptedRng(u_next), mdp.transition[s, a])
    return u_sa, u_next, _cdf_ties(np.cumsum(pi_next[s_next], axis=1), rng)


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(0, 2000), st.booleans(), st.booleans()
)
@example(3, 2, 7, 0, True, False)
@example(1, 1, 0, 5, False, True)
def test_cumulative_tables_draw_the_old_tuples(n_states, n_actions, seed, n, dip, ties):
    # The step table's count for s' and the transposed policy CDF's count for a' must give the
    # indices of counting a cumsum over the gathered rows, also where entries in [-1e-12, 0)
    # make a CDF row dip and where u equals a CDF entry: the same draws, the same five arrays.
    rng = np.random.default_rng(seed)
    base = random_mdp(n_states, n_actions, seed=seed)
    kernel = _sparse_rows(rng, (n_states, n_actions, n_states), dip)
    mdp = TabularMDP(kernel, base.reward, base.gamma, base.initial_dist)
    rho = _sparse_rows(rng, (n_states * n_actions,)).reshape(n_states, n_actions)
    pi_next = _sparse_rows(rng, (n_states, n_actions), dip)
    if ties:
        draws = _tied_tuple_draws(mdp, rho, pi_next, seed, n)
        got_rng, expected_rng = ScriptedRng(*draws), ScriptedRng(*draws)
    else:
        got_rng, expected_rng = RunRng(seed).stream("target_batch"), RunRng(seed).stream("target_batch")
    got = sample_tuples(mdp, rho, pi_next, got_rng, n)
    expected = reference_sample_tuples(mdp, rho, pi_next, expected_rng, n)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and np.array_equal(g, e)


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.lists(st.sampled_from([0.0, 0.0, 1.0, 0.25, 3.0]), min_size=1, max_size=41),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.integers(0, 300),
)
@example([0.0, 1.0, 0.0], 1, 0, 0)
@example([0.0] * 7 + [1.0] + [0.0] * 9, 1, 1, 50)
@example([0.0, 1.0, 0.25, 3.0] * 600, 4, 2, 3000)
@example([1.0] * 4096, 8, 3, 3000)
def test_sample_sa_counts_as_searchsorted_does(weights, n_actions, seed, n):
    # Over nondecreasing CDFs of any length, with exact zeros and point masses, the blocked count
    # gives searchsorted's index, also where u equals a CDF entry.  Past 2,048 entries the count of
    # whole blocks <= u can pass 255 and is summed in 16 bits.
    weights = np.array(weights + [0.0] * (-len(weights) % n_actions))
    if weights.sum() == 0.0:
        weights[seed % len(weights)] = 1.0
    rho = (weights / weights.sum()).reshape(-1, n_actions)
    cum = np.cumsum(rho.reshape(-1))
    u = _cdf_ties(np.broadcast_to(cum, (n, len(cum))), np.random.default_rng(seed))
    pairs = sample_sa(rho, ScriptedRng(u), n)
    expected = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    assert pairs.dtype == expected.dtype and pairs.shape == (n, 2)
    np.testing.assert_array_equal(pairs[:, 0] * n_actions + pairs[:, 1], expected)


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.integers(0, 300))
def test_sample_sa_counts_entries_where_the_cdf_dips(size, seed, n):
    # With entries in [-1e-12, 0) the CDF may dip, and searchsorted's answer on an unsorted array
    # is no contract; the index is the number of CDF entries <= u, as in the s' and a' draws.
    rng = np.random.default_rng(seed)
    rho = _sparse_rows(rng, (size,), dip=True).reshape(size, 1)
    cum = np.cumsum(rho.reshape(-1))
    u = _cdf_ties(np.broadcast_to(cum, (n, size)), rng)
    expected = np.minimum((cum <= u[:, None]).sum(axis=1), size - 1)
    np.testing.assert_array_equal(sample_sa(rho, ScriptedRng(u), n)[:, 0], expected)


def test_sample_sa_dip_rule():
    # cum = [0.5, 0.5 - 1e-12, 1.0]: a u inside the dip counts one entry, so the negative-mass pair
    # is drawn there; u = 0.5 counts two.
    rho = np.array([[0.5, -1e-12, 0.5 + 1e-12]])
    pairs = sample_sa(rho, ScriptedRng([0.5 - 5e-13, 0.5, 0.25]), 3)
    np.testing.assert_array_equal(pairs, [[0, 1], [0, 2], [0, 0]])


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.integers(1, 12),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.integers(0, 300),
    st.sampled_from([1, 2, 5, 16, 64]),
    st.booleans(),
    st.booleans(),
)
@example(1, 1, 0, 0, 16, False, False)  # n = 0, widths 1
@example(1, 1, 1, 33, 16, True, False)  # a single state and action, 33 draws in chunks of 16
@example(12, 4, 2, 300, 16, True, True)  # 300 draws is no multiple of any chunk here
def test_chunked_counts_draw_the_single_pass_arrays(n_states, n_actions, seed, n, chunk, dip, ties):
    # With the chunk bound made small, each call walks its draws in several chunks, and in one chunk per
    # draw where the bound is below the width.  Pairs and tuples must keep the bytes and dtypes of the
    # single-pass counts, with zero-mass entries, CDF dips in [-1e-12, 0) and u tied with CDF entries.
    rng = np.random.default_rng(seed)
    base = random_mdp(n_states, n_actions, seed=seed)
    kernel = _sparse_rows(rng, (n_states, n_actions, n_states), dip)
    mdp = TabularMDP(kernel, base.reward, base.gamma, base.initial_dist)
    rho = _sparse_rows(rng, (n_states * n_actions,), dip).reshape(n_states, n_actions)
    pi_next = _sparse_rows(rng, (n_states, n_actions), dip)
    if ties and n:
        draws = _tied_tuple_draws(mdp, rho, pi_next, seed, n)
        rngs = [ScriptedRng(*draws) for _ in range(2)] + [ScriptedRng(draws[0]) for _ in range(2)]
    else:
        rngs = [RunRng(seed).stream("target_batch") for _ in range(4)]
    with mock.patch.object(sampling, "_CHUNK", chunk):
        got = sample_tuples(mdp, rho, pi_next, rngs[0], n), sample_sa(rho, rngs[2], n)
    expected = single_pass_sample_tuples(mdp, rho, pi_next, rngs[1], n), single_pass_sample_sa(rho, rngs[3], n)
    for g, e in zip([*got[0], got[1]], [*expected[0], expected[1]]):
        assert g.dtype == e.dtype and g.shape == e.shape and g.tobytes() == e.tobytes()


def test_draw_counts_stay_within_their_chunk_bound():
    # random(512, 8) at N = 16,384: one comparison over every draw held 72.5 MiB in sample_tuples and
    # 8.2 MiB in sample_sa; in chunks of at most 2**18 entries both stay a few MiB whatever N is.
    mdp = random_mdp(512, 8, seed=0)
    rng = np.random.default_rng(1)
    rho = rng.dirichlet(np.ones(512 * 8)).reshape(512, 8)
    pi_next = rng.dirichlet(np.ones(8), size=512)
    sample_tuples(mdp, rho, pi_next, RunRng(0).stream("target_batch"), 1)  # builds the step table, checks pi_next
    for draw, bound in [
        (lambda: sample_tuples(mdp, rho, pi_next, RunRng(0).stream("target_batch"), 16_384), 8 * 2**20),
        (lambda: sample_sa(rho, RunRng(0).stream("gram_batch"), 16_384), 4 * 2**20),
    ]:
        tracemalloc.start()
        try:
            draw()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.0f} MiB"
