import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sstac import RunRng, TabularMDP, chain2, random_mdp, sample_sa, sample_tuples
from sstac.sampling import _conditional_draws


class ZeroRng:
    """A generator stub whose every uniform draw is exactly 0.0."""

    def random(self, n):
        return np.zeros(n)


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
        rows = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(_conditional_draws(ZeroRng(), np.cumsum(rows, axis=1)), [1, 2])

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


def _sparse_rows(rng, shape):
    """Dirichlet rows with about half their entries set to exact zeros; every row keeps its largest entry."""
    p = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    p = np.where((rng.random(p.shape) < 0.5) | (p == p.max(axis=-1, keepdims=True)), p, 0.0)
    return p / p.sum(axis=-1, keepdims=True)


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(0, 2000))
def test_cumulative_tables_draw_the_old_tuples(n_states, n_actions, seed, n):
    # Gathering rows of the MDP's cumulative table, and of one per-call cumsum of the policy,
    # must give the bits of a cumsum over the gathered rows: the same seed, the same five arrays.
    rng = np.random.default_rng(seed)
    base = random_mdp(n_states, n_actions, seed=seed)
    mdp = TabularMDP(_sparse_rows(rng, (n_states, n_actions, n_states)), base.reward, base.gamma, base.initial_dist)
    rho = _sparse_rows(rng, (n_states * n_actions,)).reshape(n_states, n_actions)
    pi_next = _sparse_rows(rng, (n_states, n_actions))
    got = sample_tuples(mdp, rho, pi_next, RunRng(seed).stream("target_batch"), n)
    expected = reference_sample_tuples(mdp, rho, pi_next, RunRng(seed).stream("target_batch"), n)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and np.array_equal(g, e)
