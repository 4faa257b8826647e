"""Counter-based stream primitives: determinism, splitting, distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homfrag.streams import (
    GOLDEN_GAMMA,
    MASK64,
    Stream,
    StreamBatch,
    derive_key,
    derive_keys,
    mix64,
    replica_key,
    replica_keys,
)


def test_mix64_deterministic_and_nontrivial():
    assert mix64(1) == mix64(1)
    assert mix64(1) != 1  # scrambles nonzero inputs (0 is the fixed point)
    assert mix64(1) != mix64(2)
    outs = {mix64(i) for i in range(1000)}
    assert len(outs) == 1000  # no collisions on a small range


def test_mix64_stays_in_64_bits():
    for z in (0, 1, MASK64, 0xDEADBEEF, GOLDEN_GAMMA):
        assert 0 <= mix64(z) <= MASK64


@given(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=0, max_value=2**20))
@settings(max_examples=200, deadline=None)
def test_derive_key_changes_key(key, index):
    derived = derive_key(key, index)
    assert 0 <= derived <= MASK64
    assert derived != key


def test_derive_key_index_sensitivity():
    key = 12345
    keys = {derive_key(key, i) for i in range(10_000)}
    assert len(keys) == 10_000


def test_replica_keys_distinct():
    keys = {replica_key(7, i) for i in range(5000)}
    assert len(keys) == 5000
    assert replica_key(7, 0) != replica_key(8, 0)


def test_uniform_in_half_open_unit_interval():
    s = Stream(42)
    us = [s.uniform() for _ in range(20_000)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert abs(np.mean(us) - 0.5) < 0.01


def test_uniform_open_excludes_zero():
    s = Stream(42)
    assert all(0.0 < s.uniform_open() < 1.0 for _ in range(20_000))


def test_vectorized_uniforms_match_scalar_sequence():
    a, b = Stream(99), Stream(99)
    vec = a.uniforms(257)
    scalar = np.array([b.uniform() for _ in range(257)])
    assert np.array_equal(vec, scalar)
    # and both streams end in the same state
    assert a.uniform() == b.uniform()


def test_vectorized_empty_draw_leaves_state():
    s = Stream(5)
    before = s.state
    out = s.uniforms(0)
    assert len(out) == 0 and s.state == before


def test_same_key_same_sequence_different_key_diverges():
    assert [Stream(3).uniform() for _ in range(5)] == [Stream(3).uniform() for _ in range(5)]
    assert Stream(3).uniform() != Stream(4).uniform()


def test_reset_restores_sequence():
    s = Stream(11)
    first = [s.uniform() for _ in range(4)]
    s.reset(11)
    assert [s.uniform() for _ in range(4)] == first


def test_spawn_key_does_not_advance_state():
    s = Stream(21)
    before = s.state
    k1 = s.spawn_key(0)
    k2 = s.spawn_key(1)
    assert s.state == before
    assert k1 != k2


def test_exponential_mean_and_positivity():
    s = Stream(1234)
    xs = np.array([s.exponential(2.0) for _ in range(40_000)])
    assert (xs > 0).all()
    se = xs.std(ddof=1) / math.sqrt(len(xs))
    assert abs(xs.mean() - 0.5) < 4 * se


def test_pick_respects_cumulative_weights():
    s = Stream(77)
    cum = [0.2, 0.5, 1.0]
    picks = np.array([s.pick(cum) for _ in range(30_000)])
    freqs = [(picks == j).mean() for j in range(3)]
    for freq, target in zip(freqs, (0.2, 0.3, 0.5)):
        assert abs(freq - target) < 0.01


def test_pick_singleton():
    s = Stream(1)
    assert all(s.pick([1.0]) == 0 for _ in range(100))


@given(st.integers(min_value=-2**70, max_value=2**70), st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None)
def test_vectorised_keys_match_scalar_keys(seed, index):
    keys = replica_keys(seed, 5)
    assert keys.dtype == np.uint64
    assert [int(k) for k in keys] == [replica_key(seed, i) for i in range(5)]
    assert [int(k) for k in derive_keys(keys, index)] == [
        derive_key(replica_key(seed, i), index) for i in range(5)]


def test_stream_batch_lanes_are_scalar_streams():
    keys = replica_keys(17, 6)
    batch = StreamBatch(keys)
    scalar = [Stream(int(k)) for k in keys]
    for idx in ([0, 1, 2, 3, 4, 5], [1, 4], [5], [0, 2, 3]):
        u = batch.uniform(np.array(idx))
        assert u.tolist() == [scalar[i].uniform() for i in idx]
        u = batch.uniform_open(np.array(idx))
        assert u.tolist() == [scalar[i].uniform_open() for i in idx]
