"""Counter-based stream primitives: determinism, splitting, distributions."""

from bisect import bisect_right
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
    lanewise,
    map_replicas,
    mix64,
    pick_index,
    pick_indices,
    replica_key,
    replica_keys,
)


def test_lanewise_passes_a_further_argument_by_entry_or_to_every_call():
    x = np.array([0.25, 0.5, 2.0, 1e-300])
    y = np.array([3.0, -1.0, 0.5, 0.75])
    xs, ys = x.tolist(), y.tolist()
    assert lanewise(math.log, x).tolist() == [math.log(a) for a in xs]
    assert lanewise(pow, x, y).tolist() == [a ** b for a, b in zip(xs, ys)]
    assert lanewise(pow, x, 0.5).tolist() == [a ** 0.5 for a in xs]
    assert lanewise(pow, x[:0], 0.5).size == 0
    with pytest.raises(OverflowError):  # libm's error, as the scalar ** raises
        lanewise(pow, np.array([0.5, 1e300]), 2.0)


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


def test_pick_index_ties_and_clamp():
    # a running sum equal to u * total is passed over; u = 1 falls back to
    # the last index instead of running off the end
    cum = [0.5, 1.5, 2.0]
    assert [pick_index(cum, u) for u in (0.0, 0.25, 0.75, 0.99, 1.0)] == [
        0, 1, 2, 2, 2]
    s, t = Stream(5), Stream(5)
    assert [s.pick(cum) for _ in range(50)] == [
        pick_index(cum, t.uniform()) for _ in range(50)]


# weights of 1-4 pieces: totals one ulp below and above 1 (the splits 0.7,
# 0.2, 0.1 and 0.56, 0.34, 0.1 among them), a trailing piece too small to
# move the running sum, running sums that u * total can tie
_PICK_ROWS = [
    [1.0], [0.75], [0.6, 0.4], [0.5, 0.5 - 2.0 ** -53],
    [0.5 + 2.0 ** -52, 0.5], [0.7, 0.2, 0.1], [0.56, 0.34, 0.1],
    [0.75, 0.25, 1e-17], [0.5, 0.3, 0.2 - 5e-10],
    [1.0, 1.0, 2.0], [0.4, 0.3, 0.2, 0.1], [3.0, 1e-300, 1e-300, 1e-300],
] + np.random.default_rng(29).dirichlet(np.ones(4), 6).tolist()
_PICK_U = [0.0, 0.25, 0.5, 0.75, 0.8, 1.0 - 2.0 ** -53, 1.0] + (
    StreamBatch(replica_keys(29, 40)).uniform_at(np.arange(40), 1).tolist())


def test_pick_indices_is_pick_index_row_by_row():
    width = 5  # every row zero-padded past its last weight
    weights = np.zeros((len(_PICK_ROWS), width))
    for r, row in enumerate(_PICK_ROWS):
        weights[r, :len(row)] = row
    cum = np.cumsum(weights, axis=1)
    last = np.array([len(row) - 1 for row in _PICK_ROWS])
    for u in _PICK_U:
        got = pick_indices(cum, u * cum[:, -1], last)
        assert got.tolist() == [
            pick_index(cum[r, :last[r] + 1].tolist(), u)
            for r in range(len(_PICK_ROWS))], u
        # unscaled, as the tagged lines pick: the first running sum above u
        got = pick_indices(cum, np.full(len(_PICK_ROWS), u), last)
        assert got.tolist() == [
            min(bisect_right(cum[r].tolist(), u), last[r])
            for r in range(len(_PICK_ROWS))], u
    # one row for every uniform
    u = np.array(_PICK_U)
    for r, row in enumerate(_PICK_ROWS):
        running = cum[r, :len(row)]
        assert pick_indices(running, u * running[-1], len(row) - 1).tolist() \
            == [pick_index(running.tolist(), x) for x in _PICK_U]


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
    drawn = np.zeros(6, dtype=int)  # each lane's draws so far
    for idx in ([0, 1, 2, 3, 4, 5], [1, 4], [5], [0, 2, 3]):
        drawn[idx] += 1
        u = batch.uniform_at(np.array(idx), drawn[idx])
        assert u.tolist() == [scalar[i].uniform() for i in idx]


def test_stream_batch_draws_at_offsets_without_advancing():
    keys = replica_keys(19, 4)
    batch = StreamBatch(keys)
    draws = [[s.uniform() for _ in range(7)]
             for s in (Stream(int(k)) for k in keys)]
    lanes = np.arange(4)
    k = np.arange(1, 8)[:, None]
    assert batch.uniform_at(lanes, k).tolist() == [list(r) for r in zip(*draws)]
    assert batch.uniform_at(np.array([2, 0]), np.array([5, 1])).tolist() == [
        draws[2][4], draws[0][0]]
    # no lane advanced: draw 1 is still the stream's first
    assert batch.uniform_at(lanes, 1).tolist() == [d[0] for d in draws]


def test_map_replicas_runs_one_task_inline_and_fans_out_more(monkeypatch):
    import concurrent.futures

    from homfrag.measures import UniformBinaryModel
    from homfrag.ranked import simulate_replicas

    pools = []
    real = concurrent.futures.ThreadPoolExecutor

    def pool(**kw):
        pools.append(kw["max_workers"])
        return real(**kw)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)
    assert map_replicas(lambda i: i * i, 1, 4) == [0]
    assert map_replicas(lambda i: i * i, 0, 4) == []
    assert pools == []  # one task (or none) never builds a pool
    assert map_replicas(lambda i: i * i, 3, 2) == [0, 1, 4]
    assert pools == [2]
    # the benchmark's simulate op: 8 replicas are one chunk, run inline
    ub = UniformBinaryModel()
    runs = [simulate_replicas(ub, 6.0, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 1e-3, 5, 8,
                              threads=threads) for threads in (1, 2, 4)]
    assert pools == [2]
    for run in runs[1:]:
        assert [[(s.log_masses.tobytes(), repr(s.frozen_mass)) for s in lane]
                for lane in run] == [
            [(s.log_masses.tobytes(), repr(s.frozen_mass)) for s in lane]
            for lane in runs[0]]
    many = [simulate_replicas(ub, 2.0, [2.0], 1e-3, 5, 130, threads=threads)
            for threads in (1, 2)]  # three chunks of at most 64 lanes
    assert pools == [2, 2]
    assert [s.log_masses.tobytes() for lane in many[0] for s in lane] == [
        s.log_masses.tobytes() for lane in many[1] for s in lane]
