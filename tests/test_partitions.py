"""Exchangeable partitions, paintbox sampling, nested paths, tagged piece."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from homfrag import partitions
from homfrag.errors import DustNotSupportedError
from homfrag.measures import AtomicModel, PowerTailBinaryModel, UniformBinaryModel
from homfrag.partitions import (
    PartitionOfN,
    block_frequency_estimates,
    paintbox,
    simulate_partition,
    simulate_subordinator,
    split_rate,
    subordinator_values,
    tagged_xi,
)
from homfrag.streams import (
    GOLDEN_GAMMA,
    MASK64,
    Stream,
    StreamBatch,
    replica_key,
    replica_keys,
)


# --- PartitionOfN ------------------------------------------------------------


def test_canonical_labels():
    p = PartitionOfN([2, 2, 0, 1])
    assert list(p.assignment) == [0, 0, 1, 2]


def test_single_block_and_blocks_order():
    p = PartitionOfN.single_block(4)
    assert [b.tolist() for b in p.blocks()] == [[0, 1, 2, 3]]
    q = PartitionOfN([1, 0, 1, 2, 0])
    blocks = [b.tolist() for b in q.blocks()]
    assert blocks == [[0, 2], [1, 4], [3]]
    assert [min(b) for b in blocks] == sorted(min(b) for b in blocks)
    assert q.block_sizes().tolist() == [2, 2, 1]


def test_from_blocks_round_trip():
    blocks = [[0, 3], [1], [2, 4, 5]]
    p = PartitionOfN.from_blocks(blocks, 6)
    assert [b.tolist() for b in p.blocks()] == blocks


def test_restrict_prefix():
    p = PartitionOfN([0, 1, 0, 2, 1, 0])
    r = p.restrict(4)
    assert r.n == 4
    assert [b.tolist() for b in r.blocks()] == [[0, 2], [1], [3]]


def test_finer_than():
    coarse = PartitionOfN([0, 0, 0, 1, 1])
    fine = PartitionOfN([0, 0, 1, 2, 3])
    assert fine.finer_than(coarse)
    assert not coarse.finer_than(fine)
    assert coarse.finer_than(coarse)


def test_equality():
    assert PartitionOfN([5, 5, 9]) == PartitionOfN([0, 0, 1])
    assert PartitionOfN([0, 1]) != PartitionOfN([0, 0])


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_canonicalization_is_idempotent(assignment):
    p = PartitionOfN(assignment)
    q = PartitionOfN(p.assignment)
    assert p == q
    labels = list(p.assignment)
    seen = []
    for lab in labels:  # labels appear in first-use order 0,1,2,...
        if lab not in seen:
            assert lab == len(seen)
            seen.append(lab)


# --- paintbox -----------------------------------------------------------------


def test_paintbox_two_boxes_binomial():
    s = Stream(31)
    p = paintbox([0.5, 0.5], 2000, s)
    sizes = sorted(p.block_sizes(), reverse=True)
    assert sum(sizes) == 2000
    assert len(sizes) == 2
    # two-sided binomial bound, ~4 standard deviations
    assert abs(sizes[0] - 1000) < 4 * math.sqrt(2000 * 0.25)


def test_paintbox_dust_becomes_singletons():
    s = Stream(32)
    p = paintbox([0.3], 1000, s)
    sizes = sorted(p.block_sizes(), reverse=True)
    assert sum(sizes) == 1000
    assert sizes[0] == pytest.approx(300, abs=4 * math.sqrt(1000 * 0.21))
    assert all(sz == 1 for sz in sizes[1:])


def test_paintbox_deterministic():
    a = paintbox([0.6, 0.4], 100, Stream(9))
    b = paintbox([0.6, 0.4], 100, Stream(9))
    assert a == b


# --- split rates ----------------------------------------------------------------


def test_split_rate_matches_phi(ub_eval):
    assert split_rate(ub_eval, 2) == pytest.approx(ub_eval.phi(1.0), abs=1e-15)
    assert split_rate(ub_eval, 5) == pytest.approx(1.0 - 2.0 / 6.0, abs=1e-12)
    with pytest.raises(ValueError):
        split_rate(ub_eval, 1)
    with pytest.raises(ValueError):
        split_rate(ub_eval, 2.5)


# --- nested partition paths -------------------------------------------------------


def test_partition_path_is_nested(ub):
    for seed in range(30):
        path = simulate_partition(ub, 30, 2.0, seed)
        prev = None
        for t in (0.0, 0.5, 1.0, 1.5, 2.0):
            cur = path.partition_at(t)
            if prev is not None:
                assert cur.finer_than(prev)
            prev = cur
        assert path.partition_at(0.0) == PartitionOfN.single_block(30)


def test_partition_events_increasing_times(ub):
    path = simulate_partition(ub, 40, 3.0, 77)
    times = [ev.time for ev in path.events]
    assert times == sorted(times)
    assert all(0.0 < t <= 3.0 for t in times)


def test_first_split_time_distribution(ub, ub_eval):
    # the root block of n points refines at rate phi(n-1)
    n = 5
    rate = ub_eval.phi(float(n - 1))
    firsts = []
    for seed in range(2000):
        path = simulate_partition(ub, n, 50.0, seed)
        assert path.events, "full shatter horizon must produce events"
        firsts.append(path.events[0].time)
    d, pvalue = stats.kstest(firsts, stats.expon(scale=1.0 / rate).cdf)
    assert pvalue > 0.01


def test_tagged_block_shrinks(ub):
    path = simulate_partition(ub, 500, 2.0, 5)
    sizes = [path.tagged_block_size(t) for t in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert sizes[0] == 500
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert tagged_xi(path, 0.0) == 0.0
    assert tagged_xi(path, 2.0) == -math.log(sizes[-1] / 500)


def test_block_frequencies_sum_to_one(ub):
    path = simulate_partition(ub, 5000, 1.0, 8)
    entries = block_frequency_estimates(path, 1.0)
    total = sum(freq for _, freq in entries)
    assert total == pytest.approx(1.0, abs=1e-12)  # partitions cover all points
    sizes = [len(blk) for blk, _ in entries]
    assert sum(sizes) == 5000


def test_partition_determinism(ub):
    a = simulate_partition(ub, 25, 1.5, 123)
    b = simulate_partition(ub, 25, 1.5, 123)
    assert len(a.events) == len(b.events)
    for x, y in zip(a.events, b.events):
        assert x.time == y.time
        assert np.array_equal(x.elements, y.elements)
        assert np.array_equal(x.sub_assignment, y.sub_assignment)


# --- subordinator ------------------------------------------------------------------


def test_subordinator_path_value(ub):
    path = simulate_subordinator(ub, 3.0, 4)
    assert path.value(0.0) == 0.0
    vals = [path.value(t) for t in np.linspace(0.0, 3.0, 31)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        path.value(3.5)


def test_subordinator_dyadic_jumps_are_log2(dyadic):
    path = simulate_subordinator(dyadic, 5.0, 12)
    assert np.allclose(path.jump_sizes, math.log(2.0), atol=1e-15)


def test_subordinator_jump_count_poisson_mean(ub):
    counts = [len(simulate_subordinator(ub, 2.0, seed).jump_times)
              for seed in range(4000)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / math.sqrt(len(counts))
    assert abs(mean - 2.0) < 4 * se  # rate 1, horizon 2


def test_tagged_xi_close_to_subordinator_mean(ub):
    # law of large numbers at large n: one partition path per seed
    vals = [tagged_xi(simulate_partition(ub, 4000, 1.0, seed), 1.0)
            for seed in range(600)]
    ref = [simulate_subordinator(ub, 1.0, 10_000 + seed).value(1.0)
           for seed in range(6000)]
    # E xi(1) = phi'(0) = 0.5; four combined standard errors of slack
    assert abs(np.mean(vals) - np.mean(ref)) < 0.13


# --- batched subordinator ----------------------------------------------------------

BATCH_MODELS = {
    "uniform": UniformBinaryModel(),
    "uniform_eps0.1": UniformBinaryModel(epsilon=0.1),
    "power_tail_gamma1": PowerTailBinaryModel(epsilon=0.02, gamma=1.0),
    "power_tail_gamma1.5": PowerTailBinaryModel(epsilon=0.02, gamma=1.5),
    "dyadic": AtomicModel([([0.5, 0.5], 1.0)]),
    "ternary_binary": AtomicModel([([0.5, 0.3, 0.2], 1.0), ([0.6, 0.4], 2.0)]),
}


def per_path_values(model, t, seed, n):
    """The per-path oracle: one simulate_subordinator walk per replica."""
    return np.array([simulate_subordinator(model, t, replica_key(seed, i)).value(t)
                     for i in range(n)])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("name", sorted(BATCH_MODELS))
@given(seed=st.integers(min_value=0, max_value=MASK64),
       n=st.integers(min_value=0, max_value=24),
       t=st.sampled_from([0.0, 0.02, 0.3, 1.5, 8.0]))
@example(seed=3, n=24, t=8.0)
@example(seed=4, n=24, t=0.02)  # most lanes see no event
@settings(max_examples=20, deadline=None)
def test_subordinator_values_equal_the_per_path_walk_bit_for_bit(name, seed, n, t):
    model = BATCH_MODELS[name]
    assert same_bits(subordinator_values(model, t, seed, n),
                     per_path_values(model, t, seed, n))


def test_subordinator_values_do_not_depend_on_batch_size_or_chunks(ub, monkeypatch):
    full = subordinator_values(ub, 2.0, 31, 40)
    for k in (1, 7, 39):
        assert same_bits(subordinator_values(ub, 2.0, 31, k), full[:k])
    for lanes in (1, 3, 16):
        monkeypatch.setattr(partitions, "_CHUNK_LANES", lanes)
        assert same_bits(subordinator_values(ub, 2.0, 31, 40), full)


def test_subordinator_values_across_a_chunk_boundary(ub):
    # a call of more than one chunk at a short horizon (few events per lane)
    c = partitions._CHUNK_LANES
    vals = subordinator_values(ub, 0.2, 32, c + 5)
    assert same_bits(vals[:9], subordinator_values(ub, 0.2, 32, 9))
    around = np.array([simulate_subordinator(ub, 0.2, replica_key(32, i)).value(0.2)
                       for i in range(c - 4, c + 5)])
    assert same_bits(vals[c - 4:], around)
    assert (vals > 0).any()


def _unxorshift(y, shift):
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _mix64_inverse(z):
    z = _unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    return _unxorshift(z, 30)


def _key_whose_draw_is_zero(k):
    """A stream key whose k-th draw (1-based) is exactly 0.0.

    Draw k is mix64(mix64(key) + k*gamma) and mix64(0) = 0, so the key is
    the mix64 preimage of -k*gamma.  A natural zero has probability 2^-53.
    """
    return _mix64_inverse((-k * GOLDEN_GAMMA) & MASK64)


def _draw(key, k):
    """Draw k (1-based) of the scalar stream keyed by key."""
    s = Stream(key)
    for _ in range(k - 1):
        s.uniform()
    return s.uniform()


def test_uniform_open_redraws_only_the_lanes_that_drew_zero(ub):
    keys = [5, _key_whose_draw_is_zero(1), 6, _key_whose_draw_is_zero(2)]
    assert _draw(keys[1], 1) == 0.0 and _draw(keys[3], 2) == 0.0
    idx = np.arange(len(keys))

    batch = StreamBatch(np.array(keys, dtype=np.uint64))
    u = batch.uniform_open(np.array([1, 2]))
    assert u.tolist() == [_draw(keys[1], 2), _draw(keys[2], 1)]
    # lane 1 drew twice, lane 2 once, lanes 0 and 3 not at all
    assert batch.uniform(idx).tolist() == [
        _draw(keys[0], 1), _draw(keys[1], 3), _draw(keys[2], 2), _draw(keys[3], 1)]

    # through the model: lane 1 redraws in the first split, lane 3 in the second
    batch = StreamBatch(np.array(keys, dtype=np.uint64))
    scalar = [Stream(k) for k in keys]
    for _ in range(2):
        rows = ub.sample_masses_batch(batch, idx)
        assert [tuple(r) for r in rows] == [ub.sample_masses(s) for s in scalar]
    assert batch.uniform(idx).tolist() == [s.uniform() for s in scalar]


def test_subordinator_values_reject_dust():
    dusty = AtomicModel([([0.5, 0.3], 1.0)])
    with pytest.raises(DustNotSupportedError):
        subordinator_values(dusty, 5.0, 1, 10)
    with pytest.raises(DustNotSupportedError):
        simulate_subordinator(dusty, 5.0, replica_key(1, 0))


@pytest.mark.parametrize("name", sorted(BATCH_MODELS))
def test_sample_masses_batch_rows_equal_sample_masses(name):
    model = BATCH_MODELS[name]
    keys = replica_keys(7, 50)
    batch = StreamBatch(keys)
    scalar = [Stream(int(k)) for k in keys]
    for idx in (np.arange(50), np.arange(1, 50, 2), np.arange(50)):
        rows = model.sample_masses_batch(batch, idx)
        for row, i in zip(rows, idx):
            masses = tuple(model.sample_masses(scalar[i]))
            assert tuple(row[:len(masses)]) == masses
            assert not row[len(masses):].any()
