"""Exchangeable partitions, paintbox sampling, nested paths, tagged piece."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from heap_oracle import simulate_partition_heap

from homfrag import partitions, tilting
from homfrag.analytics import PhiEvaluator
from homfrag.errors import DustNotSupportedError, NotComputableError
from homfrag.measures import (
    AtomicModel,
    MassPartition,
    PowerTailBinaryModel,
    UniformBinaryModel,
)
from homfrag.partitions import (
    PartitionOfN,
    block_frequency_estimates,
    paintbox,
    simulate_partition,
    simulate_partitions,
    split_rate,
    tagged_xi,
)
from homfrag.tilting import (
    read_tagged_lines,
    simulate_event_log,
    simulate_subordinator,
    subordinator_values,
)
from homfrag.streams import (
    _KEY_SALT,
    GOLDEN_GAMMA,
    MASK64,
    Stream,
    StreamBatch,
    derive_keys,
    replica_key,
    replica_keys,
)


# --- PartitionOfN ------------------------------------------------------------


def test_canonical_labels():
    p = PartitionOfN([2, 2, 0, 1])
    assert list(p.assignment) == [0, 0, 1, 2]


def test_single_block_and_blocks_order():
    p = PartitionOfN([0] * 4)
    assert [b.tolist() for b in p.blocks()] == [[0, 1, 2, 3]]
    q = PartitionOfN([1, 0, 1, 2, 0])
    blocks = [b.tolist() for b in q.blocks()]
    assert blocks == [[0, 2], [1, 4], [3]]
    assert [min(b) for b in blocks] == sorted(min(b) for b in blocks)
    assert q.block_sizes().tolist() == [2, 2, 1]


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


def _unique_canonical(labels):
    """The sort-based relabelling that the first-appearance one replaced,
    kept as its oracle."""
    uniq, first, inverse = np.unique(labels, return_index=True,
                                     return_inverse=True)
    table = np.empty(len(uniq), dtype=np.int64)
    table[np.argsort(first, kind="stable")] = np.arange(len(uniq))
    return table[inverse], len(uniq)


def _sorted_blocks(self):
    """PartitionOfN.blocks with a sort per block, as it was written before
    the stable sort by label alone: the oracle."""
    order = np.argsort(self.assignment, kind="stable")
    split_at = np.searchsorted(self.assignment[order],
                               np.arange(1, self.num_blocks))
    return [np.sort(chunk) for chunk in np.split(order, split_at)]


def test_canonical_labels_and_blocks_equal_the_sort_based_oracle():
    rng = np.random.default_rng(11)
    for case in range(2000):
        n = int(rng.integers(1, 300))
        k = int(rng.integers(1, 40))
        labels = rng.integers(0, k + 1, n)
        dust = labels == k  # paintbox numbers dust points k, k+1, ...
        labels[dust] = k + np.arange(int(dust.sum()))
        if case % 4 == 1:
            labels = labels * 1009 - 500  # negative and sparse labels
        elif case % 4 == 2:
            labels = labels + (2 * n - k)  # around the top of [0, 2n)
        got, got_k = partitions._canonical_labels(labels)
        want, want_k = _unique_canonical(labels)
        assert got_k == want_k
        assert got.dtype == want.dtype and np.array_equal(got, want), case
        part = PartitionOfN(labels)
        assert [b.tolist() for b in part.blocks()] == [
            b.tolist() for b in _sorted_blocks(part)]


PATH_MODELS = {
    "uniform": UniformBinaryModel(),
    "power_tail": PowerTailBinaryModel(epsilon=0.02),
    "ternary_binary": AtomicModel([([0.5, 0.3, 0.2], 1.0), ([0.6, 0.4], 2.0)]),
    "dust": AtomicModel([([0.5, 0.3], 1.0)]),  # paintbox makes singletons
}
# the power tail with the most redrawn paintboxes, and splits whose masses,
# summed left to right, total one ulp below 1 (a conservative model whose
# paintbox can still leave a point as dust) and one ulp above 1
READ_MODELS = {**PATH_MODELS,
               "power_tail_eps0.01": PowerTailBinaryModel(epsilon=0.01),
               "ulp_below": AtomicModel([([0.1, 0.2, 0.7], 1.0)]),
               "ulp_above": AtomicModel([([0.56, 0.34, 0.1], 1.0)])}


def _path_bits(path):
    return ([(repr(e.time), e.elements.tobytes(), e.sub_assignment.tobytes())
             for e in path.events], path.tagged_trace, path.seed)


@pytest.mark.parametrize("name", sorted(PATH_MODELS))
def test_partition_paths_equal_the_sort_based_oracle(name, monkeypatch):
    # the heap walk relabels through PartitionOfN and its blocks, here the
    # sort-based ones; the engine relabels by its own first-appearance pass
    model = PATH_MODELS[name]
    for seed in (0, 5, 2**64 - 1):
        got = [simulate_partition(model, 60, 4.0, seed),
               *simulate_partitions(model, 60, 4.0, seed, 3)]
        with monkeypatch.context() as m:
            m.setattr(partitions, "_canonical_labels", _unique_canonical)
            m.setattr(PartitionOfN, "blocks", _sorted_blocks)
            want = [simulate_partition_heap(model, 60, 4.0, key) for key in
                    (seed, *(replica_key(seed, i) for i in range(3)))]
        for path, oracle in zip(got, want):
            assert path.events  # the paths do refine
            assert all(e.sub_assignment.max() >= 1 for e in path.events)
            assert _path_bits(path) == _path_bits(oracle)


# (n, t_end, replicas): every n of {1, 2, 60, 500} at every t_end of
# {0, 4, inf}, with fewer replicas where a path costs more, read at
# replica_key(2**64 - 1, i)
READS = [(n, t, {1: 3, 2: 30, 60: 4, 500: 1}[n])
         for n in (1, 2, 60, 500) for t in (0.0, 4.0, math.inf)]
# and, on PATH_MODELS, 41 paths at each of these, read at the raw seeds
WALKS = [(60, 4.0), (200, 2.0), (30, math.inf)]
WALK_SEEDS = [*range(40), 2**64 - 1]


@pytest.mark.parametrize("name", sorted(READ_MODELS))
def test_every_replica_read_equals_its_single_path_and_the_heap_walk(name):
    model = READ_MODELS[name]
    ev = PhiEvaluator(model)
    if name in PATH_MODELS:
        refined = 0
        for n, t_end in WALKS:
            got = partitions._read_paths(model, n, t_end, WALK_SEEDS, ev)
            for seed, path in zip(WALK_SEEDS, got):
                want = _path_bits(simulate_partition_heap(model, n, t_end, seed, ev))
                assert _path_bits(simulate_partition(model, n, t_end, seed, ev)) == want
                assert _path_bits(path) == want, (seed, n, t_end)
                refined += len(path.events) > 1
        assert refined > 100  # the paths branch, so the visiting orders differ
    seed = 2**64 - 1
    for n, t_end, replicas in READS:
        got = simulate_partitions(model, n, t_end, seed, replicas, ev)
        assert len(got) == replicas
        for i, path in enumerate(got):
            key = replica_key(seed, i)
            want = simulate_partition_heap(model, n, t_end, key, ev)
            assert _path_bits(path) == _path_bits(want), (n, t_end, i)
            if i < 2:
                assert _path_bits(simulate_partition(model, n, t_end, key, ev)) \
                    == _path_bits(want)


def test_a_replica_does_not_depend_on_the_replica_count_or_the_chunks(monkeypatch):
    model = READ_MODELS["power_tail_eps0.01"]
    want = [_path_bits(p) for p in simulate_partitions(model, 60, 4.0, 3, 12)]
    assert [_path_bits(p) for p in simulate_partitions(model, 60, 4.0, 3, 5)] \
        == want[:5]
    for points in (1, 60, 130, 600):  # one, one, two and ten replicas a chunk
        monkeypatch.setattr(partitions, "_CHUNK_POINTS", points)
        assert [_path_bits(p) for p in simulate_partitions(model, 60, 4.0, 3, 12)] \
            == want


# n at the edges of a label's digits (9/10, 99/100, 999/1000) and of the
# words the partition subcommand writes them through (10/11, 1000/1001)
LABEL_NS = (1, 2, 9, 10, 11, 99, 100, 999, 1000, 1001)


@pytest.mark.parametrize("name", ["uniform", "power_tail_eps0.01", "dust"])
def test_label_rows_are_the_canonical_labels_after_every_event(name, monkeypatch):
    model = READ_MODELS[name]
    ev = PhiEvaluator(model)
    spanned = 0
    for n in LABEL_NS:
        for t_end in (0.0, 2.0, math.inf):
            path = simulate_partition(model, n, t_end, 11, ev)
            want = [PartitionOfN(labels).assignment.tolist()
                    for _, labels in path.refinements()]
            # the default chunk, and one of a row or a few rows at most
            for cells in (partitions._CHUNK_CELLS, 300):
                with monkeypatch.context() as m:
                    m.setattr(partitions, "_CHUNK_CELLS", cells)
                    chunks = list(path.label_rows())
                assert all(len(times) == len(labels) >= 1 and
                           labels.size <= max(cells, n) for times, labels in chunks)
                assert [t for times, _ in chunks for t in times] \
                    == [e.time for e in path.events]
                assert [row.tolist() for _, labels in chunks for row in labels] \
                    == want, (n, t_end, cells)
                spanned += len(chunks) > 1
    assert spanned > 10


def _seed_whose_child_waits_zero(levels):
    """A seed whose root block's first child (label 0) draws a holding time
    of exactly 0: its key is derive_key(., 0) applied `levels` times to the
    seed, two for simulate_partition, three for replica 0 of a read."""
    key = _key_whose_draw_is_zero(1)
    for _ in range(levels):  # invert derive_key(key, 0) = mix64((key ^ salt) + gamma)
        key = ((_mix64_inverse(key) - GOLDEN_GAMMA) & MASK64) ^ _KEY_SALT
    return key


def test_a_child_that_waits_zero_rings_with_its_parent_and_comes_after_it(ub):
    ev = PhiEvaluator(ub)
    for path, key in (
            (simulate_partition(ub, 40, math.inf, _seed_whose_child_waits_zero(2), ev),
             _seed_whose_child_waits_zero(2)),
            (simulate_partitions(ub, 40, math.inf, _seed_whose_child_waits_zero(3), 2,
                                 ev)[0], replica_key(_seed_whose_child_waits_zero(3), 0))):
        root, child = path.events[:2]
        assert len(root.elements) == 40
        assert child.time == root.time  # born and rung at the root's ring
        assert child.elements.tolist() == np.flatnonzero(root.sub_assignment == 0).tolist()
        assert _path_bits(path) == _path_bits(simulate_partition_heap(ub, 40, math.inf, key, ev))


def _depth_first_order(path):
    """The events of a path in the order of the depth-first walk: pop a
    block, take its event, push its children of two or more points in label
    order, so that the last child is walked first."""
    by_block = {e.elements.tobytes(): e for e in path.events}
    order, stack = [], [path.events[0]]
    while stack:
        ev = stack.pop()
        order.append(ev)
        for label in range(int(ev.sub_assignment.max()) + 1):
            child = ev.elements[ev.sub_assignment == label]
            if len(child) >= 2:
                stack.append(by_block[child.tobytes()])
    return order


@pytest.mark.parametrize("name", ["uniform", "ternary_binary", "dust"])
def test_events_that_ring_together_keep_the_depth_first_order(name, monkeypatch):
    # every holding time 0: the whole path rings at time 0, so only the tie
    # rule orders its events
    monkeypatch.setattr(partitions, "lanewise",
                        lambda fn, x, y=None: np.zeros(len(x)))
    for path in simulate_partitions(PATH_MODELS[name], 30, 0.0, 9, 4):
        assert len(path.events) > 3
        assert {e.time for e in path.events} == {0.0}
        assert [e.elements.tolist() for e in path.events] == [
            e.elements.tolist() for e in _depth_first_order(path)]


class _RateOf:
    """An evaluator whose phi is the given function."""

    def __init__(self, phi):
        self.phi = phi


@pytest.mark.parametrize("rate", [0.0, -1.0])
def test_a_split_rate_that_is_not_positive_is_refused(ub, rate):
    ev = _RateOf(lambda q: rate if q == 2.0 else 1.0)  # phi(2): blocks of 3
    message = f"split rate phi(2) = {rate} is not positive"
    for read in (lambda: simulate_partition(ub, 3, 1.0, 4, ev),
                 lambda: simulate_partitions(ub, 3, 1.0, 4, 5, ev),
                 lambda: simulate_partition_heap(ub, 3, 1.0, 4, ev)):
        with pytest.raises(NotComputableError, match=re.escape(message)):
            read()


def test_a_paintbox_rejection_past_its_limit_is_refused_as_by_the_walk(monkeypatch):
    # at b = 2 a split [0.999, 0.001] is non-trivial with probability 0.002
    # per try: within 400 tries about half of the blocks find one
    import heap_oracle
    model = AtomicModel([([0.999, 0.001], 1.0)])
    ev = PhiEvaluator(model)
    monkeypatch.setattr(partitions, "_MAX_REJECTIONS", 400)
    monkeypatch.setattr(heap_oracle, "_MAX_REJECTIONS", 400)
    message = "paintbox rejection did not terminate after 400 tries"
    outcomes = []
    for seed in range(16):
        try:
            want = _path_bits(simulate_partition_heap(model, 2, 1e3, seed, ev))
        except NotComputableError as refused:
            assert str(refused) == message
            with pytest.raises(NotComputableError, match=message):
                simulate_partition(model, 2, 1e3, seed, ev)
            outcomes.append("refused")
            continue
        assert _path_bits(simulate_partition(model, 2, 1e3, seed, ev)) == want
        outcomes.append("split")
    assert {"refused", "split"} <= set(outcomes)


def test_partition_path_handles_one_point_and_no_time(ub):
    assert simulate_partition(ub, 1, math.inf, 3).events == []
    paths = simulate_partitions(ub, 5, 0.0, 3, 20)
    for i, path in enumerate(paths):
        assert path.events == [] and path.tagged_trace == []
        assert path.partition_at(0.0) == PartitionOfN([0] * 5)
        assert path.seed == replica_key(3, i)
    assert simulate_partitions(ub, 7, 1.0, 3, 0) == []
    with pytest.raises(ValueError, match="need n >= 1"):
        simulate_partitions(ub, 0, 1.0, 3, 2)


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
        assert path.partition_at(0.0) == PartitionOfN([0] * 30)


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
    # simulate_partition(ub, n, 50.0, seed) for seed in range(2000), in one read
    for path in partitions._read_paths(ub, n, 50.0, range(2000), ub_eval):
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
    # simulate_partition(ub, 4000, 1.0, seed) for seed in range(600), in one read
    vals = [tagged_xi(path, 1.0) for path in partitions._read_paths(
        ub, 4000, 1.0, range(600), PhiEvaluator(ub))]
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


def lines_equal_walks(model, t, seed, n):
    """Every lane of read_tagged_lines equals simulate_event_log of its
    replica field for field: repr of the times, the masses and the picks."""
    i = 0
    for rec in read_tagged_lines(model, t, seed, n):
        assert len(rec.masses) == len(rec.picks) == len(rec.picked) \
            == np.count_nonzero(rec.events)
        for lane, key in enumerate(rec.keys.tolist()):
            log = simulate_event_log(model, t, replica_key(seed, i))
            assert key == replica_key(seed, i)
            mine = rec.lane == lane
            assert rec.counts[lane] == len(log)
            assert np.flatnonzero(rec.events[:, lane]).tolist() == list(
                range(len(log)))
            times = rec.times[:, lane][rec.events[:, lane]]
            assert list(map(repr, times.tolist())) == list(
                map(repr, log.jump_times))
            assert [repr(tuple(row[row != 0.0].tolist()))
                    for row in rec.masses[mine]] == [
                        repr(part.masses) for part in log.partitions]
            assert rec.picks[mine].tolist() == log.picks
            assert list(map(repr, rec.picked[mine].tolist())) == [
                repr(part.masses[j]) for part, j in zip(log.partitions, log.picks)]
            i += 1
    return i == n


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
    assert lines_equal_walks(model, t, seed, n)


def _chunk_sizes(monkeypatch):
    """The lane counts of read_tagged_lines' chunks, recorded as it reads
    them (the list is filled in place)."""
    sizes = []
    read = tilting._read_block

    def spy(rate, t_end, keys, width, pick):
        sizes.append(len(keys))
        return read(rate, t_end, keys, width, pick)
    monkeypatch.setattr(tilting, "_read_block", spy)
    return sizes


def _fallbacks(monkeypatch):
    """The keys of any per-path walk the batch reader makes (it makes none:
    every lane is read in numpy)."""
    keys = []
    walk = tilting.simulate_event_log

    def spy(model, t_end, seed):
        keys.append(seed)
        return walk(model, t_end, seed)
    monkeypatch.setattr(tilting, "simulate_event_log", spy)
    return keys


def _blocks_read(monkeypatch):
    """blocks[d]: how many lanes read a (d+1)-th block of events, summed
    over the chunks read while the spy is set (the list is filled in place)."""
    blocks = []
    depth = 0
    read = tilting._jump_times

    def spy(streams, lanes, *args):
        nonlocal depth
        if depth == len(blocks):
            blocks.append(0)
        blocks[depth] += len(lanes)
        depth += 1
        try:
            return read(streams, lanes, *args)
        finally:
            depth -= 1
    monkeypatch.setattr(tilting, "_jump_times", spy)
    return blocks


def test_subordinator_values_do_not_depend_on_batch_size_or_chunks(ub, monkeypatch):
    full = subordinator_values(ub, 2.0, 31, 40)
    for k in (1, 7, 39):
        assert same_bits(subordinator_values(ub, 2.0, 31, k), full[:k])
    sizes = _chunk_sizes(monkeypatch)
    # a block holds 19 events at t = 2: chunks of 1, 3 and 16 lanes
    for lanes in (1, 3, 16):
        monkeypatch.setattr(tilting, "_CHUNK_CELLS", 19 * lanes)
        sizes.clear()
        assert same_bits(subordinator_values(ub, 2.0, 31, 40), full)
        assert max(sizes) == lanes and sum(sizes) == 40
        assert lines_equal_walks(ub, 2.0, 31, 40)


def test_subordinator_values_across_a_chunk_boundary(ub, monkeypatch):
    # a call of more than one chunk at a short horizon (few events per
    # lane): a block holds 11 events at t = 0.2, so chunks of c lanes
    c = 1000
    monkeypatch.setattr(tilting, "_CHUNK_CELLS", 11 * c)
    sizes = _chunk_sizes(monkeypatch)
    vals = subordinator_values(ub, 0.2, 32, c + 5)
    assert sizes == [c, 5]
    assert same_bits(vals[:9], subordinator_values(ub, 0.2, 32, 9))
    around = np.array([simulate_subordinator(ub, 0.2, replica_key(32, i)).value(0.2)
                       for i in range(c - 4, c + 5)])
    assert same_bits(vals[c - 4:], around)
    assert (vals > 0).any()


def test_paths_longer_than_one_block_read_on_from_their_last_jump(
        ub, monkeypatch):
    t = 3000.0  # rate * t = 3000 events per lane
    expected = per_path_values(ub, t, 5, 3)
    walked = _fallbacks(monkeypatch)
    blocks = _blocks_read(monkeypatch)
    assert same_bits(subordinator_values(ub, t, 5, 3), expected)
    assert blocks == [3]  # the default block holds every path
    # blocks of 1000 events, one lane a chunk: each lane reads on at least
    # twice, and reads at most rate * t / width + 2 blocks
    monkeypatch.setattr(tilting, "_CHUNK_CELLS", 1000)
    blocks.clear()
    assert same_bits(subordinator_values(ub, t, 5, 3), expected)
    assert blocks[:3] == [3, 3, 3] and len(blocks) <= 5
    assert lines_equal_walks(ub, t, 5, 3)
    assert walked == []


@pytest.mark.parametrize("shift", [-1, 1])
def test_an_estimate_off_by_one_never_reaches_the_output(ub, monkeypatch, shift):
    estimate = tilting._estimate_events

    def off(u, rate, t_end):
        return np.clip(estimate(u, rate, t_end) + shift, 0, len(u))
    monkeypatch.setattr(tilting, "_estimate_events", off)
    walked = _fallbacks(monkeypatch)
    blocks = _blocks_read(monkeypatch)
    for t in (0.3, 4.0):
        assert same_bits(subordinator_values(ub, t, 8, 30), per_path_values(ub, t, 8, 30))
        assert lines_equal_walks(ub, t, 8, 30)
    assert walked == []
    if shift > 0:  # each lane's first block reads a wait past t_end
        assert len(blocks) == 1
    else:  # every lane but those whose count - 1 clips to 0 reads on
        assert blocks[1] > 30


def test_a_horizon_between_the_numpy_and_libm_jump_times(ub, monkeypatch):
    # t_end at a jump time that numpy's log1p puts on the other side of it:
    # the estimate is off by one there, and the lane stops or reads on as
    # libm's times say
    for seed in range(100):
        key = replica_key(seed, 0)
        libm = simulate_subordinator(ub, 20.0, key).jump_times
        u = StreamBatch(derive_keys(np.array([key], dtype=np.uint64), 0)).uniform_at(
            0, 3 * np.arange(len(libm)) + 1)
        approx = np.cumsum(-np.log1p(-u) / ub.total_rate)
        differ = np.flatnonzero(approx != libm)
        if differ.size:
            break
    k = differ[0]
    walked = _fallbacks(monkeypatch)
    t = min(libm[k], approx[k])
    assert same_bits(subordinator_values(ub, t, seed, 3), per_path_values(ub, t, seed, 3))
    assert lines_equal_walks(ub, t, seed, 3)
    assert walked == []


@pytest.mark.parametrize("name", ["uniform", "dyadic", "power_tail_gamma1.5"])
@pytest.mark.parametrize("force", ["zero", "width", "minus3", "plus3"])
def test_the_estimate_is_only_a_hint(name, force, monkeypatch):
    # the estimate sizes the libm work and nothing else: forced to any
    # count, every lane still equals its walk and none is walked
    model = BATCH_MODELS[name]
    estimate = tilting._estimate_events
    forced = {"zero": lambda e, u: 0 * e, "width": lambda e, u: 0 * e + len(u),
              "minus3": lambda e, u: np.maximum(e - 3, 0),
              "plus3": lambda e, u: e + 3}[force]
    monkeypatch.setattr(tilting, "_estimate_events", lambda u, rate, t_end:
                        forced(estimate(u, rate, t_end), u))
    walked = _fallbacks(monkeypatch)
    blocks = _blocks_read(monkeypatch)
    counts = np.concatenate([rec.counts for rec in
                             read_tagged_lines(model, 6.0, 5, 40)])
    if force == "zero":  # a lane of k events reads k + 1 blocks of one
        assert blocks == [np.count_nonzero(counts >= d)
                          for d in range(counts.max() + 1)]
    if force in ("zero", "minus3") and model.total_rate == 1.0:
        # seed 5 has lanes of fewer than two events: they stop before a
        # third block, the others read one
        assert 0 < blocks[2] < 40
    if force in ("width", "plus3"):
        assert blocks == [40]
    assert same_bits(subordinator_values(model, 6.0, 5, 40),
                     per_path_values(model, 6.0, 5, 40))
    assert lines_equal_walks(model, 6.0, 5, 40)
    assert walked == []


def test_jumps_of_minus_zero_sum_to_minus_zero():
    # a piece of mass 1.0 next to one of 1e-13 is picked almost surely, and
    # its jump -log(1.0) is -0.0: the sum starts at the first jump, as
    # TaggedLine.value's does, not at 0.0
    model = AtomicModel([([1.0, 1e-13], 1.0)])
    vals = subordinator_values(model, 3.0, 9, 20)
    assert same_bits(vals, per_path_values(model, 3.0, 9, 20))
    assert np.signbit(vals).any()


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


def test_a_zero_draw_splits_alike_in_a_batch_and_a_scalar_stream(ub):
    # every split is one draw: a zero is split, not drawn again, so each
    # lane advances by one draw per split, as its scalar stream does
    keys = [5, _key_whose_draw_is_zero(1), 6, _key_whose_draw_is_zero(2)]
    assert _draw(keys[1], 1) == 0.0 and _draw(keys[3], 2) == 0.0
    idx = np.arange(len(keys))
    batch = StreamBatch(np.array(keys, dtype=np.uint64))
    scalar = [Stream(k) for k in keys]
    for n in range(2):
        rows = ub.splits(batch.uniform_at(idx, n + 1))
        assert [tuple(r) for r in rows] == [ub.sample_masses(s) for s in scalar]
        # lane 1 draws 0 in the first split, lane 3 in the second
        assert tuple(rows[2 * n + 1]) == ub.split(2.0 ** -53)
    third = [_draw(key, 3) for key in keys]
    assert batch.uniform_at(idx, 3).tolist() == third
    assert [s.uniform() for s in scalar] == third


def _seed_whose_line_draw_is_zero(k):
    """A master seed whose replica 0 walks a tagged line with draw k exactly
    0.0: replica_key(seed, 0) and the line's key are both derive_key(., 0)."""
    key = _key_whose_draw_is_zero(k)
    for _ in range(2):  # invert derive_key(key, 0) = mix64((key ^ salt) + gamma)
        key = ((_mix64_inverse(key) - GOLDEN_GAMMA) & MASK64) ^ _KEY_SALT
    return key


@pytest.mark.parametrize("name", sorted(BATCH_MODELS))
@pytest.mark.parametrize("event", [0, 3])
def test_a_split_draw_of_zero_is_read_by_the_pass_and_no_lane_walked(
        name, event, monkeypatch):
    # event e draws its split at 3e + 2, and every model splits a zero, so
    # the lane keeps the fixed layout of three draws per event
    model = BATCH_MODELS[name]
    seed = _seed_whose_line_draw_is_zero(3 * event + 2)
    path = simulate_subordinator(model, 50.0, replica_key(seed, 0))
    assert len(path) > event
    assert path.partitions[event].masses == model.split(0.0)
    walked = _fallbacks(monkeypatch)
    assert same_bits(subordinator_values(model, 50.0, seed, 4),
                     per_path_values(model, 50.0, seed, 4))
    assert lines_equal_walks(model, 50.0, seed, 4)
    assert walked == []


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_a_wait_draw_of_zero_is_an_event_at_time_zero(ub, t, monkeypatch):
    seed = _seed_whose_line_draw_is_zero(1)
    walked = _fallbacks(monkeypatch)
    vals = subordinator_values(ub, t, seed, 4)
    assert same_bits(vals, per_path_values(ub, t, seed, 4))
    assert walked == []
    assert simulate_subordinator(ub, t, replica_key(seed, 0)).jump_times[0] == 0.0
    assert vals[0] > 0.0  # the jump at time 0 counts, even at t = 0


def test_subordinator_values_reject_dust():
    dusty = AtomicModel([([0.5, 0.3], 1.0)])
    with pytest.raises(DustNotSupportedError):
        subordinator_values(dusty, 5.0, 1, 10)
    with pytest.raises(DustNotSupportedError):
        simulate_subordinator(dusty, 5.0, replica_key(1, 0))


@pytest.mark.parametrize("name", sorted(BATCH_MODELS))
def test_splits_of_batch_draws_equal_sample_masses(name):
    # the ranked engine's split draw; two lanes draw 0, at their first and
    # their second split
    model = BATCH_MODELS[name]
    keys = np.concatenate((replica_keys(7, 48), np.array(
        [_key_whose_draw_is_zero(1), _key_whose_draw_is_zero(2)],
        dtype=np.uint64)))
    batch = StreamBatch(keys)
    scalar = [Stream(int(k)) for k in keys]
    drawn = np.zeros(len(keys), dtype=int)  # each lane's draws so far
    for idx in (np.arange(50), np.arange(1, 50, 2), np.arange(50)):
        drawn[idx] += 1
        rows = model.splits(batch.uniform_at(idx, drawn[idx]))
        for row, i in zip(rows, idx):
            masses = tuple(model.sample_masses(scalar[i]))
            assert tuple(row[:len(masses)]) == masses
            assert not row[len(masses):].any()
    assert batch.uniform_at(np.arange(50), drawn + 1).tolist() == [
        s.uniform() for s in scalar]


# the ends of [0, 1), the largest float below 1/2, 1/2, and 1/3, which
# times 3 rounds to 1.0: a tie with ternary_binary's first running weight
_EDGE_UNIFORMS = [0.0, 2.0 ** -53, 0.5 - 2.0 ** -54, 0.5, 1.0 - 2.0 ** -53,
                  1.0 / 3.0]


def _uniforms():
    """The edge uniforms, then 1,000 seeded draws."""
    drawn = StreamBatch(replica_keys(11, 1000)).uniform_at(np.arange(1000), 1)
    return np.concatenate((_EDGE_UNIFORMS, drawn))


@pytest.mark.parametrize("name", sorted(BATCH_MODELS))
def test_split_equals_each_row_of_splits_bit_for_bit(name):
    model = BATCH_MODELS[name]
    u = _uniforms()
    for row, x in zip(model.splits(u), u.tolist()):
        masses = model.split(x)
        assert type(masses) is tuple
        assert all(type(m) is float for m in masses)
        assert row[:len(masses)].tobytes() == np.array(masses).tobytes()
        assert not row[len(masses):].any()


@pytest.mark.parametrize("name", sorted(BATCH_MODELS))
def test_every_uniform_a_model_draws_gives_a_valid_split(name):
    model = BATCH_MODELS[name]
    u = _uniforms()
    assert u[0] == 0.0  # in [0, 1), the zero included
    for x in u.tolist():
        part = MassPartition(model.split(x))
        assert part.conservative == model.conservative
        assert not part.is_trivial


@pytest.mark.parametrize("name", sorted(BATCH_MODELS))
def test_split_of_zero_is_valid_for_every_model(name):
    model = BATCH_MODELS[name]
    part = MassPartition(model.split(0.0))
    assert not part.is_trivial
    # splits reads a zero as split does, and a u below 2^-53 as it is
    u = np.array([0.0, 2.0 ** -54])
    for row, x in zip(model.splits(u), u.tolist()):
        assert tuple(row[row != 0.0].tolist()) == model.split(x)
    if isinstance(model, UniformBinaryModel):
        # a zero is read as 2^-53, the smallest positive draw, before the
        # map: strictly inside (epsilon, 1 - epsilon)
        assert model.split(0.0) == model.split(2.0 ** -53)
        assert model.epsilon < part[1] <= part[0] < 1.0 - model.epsilon
        assert model.split(2.0 ** -54) != model.split(0.0)
