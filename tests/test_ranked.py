"""Ranked population runs: conservation, determinism, freezing, barriers,
and the generation-batched engine against the breadth-first oracle."""

import math
from collections import Counter

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from bfs_oracle import simulate_bfs
from test_partitions import _key_whose_draw_is_zero
from homfrag import AtomicModel, PowerTailBinaryModel, UniformBinaryModel
from homfrag import ranked
from homfrag.errors import BudgetExceededError
from homfrag.measures import DislocationModel
from homfrag.ranked import (
    empirical_interval_count,
    empirical_moment,
    simulate,
    simulate_lanes,
    simulate_replicas,
)
from homfrag.streams import derive_key, replica_keys


def test_argument_validation(ub):
    with pytest.raises(ValueError):
        simulate(ub, 1.0, [1.0], 0.0, 1)
    with pytest.raises(ValueError):
        simulate(ub, 1.0, [1.0], 1.5, 1)
    with pytest.raises(ValueError):
        simulate(ub, 1.0, [2.0], 1e-6, 1)
    with pytest.raises(ValueError):
        simulate_lanes(ub, 1.0, [1.0], 1e-6, [1], [derive_key(1, 0)],
                       start_time=2.0)


NAN = float("nan")


@pytest.mark.parametrize("name, kw", [
    ("t_end", dict(t_end=NAN)),
    ("snapshot_times", dict(snapshot_times=[NAN])),
    ("start_time", dict(start_time=[0.0, NAN])),
    ("initial_log_mass", dict(initial_log_mass=[0.0, NAN])),
])
def test_nan_arguments_are_refused(ub, name, kw):
    # each of these once returned wrong lanes: a run that never split, a
    # snapshot labelled nan, a lane whose mass vanished, NaN log masses
    run = dict(t_end=2.0, snapshot_times=[1.0], eps_freeze=1e-3,
               seeds=[0, 1], root_keys=replica_keys(9, 2)) | kw
    with pytest.raises(ValueError, match=f"^{name} must not be NaN, got .*nan"):
        simulate_lanes(ub, **run)


@pytest.mark.parametrize("name", ["start_time", "initial_log_mass"])
@pytest.mark.parametrize("value", [-math.inf, math.inf])
def test_infinite_roots_are_refused(ub, name, value):
    # a root born at -inf once split until its budget ran out
    run = dict(t_end=2.0, snapshot_times=[1.0], eps_freeze=1e-3,
               seeds=[0, 1], root_keys=replica_keys(9, 2), max_fragments=2000)
    with pytest.raises(ValueError, match=f"^{name} must be finite, got .*inf"):
        simulate_lanes(ub, **run, **{name: [0.0, value]})


def test_no_snapshots_returns_empty(ub):
    assert simulate(ub, 1.0, [], 1e-6, 3) == []


def test_conservation_uniform_binary(ub):
    for seed in range(20):
        for snap in simulate(ub, 2.0, [0.5, 1.0, 2.0], 1e-7, seed):
            assert abs(snap.total_mass + snap.frozen_mass - 1.0) <= 1e-9


def test_conservation_dyadic(dyadic):
    for seed in range(10):
        for snap in simulate(dyadic, 3.0, [3.0], 1e-6, seed):
            assert abs(snap.total_mass + snap.frozen_mass - 1.0) <= 1e-9


def test_snapshots_sorted_and_ranked(ub):
    snaps = simulate(ub, 3.0, [2.0, 0.5, 3.0, 1.0], 1e-7, 11)
    assert [s.time for s in snaps] == [0.5, 1.0, 2.0, 3.0]
    for s in snaps:
        assert (np.diff(s.log_masses) <= 1e-15).all()
        assert s.eps_freeze == 1e-7 and s.seed == 11


def test_binary_population_identity(ub):
    # binary splits: live + frozen fragment count = event count + 1
    for seed in range(15):
        for s in simulate(ub, 2.5, [1.0, 2.5], 1e-5, seed):
            assert s.n_live + s.frozen_count == s.event_count + 1


def test_determinism_and_root_key_override(ub):
    a = simulate(ub, 2.0, [1.0, 2.0], 1e-6, 42)
    b = simulate(ub, 2.0, [1.0, 2.0], 1e-6, 42)
    for x, y in zip(a, b):
        assert np.array_equal(x.log_masses, y.log_masses)
        assert x.frozen_mass == y.frozen_mass
    c = simulate_lanes(ub, 2.0, [1.0, 2.0], 1e-6, [999],
                       [derive_key(42, 0)])[0]
    for x, y in zip(a, c):
        assert np.array_equal(x.log_masses, y.log_masses)


def test_coarser_freeze_is_a_restriction(ub):
    # with the same seed, every fragment alive under the coarse threshold is
    # alive with the same mass under the finer one, and the coarse run has
    # frozen at least as much mass
    coarse = simulate(ub, 4.0, [4.0], 1e-2, 7)[0]
    fine = simulate(ub, 4.0, [4.0], 1e-5, 7)[0]
    coarse_set = Counter(coarse.log_masses.tolist())
    fine_set = Counter(fine.log_masses.tolist())
    assert all(fine_set[v] >= k for v, k in coarse_set.items())
    assert coarse.frozen_mass >= fine.frozen_mass - 1e-15
    assert coarse.n_live <= fine.n_live


def test_dyadic_masses_on_lattice(dyadic):
    snap = simulate(dyadic, 4.0, [4.0], 1e-8, 5)[0]
    ks = snap.log_masses / math.log(0.5)
    assert np.allclose(ks, np.round(ks), atol=1e-9)
    assert (np.round(ks) >= 1).all()


def test_barrier_statistics_alignment(ub, ub_eval):
    slope = ub_eval.phi_derivs(ub_eval.p_bar()).first
    snaps = simulate(ub, 3.0, [1.5, 3.0], 1e-7, 13, barrier_slope=slope)
    for s in snaps:
        assert s.barrier_slope == slope
        assert s.barrier_stats is not None
        assert len(s.barrier_stats) == s.n_live
        floor = s.log_masses + s.time * slope
        assert (s.barrier_stats >= floor - 1e-12).all()
        assert (s.barrier_stats > 0.0).all()
    plain = simulate(ub, 3.0, [3.0], 1e-7, 13)[0]
    assert plain.barrier_stats is None and plain.barrier_slope is None


def test_root_frozen_at_birth(ub):
    snaps = simulate_lanes(ub, 1.0, [0.5, 1.0], 0.9, [3], [derive_key(3, 0)],
                           initial_log_mass=math.log(0.5))[0]
    for s in snaps:
        assert s.n_live == 0
        assert s.frozen_mass == pytest.approx(0.5)
        assert s.frozen_count == 1
        assert s.total_mass == 0.0


def test_shifted_subpopulation_matches_base_run(ub):
    key = [derive_key(21, 5)]
    base = simulate_lanes(ub, 1.0, [1.0], 1e-6, [21], key)[0][0]
    shifted = simulate_lanes(ub, 1.4, [1.4], 1e-6, [21], key,
                             initial_log_mass=math.log(0.5),
                             start_time=0.4)[0][0]
    assert shifted.n_live == base.n_live
    assert np.allclose(np.sort(shifted.log_masses),
                       np.sort(base.log_masses + math.log(0.5)), atol=1e-12)


def test_roots_all_frozen_at_birth_fit_a_small_budget(ub):
    # each lane holds one fragment, whatever the chunk's total
    lanes = simulate_lanes(ub, 2.0, [1.0], 1e-3, [0, 1, 2], replica_keys(1, 3),
                           initial_log_mass=-30.0, max_fragments=1)
    assert [lane[0].frozen_count for lane in lanes] == [1, 1, 1]
    assert [lane[0].n_live for lane in lanes] == [0, 0, 0]


class _Leaky(DislocationModel):
    """Binary splits whose masses sum to 1 + 1e-6."""

    kind = "leaky"
    total_rate = 1.0

    def __init__(self, conservative):
        self.conservative = conservative

    def split(self, u):
        return (0.5 + 1e-6, 0.5)

    def splits(self, u):
        return np.tile(self.split(0.0), (len(u), 1))


def test_conservation_guard():
    message = "conservative model produced split with mass 1.000001"
    with pytest.raises(AssertionError, match=message):
        simulate_replicas(_Leaky(True), 2.0, [2.0], 1e-3, 3, 5)
    with pytest.raises(AssertionError, match=message):
        simulate_bfs(_Leaky(True), 2.0, [2.0], 1e-3, 0)
    # a model not flagged conservative is not checked
    lanes = simulate_replicas(_Leaky(False), 2.0, [2.0], 1e-3, 3, 5)
    assert sum(lane[0].event_count for lane in lanes) > 0
    assert_same_lane(simulate(_Leaky(False), 2.0, [2.0], 1e-3, 0),
                     simulate_bfs(_Leaky(False), 2.0, [2.0], 1e-3, 0))


def test_budget_exceeded(ub):
    with pytest.raises(BudgetExceededError):
        simulate(ub, 8.0, [8.0], 1e-12, 1, max_fragments=50)


def test_empirical_moment(ub):
    snap = simulate(ub, 2.0, [2.0], 1e-7, 17)[0]
    assert empirical_moment(snap, 1.0) == pytest.approx(snap.total_mass, rel=1e-12)
    manual = float(np.exp(2.0 * snap.log_masses).sum())
    assert empirical_moment(snap, 2.0) == pytest.approx(manual, rel=1e-12)


def test_empirical_interval_count(ub):
    snap = simulate(ub, 2.0, [2.0], 1e-7, 23)[0]
    x = -1.0
    manual = int(((snap.log_masses >= x - 0.3) & (snap.log_masses <= x + 0.3)).sum())
    assert empirical_interval_count(snap, x, -0.3, 0.3) == manual
    with pytest.raises(ValueError):
        empirical_interval_count(snap, x, 0.3, -0.3)


# --- the generation-batched engine against the breadth-first oracle --------

MODELS = {
    "uniform": (UniformBinaryModel(), 3.0),
    "uniform_eps": (UniformBinaryModel(epsilon=0.1), 3.0),
    "power_tail": (PowerTailBinaryModel(epsilon=0.01), 0.3),
    "dyadic": (AtomicModel([([0.5, 0.5], 1.0)]), 3.0),
    # ternary and binary atoms: equal masses everywhere, so ranking ties
    "ternary_binary": (AtomicModel([([0.5, 0.25, 0.25], 1.0),
                                    ([0.5, 0.5], 0.7)]), 2.0),
}


def assert_same_lane(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.time == w.time and g.seed == w.seed
        assert g.log_masses.dtype == w.log_masses.dtype
        assert g.log_masses.tobytes() == w.log_masses.tobytes()
        assert (g.barrier_stats is None) == (w.barrier_stats is None)
        if w.barrier_stats is not None:
            assert g.barrier_stats.tobytes() == w.barrier_stats.tobytes()
        assert g.barrier_slope == w.barrier_slope
        assert repr(g.frozen_mass) == repr(w.frozen_mass)
        assert repr(g.frozen_count) == repr(w.frozen_count)
        assert repr(g.event_count) == repr(w.event_count)


@st.composite
def engine_runs(draw):
    name = draw(st.sampled_from(sorted(MODELS)))
    model, horizon = MODELS[name]
    t_end = horizon * draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    fractions = draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]),
                              max_size=4))
    snaps = [t_end * f for f in fractions]
    eps = 10.0 ** draw(st.floats(-9.0, -2.0))
    slope = draw(st.sampled_from([None, 0.0, 0.7, -1.3]))
    n = draw(st.integers(1, 6))
    # lanes start no later than the first snapshot; some roots are light
    # enough to freeze at birth
    first = min(snaps, default=t_end)
    starts = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=n,
                           max_size=n))
    starts = [first * s for s in starts]
    lms = draw(st.lists(st.sampled_from([0.0, -0.7, -3.0, -25.0]),
                        min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**64 - 1))
    return model, t_end, snaps, eps, slope, starts, lms, seed


@settings(max_examples=60, deadline=None)
@given(engine_runs())
def test_every_lane_equals_the_breadth_first_walk(run):
    model, t_end, snaps, eps, slope, starts, lms, seed = run
    keys = replica_keys(seed, len(starts))
    labels = [seed + i for i in range(len(starts))]
    lanes = simulate_lanes(model, t_end, snaps, eps, labels, keys,
                           initial_log_mass=lms, start_time=starts,
                           barrier_slope=slope)
    for label, key, lm, start, got in zip(labels, keys.tolist(), lms, starts,
                                          lanes):
        want = simulate_bfs(model, t_end, snaps, eps, label, root_key=key,
                            initial_log_mass=lm, start_time=start,
                            barrier_slope=slope)
        assert_same_lane(got, want)


def test_two_deep_chunks_equal_the_breadth_first_walk(ub):
    # two chunks of 16 and 11 generations, frozen children, lanes born
    # between snapshots and one root frozen at birth
    n = 70
    assert ranked._CHUNK_LANES < n
    keys = replica_keys(2024, n)
    starts = [0.5 * (i % 3 == 1) for i in range(n)]
    lms = [-8.0 if i == 40 else -0.5 * (i % 4 == 3) for i in range(n)]
    run = (5.0, [1.0, 2.5, 5.0], 1e-3)
    lanes = simulate_lanes(ub, *run, list(range(n)), keys, initial_log_mass=lms,
                           start_time=starts, barrier_slope=0.7)
    for i, got in enumerate(lanes):
        assert_same_lane(got, simulate_bfs(
            ub, *run, i, root_key=int(keys[i]), initial_log_mass=lms[i],
            start_time=starts[i], barrier_slope=0.7))
    assert lanes[40][-1].frozen_count == 1 and lanes[40][-1].n_live == 0
    chunks = lanes[:ranked._CHUNK_LANES], lanes[ranked._CHUNK_LANES:]
    assert all(sum(lane[-1].frozen_count for lane in chunk) > len(chunk)
               for chunk in chunks)


def test_a_root_split_draw_of_zero_splits_as_the_breadth_first_walk(ub):
    # a ranked root draws its lifetime first and its split second
    keys = [_key_whose_draw_is_zero(2), 7]
    lanes = simulate_lanes(ub, 3.0, [1.0, 3.0], 1e-3, [0, 1], keys)
    for label, key, got in zip([0, 1], keys, lanes):
        assert_same_lane(got, simulate_bfs(ub, 3.0, [1.0, 3.0], 1e-3, label,
                                           root_key=key))
    assert lanes[0][-1].event_count > 0  # the root split
    assert lanes[0][-1].frozen_count > 0  # its piece of mass 2^-53


def test_simulate_is_the_one_lane_engine(ub):
    for seed in range(5):
        assert_same_lane(
            simulate(ub, 2.5, [0.5, 2.5], 1e-4, seed, barrier_slope=0.3),
            simulate_bfs(ub, 2.5, [0.5, 2.5], 1e-4, seed, barrier_slope=0.3))


def _replicas(model, **kw):
    return simulate_replicas(model, 2.0, [0.7, 2.0], 1e-3, 61, 23,
                             barrier_slope=0.5, **kw)


def test_chunking_does_not_change_lanes(ub, monkeypatch):
    ternary = MODELS["ternary_binary"][0]
    for model in (ub, ternary):
        whole = _replicas(model)
        for lanes in (1, 4, 7):
            monkeypatch.setattr(ranked, "_CHUNK_LANES", lanes)
            for a, b in zip(_replicas(model), whole):
                assert_same_lane(a, b)
        monkeypatch.setattr(ranked, "_CHUNK_LANES", 64)
        # chunks that outgrow their fragment cap are regrown lane by lane
        monkeypatch.setattr(ranked, "_CHUNK_FRAGMENTS", 40)
        for a, b in zip(_replicas(model), whole):
            assert_same_lane(a, b)
        monkeypatch.setattr(ranked, "_CHUNK_FRAGMENTS", 1 << 20)


def test_lane_position_and_threads_do_not_change_lanes(ub, monkeypatch):
    monkeypatch.setattr(ranked, "_CHUNK_LANES", 5)
    keys = replica_keys(404, 12)
    labels = list(range(12))
    run = lambda k, lab, **kw: simulate_lanes(ub, 2.0, [1.0, 2.0], 1e-3, lab,
                                              k, **kw)
    forward = run(keys, labels)
    backward = run(keys[::-1], labels[::-1])
    for a, b in zip(forward, backward[::-1]):
        assert_same_lane(a, b)
    for i in (0, 7, 11):
        assert_same_lane(run(keys[i:i + 1], labels[i:i + 1])[0], forward[i])
    for a, b in zip(run(keys, labels, threads=2), forward):
        assert_same_lane(a, b)


def test_reduce_and_empty_batches(ub):
    counts = simulate_replicas(ub, 1.0, [1.0], 1e-3, 8, 9,
                               reduce=lambda snaps: snaps[0].n_live)
    assert counts == [s[0].n_live for s in simulate_replicas(ub, 1.0, [1.0],
                                                             1e-3, 8, 9)]
    assert simulate_lanes(ub, 1.0, [1.0], 1e-3, [], [], start_time=[]) == []


def _oracle_raises(model, t_end, eps, seed, budget):
    try:
        simulate_bfs(model, t_end, [t_end], eps, seed, max_fragments=budget)
    except BudgetExceededError:
        return True
    return False


@pytest.mark.parametrize("name, t_end, eps", [
    ("uniform", 3.0, 1e-3),
    ("ternary_binary", 2.0, 0.3),
    ("dyadic", 3.0, 0.1),
])
def test_budget_raises_once_a_lane_makes_more_fragments(name, t_end, eps):
    model = MODELS[name][0]
    for seed in range(6):
        snap = simulate(model, t_end, [t_end], eps, seed)[0]
        made = snap.n_live + snap.frozen_count + snap.event_count
        for budget in range(max(1, made - 3), made + 2):
            raises = budget < made
            assert _oracle_raises(model, t_end, eps, seed, budget) == raises
            if raises:
                with pytest.raises(BudgetExceededError):
                    simulate(model, t_end, [t_end], eps, seed,
                             max_fragments=budget)
            else:
                simulate(model, t_end, [t_end], eps, seed,
                         max_fragments=budget)


def test_budget_counts_each_lane_separately(ub):
    snaps = simulate_replicas(ub, 3.0, [3.0], 1e-3, 5, 30)
    sizes = [s[0].n_live + s[0].frozen_count + s[0].event_count for s in snaps]
    simulate_replicas(ub, 3.0, [3.0], 1e-3, 5, 30, max_fragments=max(sizes))
    with pytest.raises(BudgetExceededError):
        simulate_replicas(ub, 3.0, [3.0], 1e-3, 5, 30,
                          max_fragments=max(sizes) - 3)
