"""Window-count estimators and the ratio trace."""

import math
import random
import sys
import warnings

import numpy as np
import pytest

from homfrag import AtomicModel, PhiEvaluator, PowerTailBinaryModel, UniformBinaryModel
from homfrag.errors import (
    BudgetExceededError,
    NotComputableError,
    OutsideRegimeError,
    RegimeWarning,
)
from homfrag.ldp import (
    RatioTrace,
    _window_counts_at,
    _window_floor,
    corollary_functional,
    estimate_V_manyto1,
    presence_summary,
    ratio_trace,
    window_center,
)
from homfrag.martingales import replica_values
from homfrag.ranked import PopulationSnapshot, empirical_interval_count, simulate
from homfrag.streams import Stream, derive_key, replica_key
from homfrag.tilting import simulate_subordinator


def test_window_center(ub_eval):
    # center is -t phi'(p); for the uniform model phi'(0.5) = 2/6.25
    assert window_center(ub_eval, 0.5, 2.0) == pytest.approx(-0.64, abs=1e-12)
    assert window_center(ub_eval, 0.5, 0.0) == 0.0


def test_manyto1_matches_lattice_value(dyadic, dyadic_eval):
    # half-splitting walk: only the one-jump event lands in the window,
    # so the exact mean count is 4 e^{-2}
    mean, se = estimate_V_manyto1(dyadic, dyadic_eval, 0.5, 2.0, -0.3, 0.3,
                                  30_000, 400)
    assert se > 0
    assert abs(mean - 4.0 * math.exp(-2.0)) < 3 * se


def test_manyto1_equals_the_per_path_estimate(ub, ub_eval, dyadic, dyadic_eval):
    # the estimator before replica batching: one subordinator walk per path
    for model, ev, t, window in ((ub, ub_eval, 4.0, (-0.2, 0.2)),
                                 (dyadic, dyadic_eval, 2.0, (-0.3, 0.3))):
        x = window_center(ev, 0.5, t)
        lo, hi = x + window[0], x + window[1]
        vals = np.empty(300)
        for i in range(300):
            xi = simulate_subordinator(model, t, replica_key(402, i)).value(t)
            vals[i] = math.exp(xi) if lo <= -xi <= hi else 0.0
        expected = (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(300)))
        got = estimate_V_manyto1(model, ev, 0.5, t, *window, 300, 402)
        assert repr(got) == repr(expected)


def test_manyto1_needs_two_replicas(ub, ub_eval):
    for n in (0, 1):
        with pytest.raises(ValueError, match="two replicas"):
            estimate_V_manyto1(ub, ub_eval, 0.5, 2.0, -0.2, 0.2, n, 1)


def test_manyto1_needs_a_finite_horizon(ub, ub_eval):
    # the tagged line's walk used never to end at t = inf or NaN
    for t in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="t_end must be finite and >= 0"):
            estimate_V_manyto1(ub, ub_eval, 0.5, t, -0.2, 0.2, 10, 1)


def test_direct_matches_compound_poisson_value(ub, ub_eval):
    est = presence_summary(ub, ub_eval, 0.5, 2.0, -0.2, 0.2, 1e-8, 4000, 401)
    mean, se = est.v_mean, est.v_stderr
    assert se > 0
    assert abs(mean - 0.337176) < 4 * se


def test_direct_presence_probability_bounds_mean(ub, ub_eval):
    est = presence_summary(ub, ub_eval, 0.5, 2.0, -0.2, 0.2, 1e-8, 500, 402)
    u, v = est.u_mean, est.v_mean
    assert 0.0 <= u <= 1.0
    assert u <= v  # counts are integers, so P(N > 0) <= E[N] replica-wise


def test_presence_summary_fields(ub, ub_eval):
    est = presence_summary(ub, ub_eval, 0.5, 2.0, -0.2, 0.2, 1e-8, 400, 403)
    assert est.p == 0.5 and est.t == 2.0 and est.n_replicas == 400
    assert est.x == pytest.approx(window_center(ub_eval, 0.5, 2.0))
    assert est.u_mean <= est.v_mean
    assert est.v_stderr > 0 and est.u_stderr >= 0
    assert est.v_predicted == pytest.approx(
        ub_eval.v_asymptote(0.5, 2.0, -0.2, 0.2))


def test_ratio_trace_warns_below_critical_index(ub, ub_eval):
    with pytest.warns(RegimeWarning):
        ratio_trace(ub, ub_eval, 1.0, [0.5, 1.0], -0.5, 0.5, 1e-8, 40, 404)


def test_ratio_trace_above_critical_index(ub, ub_eval):
    p = ub_eval.p_bar() + 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error", RegimeWarning)
        trace = ratio_trace(ub, ub_eval, p, [2.0, 3.0], -0.5, 0.5, 1e-8,
                            200, 405)
    assert trace.t_grid == [2.0, 3.0]
    assert trace.counts.shape == (2, 200)
    for point in trace.points:
        assert point.u <= point.v
        if not math.isnan(point.ratio):
            assert point.ratio <= 1.0 + 1e-12
            assert point.ratio_lo <= point.ratio_hi
    slope, lo, hi = trace.slope_ci()
    assert lo <= hi
    assert math.isfinite(slope)


def test_ratio_trace_slope_needs_two_times(ub, ub_eval):
    p = ub_eval.p_bar() + 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        trace = ratio_trace(ub, ub_eval, p, [2.0], -0.5, 0.5, 1e-8, 50, 406)
    with pytest.raises(ValueError):
        trace.slope_ci()


def test_ratio_trace_slope_needs_a_finite_ratio_at_both_times():
    # no replica ever has a fragment in the window: every bootstrap ratio
    # is 0/0, so there is no slope to report
    trace = RatioTrace([1.0, 2.0], np.zeros((2, 5)), seed=1, n_boot=20)
    assert all(math.isnan(point.ratio) for point in trace.points)
    with pytest.raises(NotComputableError):
        trace.slope_ci()
    # coinciding last two times leave no time step for the slope
    trace = RatioTrace([1.0, 1.0], np.ones((2, 5)), seed=1, n_boot=20)
    with pytest.raises(NotComputableError):
        trace.slope_ci()


def test_ratio_slope_pairs_each_resample_with_itself():
    # only replica 5 has fragments in the window at t = 1, so about a third
    # of the resamples are empty there and finite at t = 2; the slope reads
    # only the resamples finite at both times, each with its own two ratios
    counts = np.array([[0, 0, 0, 0, 0, 3], [1, 2, 0, 1, 3, 1]])
    seed, n_boot, n = 11, 200, counts.shape[1]
    trace = RatioTrace([1.0, 2.0], counts, seed=seed, n_boot=n_boot)
    draws = Stream(derive_key(seed, 0xB007)).uniforms(n_boot * n)
    res = counts[:, (draws.reshape(n_boot, n) * n).astype(np.int64)]
    with np.errstate(invalid="ignore"):
        ratios = (res > 0).mean(axis=2) / res.mean(axis=2)  # (time, resample)
    early, late = np.isfinite(ratios)
    assert (late & ~early).any() and early.any()
    for point, row, finite in zip(trace.points, ratios, (early, late)):
        want = np.percentile(row[finite], [2.5, 97.5])
        assert (point.ratio_lo, point.ratio_hi) == tuple(want)
    both = early & late
    want = np.percentile(ratios[1, both] - ratios[0, both], [2.5, 97.5])
    _, lo, hi = trace.slope_ci()
    assert (lo, hi) == tuple(want)


def test_presence_summary_over_a_time_list(ub, ub_eval):
    # one run per replica, observed at every time, gives the same estimate
    # as a separate call per time; the order of the times is kept
    times = [2.0, 1.0]
    ests = presence_summary(ub, ub_eval, 0.5, times, -0.2, 0.2, 1e-8, 60, 409,
                            threads=2)
    assert [e.t for e in ests] == times
    for est, t in zip(ests, times):
        assert est == presence_summary(ub, ub_eval, 0.5, t, -0.2, 0.2, 1e-8,
                                       60, 409)


def test_corollary_functional_manual_recompute(ub, ub_eval):
    snap = simulate(ub, 3.0, [3.0], 1e-9, 407)[0]
    p = 0.5
    edges = [-0.4, 0.1, 0.5]
    values = [1.0, 2.0]
    got = corollary_functional(snap, ub_eval, p, edges, values)

    d1 = ub_eval.phi_derivs(p).first
    y = 3.0 * d1 + snap.log_masses
    total = 0.0
    for yi in y:
        for j in range(len(values)):
            if edges[j] <= yi < edges[j + 1]:
                total += values[j]
    scale = math.sqrt(3.0) * math.exp(-3.0 * ((p + 1.0) * d1 - ub_eval.phi(p)))
    assert total > 0.0
    assert got == pytest.approx(scale * total, rel=1e-12)


def test_corollary_functional_validation(ub, ub_eval):
    snap = simulate(ub, 1.0, [1.0], 1e-9, 408)[0]
    with pytest.raises(ValueError):
        corollary_functional(snap, ub_eval, 0.5, [0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        corollary_functional(snap, ub_eval, 0.5, [0.0, 0.5, 0.2], [1.0, 1.0])
    for bad_p in (-2.0, ub_eval.p_bar(), 1.5):
        with pytest.raises(OutsideRegimeError):
            corollary_functional(snap, ub_eval, bad_p, [0.0, 1.0], [1.0])
    frozen_time = PopulationSnapshot(
        time=0.0, log_masses=np.array([0.0]), frozen_mass=0.0,
        frozen_count=0, event_count=0, eps_freeze=1e-9, seed=0)
    with pytest.raises(ValueError):
        corollary_functional(frozen_time, ub_eval, 0.5, [0.0, 1.0], [1.0])


def test_corollary_functional_mean_near_limit(ub, ub_eval):
    # the replica mean of the scaled window statistic approaches the
    # Gaussian limit constant (the remaining gap at t = 6 is ~5%)
    p, t, alpha, beta = 0.5, 6.0, -0.2, 0.2
    target = ub_eval.v_limit_constant(p, alpha, beta)
    vals = np.array([
        corollary_functional(simulate(ub, t, [t], 1e-9, 77_000 + i)[0],
                             ub_eval, p, [alpha, beta], [1.0])
        for i in range(1500)])
    assert abs(vals.mean() - target) < 0.25 * target


@pytest.mark.filterwarnings("error")
def test_population_window_estimators_need_two_replicas(ub, ub_eval):
    for n in (0, 1):
        with pytest.raises(ValueError, match="two replicas"):
            presence_summary(ub, ub_eval, 0.5, 1.0, -0.2, 0.2, 1e-3, n, 5)
        with pytest.raises(ValueError, match="two replicas"):
            presence_summary(ub, ub_eval, 0.5, [1.0, 2.0], -0.2, 0.2, 1e-3,
                             n, 5)
        with pytest.raises(ValueError, match="two replicas"):
            ratio_trace(ub, ub_eval, 2.0, [1.0, 2.0], -0.2, 0.2, 1e-3, n, 5)
    s = presence_summary(ub, ub_eval, 0.5, 1.0, -0.2, 0.2, 1e-3, 2, 5)
    assert math.isfinite(s.v_stderr) and math.isfinite(s.u_stderr)


# --- window counts grow only the fragments they can count -------------------

# model, the caller's eps_freeze (the oracle's), the scalar time and the grid
_FLOOR_MODELS = {
    "uniform": (UniformBinaryModel(), 1e-8, [2.0], [1.0, 2.0, 3.0]),
    "uniform_eps0.1": (UniformBinaryModel(0.1), 1e-8, [2.0], [1.0, 2.0, 3.0]),
    "power_tail": (PowerTailBinaryModel(0.01), 1e-3, [1.0], [0.5, 1.0, 1.5]),
    "dyadic": (AtomicModel([([0.5, 0.5], 1.0)]), 1e-8, [2.0], [1.0, 2.0, 3.0]),
}


def _oracle_counts(model, ev, p, times, alpha, beta, eps_freeze, n, seed,
                   **kw):
    """Window counts of runs grown at the caller's eps_freeze, no floor."""
    return replica_values(
        lambda s: empirical_interval_count(
            s, window_center(ev, p, s.time), alpha, beta),
        model, times, n, seed, eps_freeze, **kw)


def _counts(model, ev, p, times, alpha, beta, eps_freeze, n, seed, threads=1,
            max_fragments=10**7):
    return _window_counts_at(model, ev, p, times, alpha, beta, eps_freeze, n,
                             seed, threads, max_fragments)[1]


@pytest.mark.parametrize("grid", ["scalar", "grid"])
@pytest.mark.parametrize("side", ["below_p_bar", "above_p_bar"])
@pytest.mark.parametrize("name", sorted(_FLOOR_MODELS))
def test_window_counts_equal_counts_grown_at_the_callers_eps(name, side,
                                                            grid):
    # the floor freezes every fragment below the lowest window edge; the
    # counts stay those of runs grown at the caller's eps_freeze
    model, eps, scalar, times = _FLOOR_MODELS[name]
    ev = PhiEvaluator(model)
    times = scalar if grid == "scalar" else times
    p = 0.5 if side == "below_p_bar" else ev.p_bar() + 0.5
    alpha, beta = -0.5, 0.5
    edge = min(window_center(ev, p, t) + alpha for t in times)
    assert _window_floor(edge) > eps          # the floor is in force
    want = _oracle_counts(model, ev, p, times, alpha, beta, eps, 40, 4100)
    assert want.any()
    for threads in (1, 2):
        got = _counts(model, ev, p, times, alpha, beta, eps, 40, 4100, threads)
        assert got.shape == (len(times), 40)
        assert np.array_equal(got, want), threads


def test_a_fragment_exactly_on_the_lower_edge_is_counted(dyadic, dyadic_eval):
    # dyadic log masses are sums of log(1/2): put the lower edge exactly on
    # the third generation's, with a window too narrow to hold another
    p, t, k = 0.5, 2.0, 3
    lm = 0.0
    for _ in range(k):
        lm += math.log(0.5)
    x = window_center(dyadic_eval, p, t)
    alpha = lm - x
    while x + alpha < lm:
        alpha = math.nextafter(alpha, math.inf)
    while x + alpha > lm:
        alpha = math.nextafter(alpha, -math.inf)
    assert x + alpha == lm
    beta = alpha + 0.1
    floor = _window_floor(lm)
    assert lm + math.log(0.5) < math.log(floor) < lm  # generation 4 freezes
    want = _oracle_counts(dyadic, dyadic_eval, p, [t], alpha, beta, 1e-8,
                          200, 4200)
    got = _counts(dyadic, dyadic_eval, p, [t], alpha, beta, 1e-8, 200, 4200)
    assert np.array_equal(got, want)
    assert (got > 0).any()


def test_the_floor_lies_below_every_edge():
    # math.log(floor) is the engine's freezing cut; it must stay under the
    # edge, else a fragment on the edge would freeze.  Only where exp(edge)
    # is subnormal (edges below about -708) may the floor be dropped.
    rng = random.Random(4300)
    edges = [rng.uniform(-740.0, 0.0) for _ in range(100_000)]
    edges += [-k * math.log(2.0) for k in range(1, 1100)]
    lm = 0.0
    for _ in range(1100):
        lm += math.log(0.5)
        edges.append(lm)
    dropped = 0
    for edge in edges:
        floor = _window_floor(edge)
        if floor:
            assert 0.0 < floor < 1.0 and math.log(floor) < edge, edge
        else:
            assert edge < -708.0 and math.exp(edge) < sys.float_info.min, edge
            dropped += 1
    assert 0 < dropped < 2_000


@pytest.mark.parametrize("alpha, beta, t", [
    (0.5, 1.0, 0.1),         # lowest edge >= 0: no fragment can be counted
    (-800.0, 0.2, 1.0),      # exp(edge) underflows to 0
])
def test_a_window_without_a_floor_grows_at_the_callers_eps(ub, ub_eval, alpha,
                                                           beta, t):
    edge = window_center(ub_eval, 0.5, t) + alpha
    assert _window_floor(edge) == 0.0
    want = _oracle_counts(ub, ub_eval, 0.5, [t], alpha, beta, 1e-3, 30, 4400)
    got = _counts(ub, ub_eval, 0.5, [t], alpha, beta, 1e-3, 30, 4400)
    assert np.array_equal(got, want)


def test_an_invalid_eps_freeze_is_still_refused(ub, ub_eval):
    # the floor raises only a valid eps_freeze
    for eps in (0.0, -1.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="eps_freeze"):
            presence_summary(ub, ub_eval, 0.5, 4.0, -0.2, 0.2, eps, 5, 5)


@pytest.mark.parametrize("budget", ["floor", 50, 200])
def test_a_budget_too_small_for_the_callers_eps_may_suffice(ub, ub_eval,
                                                            budget):
    # the budget counts the fragments grown, and only those above the
    # window's floor grow: a run over budget at eps_freeze = 1e-8 finishes
    if budget == "floor":
        # the most any lane makes at the floor (21 fragments)
        floor = _window_floor(window_center(ub_eval, 0.5, 4.0) - 0.2)
        made = replica_values(
            lambda s: s.n_live + s.frozen_count + s.event_count,
            ub, [4.0], 25, 5, floor)
        budget = int(made.max())
    with pytest.raises(BudgetExceededError):
        _oracle_counts(ub, ub_eval, 0.5, [4.0], -0.2, 0.2, 1e-8, 25, 5,
                       max_fragments=budget)
    est = presence_summary(ub, ub_eval, 0.5, 4.0, -0.2, 0.2, 1e-8, 25, 5,
                           max_fragments=budget)
    want = presence_summary(ub, ub_eval, 0.5, 4.0, -0.2, 0.2, 1e-8, 25, 5)
    assert est == want
