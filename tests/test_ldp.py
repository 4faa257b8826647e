"""Window-count estimators and the ratio trace."""

import math
import warnings

import numpy as np
import pytest

from homfrag.errors import NotComputableError, OutsideRegimeError, RegimeWarning
from homfrag.ldp import (
    RatioTrace,
    corollary_functional,
    estimate_V_manyto1,
    presence_summary,
    ratio_trace,
    window_center,
)
from homfrag.partitions import simulate_subordinator
from homfrag.ranked import PopulationSnapshot, simulate
from homfrag.streams import replica_key


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
