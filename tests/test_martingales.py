"""Additive, derivative, and barrier-truncated martingale functionals."""

import math

import numpy as np
import pytest

from homfrag.errors import BarrierFlagsMissingError, BelowPLowerError
from homfrag.martingales import (
    additive,
    additive_estimator,
    derivative,
    derivative_estimator,
    derivative_sensitivity,
    mc_mean,
    truncated_estimator,
    truncated_ma,
)
from homfrag.ranked import simulate
from homfrag.streams import replica_key


def _snap(ub, seed, t=1.5, **kw):
    return simulate(ub, t, [t], 1e-8, seed, **kw)[0]


def test_additive_at_zero_index_is_live_mass(ub, ub_eval):
    # phi(0) = 0, so M(0, t) is exactly the live mass
    snap = _snap(ub, 3)
    assert additive(snap, ub_eval, 0.0) == pytest.approx(snap.total_mass, rel=1e-12)


def test_additive_matches_direct_formula(ub, ub_eval):
    snap = _snap(ub, 4)
    p = 0.7
    manual = math.exp(snap.time * ub_eval.phi(p)) * float(
        np.exp((p + 1.0) * snap.log_masses).sum())
    assert additive(snap, ub_eval, p) == pytest.approx(manual, rel=1e-12)


def test_additive_below_threshold(ub, ub_eval):
    with pytest.raises(BelowPLowerError):
        additive(_snap(ub, 5), ub_eval, -2.0)


def test_additive_mean_close_to_one(ub, ub_eval):
    res = mc_mean(additive_estimator(ub_eval, 0.5), ub, 1.0, 3000, 100, 1e-8)
    assert abs(res.mean - 1.0) <= 4 * res.stderr
    assert res.n == 3000


def test_derivative_matches_direct_formula(ub, ub_eval):
    snap = _snap(ub, 6)
    pb = ub_eval.p_bar()
    d1 = ub_eval.phi_derivs(pb).first
    t = snap.time
    lm = snap.log_masses
    manual = float(((t * d1 + lm)
                    * np.exp(t * ub_eval.phi(pb) + (pb + 1.0) * lm)).sum())
    assert derivative(snap, ub_eval) == pytest.approx(manual, rel=1e-12)


def test_derivative_mean_close_to_zero(ub, ub_eval):
    vals = [derivative(_snap(ub, 0, t=1.0, root_key=replica_key(200, i)), ub_eval)
            for i in range(4000)]
    v = np.asarray(vals)
    se = v.std(ddof=1) / math.sqrt(len(v))
    assert abs(v.mean()) <= 4 * se


def test_derivative_sensitivity_brackets_value(ub, ub_eval):
    snap = _snap(ub, 8)
    lo, hi = derivative_sensitivity(snap, ub_eval, delta=1e-6)
    val = derivative(snap, ub_eval)
    assert min(lo, hi) - 1e-9 <= val <= max(lo, hi) + 1e-9
    assert abs(hi - lo) < 1e-3  # tiny index error moves the value only slightly


def test_truncated_requires_instrumentation(ub, ub_eval):
    snap = _snap(ub, 9)
    with pytest.raises(BarrierFlagsMissingError):
        truncated_ma(snap, ub_eval, 1.0)
    wrong = _snap(ub, 9, barrier_slope=0.123)
    with pytest.raises(BarrierFlagsMissingError):
        truncated_ma(wrong, ub_eval, 1.0)
    with pytest.raises(ValueError):
        slope = ub_eval.phi_derivs(ub_eval.p_bar()).first
        truncated_ma(_snap(ub, 9, barrier_slope=slope), ub_eval, -1.0)


def test_truncated_nonnegative_and_capped(ub, ub_eval):
    slope = ub_eval.phi_derivs(ub_eval.p_bar()).first
    for seed in range(30):
        snap = _snap(ub, seed, t=2.0, barrier_slope=slope)
        val = truncated_ma(snap, ub_eval, 1.0)
        assert val >= 0.0


def test_truncated_dominated_once_all_terms_small(ub, ub_eval):
    # when every live fragment sits below the barrier line, every term of
    # the a-truncated sum is positive and M_a <= -M' + a M(p_bar) termwise
    pb = ub_eval.p_bar()
    slope = ub_eval.phi_derivs(pb).first
    a = 1.0
    checked = 0
    for seed in range(200):
        snap = _snap(ub, seed, t=3.0, barrier_slope=slope)
        if snap.n_live == 0 or snap.log_masses.max() >= -snap.time * slope:
            continue
        checked += 1
        ma = truncated_ma(snap, ub_eval, a)
        bound = -derivative(snap, ub_eval) + a * additive(snap, ub_eval, pb)
        assert ma <= bound + 1e-12
    assert checked > 50  # the regime must actually occur


def test_truncated_mean_close_to_level(ub, ub_eval):
    slope = ub_eval.phi_derivs(ub_eval.p_bar()).first
    res = mc_mean(truncated_estimator(ub_eval, 1.0), ub, 1.5, 4000, 300, 1e-8,
                  barrier_slope=slope)
    assert abs(res.mean - 1.0) <= 4 * res.stderr


def test_mc_mean_scalar_and_list_times(ub, ub_eval):
    est = additive_estimator(ub_eval, 0.5)
    single = mc_mean(est, ub, 1.0, 200, 17, 1e-8)
    multi = mc_mean(est, ub, [0.5, 1.0], 200, 17, 1e-8)
    assert isinstance(multi, list) and len(multi) == 2
    assert multi[1].mean == pytest.approx(single.mean, rel=1e-12)
    assert multi[1].stderr == pytest.approx(single.stderr, rel=1e-12)


def test_mc_mean_threaded_matches_serial(ub, ub_eval):
    est = derivative_estimator(ub_eval)
    serial = mc_mean(est, ub, [1.0, 2.0], 300, 55, 1e-8, threads=1)
    threaded = mc_mean(est, ub, [1.0, 2.0], 300, 55, 1e-8, threads=4)
    for a, b in zip(serial, threaded):
        assert a.mean == b.mean
        assert a.stderr == b.stderr
        assert a.frozen_mass_mean == b.frozen_mass_mean


def test_mc_mean_keeps_the_order_of_the_times(ub, ub_eval):
    est = additive_estimator(ub_eval, 0.5)
    fwd = mc_mean(est, ub, [0.5, 2.0], 30, 906, 1e-6)
    back = mc_mean(est, ub, [2.0, 0.5], 30, 906, 1e-6)
    assert back == fwd[::-1]
    assert fwd[0] == mc_mean(est, ub, 0.5, 30, 906, 1e-6)
