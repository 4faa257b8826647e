"""Window-count estimators in the large-deviation regime.

The mean number of fragments with log-mass in the moving window
[x + alpha, x + beta] at x = -t phi'(p) admits an exact many-to-one form

    V(t, x) = E[ e^{xi(t)} 1{ -xi(t) in [x + alpha, x + beta] } ]

over the tagged subordinator, and a Gaussian-regime asymptote
(analytics.v_asymptote).  The probability that the window is non-empty,
U(t, x), is estimated directly; for p above the critical index the ratio
U/V converges to a constant, which the ratio trace tracks with bootstrap
confidence intervals.
"""

import math
import warnings
from collections import namedtuple

import numpy as np

from .errors import NotComputableError, OutsideRegimeError, RegimeWarning
from .martingales import replica_values
from .partitions import subordinator_values
from .ranked import DEFAULT_MAX_FRAGMENTS, empirical_interval_count
from .streams import Stream, derive_key, lanewise

PresenceEstimate = namedtuple(
    "PresenceEstimate",
    ["p", "t", "x", "alpha", "beta", "v_mean", "v_stderr", "v_predicted",
     "u_mean", "u_stderr", "n_replicas"],
)

TracePoint = namedtuple(
    "TracePoint",
    ["t", "u", "u_stderr", "v", "v_stderr", "ratio", "ratio_lo", "ratio_hi"],
)


def window_center(evaluator, p, t):
    """Center of the tilted window: x = -t phi'(p)."""
    return -t * evaluator.phi_derivs(p).first


def _window_counts_at(model, evaluator, p, times, alpha, beta, eps_freeze,
                      n_replicas, seed, threads, max_fragments):
    """Window centers and the (len(times), n_replicas) window-count matrix."""
    xs = {float(t): window_center(evaluator, p, t) for t in times}
    counts = replica_values(
        lambda snap: empirical_interval_count(snap, xs[snap.time], alpha, beta),
        model, times, n_replicas, seed, eps_freeze, threads=threads,
        max_fragments=max_fragments)
    return [xs[float(t)] for t in times], counts


def _presence(row):
    """(u, u_stderr, v, v_stderr) of one row of window counts."""
    n = len(row)
    u = float((row > 0).mean())
    return (u, math.sqrt(max(u * (1.0 - u), 0.0) / n),
            float(row.mean()), float(row.std(ddof=1) / math.sqrt(n)))


def estimate_V_manyto1(model, evaluator, p, t, alpha, beta, n_replicas, seed):
    """Mean window count via the tagged subordinator; returns (mean, stderr).

    Each replica contributes e^{xi(t)} if -xi(t) lands in the window, else 0.
    No population is grown, so there is no freezing bias and the cost per
    replica is O(number of tagged jumps).  Replica i is the path of
    simulate_subordinator at replica_key(seed, i); all of them are walked
    together by subordinator_values.
    """
    if n_replicas < 2:
        raise ValueError(
            f"a standard error needs at least two replicas, got {n_replicas}")
    x = window_center(evaluator, p, t)
    lo, hi = x + alpha, x + beta
    xi = subordinator_values(model, t, seed, n_replicas)
    inside = np.flatnonzero((lo <= -xi) & (-xi <= hi))
    vals = np.zeros(n_replicas)
    vals[inside] = lanewise(math.exp, xi[inside])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_replicas))


def presence_summary(model, evaluator, p, t, alpha, beta, eps_freeze,
                     n_replicas, seed, *, threads=1,
                     max_fragments=DEFAULT_MAX_FRAGMENTS):
    """Direct U and V estimates from one set of runs, plus the V prediction.

    t may be a scalar or a list; each replica is simulated once, to the
    largest time.  Returns one PresenceEstimate per time, in the order given
    (scalar in, scalar out).
    """
    scalar = np.isscalar(t)
    t_list = [t] if scalar else list(t)
    xs, counts = _window_counts_at(model, evaluator, p, t_list, alpha, beta,
                                   eps_freeze, n_replicas, seed, threads,
                                   max_fragments)
    out = []
    for s, x, row in zip(t_list, xs, counts):
        u, u_se, v, v_se = _presence(row)
        out.append(PresenceEstimate(
            p=p, t=s, x=x, alpha=alpha, beta=beta, v_mean=v, v_stderr=v_se,
            v_predicted=evaluator.v_asymptote(p, s, alpha, beta),
            u_mean=u, u_stderr=u_se, n_replicas=n_replicas,
        ))
    return out[0] if scalar else out


class RatioTrace:
    """U/V ratio over a time grid with percentile-bootstrap intervals.

    counts has shape (len(t_grid), n_replicas); replicas are paired across
    grid times (each replica is one run observed at every t), so bootstrap
    resampling is joint.
    """

    def __init__(self, t_grid, counts, seed, n_boot=500):
        self.t_grid = list(t_grid)
        self.counts = counts
        self.n_boot = n_boot
        n = counts.shape[1]
        boot = Stream(derive_key(seed, 0xB007))
        idx = (boot.uniforms(n_boot * n).reshape(n_boot, n) * n).astype(np.int64)
        self.points = []
        self._boot_ratios = []
        for row, t in zip(counts, self.t_grid):
            u, u_se, v, v_se = _presence(row)
            res = row[idx]                      # (n_boot, n)
            with np.errstate(invalid="ignore", divide="ignore"):
                ratios = (res > 0).mean(axis=1) / res.mean(axis=1)
            ratios = ratios[np.isfinite(ratios)]
            self._boot_ratios.append(ratios)
            if v > 0 and len(ratios):
                lo, hi = np.percentile(ratios, [2.5, 97.5])
                point = TracePoint(t, u, u_se, v, v_se, u / v, float(lo), float(hi))
            else:
                point = TracePoint(t, u, u_se, v, v_se, float("nan"),
                                   float("nan"), float("nan"))
            self.points.append(point)

    def slope_ci(self):
        """Last-two-point slope of the ratio with a bootstrap interval.

        Returns (slope, lo, hi); a stabilized trace has 0 inside [lo, hi].
        Raises NotComputableError when the last two grid times coincide or
        when no bootstrap resample has a finite ratio at one of them (no
        replica had a fragment in the window).
        """
        if len(self.t_grid) < 2:
            raise ValueError("need at least two grid times for a slope")
        dt = self.t_grid[-1] - self.t_grid[-2]
        a, b = self._boot_ratios[-2], self._boot_ratios[-1]
        m = min(len(a), len(b))
        if dt <= 0.0 or m == 0:
            raise NotComputableError(
                f"no ratio slope between t = {self.t_grid[-2]} and "
                f"t = {self.t_grid[-1]}: the times coincide or a window "
                "stayed empty in every replica"
            )
        slopes = (b[:m] - a[:m]) / dt
        slope = (self.points[-1].ratio - self.points[-2].ratio) / dt
        lo, hi = np.percentile(slopes, [2.5, 97.5])
        return slope, float(lo), float(hi)


def ratio_trace(model, evaluator, p, t_grid, alpha, beta, eps_freeze,
                n_replicas, seed, *, n_boot=500, threads=1,
                max_fragments=DEFAULT_MAX_FRAGMENTS):
    """Window counts over a time grid (one run per replica, all times observed).

    For p at or below the critical index the ratio has no limiting constant;
    a RegimeWarning is emitted and the trace is returned anyway.
    """
    pb = evaluator.p_bar()
    if p <= pb:
        warnings.warn(
            f"U/V ratio converges only for p > p_bar = {pb:.6g}; got p = {p}",
            RegimeWarning, stacklevel=2,
        )
    t_grid = sorted(float(t) for t in t_grid)
    _, counts = _window_counts_at(model, evaluator, p, t_grid, alpha, beta,
                                  eps_freeze, n_replicas, seed, threads,
                                  max_fragments)
    return RatioTrace(t_grid, counts, seed, n_boot=n_boot)


def corollary_functional(snapshot, evaluator, p, edges, values):
    """Scaled step-function statistic of the recentered log-mass cloud.

    For a step function f given by breakpoints `edges` (ascending, length
    k+1) and `values` (length k, f = values[j] on [edges[j], edges[j+1]),
    zero outside), computes

        sqrt(t) e^{-t ((p+1) phi'(p) - phi(p))} sum_i f(t phi'(p) + log m_i).

    Valid in the Gaussian regime p_lower < p < p_bar, where its mean tends
    to the additive-martingale limit times the Gaussian constant
    (2 pi |phi''(p)|)^{-1/2} integral of f(y) e^{-(p+1)y} dy.
    """
    edges = np.asarray(edges, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(edges) != len(values) + 1 or (np.diff(edges) <= 0).any():
        raise ValueError("edges must be ascending with one more entry than values")
    pb = evaluator.p_bar()
    if not evaluator.p_lower < p < pb:
        raise OutsideRegimeError(
            f"corollary functional needs p in ({evaluator.p_lower}, {pb}), got {p}"
        )
    t = snapshot.time
    if t <= 0.0:
        raise ValueError("snapshot time must be positive")
    d1 = evaluator.phi_derivs(p).first
    y = t * d1 + snapshot.log_masses
    idx = np.searchsorted(edges, y, side="right") - 1
    inside = (idx >= 0) & (idx < len(values)) & (y < edges[-1])
    total = float(values[idx[inside]].sum())
    scale = math.sqrt(t) * math.exp(-t * ((p + 1.0) * d1 - evaluator.phi(p)))
    return scale * total
