"""Martingale functionals of population snapshots and their Monte Carlo means.

For p above the integrability threshold,

    M(p, t) = e^{t phi(p)} sum_i m_i(t)^(p+1)

has mean one.  At the critical index p_bar the p-derivative gives the
derivative martingale (mean zero, converging a.s. to a negative limit), and
the barrier-truncated variant M_a keeps only fragments whose whole lineage
stayed under the line a - s*phi'(p_bar); in the regime where the truncated
martingale is uniformly integrable its mean is exactly a.
"""

from collections import namedtuple
import math

import numpy as np

from .errors import BarrierFlagsMissingError, BelowPLowerError
from .ranked import DEFAULT_MAX_FRAGMENTS, simulate
from .streams import map_replicas, replica_key

MCResult = namedtuple("MCResult", ["mean", "stderr", "n", "frozen_mass_mean"])


def additive(snapshot, evaluator, p):
    """M(p, t) evaluated on one snapshot (live fragments only)."""
    if p <= evaluator.p_lower:
        raise BelowPLowerError(f"additive martingale needs p > {evaluator.p_lower}")
    t = snapshot.time
    if snapshot.n_live == 0:
        return 0.0
    s = float(np.exp((p + 1.0) * snapshot.log_masses).sum())
    return math.exp(t * evaluator.phi(p)) * s


def derivative(snapshot, evaluator, p_bar_offset=0.0):
    """Derivative martingale at the critical index.

    M'(t) = sum_i (t phi'(p_bar) + log m_i) e^{t phi(p_bar)} m_i^(p_bar+1).

    p_bar_offset shifts the index used (for sensitivity checks only).
    """
    pb = evaluator.p_bar() + p_bar_offset
    t = snapshot.time
    if snapshot.n_live == 0:
        return 0.0
    lm = snapshot.log_masses
    d1 = evaluator.phi_derivs(pb).first
    w = np.exp(t * evaluator.phi(pb) + (pb + 1.0) * lm)
    return float(((t * d1 + lm) * w).sum())


def derivative_sensitivity(snapshot, evaluator, delta=1e-6):
    """Spread of the derivative martingale under a +-delta error in p_bar."""
    lo = derivative(snapshot, evaluator, p_bar_offset=-delta)
    hi = derivative(snapshot, evaluator, p_bar_offset=+delta)
    return lo, hi


def truncated_ma(snapshot, evaluator, a):
    """Barrier-truncated martingale M_a on an instrumented snapshot.

    Keeps fragments whose lineage statistic max_s (log mass + s phi'(p_bar))
    never exceeded a; every kept term is non-negative.  The snapshot must
    come from a run instrumented with barrier_slope = phi'(p_bar).
    """
    if a <= 0.0:
        raise ValueError(f"barrier level a must be positive, got {a}")
    pb = evaluator.p_bar()
    d1 = evaluator.phi_derivs(pb).first
    if snapshot.barrier_stats is None or snapshot.barrier_slope is None:
        raise BarrierFlagsMissingError(
            "snapshot lacks barrier instrumentation; simulate with "
            "barrier_slope=phi'(p_bar)"
        )
    if abs(snapshot.barrier_slope - d1) > 1e-9:
        raise BarrierFlagsMissingError(
            f"snapshot instrumented with slope {snapshot.barrier_slope}, "
            f"but phi'(p_bar) = {d1}"
        )
    t = snapshot.time
    lm = snapshot.log_masses
    keep = snapshot.barrier_stats <= a
    if not keep.any():
        return 0.0
    lm = lm[keep]
    w = np.exp(t * evaluator.phi(pb) + (pb + 1.0) * lm)
    return float(((-lm - t * d1 + a) * w).sum())


def additive_estimator(evaluator, p):
    return lambda snap: additive(snap, evaluator, p)


def derivative_estimator(evaluator):
    return lambda snap: derivative(snap, evaluator)


def truncated_estimator(evaluator, a):
    return lambda snap: truncated_ma(snap, evaluator, a)


def replica_values(fn, model, times, n_replicas, seed, eps_freeze, *,
                   barrier_slope=None, threads=1,
                   max_fragments=DEFAULT_MAX_FRAGMENTS):
    """fn(snapshot) of every replica (one run each) at every time.

    Shape (len(times), n_replicas, *fn's shape), rows in the order given.
    """
    t_list = [float(t) for t in times]

    def one(i):
        snaps = simulate(model, max(t_list), t_list, eps_freeze,
                         replica_key(seed, i), barrier_slope=barrier_slope,
                         max_fragments=max_fragments)
        at = {s.time: s for s in snaps}
        return [fn(at[t]) for t in t_list]

    rows = np.array(map_replicas(one, n_replicas, threads), dtype=float)
    return np.ascontiguousarray(np.moveaxis(rows, 0, 1))


def mc_mean(estimator, model, times, n_replicas, seed, eps_freeze, *,
            barrier_slope=None, threads=1,
            max_fragments=DEFAULT_MAX_FRAGMENTS):
    """Monte Carlo mean of a snapshot functional over independent replicas.

    times may be a scalar or a list; each replica is simulated once with
    snapshots at all requested times.  Replica i uses the stream keyed by
    (seed, i), so results do not depend on the thread count.  Returns one
    MCResult per time, in the order given (scalar in, scalar out).
    """
    scalar = np.isscalar(times)
    vals = replica_values(lambda s: (estimator(s), s.frozen_mass), model,
                          [times] if scalar else times, n_replicas, seed,
                          eps_freeze, barrier_slope=barrier_slope,
                          threads=threads, max_fragments=max_fragments)
    out = []
    for v, frozen in zip(vals[..., 0], vals[..., 1]):
        out.append(MCResult(
            mean=float(v.mean()),
            stderr=float(v.std(ddof=1) / math.sqrt(n_replicas)) if n_replicas > 1 else float("nan"),
            n=n_replicas,
            frozen_mass_mean=float(frozen.mean()),
        ))
    return out[0] if scalar else out
