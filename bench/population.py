"""population: ranked-population Monte Carlo on uniform_binary.

One op is one mc_mean or presence_summary call over the same replica batch,
from the library at threads=1.  About 90% of the time is in ranked.simulate;
the barrier-instrumented op drives the same layer with an extra statistic
per fragment.  The tagged line, partitions and the CLI are bypassed.

The cycle has one op per (estimator, t), so its per-op times spread over
three sizes (t <= 1, t = 2, t = 4): the median lands among the t = 2 ops and
the 90th percentile among the t = 4 ops, never in a gap between sizes.
"""

import math

import numpy as np

from core import (Gate, OpKind, Outcome, by_kind, digest_floats, pooled, ratio,
                  z_gate)

EPS = 1e-7          # eps_freeze of the martingale ops
EPS_PRESENCE = 1e-8
P = 0.5             # additive martingale and window index
T_PRESENCE = 4.0
WINDOW = (-0.2, 0.2)
A = 1.0             # truncated martingale barrier level
CONSERVATION_TOL = 1e-9
HEADLINE = "additive_t4"


def _mc_kind(H, ref, name, n, t, estimator, target, barrier=False):
    model, ev = ref.ub, ref.ub_eval
    slope = ref.barrier_slope if barrier else None

    def conserved(snap, bad):
        live = float(np.exp(snap.log_masses).sum())
        if abs(live + snap.frozen_mass - 1.0) > CONSERVATION_TOL:
            bad.append(live + snap.frozen_mass)

    def outcome(res, bad):
        problem = f"mass not conserved: {bad[:3]}" if bad else ""
        return Outcome(res, digest_floats(*res), n, not bad, problem)

    def run(seed):
        bad = []

        def checked(snap):
            conserved(snap, bad)
            return estimator(snap)

        res = H.mc_mean(checked, model, t, n, seed, EPS, barrier_slope=slope)
        return lambda: outcome(res, bad)

    def replay(seed, tr):
        bad = []
        vals = np.empty(n)
        frozen = np.empty(n)
        for i in range(n):
            with tr.span("ranked.simulate") as sp:
                snap = H.simulate(model, t, [t], EPS, H.replica_key(seed, i),
                                  barrier_slope=slope)[0]
            count_fragments(tr, snap, sp.duration, barrier)
            conserved(snap, bad)
            with tr.span("martingales.estimator"):
                vals[i] = estimator(snap)
            frozen[i] = snap.frozen_mass
        res = H.MCResult(mean=float(vals.mean()),
                         stderr=float(vals.std(ddof=1) / math.sqrt(n)),
                         n=n, frozen_mass_mean=float(frozen.mean()))
        return lambda: outcome(res, bad)

    return OpKind(name, run, replay, target)


def count_fragments(tr, snap, seconds, barrier):
    """Fragments created by one run: live at t_end + frozen + split events."""
    created = snap.n_live + snap.frozen_count + snap.event_count
    tr.add("ranked.simulate.calls", 1)
    tr.add("ranked.simulate.busy_s", seconds)
    tr.add("ranked.fragments", created)
    tr.add("ranked.events", snap.event_count)
    tr.add("ranked.frozen", snap.frozen_count)
    prefix = "ranked.barrier" if barrier else "ranked.plain"
    tr.add(prefix + ".fragments", created)
    tr.add(prefix + ".busy_s", seconds)


def _presence_kind(H, ref, n):
    model, ev = ref.ub, ref.ub_eval
    alpha, beta = WINDOW

    def run(seed):
        s = H.presence_summary(model, ev, P, T_PRESENCE, alpha, beta,
                               EPS_PRESENCE, n, seed)
        return Outcome(s, digest_floats(*s), n)

    def replay(seed, tr):
        x = H.window_center(ev, P, T_PRESENCE)
        counts = np.empty(n)
        for i in range(n):
            with tr.span("ranked.simulate") as sp:
                snap = H.simulate(model, T_PRESENCE, [T_PRESENCE],
                                  EPS_PRESENCE, H.replica_key(seed, i))[0]
            count_fragments(tr, snap, sp.duration, False)
            with tr.span("ldp.window_count"):
                counts[i] = float(H.empirical_interval_count(snap, x, alpha,
                                                             beta))
        u = float((counts > 0).mean())
        s = H.PresenceEstimate(
            p=P, t=T_PRESENCE, x=x, alpha=alpha, beta=beta,
            v_mean=float(counts.mean()),
            v_stderr=float(counts.std(ddof=1) / math.sqrt(n)),
            v_predicted=ev.v_asymptote(P, T_PRESENCE, alpha, beta),
            u_mean=u, u_stderr=math.sqrt(max(u * (1.0 - u), 0.0) / n),
            n_replicas=n)
        return Outcome(s, digest_floats(*s), n)

    return OpKind("presence_t4", run, replay)


class Population:
    name = "population"

    def __init__(self, H, ref, replicas):
        self.ref = ref
        ev = ref.ub_eval
        additive = H.martingales.additive_estimator(ev, P)
        derivative = H.martingales.derivative_estimator(ev)
        truncated = H.martingales.truncated_estimator(ev, A)
        mc = lambda *a, **k: _mc_kind(H, ref, *a, **k)
        self.kinds = [
            mc("additive_t1", replicas, 1.0, additive, 1.0),
            mc("derivative_t0.5", replicas, 0.5, derivative, 0.0),
            mc("additive_t2", replicas, 2.0, additive, 1.0),
            mc("derivative_t1", replicas, 1.0, derivative, 0.0),
            mc("truncated_t2", replicas, 2.0, truncated, A, barrier=True),
            mc("derivative_t2", replicas, 2.0, derivative, 0.0),
            mc(HEADLINE, replicas, 4.0, additive, 1.0),
            _presence_kind(H, ref, replicas),
        ]

    def gates(self, records):
        out = []
        for kind in self.kinds:
            if kind.target is None:
                continue
            ops = by_kind(records, kind.name)
            if not ops:
                out.append(Gate(f"{kind.name}_mean", False, {"ops": 0}))
                continue
            mean, se = pooled([(o.outcome.value.mean, o.outcome.value.stderr,
                                o.outcome.value.n) for o in ops])
            out.append(z_gate(f"{kind.name}_mean", mean, se, kind.target))
        return out

    def headline(self, records):
        """Op kinds of the headline estimator and its pooled (mean, stderr)."""
        ops = by_kind(records, HEADLINE)
        return ([HEADLINE], *pooled([(o.outcome.value.mean, o.outcome.value.stderr,
                                      o.outcome.value.n) for o in ops]))


def layer_metrics(tr):
    c = tr.counts
    created = c["ranked.fragments"]
    return {
        "ranked.simulate.calls": c["ranked.simulate.calls"],
        "ranked.simulate.busy_s": c["ranked.simulate.busy_s"],
        "ranked.fragments": created,
        "ranked.events": c["ranked.events"],
        "ranked.fragments_per_s": ratio(c["ranked.plain.fragments"],
                                        c["ranked.plain.busy_s"]),
        "ranked.barrier.fragments_per_s": ratio(c["ranked.barrier.fragments"],
                                                c["ranked.barrier.busy_s"]),
        "ranked.frozen_share": ratio(c["ranked.frozen"], created),
        "martingales.estimator.busy_s": tr.busy("martingales.estimator"),
        "ldp.window_count.busy_s": tr.busy("ldp.window_count"),
    }

