"""tagged_line: the tagged line of descent, checked by the many-to-one,
spine and thinning identities.

Every op covers the same number of paths.  The time is in partitions
(simulate_subordinator), tilting, measures.sample / sample_size_biased and
scalar stream draws; ranked.simulate is never called.
"""

import math

import numpy as np

from core import (OpKind, Outcome, by_kind, digest_floats,
                  mean_se, pooled, ratio, sha256, z_gate)
from spans import NULL

P_WINDOW = 0.5
T_SPINE = 4.0
T_LOG = 4.0
P_THIN = 1.0
Q = 1.0             # Laplace argument of the subordinator and spine gates
HEADLINE = "V_t8"
DYADIC_V = 4.0 * math.exp(-2.0)     # exact V of the dyadic model at t=2
SPINES = {"spine_p0.5": 0.5, "spine_p-0.5": -0.5}


def _manyto1_kind(H, name, model, ev, t, window, n):
    alpha, beta = window

    def run(seed):
        res = H.estimate_V_manyto1(model, ev, P_WINDOW, t, alpha, beta, n, seed)
        return Outcome(res, digest_floats(*res), n)

    def replay(seed, tr):
        x = H.window_center(ev, P_WINDOW, t)
        lo, hi = x + alpha, x + beta
        vals = np.empty(n)
        for i in range(n):
            with tr.span("partitions.subordinator"):
                path = H.simulate_subordinator(model, t, H.replica_key(seed, i))
            tr.add("partitions.subordinator.jumps", len(path.jump_times))
            xi = path.value(t)
            vals[i] = math.exp(xi) if lo <= -xi <= hi else 0.0
        res = (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n)))
        return Outcome(res, digest_floats(*res), n)

    return OpKind(name, run, replay)


def _spine_kind(H, ref, name, p, n):
    model, ev = ref.ub, ref.ub_eval

    def replay(seed, tr):
        weights = np.empty(n)
        log_mass = np.empty(n)
        for i in range(n):
            with tr.span("tilting.spine"):
                run = H.simulate_spine(model, p, T_SPINE, H.replica_key(seed, i),
                                       ev)
            tr.add("tilting.spine.jumps", len(run.jump_times))
            weights[i] = run.weight
            log_mass[i] = run.spine_log_mass(T_SPINE)
        if p < 0.0:
            tr.add("tilting.spine.weight_sum", weights.sum())
            tr.add("tilting.spine.weight_sq_sum", (weights ** 2).sum())
            tr.add("tilting.spine.weighted_paths", n)
        return Outcome((weights, log_mass),
                       sha256(weights.tobytes() + log_mass.tobytes()), n)

    return OpKind(name, lambda seed: replay(seed, NULL), replay)


def _event_log_kind(H, ref, n):
    model = ref.ub

    def replay(seed, tr):
        laplace = np.empty(n)
        events = kept = 0
        flags = []
        for i in range(n):
            key = H.replica_key(seed, i)
            with tr.span("tilting.event_log"):
                log = H.simulate_event_log(model, T_LOG, key)
            with tr.span("tilting.thin"):
                thinned = H.thin_fiber(log, P_THIN, H.Stream(H.derive_key(key, 1)))
            xi = math.fsum(-math.log(part.masses[j])
                           for part, j in zip(log.partitions, log.picks))
            laplace[i] = math.exp(-Q * xi)
            events += len(log)
            kept += sum(thinned.kept)
            flags.extend(thinned.kept)
        tr.add("tilting.event_log.events", events)
        tr.add("tilting.thin.events", events)
        tr.add("tilting.thin.kept", kept)
        digest = sha256(laplace.tobytes() + bytes(bytearray(flags)))
        return Outcome((laplace, events, kept), digest, n)

    return OpKind("event_log_thin", lambda seed: replay(seed, NULL),
                  replay)


class TaggedLine:
    name = "tagged_line"

    def __init__(self, H, ref, paths):
        ub, ev = ref.ub, ref.ub_eval
        self.ref = ref
        self.kinds = [
            _manyto1_kind(H, "V_dyadic_t2", ref.dyadic, ref.dyadic_eval, 2.0,
                          (-0.3, 0.3), paths),
            _manyto1_kind(H, "V_t4", ub, ev, 4.0, (-0.2, 0.2), paths),
            _spine_kind(H, ref, "spine_p0.5", SPINES["spine_p0.5"], paths),
            _event_log_kind(H, ref, paths),
            _spine_kind(H, ref, "spine_p-0.5", SPINES["spine_p-0.5"], paths),
            _manyto1_kind(H, HEADLINE, ub, ev, 8.0, (-0.2, 0.2), paths),
        ]

    def gates(self, records):
        ev = self.ref.ub_eval
        out = []
        ops = by_kind(records, "V_dyadic_t2")
        mean, se = pooled([(o.outcome.value[0], o.outcome.value[1],
                            o.outcome.replicas) for o in ops])
        out.append(z_gate("dyadic_V_is_4e-2", mean, se, DYADIC_V))

        ops = by_kind(records, "event_log_thin")
        laplace = np.concatenate([o.outcome.value[0] for o in ops]) if ops else []
        mean, se = mean_se(list(laplace))
        out.append(z_gate("subordinator_laplace", mean, se,
                          math.exp(-T_LOG * ev.phi(Q))))
        events = sum(o.outcome.value[1] for o in ops)
        kept = sum(o.outcome.value[2] for o in ops)
        rate = self.ref.ub.total_rate
        f = (rate - ev.phi(P_THIN)) / rate
        share = kept / events if events else math.nan
        se = math.sqrt(f * (1.0 - f) / events) if events else math.nan
        out.append(z_gate("thin_kept_fraction", share, se, f))

        for name, p in SPINES.items():
            ys = [w * math.exp(Q * lm) for o in by_kind(records, name)
                  for w, lm in zip(*o.outcome.value)]
            mean, se = mean_se(ys)
            target = math.exp(-T_SPINE * (ev.phi(p + Q) - ev.phi(p)))
            out.append(z_gate(f"{name}_weighted_laplace", mean, se, target))
        return out

    def headline(self, records):
        """Op kinds of the headline estimator and its pooled (mean, stderr)."""
        ops = by_kind(records, HEADLINE)
        return ([HEADLINE], *pooled([(o.outcome.value[0], o.outcome.value[1],
                                      o.outcome.replicas) for o in ops]))


def layer_metrics(tr):
    c = tr.counts
    weighted = c["tilting.spine.weighted_paths"]
    return {
        "partitions.subordinator.paths_per_s": ratio(
            tr.n_spans("partitions.subordinator"),
            tr.busy("partitions.subordinator")),
        "partitions.subordinator.jumps": c["partitions.subordinator.jumps"],
        "tilting.spine.paths_per_s": ratio(tr.n_spans("tilting.spine"),
                                           tr.busy("tilting.spine")),
        "tilting.spine.jumps": c["tilting.spine.jumps"],
        "tilting.event_log.events_per_s": ratio(c["tilting.event_log.events"],
                                                tr.busy("tilting.event_log")),
        "tilting.thin.events_per_s": ratio(c["tilting.thin.events"],
                                           tr.busy("tilting.thin")),
        "tilting.spine.ess_ratio": ratio(
            c["tilting.spine.weight_sum"] ** 2,
            weighted * c["tilting.spine.weight_sq_sum"]),
        "tilting.thin.kept_share": ratio(c["tilting.thin.kept"],
                                         c["tilting.thin.events"]),
    }

