"""Breadth-first reference walk of one ranked population (test oracle).

One fragment at a time off a FIFO queue, the children of a split appended
in piece order, each fragment's stream keyed by its genealogical path: the
fragments come in the order the generation-batched engine in homfrag.ranked
makes them, generation by generation.  Frozen masses are added in that
order, and live masses keep it among ties.  The walk raises once it has
made more than max_fragments fragments.  Tests check the engine against it
lane by lane, bit for bit.
"""

from bisect import bisect_left
from collections import deque
import math

import numpy as np

from homfrag.errors import BudgetExceededError
from homfrag.ranked import DEFAULT_MAX_FRAGMENTS, PopulationSnapshot
from homfrag.streams import Stream, derive_key


def simulate_bfs(model, t_end, snapshot_times, eps_freeze, seed, *,
                 barrier_slope=None, max_fragments=DEFAULT_MAX_FRAGMENTS,
                 initial_log_mass=0.0, start_time=0.0, root_key=None):
    """Same arguments and result as homfrag.ranked.simulate."""
    if not 0.0 < eps_freeze < 1.0:
        raise ValueError(f"eps_freeze must be in (0, 1), got {eps_freeze}")
    if t_end < start_time:
        raise ValueError(f"t_end {t_end} precedes start time {start_time}")
    snaps = sorted(float(s) for s in snapshot_times)
    if snaps and (snaps[0] < start_time or snaps[-1] > t_end):
        raise ValueError(
            f"snapshot times must lie in [{start_time}, {t_end}], got {snaps}"
        )
    n_snaps = len(snaps)
    live_logs = [[] for _ in range(n_snaps)]
    live_stats = [[] for _ in range(n_snaps)] if barrier_slope is not None else None
    frozen_mass_bucket = [0.0] * (n_snaps + 1)
    frozen_count_bucket = [0] * (n_snaps + 1)
    event_bucket = [0] * (n_snaps + 1)

    log_eps = math.log(eps_freeze)
    rate = model.total_rate
    conservative = model.conservative
    slope = barrier_slope
    log = math.log
    sample_masses = model.sample_masses

    if root_key is None:
        root_key = derive_key(seed, 0)
    created = 0
    # queue of (key, log_mass, birth_time, lineage_line_peak)
    queue = deque([(root_key, initial_log_mass, start_time, -math.inf)])
    if initial_log_mass < log_eps:
        queue.popleft()
        created = 1
        i = bisect_left(snaps, start_time)
        frozen_mass_bucket[i] += math.exp(initial_log_mass)
        frozen_count_bucket[i] += 1

    while True:
        # every fragment made so far is counted, the frozen ones included
        if created > max_fragments:
            raise BudgetExceededError(
                f"fragment budget {max_fragments} exceeded at t <= {t_end} "
                f"(eps_freeze={eps_freeze})"
            )
        if not queue:
            break
        key, lm, birth, peak = queue.popleft()
        created += 1
        stream = Stream(key)
        death = birth + stream.exponential(rate)
        hi = bisect_left(snaps, death) if death <= t_end else n_snaps
        lo = bisect_left(snaps, birth)
        for i in range(lo, hi):
            live_logs[i].append(lm)
            if slope is not None:
                s = lm + snaps[i] * slope
                live_stats[i].append(s if s > peak else peak)
        if death > t_end:
            continue
        masses = sample_masses(stream)
        if conservative:
            total = 0.0
            for m in masses:
                total += m
            if abs(total - 1.0) > 1e-9:
                raise AssertionError(
                    f"conservative model produced split with mass {total}"
                )
        child_peak = peak
        if slope is not None:
            s = lm + death * slope
            if s > child_peak:
                child_peak = s
        key = stream.key
        event_bucket[bisect_left(snaps, death)] += 1
        for j, frac in enumerate(masses):
            clm = lm + log(frac)
            if clm < log_eps:
                created += 1
                i = bisect_left(snaps, death)
                frozen_mass_bucket[i] += math.exp(clm)
                frozen_count_bucket[i] += 1
            else:
                queue.append((derive_key(key, j), clm, death, child_peak))

    out = []
    frozen_mass = 0.0
    frozen_count = 0
    event_count = 0
    for i, t in enumerate(snaps):
        frozen_mass += frozen_mass_bucket[i]
        frozen_count += frozen_count_bucket[i]
        event_count += event_bucket[i]
        lm = np.array(live_logs[i])
        order = np.argsort(-lm, kind="stable")
        lm = lm[order]
        stats = None
        if live_stats is not None:
            stats = np.array(live_stats[i])[order]
        out.append(PopulationSnapshot(
            time=t, log_masses=lm, frozen_mass=frozen_mass,
            frozen_count=frozen_count, event_count=event_count,
            eps_freeze=eps_freeze, seed=seed, barrier_slope=slope,
            barrier_stats=stats,
        ))
    return out
