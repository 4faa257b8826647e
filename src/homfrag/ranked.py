"""Generation-batched simulation of the ranked fragment population.

Each fragment keeps its mass until an exponential clock of rate
model.total_rate rings, then splits by an independent draw from the model.
Every fragment draws from its own stream, keyed by its genealogical path
(child j of the fragment keyed k is keyed derive_key(k, j)), so a
realization is a pure function of (model, root key) and does not depend on
the order in which fragments are processed.

One engine runs any number of independent populations (lanes; a lane is a
root key, an initial log mass and a start time).  It advances all live
fragments of a chunk of lanes one generation at a time: one StreamBatch
read of draws 1 (the lifetime) and 2 (the split, mapped by the model's
splits) of every fragment's stream.  Snapshot buckets come from a
fragment's birth (its parent's death) and its death.  log1p, log and exp go
through `lanewise` libm calls.

Every lane equals, bit for bit, a breadth-first walk that takes fragments
off a FIFO queue and appends the children of a split in piece order (the
package's reference test oracle): its fragments come in the order the
engine's generations make them.  Each lane's frozen masses are added in
that order (floating-point sums depend on order), and live fragments of
equal mass keep it.  Outputs therefore do not depend on the chunk size, on
a lane's position in its batch, or on the thread count.  A lane raises
BudgetExceededError once it has made more than max_fragments fragments.

Fragments whose mass falls below eps_freeze at birth are frozen: they stop
splitting and their mass is tracked in a separate ledger so that
conservation can still be checked and estimator bias bounded.

A run can be instrumented with a barrier slope c (used by the truncated
martingale): every fragment then carries the running maximum of
log-mass + s*c over its completed ancestor reigns, so that after the run
any additive barrier level a can be tested without re-simulating.
"""

import math

import numpy as np

from .errors import BudgetExceededError
from .streams import (
    StreamBatch,
    derive_key,
    derive_keys,
    lanewise,
    map_replicas,
    replica_keys,
)

DEFAULT_MAX_FRAGMENTS = 10_000_000
# lanes grown together, and the fragments a multi-lane chunk may hold:
# they bound memory, they are not knobs
_CHUNK_LANES = 64
_CHUNK_FRAGMENTS = 1 << 20
# draws 1 and 2 of a fragment's stream: its lifetime and its split
_LIFETIME_AND_SPLIT = np.array([[1], [2]], dtype=np.uint64)


class PopulationSnapshot:
    """State of the live population at one observation time."""

    __slots__ = ("time", "log_masses", "frozen_mass", "frozen_count",
                 "event_count", "eps_freeze", "seed", "barrier_slope",
                 "barrier_stats")

    def __init__(self, time, log_masses, frozen_mass, frozen_count,
                 event_count, eps_freeze, seed, barrier_slope=None,
                 barrier_stats=None):
        self.time = time
        self.log_masses = log_masses          # sorted decreasing
        self.frozen_mass = frozen_mass
        self.frozen_count = frozen_count
        self.event_count = event_count
        self.eps_freeze = eps_freeze
        self.seed = seed
        self.barrier_slope = barrier_slope
        self.barrier_stats = barrier_stats    # aligned with log_masses

    @property
    def n_live(self):
        return len(self.log_masses)

    @property
    def total_mass(self):
        """Mass of the live (non-frozen) population."""
        return float(np.exp(self.log_masses).sum()) if self.n_live else 0.0

    def __repr__(self):
        return (f"PopulationSnapshot(t={self.time}, live={self.n_live}, "
                f"frozen_mass={self.frozen_mass:.3g})")


def simulate(model, t_end, snapshot_times, eps_freeze, seed, *,
             barrier_slope=None, max_fragments=DEFAULT_MAX_FRAGMENTS):
    """Run one population from a single fragment; returns snapshots in time order.

    The root fragment of mass 1 is born at time 0 and keyed derive_key(seed,
    0): this is the one-lane call of simulate_lanes, which also takes a
    root's key, log mass and start time (the spine's shed fragments are
    such roots).  eps_freeze is mandatory: without it a conservative model
    with a long horizon would create unboundedly many fragments.  If the run
    would create more than max_fragments fragments, BudgetExceededError is
    raised rather than silently truncating.
    """
    return simulate_lanes(
        model, t_end, snapshot_times, eps_freeze, [seed],
        [derive_key(seed, 0)], barrier_slope=barrier_slope,
        max_fragments=max_fragments)[0]


def simulate_replicas(model, t_end, snapshot_times, eps_freeze, seed,
                      n_replicas, **kw):
    """simulate_lanes over replicas 0, ..., n_replicas - 1 of a master seed.

    Lane i is simulate(..., replica_key(seed, i)); keyword arguments pass
    through to simulate_lanes.
    """
    seeds = replica_keys(seed, n_replicas)
    return simulate_lanes(model, t_end, snapshot_times, eps_freeze,
                          seeds.tolist(), derive_keys(seeds, 0), **kw)


def simulate_lanes(model, t_end, snapshot_times, eps_freeze, seeds, root_keys,
                   *, initial_log_mass=0.0, start_time=0.0,
                   barrier_slope=None, max_fragments=DEFAULT_MAX_FRAGMENTS,
                   reduce=None, threads=1):
    """Snapshots of independent populations, one per lane.

    Lane i grows from one fragment keyed root_keys[i], of log mass
    initial_log_mass[i], born at start_time[i] (a scalar applies to every
    lane); seeds[i] only labels its snapshots.  Entry i of the result is
    reduce(snapshots of lane i), or the snapshot list itself; with
    root_keys[i] = derive_key(seeds[i], 0), log mass 0 and start time 0 it
    is what simulate(..., seeds[i], ...) returns.

    Lanes grow in chunks of _CHUNK_LANES, on up to `threads` threads.  A
    chunk whose fragments outgrow _CHUNK_FRAGMENTS is regrown one lane at a
    time, so memory stays bounded; max_fragments bounds each lane.
    """
    if not 0.0 < eps_freeze < 1.0:
        raise ValueError(f"eps_freeze must be in (0, 1), got {eps_freeze}")
    roots = (("initial_log_mass", initial_log_mass), ("start_time", start_time))
    for name, value in (("t_end", t_end),
                        ("snapshot_times", snapshot_times)) + roots:
        if np.isnan(value).any():
            raise ValueError(f"{name} must not be NaN, got {value}")
    # a root born at -inf splits for ever (every death is -inf), and one of
    # log mass +-inf holds no finite mass
    for name, value in roots:
        if np.isinf(value).any():
            raise ValueError(f"{name} must be finite, got {value}")
    n = len(seeds)
    keys = np.asarray(root_keys, dtype=np.uint64)
    lms = np.broadcast_to(np.asarray(initial_log_mass, dtype=float), (n,))
    births = np.broadcast_to(np.asarray(start_time, dtype=float), (n,))
    latest = start_time
    if np.ndim(start_time):
        latest = float(births.max()) if n else -math.inf
    if t_end < latest:
        raise ValueError(f"t_end {t_end} precedes start time {latest}")
    snaps = sorted(float(s) for s in snapshot_times)
    if snaps and (snaps[0] < latest or snaps[-1] > t_end):
        raise ValueError(
            f"snapshot times must lie in [{latest}, {t_end}], got {snaps}"
        )
    reduce = reduce or (lambda lane_snaps: lane_snaps)
    run = dict(model=model, t_end=t_end, snaps=snaps, eps_freeze=eps_freeze,
               slope=barrier_slope, max_fragments=max_fragments)

    def grow(lo, hi):
        part = slice(lo, hi)
        return _grow(keys[part], lms[part], births[part], seeds[part],
                     cap=_CHUNK_FRAGMENTS if hi - lo > 1 else None, **run)

    def chunk(c):
        lo, hi = c * _CHUNK_LANES, min(n, (c + 1) * _CHUNK_LANES)
        try:
            lanes = grow(lo, hi)
        except _ChunkFull:
            lanes = [grow(i, i + 1)[0] for i in range(lo, hi)]
        return [reduce(lane_snaps) for lane_snaps in lanes]

    n_chunks = -(-n // _CHUNK_LANES)
    return [out for part in map_replicas(chunk, n_chunks, threads)
            for out in part]


class _ChunkFull(Exception):
    """A multi-lane chunk holds more than _CHUNK_FRAGMENTS fragments."""


def _grow(keys, lm, birth, seeds, *, model, t_end, snaps, eps_freeze, slope,
          max_fragments, cap):
    """Snapshot lists of a chunk of lanes (see simulate_lanes).

    A generation grows only the next one; the live entries of every
    snapshot are built once, after the loop, from per-generation columns.
    Raises _ChunkFull once the chunk holds more than cap fragments, and
    BudgetExceededError once a lane has made more than max_fragments.
    """
    n_lanes, n_snaps = len(keys), len(snaps)
    nb = n_snaps + 1                     # buckets: before each snapshot, after all
    times = np.array(snaps)
    log_eps = math.log(eps_freeze)
    rate = model.total_rate

    # frozen ledger, in the order made: cell (lane * nb + bucket, the first
    # snapshot at or after freezing), mass
    frozen = [[], []]
    split_cells = []                     # cell of every split
    # per generation: the columns lane, log mass, buckets lo (birth) and hi
    # (death), barrier peak, each seeded empty since a chunk may have no
    # live root
    gen = [[np.zeros(0, int)], [np.zeros(0)], [np.zeros(0, int)],
           [np.zeros(0, int)], [np.zeros(0)]]
    # every snapshot is at or after every start time: roots start in bucket 0
    cold_roots = lm < log_eps
    root_frozen = np.flatnonzero(cold_roots)
    if root_frozen.size:
        frozen[0].append(root_frozen * nb)
        frozen[1].append(lanewise(math.exp, lm[root_frozen]))
    n_frozen = root_frozen.size
    alive = np.flatnonzero(~cold_roots)
    g_lane, g_key, g_lm, g_birth = alive, keys[alive], lm[alive], birth[alive]
    g_lo = np.zeros(alive.size, int)
    g_peak = None if slope is None else np.full(alive.size, -math.inf)
    n_grown = 0
    while True:
        # fragments made so far: earlier generations, this one, the frozen
        held = n_grown + g_lane.size + n_frozen
        if cap is not None and held > cap:
            raise _ChunkFull
        if held > max_fragments:
            made = np.bincount(np.concatenate(
                gen[0] + [g_lane] + [cell // nb for cell in frozen[0]]),
                minlength=n_lanes)
            if (made > max_fragments).any():
                raise BudgetExceededError(
                    f"fragment budget {max_fragments} exceeded at t <= {t_end} "
                    f"(eps_freeze={eps_freeze})"
                )
        if not g_lane.size:
            break
        draws = StreamBatch(g_key).uniform_at(slice(None), _LIFETIME_AND_SPLIT)
        death = g_birth + -lanewise(math.log1p, -draws[0]) / rate
        # n_snaps for a fragment that dies after t_end >= the last snapshot
        hi = np.searchsorted(times, death)
        for col, v in zip(gen, (g_lane, g_lm, g_lo, hi, g_peak)):
            col.append(v)
        n_grown += g_lane.size

        sp = np.flatnonzero(death <= t_end)
        if not sp.size:
            break
        masses = model.splits(draws[1, sp])
        if model.conservative:
            total = masses[:, 0].copy()
            for column in masses.T[1:]:
                total += column
            off = np.abs(total - 1.0) > 1e-9
            if off.any():
                raise AssertionError(
                    f"conservative model produced split with mass {total[off][0]}"
                )
        sp_cell = g_lane[sp] * nb + hi[sp]
        split_cells.append(sp_cell)

        rows, piece = np.nonzero(masses)          # row-major: (parent, j)
        par = sp[rows]
        clm = g_lm[par] + lanewise(math.log, masses[rows, piece])
        cold = clm < log_eps
        if cold.any():
            frozen[0].append(sp_cell[rows[cold]])
            frozen[1].append(lanewise(math.exp, clm[cold]))
            n_frozen += np.count_nonzero(cold)
        warm = ~cold
        par = par[warm]
        g_birth = death[par]
        if slope is not None:
            s = g_lm[par] + g_birth * slope
            g_peak = np.where(s > g_peak[par], s, g_peak[par])
        g_lane, g_lm, g_lo = g_lane[par], clm[warm], hi[par]
        g_key = derive_keys(g_key[par], piece[warm])

    lane, frag_lm, lo, hi = (np.concatenate(col) for col in gen[:4])
    f_cell, f_mass = (np.concatenate(col) if col else np.zeros(0, int)
                      for col in frozen)

    # per-lane frozen mass of every bucket, each summed in the order made
    acc = np.zeros(n_lanes * nb)
    np.add.at(acc, f_cell, f_mass)
    acc = acc.reshape(n_lanes, nb)
    f_count = np.bincount(f_cell, minlength=n_lanes * nb).reshape(n_lanes, nb)
    e_cell = np.concatenate(split_cells) if split_cells else np.zeros(0, int)
    e_count = np.bincount(e_cell, minlength=n_lanes * nb).reshape(n_lanes, nb)
    frozen_mass = np.cumsum(acc[:, :n_snaps], axis=1).tolist()
    frozen_count = np.cumsum(f_count[:, :n_snaps], axis=1).tolist()
    event_count = np.cumsum(e_count[:, :n_snaps], axis=1).tolist()

    # live masses of every (lane, snapshot), decreasing, ties in the order
    # made: a fragment is live at the snapshots of buckets lo, ..., hi - 1
    reps = hi - lo
    who = np.repeat(np.arange(n_grown), reps)
    snap = lo[who]
    if who.size > np.count_nonzero(reps):       # alive at several snapshots
        snap += np.arange(who.size) - np.repeat(np.cumsum(reps) - reps, reps)
    cell = lane[who] * n_snaps + snap
    entry_lm = frag_lm[who]
    order = np.lexsort((-entry_lm, cell))
    cell, entry_lm = cell[order], entry_lm[order]
    stat = None
    if slope is not None:
        s = entry_lm + times[snap[order]] * slope
        peak = np.concatenate(gen[4])[who[order]]
        stat = np.where(s > peak, s, peak)
    bounds = np.searchsorted(cell, np.arange(n_lanes * n_snaps + 1)).tolist()

    out = []
    for a in range(n_lanes):
        lane_snaps = []
        for i, t in enumerate(snaps):
            c = a * n_snaps + i
            part = slice(bounds[c], bounds[c + 1])
            lane_snaps.append(PopulationSnapshot(
                time=t, log_masses=entry_lm[part],
                frozen_mass=frozen_mass[a][i], frozen_count=frozen_count[a][i],
                event_count=event_count[a][i], eps_freeze=eps_freeze,
                seed=seeds[a], barrier_slope=slope,
                barrier_stats=None if stat is None else stat[part],
            ))
        out.append(lane_snaps)
    return out


def empirical_moment(snapshot, theta):
    """sum of live masses^theta at the snapshot time.

    Frozen fragments are excluded; for theta > 1 on a conservative model the
    resulting downward bias of the mean is at most
    eps_freeze^(theta-1) * frozen_mass.
    """
    if snapshot.n_live == 0:
        return 0.0
    return float(np.exp(theta * snapshot.log_masses).sum())


def empirical_interval_count(snapshot, x, alpha, beta):
    """Number of live fragments with log-mass in [x + alpha, x + beta]."""
    if beta <= alpha:
        raise ValueError(f"need alpha < beta, got [{alpha}, {beta}]")
    lm = snapshot.log_masses
    return int(np.count_nonzero((lm >= x + alpha) & (lm <= x + beta)))
