"""Splittable deterministic random streams.

Every stochastic object in this package (replica, fragment, block, spine)
owns a private stream keyed by its genealogical path, so a simulation is a
pure function of (master seed, structure).  Keys are 64-bit; child keys are
derived from the parent key and the child's index, never from a global
counter.  That makes realizations stable under refinements that add or
remove *other* branches (e.g. lowering the freezing threshold never changes
the events seen by fragments that were already alive).

The generator is SplitMix64: state walks by a fixed odd gamma and outputs
are the mix64 finalizer of the state.  It is fast in pure Python (a few
integer ops per draw) and batches cheaply through numpy for vector draws.
"""

from bisect import bisect_right
from itertools import repeat
import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_KEY_SALT = 0xA5A5A5A5A5A5A5A5  # keeps the key-derivation domain disjoint from draws

_U64_GAMMA = np.uint64(GOLDEN_GAMMA)
_U64_MIX = (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9),
            np.uint64(27), np.uint64(0x94D049BB133111EB), np.uint64(31))
_U64_11 = np.uint64(11)
_INV_2_53 = 2.0 ** -53

# tries before a rejection loop is declared not computable: paintboxes at
# one ring of a partitions block
_MAX_REJECTIONS = 1_000_000


def mix64(z):
    """SplitMix64 finalizer: bijective avalanche mix of a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_key(key, index):
    """Key of child `index` (0-based) of the entity keyed by `key`."""
    return mix64(((key ^ _KEY_SALT) + GOLDEN_GAMMA * (index + 1)) & MASK64)


def replica_key(master_seed, replica):
    """Stream key for one replica: a pure function of (master seed, index)."""
    return derive_key(master_seed & MASK64, replica)


def _mix64_u64(z):
    """mix64 of every word of a fresh np.uint64 array, in place (wrapping)."""
    s1, m1, s2, m2, s3 = _U64_MIX
    z ^= z >> s1
    z *= m1
    z ^= z >> s2
    z *= m2
    z ^= z >> s3
    return z


def _unit_floats(state):
    """Uniforms in [0, 1) drawn from fresh np.uint64 states, as Stream.uniform."""
    z = _mix64_u64(state)
    z >>= _U64_11
    return z * _INV_2_53


def derive_keys(keys, index):
    """derive_key(k, index) of every key of a np.uint64 array.

    index is one int for all keys or an integer array aligned with keys.
    """
    if np.ndim(index):
        step = (np.asarray(index, dtype=np.uint64) + np.uint64(1)) * _U64_GAMMA
    else:
        step = np.uint64((GOLDEN_GAMMA * (index + 1)) & MASK64)
    return _mix64_u64((keys ^ np.uint64(_KEY_SALT)) + step)


def replica_keys(master_seed, n):
    """[replica_key(master_seed, i) for i in range(n)] as a np.uint64 array."""
    salted = np.uint64((master_seed & MASK64) ^ _KEY_SALT)
    return _mix64_u64(salted + _U64_GAMMA * np.arange(1, n + 1, dtype=np.uint64))


def map_replicas(fn, n_replicas, threads):
    """[fn(0), ..., fn(n_replicas - 1)] on up to `threads` threads.

    fn(i) must depend only on i (replica i draws from replica_key(seed, i));
    results come back in index order, so they do not depend on `threads`.
    One task runs inline, and the pool's module is imported only to fan out.
    """
    if threads > 1 and n_replicas > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(n_replicas)))
    return [fn(i) for i in range(n_replicas)]


class Stream:
    """A single SplitMix64 stream."""

    __slots__ = ("key", "state")

    def __init__(self, key):
        self.key = key & MASK64
        self.state = mix64(self.key)

    def uniform(self):
        """Uniform float in [0, 1)."""
        # one SplitMix64 step with mix64 inlined: the scalar walks' hot draw
        z = self.state = (self.state + GOLDEN_GAMMA) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return ((z ^ (z >> 31)) >> 11) * _INV_2_53

    def uniforms(self, n):
        """Vector of n uniforms in [0, 1); advances the state by n steps."""
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self.state) + _U64_GAMMA * steps
        self.state = int(z[-1]) if n else self.state
        return _unit_floats(z)

    def exponential(self, rate):
        """Exponential waiting time with the given rate."""
        if not rate > 0.0:  # NaN included
            raise ValueError(f"exponential rate must be positive, got {rate}")
        return -math.log1p(-self.uniform()) / rate

    def pick(self, cumweights):
        """Index drawn proportionally to weights, given their running sums."""
        return pick_index(cumweights, self.uniform())


def pick_index(cumweights, u):
    """Index of uniform u among the weights with running sums cumweights:
    the first running sum above u times the total, clamped to the last
    index, as pick_indices(cumweights, u * total, last) picks."""
    # the search stops before the last index: the clamp, without a min()
    return bisect_right(cumweights, u * cumweights[-1], 0, len(cumweights) - 1)


def pick_indices(cumweights, x, last):
    """For each r, the index of the first running sum of row r above x[r],
    or last[r] if none is.  cumweights holds the running sums, a row per r
    or one row for all; last[r] (or one int for all) indexes row r's last
    real weight, past which zeros pad the row, so its running sums repeat
    the total.  Pass x = u * total to pick in proportion to the weights."""
    if cumweights.ndim == 1:  # one row: a binary search of it for each x
        below = np.searchsorted(cumweights, x, side="right")
    else:  # a pass per column: numpy reduces along a short axis slowly
        below = sum(column <= x for column in cumweights.T)
    return np.minimum(below, last)


def lanewise(fn, x, y=None):
    """fn(x[i]) on every entry of the float array x, or fn(x[i], y[i]) when
    fn takes a further argument y; then either of x and y may be a single
    float passed to every call instead of an array aligned with the other.
    One scalar call per entry.

    Batched code maps the scalar code's transcendentals (math.log, log1p,
    exp, pow) this way: numpy's SIMD ufuncs can differ from libm in the last
    bit, so a lane would no longer equal its scalar walk.  (y is not *args,
    since CPython does not specialise calls of a function with *args: that
    would slow every one-argument call, the engines' hot case.)
    """
    if y is None:
        return np.fromiter(map(fn, x.tolist()), float, len(x))
    if not isinstance(x, np.ndarray):  # a single x, an array y
        return np.fromiter(map(fn, repeat(x), y.tolist()), float, len(y))
    ys = y.tolist() if isinstance(y, np.ndarray) else repeat(y)
    return np.fromiter(map(fn, x.tolist(), ys), float, len(x))


class StreamBatch:
    """Many SplitMix64 streams, one per lane, drawn lane-wise in numpy.

    Lane i is Stream(keys[i]): draw k of a lane equals the k-th
    Stream.uniform of that lane's stream, bit for bit.  A batch never
    advances: idx selects the lanes that a read draws from.
    """

    __slots__ = ("state",)

    def __init__(self, keys):
        self.state = _mix64_u64(np.array(keys, dtype=np.uint64))

    def uniform_at(self, idx, k):
        """Draw k (1-based) of each lane in idx.

        SplitMix64 is counter-based: draw k of a stream in state s is the
        uniform of mix64(s + k*gamma).  idx and k broadcast together.
        """
        z = self.state[idx] + np.asarray(k, dtype=np.uint64) * _U64_GAMMA
        return _unit_floats(z)
