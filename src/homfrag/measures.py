"""Ranked mass partitions and finite-rate dislocation models.

A dislocation model is a finite measure on ranked mass sequences
(s1 >= s2 >= ... > 0, sum <= 1); simulation draws splits at the model's
total rate and each fragment of mass m is replaced by (m*s1, m*s2, ...).
Infinite families enter only through truncation: `truncate_family` keeps
the sub-measure of splits with 1 - s1 > epsilon, which has finite rate.

Models report what they can about the moment function

    phi(q) = integral of (1 - sum_i s_i^(q+1)) against the measure,

either in closed form, or through a density for quadrature, or not at all
(the analytics layer then falls back to Monte Carlo).
"""

import itertools
import math

import numpy as np

from .errors import (
    DustNotSupportedError,
    InvalidModelError,
    ModelNotFiniteError,
    NonPositiveEntryError,
    SumExceedsOneError,
    TrivialSplitError,
    UnknownFamilyError,
)
from .numerics import gauss_kronrod


def _pow_lanes(x, y, n):
    """The n values pow(x_i, y_i), one libm call each, for iterables x and y
    of floats (the ** of Python floats); map makes no Python frame per call."""
    return np.fromiter(map(pow, x, y), float, n)


def _binary_terms(u, q):
    """Integrands of phi, phi' and phi'' at q for the splits (1 - u, u).

    One row per quantity, one column per entry of the array u:
    1 - a^(q+1) - b^(q+1), -sum a^(q+1) log a and -sum a^(q+1) log(a)^2
    over the two pieces.
    """
    v = 1.0 - u
    return _split_terms(1.0, u ** (q + 1.0), np.log(u), v ** (q + 1.0),
                        np.log(v))


def _split_terms(w, pu, lu, pv, lv):
    """Rows w - pu - pv, -(pu lu + pv lv) and -(pu lu^2 + pv lv^2): the
    integrands of _binary_terms, weighted by w, from the weighted powers pu,
    pv of the two pieces and their logs lu, lv."""
    return np.stack((w - pu - pv, -(pu * lu + pv * lv),
                     -(pu * lu * lu + pv * lv * lv)))

SUM_TOL = 1e-12
CONSERVATIVE_TOL = 1e-9


class MassPartition:
    """A ranked sequence of positive masses with total at most one."""

    __slots__ = ("masses", "_total")

    def __init__(self, masses):
        masses = tuple(map(float, masses))
        if not masses:
            raise TrivialSplitError("mass partition has no positive entries")
        total = 0.0
        prev = float("inf")
        for m in masses:
            if m <= 0.0:
                raise NonPositiveEntryError(f"non-positive mass {m}")
            if m > prev:
                raise NonPositiveEntryError(
                    f"masses not ranked: {m} follows {prev} (use validate to sort)"
                )
            prev = m
            total += m
        if total > 1.0 + SUM_TOL:
            raise SumExceedsOneError(f"masses sum to {total} > 1")
        self.masses = masses
        self._total = total

    @property
    def total(self):
        return self._total

    @property
    def conservative(self):
        """True when the split preserves mass (no dust)."""
        return abs(self._total - 1.0) <= CONSERVATIVE_TOL

    @property
    def is_trivial(self):
        """True for the do-nothing split (single mass 1)."""
        return len(self.masses) == 1 and self.masses[0] >= 1.0 - SUM_TOL

    def power_sum(self, theta):
        """sum_i s_i^theta"""
        return sum(m ** theta for m in self.masses)

    def __len__(self):
        return len(self.masses)

    def __getitem__(self, i):
        return self.masses[i]

    def __iter__(self):
        return iter(self.masses)

    def __eq__(self, other):
        return isinstance(other, MassPartition) and self.masses == other.masses

    def __hash__(self):
        return hash(self.masses)

    def __repr__(self):
        return f"MassPartition({list(self.masses)!r})"


def validate(raw, allow_trivial=False):
    """Build a MassPartition from raw floats: strip zero padding, rank, check.

    Rejects the trivial split (single mass 1) unless allow_trivial is set;
    the trivial outcome means "no fragmentation happened" and is excluded
    from dislocation measures by definition.
    """
    cleaned = []
    for m in raw:
        m = float(m)
        if m == 0.0:
            continue  # zero entries are padding in the ranked representation
        if m < 0.0:
            raise NonPositiveEntryError(f"negative mass {m}")
        cleaned.append(m)
    cleaned.sort(reverse=True)
    part = MassPartition(cleaned)
    if part.is_trivial and not allow_trivial:
        raise TrivialSplitError("trivial split (single mass 1) is not a dislocation")
    return part


class DislocationModel:
    """Base class: finite total rate + exact sampler + analytic hooks."""

    kind = "abstract"
    total_rate = None
    conservative = None
    p_lower = -math.inf

    def sample_masses(self, stream):
        """Draw one split as a ranked tuple of floats (hot path)."""
        raise NotImplementedError

    def sample_masses_batch(self, streams, idx):
        """One split per lane of a StreamBatch, as a zero-padded matrix.

        Row r equals sample_masses on the scalar stream of lane idx[r], bit
        for bit, and advances that lane by the same draws.
        """
        raise NotImplementedError

    def sample(self, stream):
        return MassPartition(self.sample_masses(stream))

    # --- analytics hooks; return None when the capability is absent ---

    def phi_closed(self, q):
        return None

    def phi_derivs_closed(self, q):
        return None

    def phi_quadrature(self, q, abs_tol=1e-10):
        """([phi(q), phi'(q), phi''(q)], error) by quadrature on one mesh."""
        return None

    def to_json(self):
        raise NotImplementedError


class AtomicModel(DislocationModel):
    """Finitely many split outcomes with positive weights."""

    kind = "atomic"

    def __init__(self, atoms):
        atoms = [(p if isinstance(p, MassPartition) else validate(p), float(w))
                 for p, w in atoms]
        if not atoms:
            raise InvalidModelError("atomic model needs at least one atom")
        for part, w in atoms:
            if w <= 0.0:
                raise InvalidModelError(f"atom weight {w} must be positive")
            if part.is_trivial:
                raise TrivialSplitError("atomic model contains the trivial split")
        self.atoms = atoms
        self.total_rate = sum(w for _, w in atoms)
        self.conservative = all(p.conservative for p, _ in atoms)
        self._cum = []
        acc = 0.0
        for _, w in atoms:
            acc += w
            self._cum.append(acc)
        self._cum_array = np.array(self._cum)
        width = max(len(p) for p, _ in atoms)
        self._padded = np.array([p.masses + (0.0,) * (width - len(p))
                                 for p, _ in atoms])
        self.p_lower = -math.inf  # finite sums of positive powers always converge

    def sample_masses(self, stream):
        return self.atoms[stream.pick(self._cum)][0].masses

    def sample(self, stream):
        return self.atoms[stream.pick(self._cum)][0]

    def sample_masses_batch(self, streams, idx):
        # Stream.pick: bisect_right of u * total in the running weights
        u = streams.uniform(idx) * self._cum[-1]
        j = np.searchsorted(self._cum_array, u, side="right")
        return self._padded[np.minimum(j, len(self._cum) - 1)]

    def phi_closed(self, q):
        tot = 0.0
        for part, w in self.atoms:
            tot += w * (1.0 - part.power_sum(q + 1.0))
        return tot

    def phi_derivs_closed(self, q):
        d1 = 0.0
        d2 = 0.0
        for part, w in self.atoms:
            for m in part.masses:
                lg = math.log(m)
                pw = m ** (q + 1.0)
                d1 -= w * pw * lg
                d2 -= w * pw * lg * lg
        return d1, d2

    def to_json(self):
        return {
            "kind": "atomic",
            "atoms": [[list(p.masses), w] for p, w in self.atoms],
        }


class UniformBinaryModel(DislocationModel):
    """Binary conservative splits (u, 1-u) with u uniform; rate 1 untruncated.

    With epsilon > 0 the splits are conditioned on min(u, 1-u) > epsilon and
    the total rate is the measure of that event, 1 - 2*epsilon.
    """

    kind = "uniform_binary"

    def __init__(self, epsilon=0.0):
        if not 0.0 <= epsilon < 0.5:
            raise InvalidModelError(f"epsilon must be in [0, 0.5), got {epsilon}")
        self.epsilon = float(epsilon)
        self.total_rate = 1.0 - 2.0 * self.epsilon
        self.conservative = True
        self.p_lower = -2.0 if self.epsilon == 0.0 else -math.inf

    def sample_masses(self, stream):
        u = self.epsilon + self.total_rate * stream.uniform_open()
        if u < 0.5:
            return (1.0 - u, u)
        return (u, 1.0 - u)

    def sample_masses_batch(self, streams, idx):
        u = self.epsilon + self.total_rate * streams.uniform_open(idx)
        v = 1.0 - u
        # (1 - u, u) if u < 0.5 else (u, 1 - u): the larger piece first
        return np.column_stack((np.maximum(u, v), np.minimum(u, v)))

    def phi_closed(self, q):
        e = self.epsilon
        if e == 0.0:
            return 1.0 - 2.0 / (q + 2.0)
        if q == -2.0:
            return self.total_rate - 2.0 * math.log((1.0 - e) / e)
        return self.total_rate - 2.0 * ((1.0 - e) ** (q + 2.0) - e ** (q + 2.0)) / (q + 2.0)

    def phi_derivs_closed(self, q):
        e = self.epsilon
        if e == 0.0:
            return 2.0 / (q + 2.0) ** 2, -4.0 / (q + 2.0) ** 3
        la, lb = math.log(1.0 - e), math.log(e)
        r = q + 2.0
        if r == 0.0:
            # r -> 0 limits of the cancelling expressions below
            return lb * lb - la * la, -2.0 * (la ** 3 - lb ** 3) / 3.0
        pa, pb = (1.0 - e) ** (q + 2.0), e ** (q + 2.0)
        a = pa - pb
        a1 = pa * la - pb * lb
        a2 = pa * la * la - pb * lb * lb
        d1 = -2.0 * (a1 * r - a) / r ** 2
        d2 = -2.0 * (a2 * r ** 2 - 2.0 * a1 * r + 2.0 * a) / r ** 3
        return d1, d2

    def phi_quadrature(self, q, abs_tol=1e-10):
        e = self.epsilon
        if e > 0.0:
            return gauss_kronrod(lambda u: _binary_terms(u, q), e, 1.0 - e,
                                 abs_tol=abs_tol)
        # u^(q+1) and the log factors are singular, or have an unbounded
        # derivative, at both endpoints: fold the symmetric integrand onto
        # [0, 1/2] and substitute u = s^m / 2, which for m(q+2) >= 2 turns
        # the singularity into a removable zero.  The fold and the Jacobian
        # weigh the integrand by m s^(m-1); the u piece's weighted power
        # u^(q+1) m s^(m-1) = m 2^-(q+1) s^(m(q+2)-1) and its log
        # m log s - log 2 are computed from s, since at large m s^m
        # underflows and u^(q+1) overflows before the weight cancels them.
        m = max(2, math.ceil(2.0 / (q + 2.0)))
        c = m * 2.0 ** -(q + 1.0)

        def folded(s):
            w = m * s ** (m - 1.0)
            v = 1.0 - 0.5 * s ** m
            return _split_terms(w, c * s ** (m * (q + 2.0) - 1.0),
                                m * np.log(s) - math.log(2.0),
                                w * v ** (q + 1.0), np.log(v))

        return gauss_kronrod(folded, 0.0, 1.0, abs_tol=abs_tol)

    def to_json(self):
        out = {"kind": "uniform_binary"}
        if self.epsilon:
            out["epsilon"] = self.epsilon
        return out


class PowerTailBinaryModel(DislocationModel):
    """Truncation of an infinite binary family with a power-law small-piece tail.

    The untruncated family puts density c * v^(-gamma) on the small piece
    v = 1 - s1 in (0, 1/2], which has infinite total mass for gamma >= 1 but
    integrable (1 - s1).  Truncating at v > epsilon leaves total rate
    c * (epsilon^(1-gamma) - 2^(gamma-1)) / (gamma - 1).
    """

    kind = "power_tail_binary"

    def __init__(self, epsilon, c=1.0, gamma=1.5):
        if not 0.0 < epsilon < 0.5:
            raise ModelNotFiniteError(
                f"power-tail family has infinite rate; need 0 < epsilon < 0.5, got {epsilon}"
            )
        if not 1.0 <= gamma < 2.0:
            raise InvalidModelError(f"gamma must be in [1, 2), got {gamma}")
        if c <= 0.0:
            raise InvalidModelError(f"c must be positive, got {c}")
        self.epsilon = float(epsilon)
        self.c = float(c)
        self.gamma = float(gamma)
        if gamma == 1.0:
            self.total_rate = c * math.log(0.5 / epsilon)
        else:
            self.total_rate = c * (epsilon ** (1.0 - gamma) - 2.0 ** (gamma - 1.0)) / (gamma - 1.0)
        self.conservative = True
        self.p_lower = -math.inf  # both pieces are bounded below by epsilon

    def _inverse_cdf(self, u):
        e, g = self.epsilon, self.gamma
        if g == 1.0:
            return e * (0.5 / e) ** u
        a = e ** (1.0 - g)
        b = 2.0 ** (g - 1.0)
        return (a - u * (a - b)) ** (1.0 / (1.0 - g))

    def sample_masses(self, stream):
        v = self._inverse_cdf(stream.uniform())
        if v > 0.5:
            v = 0.5  # guard against round-off just past the endpoint
        return (1.0 - v, v)

    def sample_masses_batch(self, streams, idx):
        # _inverse_cdf on every lane: its libm pow mapped from C, its other
        # steps correctly rounded in numpy as in Python
        u = streams.uniform(idx)
        e, g = self.epsilon, self.gamma
        if g == 1.0:
            v = e * _pow_lanes(itertools.repeat(0.5 / e), u.tolist(), len(u))
        else:
            a = e ** (1.0 - g)
            b = 2.0 ** (g - 1.0)
            v = _pow_lanes((a - u * (a - b)).tolist(),
                           itertools.repeat(1.0 / (1.0 - g)), len(u))
        v = np.where(v > 0.5, 0.5, v)
        return np.column_stack((1.0 - v, v))

    def phi_quadrature(self, q, abs_tol=1e-10):
        def terms(v):  # v is the small piece, with density c v^-gamma
            return _binary_terms(v, q) * (self.c * v ** -self.gamma)

        return gauss_kronrod(terms, self.epsilon, 0.5, abs_tol=abs_tol)

    def to_json(self):
        return {
            "kind": "truncated",
            "family": "power_tail_binary",
            "params": {"c": self.c, "gamma": self.gamma},
            "epsilon": self.epsilon,
        }


def sample_size_biased(model, stream):
    """Draw a split and pick one piece with probability equal to its mass.

    Returns (mass, index, partition).  Needs a conservative model: with dust
    the pick probabilities would not sum to one.
    """
    if not model.conservative:
        raise DustNotSupportedError("size-biased pick needs a conservative model")
    part = model.sample(stream)
    u = stream.uniform()
    acc = 0.0
    for j, m in enumerate(part.masses):
        acc += m
        if u < acc:
            return m, j, part
    return part.masses[-1], len(part.masses) - 1, part


def sample_size_biased_batch(model, streams, idx):
    """sample_size_biased on every lane of a StreamBatch, bit for bit.

    Returns (picked masses, their indices, the zero-padded split matrix).
    """
    if not model.conservative:
        raise DustNotSupportedError("size-biased pick needs a conservative model")
    masses = model.sample_masses_batch(streams, idx)
    u = streams.uniform(idx)
    # the scalar rule picks the first j with u < acc after acc += m_j; acc
    # never decreases, so that j is the number of steps with u >= acc
    acc = np.zeros(len(u))
    pick = np.zeros(len(u), dtype=np.intp)
    for column in masses.T:
        acc += column
        pick += u >= acc
    # padding adds nothing, so a pick past the end means no acc exceeded u:
    # the scalar rule then falls back to the last real piece
    over = np.flatnonzero(pick == masses.shape[1])
    pick[over] = np.count_nonzero(masses[over], axis=1) - 1
    return masses[np.arange(len(pick)), pick], pick, masses


# --- families and truncation ---------------------------------------------


def _build_uniform_binary(params, epsilon):
    extra = set(params) - set()
    if extra:
        raise InvalidModelError(f"uniform_binary takes no params, got {sorted(extra)}")
    return UniformBinaryModel(epsilon=epsilon)


def _build_power_tail(params, epsilon):
    extra = set(params) - {"c", "gamma"}
    if extra:
        raise InvalidModelError(f"unknown power_tail_binary params {sorted(extra)}")
    return PowerTailBinaryModel(epsilon, c=params.get("c", 1.0),
                                gamma=params.get("gamma", 1.5))


FAMILIES = {
    "uniform_binary": _build_uniform_binary,
    "power_tail_binary": _build_power_tail,
}


def truncate_family(name, params=None, epsilon=0.0):
    """Finite-rate model keeping only splits with 1 - s1 > epsilon.

    epsilon = 0 is allowed exactly when the family is already finite (the
    uniform binary family); infinite families require epsilon > 0.
    """
    if name not in FAMILIES:
        raise UnknownFamilyError(
            f"unknown family {name!r}; known: {sorted(FAMILIES)}"
        )
    if epsilon < 0.0:
        raise InvalidModelError(f"epsilon must be >= 0, got {epsilon}")
    return FAMILIES[name](params or {}, epsilon)


# --- JSON round trip -------------------------------------------------------


def model_from_json(obj):
    """Parse a model description dict; rejects unknown kinds and fields."""
    if not isinstance(obj, dict):
        raise InvalidModelError(f"model must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "atomic":
        _check_fields(obj, {"kind", "atoms", "total_rate"})
        atoms = obj.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise InvalidModelError("atomic model needs a non-empty 'atoms' list")
        parsed = []
        for entry in atoms:
            try:
                masses, weight = entry
            except (TypeError, ValueError):
                raise InvalidModelError(f"atom entry {entry!r} is not [masses, weight]")
            parsed.append((validate(masses), float(weight)))
        model = AtomicModel(parsed)
    elif kind == "uniform_binary":
        _check_fields(obj, {"kind", "epsilon", "total_rate"})
        model = UniformBinaryModel(epsilon=float(obj.get("epsilon", 0.0)))
    elif kind == "truncated":
        _check_fields(obj, {"kind", "family", "params", "epsilon", "total_rate"})
        if "family" not in obj:
            raise InvalidModelError("truncated model needs a 'family' field")
        if "epsilon" not in obj:
            raise InvalidModelError("truncated model needs an 'epsilon' field")
        model = truncate_family(obj["family"], obj.get("params", {}),
                                float(obj["epsilon"]))
    else:
        raise UnknownFamilyError(
            f"unknown model kind {kind!r}; known kinds: atomic, uniform_binary, truncated"
        )
    declared = obj.get("total_rate")
    if declared is not None and not math.isclose(declared, model.total_rate,
                                                 rel_tol=1e-9, abs_tol=1e-12):
        raise InvalidModelError(
            f"declared total_rate {declared} != computed {model.total_rate}"
        )
    return model


def _check_fields(obj, allowed):
    extra = set(obj) - allowed
    if extra:
        raise InvalidModelError(f"unknown model fields {sorted(extra)}")


def model_to_json(model):
    return model.to_json()
