"""Ranked mass partitions and finite-rate dislocation models.

A dislocation model is a finite measure on ranked mass sequences
(s1 >= s2 >= ... > 0, sum <= 1); simulation draws splits at the model's
total rate, each one uniform mapped by the model's split, and each fragment
of mass m is replaced by (m*s1, m*s2, ...).
Infinite families enter only through truncation: `truncate_family` keeps
the sub-measure of splits with 1 - s1 > epsilon, which has finite rate.

Models report what they can about the moment function

    phi(q) = integral of (1 - sum_i s_i^(q+1)) against the measure,

either in closed form, or through a density for quadrature, or not at all:
the analytics layer's PhiEvaluator then raises NotComputableError in every
mode but monte_carlo, which alone evaluates such a model.
"""

from functools import reduce
from itertools import accumulate
import math
from operator import add
import sys

import numpy as np

from .errors import (
    InvalidModelError,
    ModelNotFiniteError,
    NonPositiveEntryError,
    SumExceedsOneError,
    TrivialSplitError,
    UnknownFamilyError,
)
from .numerics import gauss_kronrod
from .streams import _INV_2_53, lanewise, pick_index, pick_indices


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

    __slots__ = ("masses",)

    def __init__(self, masses):
        masses = tuple(map(float, masses))
        if not masses:
            raise TrivialSplitError("mass partition has no positive entries")
        total = 0.0
        prev = float("inf")
        for m in masses:
            if not m > 0.0:  # NaN included
                raise NonPositiveEntryError(f"mass {m} is not positive")
            if m > prev:
                raise NonPositiveEntryError(
                    f"masses not ranked: {m} follows {prev} (use validate to sort)"
                )
            prev = m
            total += m
        if total > 1.0 + SUM_TOL:
            raise SumExceedsOneError(f"masses sum to {total} > 1")
        self.masses = masses

    @property
    def total(self):
        # summed in order, as __init__ checks it (0.0 + m1 is m1)
        return reduce(add, self.masses)

    @property
    def conservative(self):
        """True when the split preserves mass (no dust)."""
        return abs(self.total - 1.0) <= CONSERVATIVE_TOL

    @property
    def is_trivial(self):
        """True for the do-nothing split (single mass 1)."""
        return len(self.masses) == 1 and self.masses[0] >= 1.0 - SUM_TOL

    def power_sum(self, theta):
        """sum_i s_i^theta, left to right from int 0, as sum adds floats up
        to Python 3.11 (3.12 compensates, which can change the last bit)"""
        return reduce(add, (m ** theta for m in self.masses), 0)

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


def validate(raw):
    """Build a MassPartition from raw floats: strip zero padding, rank, check.

    Rejects the trivial split (single mass 1): the trivial outcome means "no
    fragmentation happened" and is excluded from dislocation measures by
    definition.
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
    if part.is_trivial:
        raise TrivialSplitError("trivial split (single mass 1) is not a dislocation")
    return part


class DislocationModel:
    """Base class: finite total rate, a split map, analytic hooks.

    A model splits by one uniform pushed through its map: split(u) is the
    ranked tuple of floats for a uniform u, a valid split for every u in
    [0, 1), and splits(u) the zero-padded matrix whose row r equals
    split(u[r]), bit for bit.  Only this class draws the uniforms.
    """

    kind = "abstract"
    total_rate = None
    conservative = None
    p_lower = -math.inf

    def split(self, u):
        """The split of uniform u as a ranked tuple of floats."""
        raise NotImplementedError

    def splits(self, u):
        """split of every entry of the float array u, as a zero-padded
        matrix with one row per entry."""
        raise NotImplementedError

    def sample_masses(self, stream):
        """Draw one split as a ranked tuple of floats (hot path)."""
        return self.split(stream.uniform())

    def sample(self, stream):
        """One split as a MassPartition: split's ranked tuple, which is
        valid by construction, so __init__'s checks are skipped.  The draw
        is sample_masses' inlined, since the tagged-line walks call this
        once per event."""
        part = object.__new__(MassPartition)
        part.masses = self.split(stream.uniform())
        return part

    # --- analytics hooks; return None when the capability is absent ---

    def phi_closed(self, q):
        """(phi(q), phi'(q), phi''(q)) in closed form."""
        return None

    def phi_quadrature(self, q):
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
            if not 0.0 < w < math.inf:
                raise InvalidModelError(f"atom weight {w} must be positive and finite")
            if part.is_trivial:
                raise TrivialSplitError("atomic model contains the trivial split")
        self.atoms = atoms
        self.total_rate = reduce(add, (w for _, w in atoms), 0)  # as power_sum
        self.conservative = all(p.conservative for p, _ in atoms)
        self._cum = list(accumulate(w for _, w in atoms))
        self._cum_array = np.array(self._cum)
        width = max(len(p) for p, _ in atoms)
        self._padded = np.array([p.masses + (0.0,) * (width - len(p))
                                 for p, _ in atoms])
        self.p_lower = -math.inf  # finite sums of positive powers always converge

    def split(self, u):
        return self.atoms[pick_index(self._cum, u)][0].masses

    def splits(self, u):
        cum = self._cum_array
        return self._padded[pick_indices(cum, u * cum[-1], len(cum) - 1)]

    def phi_closed(self, q):
        phi = d1 = d2 = 0.0
        for part, w in self.atoms:
            phi += w * (1.0 - part.power_sum(q + 1.0))
            for m in part.masses:
                lg = math.log(m)
                pw = m ** (q + 1.0)
                d1 -= w * pw * lg
                d2 -= w * pw * lg * lg
        return phi, d1, d2

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

    def split(self, u):
        # u = 0 is read as 2^-53, the smallest positive draw: at epsilon = 0
        # it would split off a piece of mass 0
        u = self.epsilon + self.total_rate * (u or _INV_2_53)
        if u < 0.5:
            return (1.0 - u, u)
        return (u, 1.0 - u)

    def splits(self, u):
        u = np.where(u == 0.0, _INV_2_53, u)  # split's zero rule
        u = self.epsilon + self.total_rate * u
        v = 1.0 - u
        # (1 - u, u) if u < 0.5 else (u, 1 - u): the larger piece first
        return np.column_stack((np.maximum(u, v), np.minimum(u, v)))

    def phi_closed(self, q):
        e = self.epsilon
        r = q + 2.0
        if e == 0.0:
            return 1.0 - 2.0 / r, 2.0 / r ** 2, -4.0 / r ** 3
        la, lb = math.log(1.0 - e), math.log(e)
        if r == 0.0:  # q = -2 exactly
            # r -> 0 limits of the cancelling expressions below
            return (self.total_rate - 2.0 * math.log((1.0 - e) / e),
                    lb * lb - la * la, -2.0 * (la ** 3 - lb ** 3) / 3.0)
        pa, pb = (1.0 - e) ** r, e ** r
        a = pa - pb
        a1 = pa * la - pb * lb
        a2 = pa * la * la - pb * lb * lb
        return (self.total_rate - 2.0 * a / r,
                -2.0 * (a1 * r - a) / r ** 2,
                -2.0 * (a2 * r ** 2 - 2.0 * a1 * r + 2.0 * a) / r ** 3)

    def phi_quadrature(self, q):
        e = self.epsilon
        if e > 0.0:
            return gauss_kronrod(lambda u: _binary_terms(u, q), e, 1.0 - e)
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

        return gauss_kronrod(folded, 0.0, 1.0)

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
        if not 0.0 < c < math.inf:
            raise InvalidModelError(f"c must be positive and finite, got {c}")
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

    def split(self, u):
        # clamped to the support [epsilon, 1/2]: round-off can step just past
        # either end (at epsilon = 0.05, _inverse_cdf(0.0) is one ulp below)
        v = min(max(self._inverse_cdf(u), self.epsilon), 0.5)
        return (1.0 - v, v)

    def splits(self, u):
        # _inverse_cdf on every entry: its libm pow mapped from C, its other
        # steps correctly rounded in numpy as in Python
        e, g = self.epsilon, self.gamma
        if g == 1.0:
            v = e * lanewise(pow, 0.5 / e, u)
        else:
            a = e ** (1.0 - g)
            b = 2.0 ** (g - 1.0)
            v = lanewise(pow, a - u * (a - b), 1.0 / (1.0 - g))
        v = np.minimum(np.maximum(v, e), 0.5)  # split's clamp
        return np.column_stack((1.0 - v, v))

    def phi_quadrature(self, q):
        def terms(v):  # v is the small piece, with density c v^-gamma
            return _binary_terms(v, q) * (self.c * v ** -self.gamma)

        return gauss_kronrod(terms, self.epsilon, 0.5)

    def to_json(self):
        return {
            "kind": "truncated",
            "family": "power_tail_binary",
            "params": {"c": self.c, "gamma": self.gamma},
            "epsilon": self.epsilon,
        }


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
    """Parse a model description dict; rejects unknown kinds and fields, and
    any number that is not a finite JSON number (an int or a float, not a
    bool or a string)."""
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
            if (not isinstance(entry, list) or len(entry) != 2
                    or not isinstance(entry[0], list)):
                raise InvalidModelError(f"atom entry {entry!r} is not [masses, weight]")
            masses, weight = entry
            parsed.append((validate([_number(m, "atom mass") for m in masses]),
                           _number(weight, "atom weight")))
        model = AtomicModel(parsed)
    elif kind == "uniform_binary":
        _check_fields(obj, {"kind", "epsilon", "total_rate"})
        model = UniformBinaryModel(epsilon=_number(obj.get("epsilon", 0.0), "epsilon"))
    elif kind == "truncated":
        _check_fields(obj, {"kind", "family", "params", "epsilon", "total_rate"})
        if "family" not in obj:
            raise InvalidModelError("truncated model needs a 'family' field")
        if "epsilon" not in obj:
            raise InvalidModelError("truncated model needs an 'epsilon' field")
        family, params = obj["family"], obj.get("params", {})
        if not isinstance(family, str):
            raise InvalidModelError(f"family must be a string, got {family!r}")
        if not isinstance(params, dict):
            raise InvalidModelError(f"params must be an object, got {params!r}")
        model = truncate_family(
            family, {k: _number(v, f"param {k!r}") for k, v in params.items()},
            _number(obj["epsilon"], "epsilon"))
    else:
        raise UnknownFamilyError(
            f"unknown model kind {kind!r}; known kinds: atomic, uniform_binary, truncated"
        )
    declared = obj.get("total_rate")
    if declared is not None and not math.isclose(
            _number(declared, "total_rate"), model.total_rate,
            rel_tol=1e-9, abs_tol=1e-12):
        raise InvalidModelError(
            f"declared total_rate {declared} != computed {model.total_rate}"
        )
    return model


def _number(v, name):
    """v as a float if it is a finite number, else InvalidModelError."""
    # bool is a subclass of int; a huge int fails the bound, as NaN does
    if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
        raise InvalidModelError(f"{name} must be a finite number, got {v!r}")
    return float(v)


def _check_fields(obj, allowed):
    extra = set(obj) - allowed
    if extra:
        raise InvalidModelError(f"unknown model fields {sorted(extra)}")


def model_to_json(model):
    return model.to_json()
