"""Small numerical kernels: adaptive Gauss-Kronrod quadrature and root bracketing.

Kept dependency-free beyond numpy on purpose; both routines are classical
and the tests check them against closed forms.
"""

import math

import numpy as np

from .errors import BracketNotFoundError, NotComputableError

# G7-K15 on [-1, 1] (Piessens et al., QUADPACK, 1983, routine qk15), as the
# nearest doubles: Kronrod nodes and weights from the end inwards, then the
# centre; the 7-point Gauss rule uses every second node
_XK = [0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
       0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
       0.20778495500789848]
_WK = [0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
       0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
       0.20443294007529889]
_WG = [0.1294849661688697, 0.27970539148927664, 0.3818300505051189]
_NODES = np.array([-x for x in _XK] + [0.0] + _XK[::-1])
_K15 = np.array(_WK + [0.20948214108472782] + _WK[::-1])
_G7 = np.zeros(15)
_G7[1::2] = _WG + [0.4179591836734694] + _WG[::-1]
# panels per cut: a level of 8 panels costs about as much as one of 2 (the
# cost is numpy's per-call overhead), and wide cuts need fewer levels
_SPLIT = 8
_CUTS = np.arange(_SPLIT) / _SPLIT
_MAX_PANELS = 1024  # per level; the models' phi integrands open a few dozen


def gauss_kronrod(f, a, b, abs_tol=1e-10, max_depth=50):
    """Integrate a vector-valued f on [a, b] with adaptive G7-K15.

    f maps a 1-D array of nodes to an array of shape (k, nodes): k integrands
    on one mesh, all open panels of a level in one call.  Level 0 cuts [a, b]
    into _SPLIT panels.  A panel is accepted when each component has
    |K15 - G7| <= abs_tol * width / (b - a), else it is cut into _SPLIT
    panels for the next level.  Returns (values, error): k exactly rounded
    sums over the accepted panels, and the largest component's sum of
    |K15 - G7|.  Raises NotComputableError when f is not finite at a node,
    after max_depth levels, or when a level would exceed _MAX_PANELS panels.
    """
    lo, width = np.array([float(a)]), np.array([float(b) - float(a)])
    scale = abs_tol / (b - a) if b != a else 0.0
    sums, errs = [], []
    for depth in range(max_depth + 1):
        lo = (lo[:, None] + width[:, None] * _CUTS).ravel()
        width = np.repeat(width / _SPLIT, _SPLIT)
        half = 0.5 * width
        x = (lo + half)[:, None] + half[:, None] * _NODES
        with np.errstate(all="ignore"):
            vals = np.asarray(f(x.ravel()))
        if not np.isfinite(vals).all():
            raise NotComputableError(
                f"quadrature integrand is not finite on [{a}, {b}]")
        vals = vals.reshape(len(vals), len(lo), len(_NODES))
        k15 = half * (vals * _K15).sum(axis=-1)
        diff = np.abs(k15 - half * (vals * _G7).sum(axis=-1))
        # a panel at floating-point resolution cannot be refined further
        done = ((diff <= scale * width).all(axis=0)
                | (width <= 1e-14 * (np.abs(lo) + np.abs(lo + width))))
        sums.append(k15[:, done])
        errs.append(diff[:, done])
        if done.all():
            break
        lo, width = lo[~done], width[~done]
        if depth == max_depth or _SPLIT * len(lo) > _MAX_PANELS:
            raise NotComputableError(
                f"quadrature did not converge on [{a}, {b}] at depth {depth} "
                f"with {len(lo)} open panels")
    values = [math.fsum(row) for row in np.hstack(sums).tolist()]
    return values, max(math.fsum(row) for row in np.hstack(errs).tolist())


def bracket_upward(g, start, step=0.5, max_span=400.0):
    """Scan g(start), g(start+step), ... for a sign change to positive.

    g must be negative at start (increasing-through-zero use case).  Returns
    (lo, hi) with g(lo) <= 0 < g(hi).
    """
    lo = start
    glo = g(lo)
    if glo > 0.0:
        raise BracketNotFoundError(f"g({lo}) = {glo} is already positive")
    hi = lo
    while hi - start < max_span:
        hi += step
        ghi = g(hi)
        if ghi > 0.0:
            return lo, hi
        lo, glo = hi, ghi
    raise BracketNotFoundError(
        f"no sign change of g in [{start}, {start + max_span}]"
    )


def bisect_root(g, lo, hi, residual_tol=1e-10, max_iter=200):
    """Bisection for a root of g in [lo, hi] (g(lo) <= 0 <= g(hi)).

    Runs until the midpoint residual satisfies |g| <= residual_tol or the
    bracket collapses to floating-point resolution; returns (root, g(root)).
    """
    glo, ghi = g(lo), g(hi)
    if glo > 0.0 or ghi < 0.0:
        raise BracketNotFoundError(f"invalid bracket: g({lo})={glo}, g({hi})={ghi}")
    mid, gmid = lo, glo
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # bracket at float resolution
            break
        gmid = g(mid)
        if abs(gmid) <= residual_tol:
            return mid, gmid
        if gmid <= 0.0:
            lo = mid
        else:
            hi = mid
    if abs(gmid) <= residual_tol or math.isclose(lo, hi, rel_tol=1e-15, abs_tol=1e-300):
        return mid, gmid
    raise BracketNotFoundError(
        f"bisection stalled at {mid} with residual {gmid} > {residual_tol}"
    )
