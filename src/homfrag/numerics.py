"""Small numerical kernels: adaptive Gauss-Kronrod quadrature and root finding.

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
_MAX_DEPTH = 50  # levels of cuts before the integral is refused
# a panel passes at max(abs_tol, REL_TOL * |I|), as in QUADPACK's QAG test
# max(epsabs, epsrel * |result|); every quadrature phi runs at the default
# ABS_TOL.  REL_TOL, pre-registered, loosens abs_tol only where |I| exceeds
# abs_tol * 2^40 (about 110 at 1e-10), past the digits a double holds
ABS_TOL = 1e-10
REL_TOL = 2.0 ** -40
_SCAN_STEP = 0.5  # bracket_upward's grid spacing
_SCAN_SPAN = 400.0  # how far above its start bracket_upward looks
# newton_root's evaluations before it gives up: p_bar takes about 6, and
# closing a bracket of width 1/2 to float resolution takes about 55 halvings
_NEWTON_EVALS = 100


def gauss_kronrod(f, a, b, abs_tol=ABS_TOL):
    """Integrate a vector-valued f on [a, b] with adaptive G7-K15.

    f maps a 1-D array of nodes to an array of shape (k, nodes): k integrands
    on one mesh, all open panels of a level in one call.  Level 0 cuts [a, b]
    into _SPLIT panels.  A panel is accepted when each component has
    |K15 - G7| <= max(abs_tol, REL_TOL * |I|) * width / (b - a), where I is
    the component's integral as the previous level left it (0 at level 0),
    else it is cut into _SPLIT panels for the next level.  Returns (values,
    error): k exactly rounded sums over the accepted panels, and the largest
    component's sum of |K15 - G7|, the bound actually met.  Raises
    NotComputableError when f is not finite at a node, after _MAX_DEPTH
    levels, or when a level would exceed _MAX_PANELS panels.
    """
    lo, width = np.array([float(a)]), np.array([float(b) - float(a)])
    scale = abs_tol / (b - a) if b != a else 0.0
    rel_scale = REL_TOL / (b - a) if b != a else 0.0
    # each component's integral over the accepted panels, and over all panels
    accepted = running = 0.0
    sums, errs = [], []
    for depth in range(_MAX_DEPTH + 1):
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
        tol = np.maximum(scale, rel_scale * np.abs(running))
        # a panel at floating-point resolution cannot be refined further
        done = ((diff <= np.multiply.outer(tol, width)).all(axis=0)
                | (width <= 1e-14 * (np.abs(lo) + np.abs(lo + width))))
        sums.append(k15[:, done])
        errs.append(diff[:, done])
        if done.all():
            break
        running = accepted + k15.sum(axis=1)
        accepted = accepted + sums[-1].sum(axis=1)
        lo, width = lo[~done], width[~done]
        if depth == _MAX_DEPTH or _SPLIT * len(lo) > _MAX_PANELS:
            raise NotComputableError(
                f"quadrature did not converge on [{a}, {b}] at depth {depth} "
                f"with {len(lo)} open panels")
    values = [math.fsum(row) for row in np.hstack(sums).tolist()]
    return values, max(math.fsum(row) for row in np.hstack(errs).tolist())


def bracket_upward(g, start):
    """Scan g(start), g(start + _SCAN_STEP), ... for a sign change to
    positive, at most _SCAN_SPAN above start.

    g must be negative at start (increasing-through-zero use case).  Returns
    (lo, hi) with g(lo) <= 0 < g(hi).
    """
    lo = start
    glo = g(lo)
    if glo > 0.0:
        raise BracketNotFoundError(f"g({lo}) = {glo} is already positive")
    hi = lo
    while hi - start < _SCAN_SPAN:
        hi += _SCAN_STEP
        ghi = g(hi)
        if ghi > 0.0:
            return lo, hi
        lo, glo = hi, ghi
    raise BracketNotFoundError(
        f"no sign change of g in [{start}, {start + _SCAN_SPAN}]"
    )


def newton_root(gd, lo, hi, residual_tol):
    """A root of g in [lo, hi] (g(lo) <= 0 <= g(hi)) by safeguarded Newton
    steps (rtsafe: Press et al., Numerical Recipes, sec. 9.4).

    gd(x) returns (g(x), g'(x)).  The first x is the bracket's secant point.
    Each evaluated x becomes the end of the bracket on its side of zero, and
    the next x is its Newton step, or the bracket's midpoint where that step
    would leave the bracket, the slope is not positive, or the step is
    longer than half the step before the last (Newton no longer converges
    fast there, as where g wobbles).  Returns (x, g(x)) at the first x with
    |g(x)| <= residual_tol, or, once no float lies between the ends, at the
    end with the smaller |g|.  Raises BracketNotFoundError for an invalid
    bracket, or when _NEWTON_EVALS evaluations reach neither.
    """
    (glo, _), (ghi, _) = gd(lo), gd(hi)
    if glo > 0.0 or ghi < 0.0:
        raise BracketNotFoundError(f"invalid bracket: g({lo})={glo}, g({hi})={ghi}")
    x = lo - glo * (hi - lo) / (ghi - glo) if ghi > glo else lo
    step = prev = math.inf  # the lengths of the last step and the one before
    for _ in range(_NEWTON_EVALS):
        gx, slope = gd(x)
        if abs(gx) <= residual_tol:
            return x, gx
        if gx <= 0.0:
            lo, glo = x, gx
        else:
            hi, ghi = x, gx
        dx = gx / slope if slope > 0.0 else math.inf
        if lo < x - dx < hi and abs(dx) <= 0.5 * prev:
            x -= dx
        else:
            x, dx = 0.5 * (lo + hi), 0.5 * (hi - lo)
            if not lo < x < hi:  # the bracket is at float resolution
                return min((lo, glo), (hi, ghi), key=lambda e: abs(e[1]))
        prev, step = step, abs(dx)
    raise BracketNotFoundError(
        f"no root of g within {residual_tol} found in [{lo}, {hi}] after "
        f"{_NEWTON_EVALS} evaluations"
    )
