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
# relative tolerance, pre-registered: it loosens abs_tol only for a component
# whose integral exceeds abs_tol * 2^40 (about 110 at abs_tol = 1e-10), where
# abs_tol would ask for more digits than a double holds (QUADPACK's QAG test
# is max(epsabs, epsrel * |result|) the same way)
REL_TOL = 2.0 ** -40


def gauss_kronrod(f, a, b, abs_tol=1e-10):
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


def certify_bracket(gd, lo, hi, residual_tol):
    """Points below and above the root of a nondecreasing g in [lo, hi] at
    which bisection's outcome is decided: (below, above) for bisect_root.

    gd(x) returns (g(x), g'(x), slack), where slack bounds how far the
    computed g may stray from an exactly nondecreasing function; the largest
    slack seen, s, is taken to hold over all of [lo, hi].  Safeguarded Newton
    steps from the bracket's secant point (a step that leaves the bracket
    bisects it instead, as rtsafe does; Press et al., Numerical Recipes, sec.
    9.4) give an estimate r of the root, then g is probed at r -+ d with
    g(r -+ d) about -+2 (residual_tol + 2 s), widened while the probe fails.
    below is the largest probe x with g(x) < -(residual_tol + 2 s), above
    the smallest with g(x) > residual_tol + 2 s (lo and hi count as probes):
    every computed g(y) with y <= below is then < -residual_tol, and every
    g(y) with y >= above is > residual_tol.
    """
    seen = {x: gd(x) for x in (lo, hi)}

    def margin():
        return residual_tol + 2.0 * max(s for _, _, s in seen.values())

    def width(slope):
        return 2.0 * margin() / slope if slope > 0.0 else math.inf

    (glo, _, _), (ghi, _, _) = seen[lo], seen[hi]
    a, b = lo, hi
    x = lo - glo * (hi - lo) / (ghi - glo) if ghi > glo else lo
    step = math.inf
    for _ in range(12):  # Newton needs 3-5 steps; bisection steps bound it
        if not a < x < b:
            x = 0.5 * (a + b)
        gx, slope, _ = seen[x] = gd(x)
        if gx <= 0.0:
            a = x
        else:
            b = x
        new = x - gx / slope if slope > 0.0 else a
        # after a Newton step h that followed a step H, the error is about
        # h^3 / H^2: stop once that is well inside a probe's distance
        prev, step = step, abs(new - x)
        x = new
        if step ** 3 <= 0.25 * width(slope) * prev ** 2 < math.inf:
            break
    for side in (-1.0, 1.0):
        d = width(slope)
        for _ in range(4):
            y = x + side * d
            if not lo < y < hi:
                break
            seen[y] = gd(y)
            if side * seen[y][0] > margin():
                break
            d *= 4.0
    tol = margin()
    return (max((y for y, (g, _, _) in seen.items() if g < -tol),
                default=-math.inf),
            min((y for y, (g, _, _) in seen.items() if g > tol),
                default=math.inf))


def bisect_root(g, lo, hi, residual_tol=1e-10, max_iter=200,
                below=-math.inf, above=math.inf):
    """Bisection for a root of g in [lo, hi] (g(lo) <= 0 <= g(hi)).

    Runs until the midpoint residual satisfies |g| <= residual_tol or the
    bracket collapses to floating-point resolution; returns (root, g(root)).
    below and above are points that decide midpoints without a call of g
    (see certify_bracket): a midpoint <= below becomes lo and one >= above
    becomes hi, as g's sign there would make it.  They leave the sequence of
    midpoints, and so the result, unchanged.
    """
    glo, ghi = g(lo), g(hi)
    if glo > 0.0 or ghi < 0.0:
        raise BracketNotFoundError(f"invalid bracket: g({lo})={glo}, g({hi})={ghi}")
    mid, last, gmid = lo, lo, glo
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # bracket at float resolution
            break
        last, gmid = mid, None
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        else:
            gmid = g(mid)
            if abs(gmid) <= residual_tol:
                return mid, gmid
            if gmid <= 0.0:
                lo = mid
            else:
                hi = mid
    if gmid is None:  # the last midpoint was decided without g
        gmid = g(last)
    if abs(gmid) <= residual_tol or math.isclose(lo, hi, rel_tol=1e-15, abs_tol=1e-300):
        return mid, gmid
    raise BracketNotFoundError(
        f"bisection stalled at {mid} with residual {gmid} > {residual_tol}"
    )
