"""Small numerical kernels: adaptive Simpson quadrature and root bracketing.

Kept dependency-free on purpose; both routines are classical and the tests
check them against closed forms.
"""

import math

from .errors import BracketNotFoundError, NotComputableError


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a, b, abs_tol=1e-10, max_depth=50):
    """Integrate f on [a, b] with adaptive Simpson to an absolute tolerance.

    Returns (value, error_estimate).  Raises NotComputableError if the
    recursion cannot reach the tolerance before max_depth, or if f overflows
    or divides by zero on the way.
    """
    if a == b:
        return 0.0, 0.0

    def rec(a, fa, b, fb, m, fm, whole, tol, depth):
        lm, flm, left = _simpson(f, a, fa, m, fm)
        rm, frm, right = _simpson(f, m, fm, b, fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol or (b - a) <= 1e-14 * (abs(a) + abs(b)):
            return left + right + delta / 15.0, abs(delta) / 15.0
        if depth >= max_depth:
            raise NotComputableError(
                f"quadrature did not converge on [{a}, {b}] at depth {depth}"
            )
        lv, le = rec(a, fa, m, fm, lm, flm, left, tol / 2.0, depth + 1)
        rv, re = rec(m, fm, b, fb, rm, frm, right, tol / 2.0, depth + 1)
        return lv + rv, le + re

    try:
        fa, fb = f(a), f(b)
        m, fm, whole = _simpson(f, a, fa, b, fb)
        return rec(a, fa, b, fb, m, fm, whole, abs_tol, 0)
    except (OverflowError, ZeroDivisionError) as e:
        raise NotComputableError(
            f"quadrature integrand failed on [{a}, {b}]: {e}") from e


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
