"""Adaptive quadrature and root bracketing helpers."""

import math

import numpy as np
import pytest

from homfrag.errors import BracketNotFoundError, NotComputableError
from homfrag.numerics import bracket_upward, gauss_kronrod, newton_root


def _scalar(f):
    """A one-component integrand for gauss_kronrod."""
    return lambda x: f(x)[None]


def test_gauss_kronrod_exponential():
    (val,), err = gauss_kronrod(_scalar(np.exp), 0.0, 1.0)
    assert abs(val - (math.e - 1.0)) < 1e-11
    assert err >= 0.0


def test_gauss_kronrod_runge_like():
    (val,), _ = gauss_kronrod(_scalar(lambda x: 1.0 / (1.0 + x * x)), 0.0, 1.0)
    assert abs(val - math.pi / 4.0) < 1e-11


def test_gauss_kronrod_handles_sharp_peak():
    # narrow Gaussian bump; split at the peak so the refinement sees it
    # (a bump far narrower than the initial panels is invisible otherwise)
    f = _scalar(lambda x: np.exp(-((x - 0.37) ** 2) / 2e-4))
    (left,), _ = gauss_kronrod(f, 0.0, 0.37, abs_tol=1e-13)
    (right,), _ = gauss_kronrod(f, 0.37, 1.0, abs_tol=1e-13)
    exact = math.sqrt(2e-4 * math.pi)  # both tails negligible
    assert abs(left + right - exact) < 1e-9


def test_gauss_kronrod_degenerate_interval():
    (val,), err = gauss_kronrod(_scalar(np.sin), 2.0, 2.0)
    assert val == 0.0


def test_gauss_kronrod_components_share_one_mesh():
    calls = []

    def f(x):
        calls.append(len(x))
        return np.stack((np.ones_like(x), x, x * x))

    vals, err = gauss_kronrod(f, 0.0, 2.0)
    assert vals == pytest.approx([2.0, 2.0, 8.0 / 3.0], abs=1e-13)
    assert err <= 1e-10
    assert len(calls) == 1  # polynomials of degree < 23: K15 is exact at once


def test_gauss_kronrod_refuses_a_non_finite_integrand():
    with np.errstate(all="raise"):  # no RuntimeWarning may escape either
        with pytest.raises(NotComputableError, match="not finite"):
            gauss_kronrod(_scalar(lambda x: np.log(x - 0.5)), 0.0, 1.0)


def test_gauss_kronrod_gives_up_on_an_unreachable_tolerance():
    # |x - 1/3|^-0.9 is integrable, but the error bound stays far above
    # 1e-14 near the singularity: the refinement is cut off
    f = _scalar(lambda x: np.abs(x - 1.0 / 3.0) ** -0.9)
    with pytest.raises(NotComputableError, match="did not converge"):
        gauss_kronrod(f, 0.0, 1.0, abs_tol=1e-14)


def test_bracket_and_newton_find_sqrt2():
    g = lambda x: x * x - 2.0
    lo, hi = bracket_upward(g, 0.25)
    assert (lo, hi) == (1.25, 1.75)
    root, residual = newton_root(lambda x: (g(x), 2.0 * x), lo, hi, 1e-10)
    assert abs(root - math.sqrt(2.0)) < 1e-9
    assert abs(residual) <= 1e-10


def test_bracket_upward_failure():
    with pytest.raises(BracketNotFoundError, match=r"\[0.0, 400.0\]"):
        bracket_upward(lambda x: -1.0 - x * x, 0.0)


def test_newton_requires_a_sign_change():
    with pytest.raises(BracketNotFoundError, match="invalid bracket"):
        newton_root(lambda x: (x * x + 1.0, 2.0 * x), 0.0, 1.0, 1e-10)
    with pytest.raises(BracketNotFoundError, match="invalid bracket"):
        newton_root(lambda x: (x - 2.0, 1.0), 0.0, 1.0, 1e-10)


def _wobbly(root, slope, curve, noise):
    """An increasing cubic through root plus a deterministic wobble of
    amplitude noise, which makes g non-monotone below that scale, as gd for
    newton_root: g, and the cubic's slope without the wobble's."""
    def gd(x):
        d = x - root
        return (slope * d + curve * d ** 3 + noise * math.sin(1e11 * x),
                slope + 3.0 * curve * d * d)

    return gd


def test_newton_root_meets_its_tolerance_or_float_resolution():
    """Where g wobbles above residual_tol, or residual_tol is 0, the bracket
    closes to adjacent floats around a sign change instead."""
    rng = np.random.default_rng(7)
    most = 0
    stops = {"residual": 0, "resolution": 0}
    for case in range(240):
        lo = float(rng.uniform(0.0, 2.0))
        hi = lo + 0.5
        root = float(rng.uniform(lo + 0.01, hi - 0.01))
        gd = _wobbly(root, 10.0 ** rng.uniform(-3, 1),
                     float(rng.uniform(0.0, 5.0)),
                     (0.0, 1e-13, 1e-11, 1e-9)[case % 4])
        for tol in (1e-10, 1e-13, 0.0):
            calls = []

            def counted(x):
                calls.append(x)
                return gd(x)

            x, gx = newton_root(counted, lo, hi, tol)
            assert lo <= x <= hi and gx == gd(x)[0], (case, tol)
            if abs(gx) <= tol:
                stops["residual"] += 1
            else:  # x and the nearest float on the other side of zero
                other = math.nextafter(x, -math.inf if gx > 0.0 else math.inf)
                assert other in calls and gx * gd(other)[0] <= 0.0, (case, tol)
                stops["resolution"] += 1
            most = max(most, len(calls))
    assert min(stops.values()) > 100
    assert most <= 50  # 48 with the wobble at 1e-9 and residual_tol 0


def test_newton_root_is_exact_on_a_line():
    # the secant point of a line is its root
    calls = []

    def gd(x):
        calls.append(x)
        return 2.0 * x - 3.0, 2.0

    assert newton_root(gd, 1.0, 2.0, 0.0) == (1.5, 0.0)
    assert calls == [1.0, 2.0, 1.5]
