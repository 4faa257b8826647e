"""Adaptive quadrature and root bracketing helpers."""

import math

import numpy as np
import pytest

from homfrag.errors import BracketNotFoundError, NotComputableError
from homfrag.numerics import bisect_root, bracket_upward, gauss_kronrod


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


def test_bracket_and_bisect_find_sqrt2():
    g = lambda x: x * x - 2.0
    lo, hi = bracket_upward(g, 0.25, step=0.5)
    assert g(lo) < 0.0 < g(hi)
    root, residual = bisect_root(g, lo, hi)
    assert abs(root - math.sqrt(2.0)) < 1e-9
    assert abs(residual) <= 1e-10


def test_bracket_upward_failure():
    with pytest.raises(BracketNotFoundError):
        bracket_upward(lambda x: -1.0 - x * x, 0.0, step=1.0, max_span=50.0)


def test_bisect_requires_sign_change():
    with pytest.raises(BracketNotFoundError):
        bisect_root(lambda x: x * x + 1.0, 0.0, 1.0)
