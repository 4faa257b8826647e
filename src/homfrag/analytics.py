"""Analytic layer: the moment function phi and quantities derived from it.

For a model with measure nu,

    phi(q) = integral of (1 - sum_i s_i^(q+1)) nu(ds),   q > p_lower,

is the Laplace exponent of the tagged-piece log-mass subordinator: the mean
number of fragments of size around e^{-x} and all mean power sums are
exponentials of phi, so almost everything downstream asks this module for
phi, its first two derivatives, the integrability threshold p_lower, and
the critical index p_bar solving phi(q) = (q+1) phi'(q).
"""

import math
from collections import namedtuple

import numpy as np

from .errors import (
    BelowPLowerError,
    BracketNotFoundError,
    NotComputableError,
)
from .numerics import bisect_root, bracket_upward
from .streams import Stream, derive_key

PhiDerivatives = namedtuple("PhiDerivatives", ["first", "second", "abs_error"])
GeometricDetection = namedtuple("GeometricDetection", ["base", "evidence"])

_MODES = ("auto", "closed_form", "quadrature", "monte_carlo")
_PROBE_KEY = 0x47454F4D45545259  # fixed probe stream for sampled detection


class PhiEvaluator:
    """Evaluates phi and derived quantities for one model.

    mode:
      "auto"         closed form when the model has one, else quadrature
      "closed_form"  closed form only (error when unavailable)
      "quadrature"   adaptive Simpson on the family density (abs tol 1e-10)
      "monte_carlo"  sample average over a cached set of splits; stochastic
                     but deterministic given mc_seed, with reported stderr
    """

    def __init__(self, model, mode="auto", mc_samples=20000, mc_seed=2024,
                 quad_tol=1e-10):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.model = model
        self.mode = mode
        self.quad_tol = quad_tol
        self._p_bar = None
        self.p_bar_residual = None
        self._phi_memo = {}
        self._derivs_memo = {}
        if mode == "monte_carlo":
            stream = Stream(derive_key(mc_seed, 0))
            vals = []
            owner = []
            for i in range(mc_samples):
                for m in model.sample_masses(stream):
                    vals.append(m)
                    owner.append(i)
            self._mc_vals = np.array(vals)
            self._mc_logs = np.log(self._mc_vals)
            self._mc_owner = np.array(owner)
            self._mc_n = mc_samples

    # --- phi and derivatives ------------------------------------------------

    def _check_q(self, q):
        if q <= self.model.p_lower:
            raise BelowPLowerError(
                f"phi({q}) undefined: q must exceed p_lower = {self.model.p_lower}"
            )

    def phi(self, q):
        """phi(q), computed once per q (estimators ask for the same q per
        snapshot; in quadrature mode each evaluation is a full quadrature)."""
        try:
            return self._phi_memo[q]
        except KeyError:
            val = self._phi_memo[q] = self._phi(q)
            return val

    def _phi(self, q):
        self._check_q(q)
        mode = self.mode
        if mode in ("auto", "closed_form"):
            val = self.model.phi_closed(q)
            if val is not None:
                return val
            if mode == "closed_form":
                raise NotComputableError(
                    f"{self.model.kind} model has no closed-form phi"
                )
        if mode in ("auto", "quadrature"):
            out = self.model.phi_quadrature(q, abs_tol=self.quad_tol)
            if out is not None:
                return out[0]
            raise NotComputableError(
                f"{self.model.kind} model supports neither closed-form nor "
                "quadrature phi; use monte_carlo mode"
            )
        return self._phi_mc(q)

    def phi_stderr(self, q):
        """Standard error of phi(q) (zero for deterministic modes)."""
        if self.mode != "monte_carlo":
            return 0.0
        per = self._mc_power_sums(q)
        return self.model.total_rate * per.std(ddof=1) / math.sqrt(self._mc_n)

    def _mc_power_sums(self, q):
        w = self._mc_vals ** (q + 1.0)
        return np.bincount(self._mc_owner, weights=w, minlength=self._mc_n)

    def _phi_mc(self, q):
        per = self._mc_power_sums(q)
        return self.model.total_rate * (1.0 - per.mean())

    def phi_derivs(self, q):
        """(phi'(q), phi''(q), absolute error estimate), once per q."""
        try:
            return self._derivs_memo[q]
        except KeyError:
            val = self._derivs_memo[q] = self._phi_derivs(q)
            return val

    def _phi_derivs(self, q):
        self._check_q(q)
        mode = self.mode
        if mode in ("auto", "closed_form"):
            out = self.model.phi_derivs_closed(q)
            if out is not None:
                return PhiDerivatives(out[0], out[1], 0.0)
            if mode == "closed_form":
                return self._derivs_fd(q)
        if mode in ("auto", "quadrature"):
            out = self.model.phi_derivs_quadrature(q, abs_tol=self.quad_tol)
            if out is not None:
                (d1, d2), err = out
                return PhiDerivatives(d1, d2, err)
            return self._derivs_fd(q)
        # monte carlo: differentiate under the sample average (log factors)
        w = self._mc_vals ** (q + 1.0)
        d1_per = np.bincount(self._mc_owner, weights=-w * self._mc_logs,
                             minlength=self._mc_n)
        d2_per = np.bincount(self._mc_owner, weights=-w * self._mc_logs ** 2,
                             minlength=self._mc_n)
        rate = self.model.total_rate
        d1 = rate * d1_per.mean()
        d2 = rate * d2_per.mean()
        err = rate * max(d1_per.std(ddof=1), d2_per.std(ddof=1)) / math.sqrt(self._mc_n)
        return PhiDerivatives(d1, d2, err)

    def _derivs_fd(self, q):
        """Central differences with step-halving error estimate."""
        h = 1e-4 * max(1.0, abs(q))
        lo_gap = q - self.model.p_lower
        if math.isfinite(lo_gap):
            h = min(h, 0.25 * lo_gap)
        f = self.phi
        d1a = (f(q + h) - f(q - h)) / (2.0 * h)
        d2a = (f(q + h) - 2.0 * f(q) + f(q - h)) / h ** 2
        g = h / 2.0
        d1b = (f(q + g) - f(q - g)) / (2.0 * g)
        d2b = (f(q + g) - 2.0 * f(q) + f(q - g)) / g ** 2
        err = max(abs(d1a - d1b), abs(d2a - d2b))
        return PhiDerivatives(d1b, d2b, err)

    # --- thresholds -----------------------------------------------------------

    @property
    def p_lower(self):
        """Integrability threshold: phi is finite exactly on (p_lower, inf)."""
        return self.model.p_lower

    def _g(self, q):
        d = self.phi_derivs(q)
        return self.phi(q) - (q + 1.0) * d.first

    def p_bar(self, residual_tol=1e-10):
        """Critical index: unique root of phi(q) = (q+1) phi'(q) above p_lower.

        Found by scanning upward from max(p_lower + 1/4, 0) for a sign change
        of g(q) = phi(q) - (q+1) phi'(q), then bisecting until |g| falls
        under residual_tol.  In monte_carlo mode the bracket must be
        statistically unambiguous (|g| > 3 stderr at both ends), otherwise
        the root is refused rather than silently noisy.
        """
        if self._p_bar is not None:
            return self._p_bar
        lo0 = self.model.p_lower + 0.25
        if not math.isfinite(lo0):
            lo0 = 0.0
        start = max(lo0, 0.0)
        lo, hi = bracket_upward(self._g, start, step=0.5)
        if self.mode == "monte_carlo":
            for end in (lo, hi):
                g = self._g(end)
                se = self._g_stderr(end)
                if abs(g) < 3.0 * se:
                    raise BracketNotFoundError(
                        f"bracket for p_bar statistically ambiguous at q={end}: "
                        f"g={g:.3e}, stderr={se:.3e}; increase mc_samples"
                    )
        root, res = bisect_root(self._g, lo, hi, residual_tol=residual_tol)
        self._p_bar = root
        self.p_bar_residual = res
        return root

    def _g_stderr(self, q):
        if self.mode != "monte_carlo":
            return 0.0
        w = self._mc_vals ** (q + 1.0)
        p_per = np.bincount(self._mc_owner, weights=w, minlength=self._mc_n)
        l_per = np.bincount(self._mc_owner, weights=-w * self._mc_logs,
                            minlength=self._mc_n)
        g_per = (1.0 - p_per) - (q + 1.0) * l_per
        return self.model.total_rate * g_per.std(ddof=1) / math.sqrt(self._mc_n)

    # --- derived predictions ---------------------------------------------------

    def mean_intensity(self, theta, t):
        """E[sum of fragment masses^theta at time t] = exp(-t phi(theta-1))."""
        if t < 0.0:
            raise ValueError(f"time must be >= 0, got {t}")
        if theta <= self.model.p_lower + 1.0:
            raise BelowPLowerError(
                f"mean intensity needs theta > p_lower + 1 = {self.model.p_lower + 1.0}"
            )
        return math.exp(-t * self.phi(theta - 1.0))

    def _window_factor(self, p, alpha, beta):
        if beta <= alpha:
            raise ValueError(f"need alpha < beta, got [{alpha}, {beta}]")
        r = p + 1.0
        if abs(r) < 1e-12:
            return beta - alpha
        return (math.exp(-r * alpha) - math.exp(-r * beta)) / r

    def v_limit_constant(self, p, alpha, beta):
        """Limit of sqrt(t) e^{-t((p+1)phi'(p)-phi(p))} V(t, -t phi'(p))."""
        d = self.phi_derivs(p)
        return self._window_factor(p, alpha, beta) / math.sqrt(2.0 * math.pi * abs(d.second))

    def v_asymptote(self, p, t, alpha, beta):
        """Gaussian-regime prediction for the mean window count

        V(t, x) = E #{ fragments with log-mass in [x + alpha, x + beta] }

        at the tilted center x = -t phi'(p).  At p = p_bar the exponential
        factor is exactly 1 and only the 1/sqrt(t) decay remains.
        """
        if t <= 0.0:
            raise ValueError(f"need t > 0, got {t}")
        d = self.phi_derivs(p)
        rate_fn = (p + 1.0) * d.first - self.phi(p)
        return (math.exp(t * rate_fn) / math.sqrt(2.0 * math.pi * abs(d.second) * t)
                * self._window_factor(p, alpha, beta))


def detect_geometric(model, r_max=64, tol=1e-9):
    """Look for an integer base r >= 2 with every mass of the form r^-n.

    Atomic models are checked exactly on their atom entries; other models
    are probed with 1000 sampled splits from a fixed stream (evidence
    "sampled").  Returns GeometricDetection(base, evidence) with base None
    when no base up to r_max fits.
    """
    if model.kind == "atomic":
        masses = [m for part, _ in model.atoms for m in part.masses]
        evidence = "exact"
    else:
        stream = Stream(derive_key(_PROBE_KEY, 0))
        masses = [m for _ in range(1000) for m in model.sample_masses(stream)]
        evidence = "sampled"
    for r in range(2, r_max + 1):
        log_r = math.log(r)
        ok = True
        for m in masses:
            x = -math.log(m) / log_r
            k = round(x)
            if k < 1 or abs(x - k) > tol:
                ok = False
                break
        if ok:
            return GeometricDetection(r, evidence)
    return GeometricDetection(None, evidence)
