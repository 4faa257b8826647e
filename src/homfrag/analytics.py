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
import threading
from collections import namedtuple

import numpy as np

from .errors import BelowPLowerError, BracketNotFoundError, NotComputableError
from .numerics import bracket_upward, newton_root
from .streams import Stream, derive_key

PhiDerivatives = namedtuple("PhiDerivatives", ["first", "second", "abs_error"])
GeometricDetection = namedtuple("GeometricDetection", ["base", "evidence"])

_MODES = ("auto", "closed_form", "quadrature", "monte_carlo")
_PROBE_KEY = 0x47454F4D45545259  # fixed probe stream for sampled detection
_GEOMETRIC_R_MAX = 64  # largest lattice base detect_geometric tries
_GEOMETRIC_TOL = 1e-9  # how far from an integer a mass's exponent may be
P_BAR_TOL = 1e-10  # p_bar's residual: newton_root stops at |g| <= P_BAR_TOL


class PhiEvaluator:
    """Evaluates phi and derived quantities for one model.

    mode:
      "auto"         closed form when the model has one, else quadrature
      "closed_form"  closed form of phi and its derivatives only (error when
                     unavailable)
      "quadrature"   adaptive Gauss-Kronrod on the family density (abs tol
                     numerics.ABS_TOL, or relative numerics.REL_TOL where
                     that is larger), phi, phi' and phi'' on one mesh
      "monte_carlo"  sample average over a cached set of mc_samples splits;
                     stochastic but deterministic given mc_seed, with
                     reported stderr

    phi(q) and phi_derivs(q) read one memo entry per q, (phi, phi', phi'',
    error), filled in one pass by whichever is asked first, so no value
    depends on the order of the calls.  A value that overflows, divides by
    zero or is not finite raises NotComputableError.
    """

    def __init__(self, model, mode="auto", mc_samples=20000, mc_seed=2024):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.model = model
        self.mode = mode
        self._p_bar = None
        self.p_bar_residual = None
        self._memo = {}
        if mode == "monte_carlo":
            self._mc = _SplitSums(_sample_splits(
                model, Stream(derive_key(mc_seed, 0)), mc_samples))

    # --- phi and derivatives ------------------------------------------------

    def phi(self, q):
        """phi(q)."""
        return self._values(q)[0]

    def phi_derivs(self, q):
        """(phi'(q), phi''(q), absolute error estimate)."""
        return PhiDerivatives(*self._values(q, True)[1:])

    def _values(self, q, error=False):
        """(phi, phi', phi'', error) at q, computed once per q (estimators ask
        for the same q per snapshot, and callers read phi and phi_derivs at
        the same q).

        A Monte Carlo entry's error, the larger standard error of phi' and
        phi'', is filled in only when asked for (error); until then it is
        None.
        """
        val = self._memo.get(q)
        if val is None:
            if q <= self.model.p_lower:
                raise BelowPLowerError(f"phi({q}) undefined: q must exceed "
                                       f"p_lower = {self.model.p_lower}")
            try:
                with np.errstate(all="ignore"):
                    val = self._compute(q)
            except (OverflowError, ZeroDivisionError) as e:
                raise NotComputableError(f"phi at q = {q} overflows: {e}") from e
            if not all(map(math.isfinite, val[:3])):
                raise NotComputableError(f"phi at q = {q} is not finite: "
                                         f"{self._with_error(q, val)}")
            self._memo[q] = val
        if error and val[3] is None:
            val = self._memo[q] = self._with_error(q, val)
        return val

    def _with_error(self, q, val):
        """The memo entry val at q with its error filled in."""
        if val[3] is not None:
            return val
        with np.errstate(all="ignore"):
            err = self._mc.read(q, lambda per, d1, d2: max(
                self._mc_stderr(d1), self._mc_stderr(d2)))
        return val[:3] + (err,)

    def _compute(self, q):
        mode = self.mode
        model = self.model
        if mode in ("auto", "closed_form"):
            closed = model.phi_closed(q)
            if closed is not None:
                return (*closed, 0.0)
            if mode == "closed_form":
                raise NotComputableError(
                    f"{model.kind} model has no closed-form phi and phi'"
                )
        if mode in ("auto", "quadrature"):
            out = model.phi_quadrature(q)
            if out is None:
                closed = mode == "quadrature" and model.phi_closed(q) is not None
                raise NotComputableError(
                    f"{model.kind} model has no density to integrate; use auto, "
                    "closed_form or monte_carlo mode" if closed else
                    f"{model.kind} model supports neither closed-form nor "
                    "quadrature phi; use monte_carlo mode")
            (phi, d1, d2), err = out
            return phi, d1, d2, err
        # monte carlo: sample averages of the per-split sums, differentiated
        # under the average, as Python floats like the other modes'
        per, d1, d2 = self._mc.read(
            q, lambda *sums: [float(s.mean()) for s in sums])
        rate = model.total_rate
        return rate * (1.0 - per), rate * d1, rate * d2, None

    def _mc_stderr(self, per):
        return (self.model.total_rate * float(per.std(ddof=1))
                / math.sqrt(self._mc.n))

    def phi_stderr(self, q):
        """Standard error of phi(q) (zero for deterministic modes)."""
        if self.mode != "monte_carlo":
            return 0.0
        return self._mc.read(q, lambda per, d1, d2: self._mc_stderr(per))

    # --- thresholds -----------------------------------------------------------

    @property
    def p_lower(self):
        """Integrability threshold: phi is finite exactly on (p_lower, inf)."""
        return self.model.p_lower

    def _g(self, q):
        return self._g_slope(q)[0]

    def _g_slope(self, q):
        """g(q) = phi(q) - (q+1) phi'(q), whose root is p_bar, and g'(q) =
        -(q+1) phi''(q), from one memo entry."""
        phi, d1, d2 = self._values(q)[:3]
        q1 = q + 1.0
        return phi - q1 * d1, -q1 * d2

    def p_bar(self):
        """Critical index: unique root of phi(q) = (q+1) phi'(q) above p_lower.

        Found by scanning upward from max(p_lower + 1/4, 0) for a sign change
        of g(q) = phi(q) - (q+1) phi'(q), then by safeguarded Newton steps on
        g' = -(q+1) phi'' (numerics.newton_root) until |g| <= P_BAR_TOL,
        which p_bar_residual then holds.  In monte_carlo mode
        the bracket must be statistically unambiguous (|g| > 3 stderr at both
        ends), otherwise the root is refused rather than silently noisy.
        Every g read is a function of its q alone, so the root does not
        depend on what the evaluator was asked before.
        """
        if self._p_bar is not None:
            return self._p_bar
        lo0 = self.model.p_lower + 0.25
        if not math.isfinite(lo0):
            lo0 = 0.0
        start = max(lo0, 0.0)
        lo, hi = bracket_upward(self._g, start)
        if self.mode == "monte_carlo":
            # hi first: the sample's sums still hold bracket_upward's last q
            se = {end: self._g_stderr(end) for end in (hi, lo)}
            for end in (lo, hi):
                g = self._g(end)
                if abs(g) < 3.0 * se[end]:
                    raise BracketNotFoundError(
                        f"bracket for p_bar statistically ambiguous at q={end}: "
                        f"g={g:.3e}, stderr={se[end]:.3e}; increase mc_samples"
                    )
        self._p_bar, self.p_bar_residual = newton_root(
            self._g_slope, lo, hi, P_BAR_TOL)
        return self._p_bar

    def _g_stderr(self, q):
        if self.mode != "monte_carlo":
            return 0.0
        return self._mc.read(q, lambda per, d1, d2: self._mc_stderr(
            (1.0 - per) - (q + 1.0) * d1))

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


def detect_geometric(model):
    """Look for an integer base r >= 2 with every mass of the form r^-n.

    Atomic models are checked exactly on their atom entries; other models
    are probed with 1000 sampled splits from a fixed stream (evidence
    "sampled").  A mass fits when -log(m) / log(r) is within _GEOMETRIC_TOL
    of an integer n >= 1.  Returns GeometricDetection(base, evidence) with
    base None when no base up to _GEOMETRIC_R_MAX fits.
    """
    if model.kind == "atomic":
        masses = [m for part, _ in model.atoms for m in part.masses]
        evidence = "exact"
    else:
        masses = _sample_splits(model, Stream(derive_key(_PROBE_KEY, 0)),
                                1000)
        masses = masses[masses != 0.0].tolist()
        evidence = "sampled"
    for r in range(2, _GEOMETRIC_R_MAX + 1):
        log_r = math.log(r)
        ok = True
        for m in masses:
            x = -math.log(m) / log_r
            k = round(x)
            if k < 1 or abs(x - k) > _GEOMETRIC_TOL:
                ok = False
                break
        if ok:
            return GeometricDetection(r, evidence)
    return GeometricDetection(None, evidence)


def _sample_splits(model, stream, n):
    """n splits drawn from one stream, as n calls of model.sample_masses:
    the stream's next n uniforms mapped by model.splits, one row per split,
    its pieces in draw order and then zero padding."""
    return model.splits(stream.uniforms(n))


class _SplitSums:
    """The Monte Carlo sample of a PhiEvaluator, and its per-split sums.

    The n sampled splits are held with one row per piece: the masses m (a
    piece that a split of a ragged atomic model lacks is 1, with weight 0)
    and log m.  read(q, fn) applies fn to the sums, over the pieces of each
    split, of m^(q+1), -m^(q+1) log m and -m^(q+1) log(m)^2.  Each sum
    starts from zero and takes its pieces' terms in draw order, the order
    of np.bincount over the flat sample, so it has the same bits as that
    sum (x - y is x + (-y) in floating point).  The sums are built block by
    block in buffers reused from q to q, under a lock, since one evaluator
    may be read from several threads.
    """

    _BLOCK = 6144  # pieces per block: 48 KiB per buffer

    def __init__(self, masses):
        self.n, k = masses.shape
        present = masses.T != 0.0
        self.masses = masses = np.where(present, masses.T, 1.0)
        logs = np.log(masses)
        self.ragged = ~present.all(axis=1)
        self.weights = weights = present[self.ragged].astype(float)
        self.sums = np.empty((3, self.n))
        step = max(1, self._BLOCK // k)
        buf = np.empty((3, k, step))
        self._blocks = [
            (masses[:, lo:lo + step], logs[:, lo:lo + step],
             weights[:, lo:lo + step] if weights.size else None,
             self.sums[:, lo:lo + step], buf[:, :, :min(step, self.n - lo)])
            for lo in range(0, self.n, step)]
        self._q = None
        self._lock = threading.Lock()

    def read(self, q, fn):
        with self._lock:
            if self._q != q:
                self._q = None  # until the sums are whole again
                self._fill(q + 1.0)
                self._q = q
            return fn(*self.sums)

    def _fill(self, r):
        for masses, logs, weights, sums, buf in self._blocks:
            w, t1, t2 = buf
            np.power(masses, r, out=w)
            if weights is not None:
                w[self.ragged] *= weights
            np.multiply(w, logs, out=t1)
            np.multiply(logs, logs, out=t2)
            t2 *= w
            np.add.reduce(w, axis=0, initial=0.0, out=sums[0])
            # t1 and t2 hold the phi' and phi'' terms negated
            np.subtract.reduce(buf[1:], axis=1, initial=0.0, out=sums[1:])
