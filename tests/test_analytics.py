"""Moment function evaluation, critical indices, window-count predictions."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from homfrag import PhiEvaluator, PowerTailBinaryModel, UniformBinaryModel
from homfrag.analytics import _sample_splits, detect_geometric
from homfrag.errors import BelowPLowerError, BracketNotFoundError, NotComputableError
from homfrag.measures import AtomicModel
from homfrag.streams import Stream, derive_key
from test_partitions import _draw, _key_whose_draw_is_zero


# --- phi dispatch ------------------------------------------------------------


def test_phi_closed_uniform_binary(ub_eval):
    for q in np.linspace(-1.9, 6.0, 50):
        assert ub_eval.phi(q) == pytest.approx(1.0 - 2.0 / (q + 2.0), abs=1e-12)
    assert ub_eval.phi(1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert ub_eval.phi_stderr(1.0) == 0.0


def test_phi_quadrature_matches_closed(ub):
    quad = PhiEvaluator(ub, mode="quadrature")
    closed = PhiEvaluator(ub, mode="closed_form")
    for q in (-1.95, -1.92, -1.5, -0.5, 0.5, 1.0, 3.0):
        assert quad.phi(q) == pytest.approx(closed.phi(q), abs=1e-8)
        dq, dc = quad.phi_derivs(q), closed.phi_derivs(q)
        assert dq.first == pytest.approx(dc.first, abs=1e-7)
        assert dq.second == pytest.approx(dc.second, abs=1e-6)


def test_phi_monte_carlo_unbiased_and_deterministic(ub):
    mc1 = PhiEvaluator(ub, mode="monte_carlo", mc_samples=20_000, mc_seed=7)
    mc2 = PhiEvaluator(ub, mode="monte_carlo", mc_samples=20_000, mc_seed=7)
    assert mc1.phi(1.0) == mc2.phi(1.0)  # same cached sample set
    se = mc1.phi_stderr(1.0)
    assert se > 0.0
    assert abs(mc1.phi(1.0) - 1.0 / 3.0) < 4 * se


def test_phi_below_threshold_raises(ub_eval):
    with pytest.raises(BelowPLowerError):
        ub_eval.phi(-2.0)
    with pytest.raises(BelowPLowerError):
        ub_eval.phi_derivs(-2.5)


def test_closed_form_mode_refuses_quadrature_only_model(ptail):
    strict = PhiEvaluator(ptail, mode="closed_form")
    with pytest.raises(NotComputableError):
        strict.phi(1.0)


def test_bad_mode_rejected(ub):
    with pytest.raises(ValueError):
        PhiEvaluator(ub, mode="exact")


def test_power_tail_derivs_match_finite_differences(ptail):
    ev = PhiEvaluator(ptail)
    h = 1e-5
    for q in (0.5, 1.0, 2.0):
        d = ev.phi_derivs(q)
        fd1 = (ev.phi(q + h) - ev.phi(q - h)) / (2 * h)
        fd2 = (ev.phi(q + h) - 2 * ev.phi(q) + ev.phi(q - h)) / h**2
        assert d.first == pytest.approx(fd1, abs=1e-6)
        assert d.second == pytest.approx(fd2, abs=1e-3)


# --- one pass per q ------------------------------------------------------------

_SAMPLE_MODELS = {
    "uniform": UniformBinaryModel(),
    "uniform_eps": UniformBinaryModel(epsilon=0.1),
    "ptail_gamma1": PowerTailBinaryModel(epsilon=0.05, c=2.0, gamma=1.0),
    "ptail_gamma15": PowerTailBinaryModel(epsilon=0.01),
    "dyadic": AtomicModel([([0.5, 0.5], 1.0)]),
    "ternary_binary": AtomicModel([([0.5, 0.3, 0.2], 1.0), ([0.6, 0.4], 2.0)]),
}


def _scalar_sample(model, stream, n):
    """The Monte Carlo sample as one sample_masses call per split: the
    oracle for the batched draw."""
    vals, owner = [], []
    for i in range(n):
        for m in model.sample_masses(stream):
            vals.append(m)
            owner.append(i)
    return np.array(vals), np.array(owner)


def _flat(masses):
    """A split matrix as every piece in draw order and its split's index."""
    return masses[masses != 0.0], np.nonzero(masses)[0]


@pytest.mark.parametrize("name", sorted(_SAMPLE_MODELS))
def test_monte_carlo_sample_equals_the_scalar_loop(name):
    model = _SAMPLE_MODELS[name]
    for seed in (0, 5, 2024, 2**64 - 1):
        vals, owner = _flat(_sample_splits(
            model, Stream(derive_key(seed, 0)), 700))
        want_vals, want_owner = _scalar_sample(
            model, Stream(derive_key(seed, 0)), 700)
        assert vals.tobytes() == want_vals.tobytes()
        assert owner.tobytes() == want_owner.tobytes()
    ev = PhiEvaluator(model, mode="monte_carlo", mc_samples=700, mc_seed=5)
    held = ev._mc.masses.T.copy()
    held[:, ev._mc.ragged] *= ev._mc.weights.T  # a missing piece weighs 0
    assert _flat(held)[0].tobytes() == _scalar_sample(
        model, Stream(derive_key(5, 0)), 700)[0].tobytes()


def test_monte_carlo_sample_skips_a_zero_draw_as_the_scalar_loop_does(ub):
    key = _key_whose_draw_is_zero(3)
    assert _draw(key, 3) == 0.0
    vals, owner = _flat(_sample_splits(ub, Stream(key), 5))
    want_vals, want_owner = _scalar_sample(ub, Stream(key), 5)
    assert vals.tobytes() == want_vals.tobytes()
    assert owner.tobytes() == want_owner.tobytes()


def test_monte_carlo_sample_refuses_a_second_draw(ub):
    class TwoDraws(UniformBinaryModel):
        def sample_masses_batch(self, streams, idx):
            streams.uniform(idx)
            return super().sample_masses_batch(streams, idx)

    with pytest.raises(NotImplementedError):
        _sample_splits(TwoDraws(), Stream(1), 4)


class _BincountEvaluator(PhiEvaluator):
    """The Monte Carlo formula the split-matrix sums replaced, as the oracle:
    the scalar loop's flat sample, one np.bincount per per-split sum, and
    every standard error computed with its q."""

    def __init__(self, model, mc_samples, mc_seed):
        super().__init__(model)
        self.mode = "monte_carlo"
        vals, self._owner = _scalar_sample(
            model, Stream(derive_key(mc_seed, 0)), mc_samples)
        self._vals = vals
        logs = np.log(vals)
        self._dlogs = (-logs, -(logs ** 2))
        self._n = mc_samples

    def _sums(self, x):
        return np.bincount(self._owner, weights=x, minlength=self._n)

    def _stderr(self, per):
        return self.model.total_rate * per.std(ddof=1) / math.sqrt(self._n)

    def _compute(self, q):
        w = self._vals ** (q + 1.0)
        per, d1, d2 = map(self._sums, (w, w * self._dlogs[0],
                                       w * self._dlogs[1]))
        rate = self.model.total_rate
        return (rate * (1.0 - per.mean()), rate * d1.mean(), rate * d2.mean(),
                max(self._stderr(d1), self._stderr(d2)))

    def phi_stderr(self, q):
        return self._stderr(self._sums(self._vals ** (q + 1.0)))

    def _g_stderr(self, q):
        w = self._vals ** (q + 1.0)
        return self._stderr((1.0 - self._sums(w))
                            - (q + 1.0) * self._sums(w * self._dlogs[0]))


def _outputs(ev, qs, p_bar_first):
    """repr of phi_derivs, phi and phi_stderr at every q, then of p_bar and
    its residual (computed before the rest when p_bar_first); an error in
    place of a value that raises."""
    def read(f, *args):
        try:
            return repr(f(*args))
        except (BracketNotFoundError, NotComputableError) as e:
            return repr(e)

    if p_bar_first:
        read(ev.p_bar)
    return ([read(f, q) for q in qs
             for f in (ev.phi_derivs, ev.phi, ev.phi_stderr)]
            + [read(ev.p_bar), repr(ev.p_bar_residual)])


_ORACLE_QS = (-1.5, -1.0, -0.5, 0.0, 0.7, 2.0, 3.0)


@pytest.mark.parametrize("name", sorted(_SAMPLE_MODELS))
def test_monte_carlo_equals_the_bincount_formula_bit_for_bit(name):
    model = _SAMPLE_MODELS[name]
    # 7000 splits: several blocks of the split-matrix sums, the last one short
    for seed in (0, 5, 2**64 - 1):
        oracle = _BincountEvaluator(model, 7000, seed)
        want = _outputs(oracle, _ORACLE_QS, p_bar_first=False)
        for p_bar_first in (False, True):
            ev = PhiEvaluator(model, mode="monte_carlo", mc_samples=7000,
                              mc_seed=seed)
            assert _outputs(ev, _ORACLE_QS, p_bar_first) == want, (
                seed, p_bar_first)


def test_p_bar_probes_get_their_error_when_read():
    model = _SAMPLE_MODELS["ptail_gamma15"]
    ev = PhiEvaluator(model, mode="monte_carlo", mc_samples=5000, mc_seed=11)
    ev.p_bar()
    probed = [q for q, val in ev._memo.items() if val[3] is None]
    assert len(probed) > 20  # the bisection steps left their errors out
    fresh = PhiEvaluator(model, mode="monte_carlo", mc_samples=5000,
                         mc_seed=11)
    for q in probed[::-3]:
        assert repr(ev.phi_derivs(q)) == repr(fresh.phi_derivs(q))
        assert repr(ev.phi(q)) == repr(fresh.phi(q))
        assert ev._memo[q][3] is not None


def test_monte_carlo_reads_from_two_threads_equal_serial_reads():
    model = _SAMPLE_MODELS["ternary_binary"]
    qs = [-1.5, -0.5, 0.0, 0.3, 0.7, 1.1, 2.0, 3.0]

    def reads(ev, order):
        return {q: (repr(ev.phi_derivs(q)), repr(ev.phi(q)),
                    repr(ev.phi_stderr(q))) for q in order}

    serial = reads(PhiEvaluator(model, mode="monte_carlo", mc_samples=9000,
                                mc_seed=4), qs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            ev = PhiEvaluator(model, mode="monte_carlo", mc_samples=9000,
                              mc_seed=4)
            with ThreadPoolExecutor(2) as pool:
                both = list(pool.map(lambda order: reads(ev, order),
                                     (qs, qs[::-1]), timeout=60))
            assert both == [serial, serial]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("mode", ["auto", "closed_form", "quadrature",
                                  "monte_carlo"])
def test_phi_and_derivs_do_not_depend_on_call_order(mode):
    model = UniformBinaryModel(epsilon=0.05)
    first, second = (PhiEvaluator(model, mode=mode, mc_samples=2000)
                     for _ in range(2))
    for q in (-1.5, 0.0, 0.7, 2.0):
        phi = repr(first.phi(q))
        derivs = repr(first.phi_derivs(q))
        assert repr(second.phi_derivs(q)) == derivs
        assert repr(second.phi(q)) == phi


# phi, phi' and phi'' in quadrature mode from the adaptive Simpson rule this
# kernel replaced, to every printed digit
_SIMPSON_VALUES = {
    "ptail": {
        -0.9: (-12.340387286750712, 40.49832019807314, -137.4347775289857),
        -0.5: (-3.2697373878349643, 11.573213272383857, -32.72419106338245),
        0.0: (4.893849038291737e-16, 3.5697723744137617, -6.620206517202577),
        0.5: (1.2380176161184224, 1.766829234416015, -1.8022661685215755),
        1.4: (2.395129967543194, 0.9985274507817856, -0.3886781195784729),
        3.0: (3.6789598295091563, 0.6722099790730969, -0.11433633062801186),
    },
    "uniform": {
        -1.9: (-19.000000000002146, 199.99999999999966, -3999.999999999989),
        -1.5: (-3.0000000000003473, 8.0, -32.0),
        -0.5: (-0.33333333333331905, 0.8888888888888935, -1.185185185185194),
        0.5: (0.19999999999992318, 0.32000000000004325, -0.2560000000000327),
        1.0: (0.3333333333333333, 0.22222222222206764, -0.14814814814812882),
        3.0: (0.6, 0.07999999999985251, -0.03200000000848447),
    },
    "uniform_eps": {
        -1.9: (-4.174987080024575, 7.365680391483563, -14.34104293465039),
        -1.5: (-2.1042905469236763, 3.5290947680899354, -6.09967862054047),
        -0.5: (-0.3196868304924445, 0.8317932045652517, -0.9785231921971176),
        0.5: (0.19672866190025284, 0.3160648458768208, -0.2506898826598428),
        1.0: (0.32849999999999996, 0.21956874782757646, -0.14713513448509857),
        3.0: (0.59048775, 0.07777798490093435, -0.03192439985175362),
    },
}


@pytest.mark.parametrize("name", sorted(_SIMPSON_VALUES))
def test_quadrature_matches_the_simpson_values(name):
    model = {"ptail": PowerTailBinaryModel(epsilon=0.01),
             "uniform": UniformBinaryModel(),
             "uniform_eps": UniformBinaryModel(epsilon=0.05)}[name]
    ev = PhiEvaluator(model, mode="quadrature")
    for q, want in _SIMPSON_VALUES[name].items():
        d = ev.phi_derivs(q)
        assert [ev.phi(q), d.first, d.second] == pytest.approx(want, abs=1e-9)
        assert d.abs_error < 1e-9


def test_power_tail_quadrature_p_bar_matches_simpson(ptail):
    ev = PhiEvaluator(ptail, mode="quadrature")
    assert ev.p_bar() == pytest.approx(1.401432937476784, abs=1e-9)
    assert abs(ev.p_bar_residual) <= 1e-10


def test_overflow_in_a_model_hook_is_not_computable(ub_eval, dyadic_eval):
    with pytest.raises(NotComputableError, match="overflows"):
        ub_eval.phi_derivs(1e300)  # (q + 2)^2 overflows a float
    with pytest.raises(NotComputableError, match="overflows"):
        dyadic_eval.phi(-1e300)  # 0.5^(q + 1)
    mc = PhiEvaluator(AtomicModel([([0.5, 0.5], 1.0)]), mode="monte_carlo",
                      mc_samples=10)
    with np.errstate(all="raise"):  # no RuntimeWarning escapes
        with pytest.raises(NotComputableError, match="not finite"):
            mc.phi(-1e300)


# --- critical indices ----------------------------------------------------------


def test_p_bar_uniform_binary(ub_eval):
    pb = ub_eval.p_bar()
    assert abs(pb - math.sqrt(2.0)) < 1e-9
    assert abs(ub_eval.p_bar_residual) <= 1e-10
    assert ub_eval.p_bar() == pb  # cached


def test_p_bar_dyadic(dyadic_eval):
    assert abs(dyadic_eval.p_bar() - 1.4213428793879546) < 1e-9


def test_p_bar_maximizes_phi_over_q_plus_one(ub_eval):
    pb = ub_eval.p_bar()
    peak = ub_eval.phi(pb) / (pb + 1.0)
    for q in np.linspace(-0.9, 8.0, 120):
        assert ub_eval.phi(q) / (q + 1.0) <= peak + 1e-12


def test_p_bar_monte_carlo_close_or_refused(ub):
    mc = PhiEvaluator(ub, mode="monte_carlo", mc_samples=20_000, mc_seed=3)
    assert abs(mc.p_bar() - math.sqrt(2.0)) < 0.05


def test_p_bar_refuses_ambiguous_bracket(ub):
    # with 8 samples this seed's bracket endpoint has |g| < 3 stderr, so the
    # root must be refused rather than returned as noise
    noisy = PhiEvaluator(ub, mode="monte_carlo", mc_samples=8, mc_seed=5)
    with pytest.raises(BracketNotFoundError):
        noisy.p_bar()
    rich = PhiEvaluator(ub, mode="monte_carlo", mc_samples=20_000, mc_seed=5)
    assert abs(rich.p_bar() - math.sqrt(2.0)) < 0.05


def test_concavity_on_grid(ub_eval):
    for q in np.linspace(-1.5, 8.0, 60):
        d = ub_eval.phi_derivs(q)
        assert d.first > 0.0
        assert d.second < 0.0


# --- mean intensity and window predictions -------------------------------------


def test_mean_intensity_closed(ub_eval):
    assert ub_eval.mean_intensity(2.0, 3.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert ub_eval.mean_intensity(1.0, 5.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(BelowPLowerError):
        ub_eval.mean_intensity(-1.0, 1.0)
    with pytest.raises(ValueError):
        ub_eval.mean_intensity(2.0, -1.0)


def test_v_asymptote_frozen_value(ub_eval):
    # reference value computed independently from the closed forms
    got = ub_eval.v_asymptote(0.5, 4.0, -0.2, 0.2)
    assert got == pytest.approx(0.49059699468678647, rel=1e-10)


def test_v_limit_constant_frozen_value(ub_eval):
    got = ub_eval.v_limit_constant(0.5, -0.2, 0.2)
    assert got == pytest.approx(0.3201437733381701, rel=1e-10)


def test_v_asymptote_consistency_with_limit_constant(ub_eval):
    p, t, a, b = 0.75, 5.0, -0.3, 0.1
    d = ub_eval.phi_derivs(p)
    scale = math.exp(-t * ((p + 1) * d.first - ub_eval.phi(p))) * math.sqrt(t)
    assert scale * ub_eval.v_asymptote(p, t, a, b) == pytest.approx(
        ub_eval.v_limit_constant(p, a, b), rel=1e-12)


def test_window_factor_degenerate_exponent(ub_eval):
    # at p = -1 the window factor collapses to the window length
    t, a, b = 2.0, -0.2, 0.2
    d = ub_eval.phi_derivs(-1.0)
    expected = (math.exp(t * (0.0 - ub_eval.phi(-1.0)))
                / math.sqrt(2 * math.pi * abs(d.second) * t) * (b - a))
    assert ub_eval.v_asymptote(-1.0, t, a, b) == pytest.approx(expected, rel=1e-12)


def test_window_validation(ub_eval):
    with pytest.raises(ValueError):
        ub_eval.v_asymptote(0.5, 1.0, 0.2, -0.2)
    with pytest.raises(ValueError):
        ub_eval.v_asymptote(0.5, 0.0, -0.2, 0.2)


# --- geometric support detection -----------------------------------------------


def test_detect_geometric_dyadic(dyadic):
    found = detect_geometric(dyadic)
    assert found.base == pytest.approx(2.0)


def test_detect_geometric_quaternary(quaternary):
    found = detect_geometric(quaternary)
    assert found.base == pytest.approx(2.0)


def test_detect_geometric_mixed_powers():
    m = AtomicModel([([0.5, 0.25, 0.25], 1.0)])
    assert detect_geometric(m).base == pytest.approx(2.0)


def test_detect_geometric_none_for_diffuse(ub):
    assert detect_geometric(ub).base is None


def test_detect_geometric_none_for_incommensurable_atoms():
    m = AtomicModel([([0.6, 0.4], 1.0)])
    assert detect_geometric(m).base is None
