"""Mass partitions, dislocation models, size-biased picks, JSON round trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from homfrag.errors import (
    DustNotSupportedError,
    InvalidModelError,
    ModelNotFiniteError,
    NonPositiveEntryError,
    SumExceedsOneError,
    TrivialSplitError,
    UnknownFamilyError,
)
from homfrag.measures import (
    AtomicModel,
    MassPartition,
    PowerTailBinaryModel,
    UniformBinaryModel,
    model_from_json,
    model_to_json,
    truncate_family,
    validate,
)
from homfrag.streams import Stream
from homfrag.tilting import _line_draw, sample_tagged_batch
from walk_oracle import sample_size_biased, sample_tilted_split


# --- MassPartition and validate -------------------------------------------


def test_partition_basic_properties():
    p = MassPartition([0.5, 0.3, 0.1])
    assert p.total == pytest.approx(0.9)
    assert not p.conservative
    assert len(p) == 3 and p[0] == 0.5
    assert p.power_sum(1.0) == pytest.approx(0.9)
    assert p.power_sum(2.0) == pytest.approx(0.25 + 0.09 + 0.01)


def test_partition_rejects_unranked():
    with pytest.raises(NonPositiveEntryError):
        MassPartition([0.3, 0.7])


def test_partition_rejects_nonpositive_and_excess():
    with pytest.raises(NonPositiveEntryError):
        MassPartition([0.5, -0.1])
    with pytest.raises(SumExceedsOneError):
        MassPartition([0.8, 0.3])
    with pytest.raises(TrivialSplitError):
        MassPartition([])
    with pytest.raises(NonPositiveEntryError):
        MassPartition([0.5, math.nan])
    with pytest.raises(NonPositiveEntryError):
        validate([math.nan, 0.5])
    with pytest.raises(SumExceedsOneError):
        MassPartition([math.inf])


def test_validate_sorts_and_strips_zeros():
    p = validate([0.0, 0.2, 0.8, 0.0])
    assert p.masses == (0.8, 0.2)
    assert p.conservative


def test_validate_trivial_gate():
    with pytest.raises(TrivialSplitError):
        validate([1.0])
    assert MassPartition([1.0]).is_trivial


def test_partition_equality_and_hash():
    assert validate([0.4, 0.6]) == validate([0.6, 0.4])
    assert hash(validate([0.4, 0.6])) == hash(validate([0.6, 0.4]))


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_validate_normalized_lists(raw):
    total = sum(raw)
    scaled = [m / total for m in raw]
    if len(scaled) == 1:
        return  # trivial split, rejected by design
    p = validate(scaled)
    assert abs(p.total - 1.0) <= 1e-9
    assert all(a >= b for a, b in zip(p.masses, p.masses[1:]))


# --- AtomicModel ------------------------------------------------------------


def test_atomic_rate_and_sampling_frequencies():
    m = AtomicModel([([0.5, 0.5], 1.0), ([0.9, 0.1], 3.0)])
    assert m.total_rate == pytest.approx(4.0)
    s = Stream(5)
    picks = [m.sample_masses(s) for _ in range(20_000)]
    frac_even = sum(1 for t in picks if t == (0.5, 0.5)) / len(picks)
    assert abs(frac_even - 0.25) < 0.01


def test_atomic_phi_closed_dyadic(dyadic):
    for q in np.linspace(-0.9, 5.0, 40):
        assert dyadic.phi_closed(q)[0] == pytest.approx(1.0 - 2.0 ** (-q), abs=1e-12)


def test_atomic_derivs_match_finite_differences(dyadic):
    h = 1e-6
    for q in (0.0, 1.0, 2.5):
        phi, d1, d2 = dyadic.phi_closed(q)
        lo, hi = dyadic.phi_closed(q - h)[0], dyadic.phi_closed(q + h)[0]
        fd1 = (hi - lo) / (2 * h)
        fd2 = (hi - 2 * phi + lo) / h**2
        assert d1 == pytest.approx(fd1, abs=1e-7)
        assert d2 == pytest.approx(fd2, abs=1e-4)


def test_atomic_rejects_bad_atoms():
    with pytest.raises(InvalidModelError):
        AtomicModel([])
    with pytest.raises(InvalidModelError):
        AtomicModel([([0.5, 0.5], -1.0)])
    with pytest.raises(TrivialSplitError):
        AtomicModel([([1.0], 1.0)])
    for w in (math.nan, math.inf, 0.0):
        with pytest.raises(InvalidModelError):
            AtomicModel([([0.5, 0.5], w)])


# --- UniformBinaryModel -----------------------------------------------------


def test_uniform_binary_closed_form(ub):
    assert ub.total_rate == 1.0
    assert ub.p_lower == -2.0
    for q in np.linspace(-1.9, 6.0, 50):
        phi, d1, d2 = ub.phi_closed(q)
        assert phi == pytest.approx(1.0 - 2.0 / (q + 2.0), abs=1e-12)
        assert d1 == pytest.approx(2.0 / (q + 2.0) ** 2, abs=1e-12)
        assert d2 == pytest.approx(-4.0 / (q + 2.0) ** 3, abs=1e-12)


def test_uniform_binary_samples_ranked_conservative(ub):
    s = Stream(11)
    for _ in range(1000):
        a, b = ub.sample_masses(s)
        assert a >= b > 0.0
        assert a + b == pytest.approx(1.0, abs=1e-15)


def test_uniform_binary_truncated():
    e = 0.05
    m = UniformBinaryModel(epsilon=e)
    assert m.total_rate == pytest.approx(1.0 - 2 * e)
    assert m.p_lower == -math.inf
    s = Stream(3)
    smalls = [m.sample_masses(s)[1] for _ in range(5000)]
    assert min(smalls) > e
    # closed form against quadrature on a grid, including q = -2 exactly
    for q in (-3.0, -2.0, -1.5, 0.5, 2.0):
        (quad, d1, d2), err = m.phi_quadrature(q)
        phi, c1, c2 = m.phi_closed(q)
        assert phi == pytest.approx(quad, abs=max(1e-9, 10 * err))
        assert c1 == pytest.approx(d1, abs=max(1e-8, 10 * err))
        assert c2 == pytest.approx(d2, abs=max(1e-7, 10 * err))


def test_uniform_binary_epsilon_range():
    with pytest.raises(InvalidModelError):
        UniformBinaryModel(epsilon=0.5)
    with pytest.raises(InvalidModelError):
        UniformBinaryModel(epsilon=-0.01)
    with pytest.raises(InvalidModelError):
        UniformBinaryModel(epsilon=math.nan)


# --- PowerTailBinaryModel ---------------------------------------------------


def test_power_tail_needs_truncation():
    with pytest.raises(ModelNotFiniteError):
        PowerTailBinaryModel(epsilon=0.0)
    with pytest.raises(ModelNotFiniteError):
        PowerTailBinaryModel(epsilon=0.6)
    with pytest.raises(ModelNotFiniteError):
        PowerTailBinaryModel(epsilon=math.nan)


def test_power_tail_rejects_a_non_finite_or_non_positive_c():
    for c in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(InvalidModelError):
            PowerTailBinaryModel(epsilon=0.01, c=c)
    with pytest.raises(InvalidModelError):
        PowerTailBinaryModel(epsilon=0.01, gamma=math.nan)


def test_power_tail_rate_closed_form():
    e, c, g = 0.01, 1.0, 1.5
    m = PowerTailBinaryModel(epsilon=e, c=c, gamma=g)
    assert m.total_rate == pytest.approx(2 * c * (e ** -0.5 - math.sqrt(2.0)), rel=1e-12)


def test_power_tail_sampler_matches_cdf(ptail):
    e, c, g = ptail.epsilon, ptail.c, ptail.gamma
    s = Stream(2024)
    smalls = np.array([ptail.sample_masses(s)[1] for _ in range(20_000)])
    assert smalls.min() > e and smalls.max() <= 0.5

    def cdf(v):
        num = e ** (1 - g) - np.asarray(v) ** (1 - g)
        den = e ** (1 - g) - 0.5 ** (1 - g)
        return num / den

    d, pvalue = stats.kstest(smalls, cdf)
    assert pvalue > 0.01


def test_power_tail_quadrature_oracles(ptail):
    # reference values computed with an independent integrator
    oracles = {0.5: 1.2380176161184258, 1.0: 1.9583559372885069, 2.0: 2.93753390593276}
    for q, target in oracles.items():
        (val, _, _), err = ptail.phi_quadrature(q)
        assert val == pytest.approx(target, abs=1e-7)
        assert err < 1e-7


@pytest.mark.parametrize("epsilon, gamma", [(0.05, 1.5), (0.3, 1.2),
                                            (0.01, 1.0), (0.02, 1.9)])
@pytest.mark.parametrize("u", [0.0, 1.0 - 2.0 ** -53])
def test_power_tail_pieces_stay_in_the_support(epsilon, gamma, u):
    # _inverse_cdf(0) is one ulp below epsilon at (0.05, 1.5) and (0.3, 1.2);
    # _inverse_cdf(1 - 2^-53) passes 1/2 at (0.3, 1.2)
    m = PowerTailBinaryModel(epsilon=epsilon, gamma=gamma)
    masses = m.split(u)
    assert epsilon <= masses[1] <= 0.5 <= masses[0] <= 1.0 - epsilon
    assert masses[1] == min(max(m._inverse_cdf(u), epsilon), 0.5)
    rows = m.splits(np.full(3, u))
    assert [tuple(r) for r in rows] == [masses] * 3


def test_float_sums_are_left_to_right():
    # 0.1 ten times: 0.9999999999999999 left to right, 1.0 compensated (the
    # built-in sum from Python 3.12)
    assert MassPartition([0.1] * 10).power_sum(1.0) == 0.9999999999999999
    atoms = [([0.5, 0.5], 0.1)] * 10
    assert AtomicModel(atoms).total_rate == 0.9999999999999999


def test_power_tail_gamma_one_log_rate():
    m = PowerTailBinaryModel(epsilon=0.1, c=2.0, gamma=1.0)
    assert m.total_rate == pytest.approx(2.0 * math.log(5.0), rel=1e-12)
    s = Stream(9)
    smalls = [m.sample_masses(s)[1] for _ in range(2000)]
    assert min(smalls) > 0.1


# --- split draws and size-biased picks --------------------------------------


def test_sample_conservative(ub):
    s = Stream(40)
    assert ub.sample(s).conservative


def test_size_biased_dyadic_always_half(dyadic):
    s = Stream(41)
    for _ in range(200):
        mass, idx, part = sample_size_biased(dyadic, s)
        assert mass == 0.5
        assert idx in (0, 1)
        assert part.masses == (0.5, 0.5)


def test_size_biased_uniform_binary_mean(ub):
    # picked-mass density is 2x on (0,1): mean 2/3
    s = Stream(42)
    masses = np.array([sample_size_biased(ub, s)[0] for _ in range(20_000)])
    se = masses.std(ddof=1) / math.sqrt(len(masses))
    assert abs(masses.mean() - 2.0 / 3.0) < 4 * se


def test_size_biased_rejects_dust():
    dusty = AtomicModel([([0.4, 0.3], 1.0)])
    with pytest.raises(DustNotSupportedError):
        sample_size_biased(dusty, Stream(1))
    with pytest.raises(DustNotSupportedError):
        sample_tagged_batch(dusty, None, None, np.zeros(3), np.zeros(3))


class _FixedStream(Stream):
    """A scalar stream whose uniforms are given."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def uniform(self):
        return next(self.values)


_SAMPLER_MODELS = [
    UniformBinaryModel(),
    UniformBinaryModel(0.1),
    PowerTailBinaryModel(0.01),
    PowerTailBinaryModel(0.01, gamma=1.0),
    AtomicModel([([0.5, 0.3, 0.2], 1.0), ([0.9, 0.1], 2.0)]),
    AtomicModel([([0.5, 0.3], 1.0), ([0.6, 0.2, 0.1], 0.5)]),    # dust
]


@pytest.mark.parametrize("model", _SAMPLER_MODELS, ids=lambda m: repr(m.to_json()))
def test_sampled_splits_are_valid_by_construction(model):
    # sample() wraps split's tuple without checking it again: every split,
    # drawn or at either end of [0, 1), must be one MassPartition's checks
    # accept.  On streams starting at either end, sample and sample_masses
    # split the first uniform, a 0 included: it is never drawn again
    drawn = [model.sample(Stream(seed)) for seed in range(400)]
    for u in (0.0, 1.0 - 2.0 ** -53):
        want = model.split(u)
        part = model.sample(_FixedStream([u, 0.5]))
        assert part.masses == want
        assert model.sample_masses(_FixedStream([u, 0.5])) == want
        drawn.append(part)
    if model.kind == "uniform_binary":
        assert model.sample(_FixedStream([0.0, 0.5])).masses == model.split(
            2.0 ** -53)
    for masses in [part.masses for part in drawn]:
        checked = MassPartition(masses)
        assert type(masses) is tuple
        assert all(type(m) is float for m in masses)
        assert checked.masses == masses
        assert checked.conservative == model.conservative
    assert all(type(part) is MassPartition for part in drawn)


_TOP = 1.0 - 2.0 ** -53  # the largest uniform


@pytest.mark.parametrize("model, atoms, picks, want, want_kept", [
    # the masses sum to 1 - 5e-10 (conservative within tolerance): u = 0.5
    # and 0.8 equal running masses and pass them, and u = 0.9999999999 is
    # above the total
    (AtomicModel([([0.5, 0.3, 0.2 - 5e-10], 1.0), ([0.6, 0.4], 1.0)]),
     [0.1, 0.1, 0.1, 0.1, 0.7, 0.7], [0.0, 0.5, 0.8, 0.9999999999, 0.6, 0.59],
     [0, 1, 2, 2, 1, 0], [True, True, True, False, True, True]),
    # 0.7, 0.2 and 0.1 sum to 1 - 2^-53, the largest uniform
    (AtomicModel([([0.1, 0.2, 0.7], 1.0)]), [0.5] * 4,
     [0.7, 0.8999999999999999, 0.9, _TOP], [1, 2, 2, 2],
     [True, True, True, False]),
    # 0.56, 0.34 and 0.1 sum to 1 + 2^-52: every uniform is below it
    (AtomicModel([([0.56, 0.34, 0.1], 1.0)]), [0.5] * 3,
     [0.56, 0.9000000000000001, _TOP],
     [1, 2, 2], [True, True, True]),
], ids=["total_5e-10_below", "ulp_below", "ulp_above"])
def test_size_biased_batch_pick_rule_matches_the_scalar_rule(
        model, atoms, picks, want, want_kept):
    # every engine compares u itself, not u times the total, with the
    # running masses; where u is at or above the total the event log
    # follows the last piece and the spine at p = 0 thins the try away
    mass, pick, masses, w, kept = sample_tagged_batch(
        model, None, None, np.array(atoms), np.array(picks))
    assert pick.tolist() == want
    assert w is None and kept is None
    _, spine_pick, _, _, spine_kept = sample_tagged_batch(
        model, 0.0, None, np.array(atoms), np.array(picks))
    assert spine_kept.tolist() == want_kept
    assert spine_pick[spine_kept].tolist() == pick[spine_kept].tolist()
    log_draw, spine_draw = _line_draw(model), _line_draw(model, 0.0)
    for r, (a, u) in enumerate(zip(atoms, picks)):
        m, j, part = sample_size_biased(model, _FixedStream([a, u]))
        assert (mass[r], pick[r]) == (m, j)
        assert tuple(masses[r][:len(part)]) == part.masses
        assert log_draw(_FixedStream([a, u]))[1:] == (j, 1.0)
        tried = spine_draw(_FixedStream([a, u]))
        _, oracle_j, _ = sample_tilted_split(model, 0.0, _FixedStream([a, u]))
        if spine_kept[r]:
            assert tried[1:] == (j, 1.0) and oracle_j == j
        else:
            assert tried is None and oracle_j is None


# --- families and JSON -------------------------------------------------------


def test_truncate_family_dispatch():
    m = truncate_family("uniform_binary", epsilon=0.1)
    assert isinstance(m, UniformBinaryModel) and m.epsilon == 0.1
    m = truncate_family("uniform_binary")  # finite untruncated family is fine
    assert m.epsilon == 0.0
    m = truncate_family("power_tail_binary", {"c": 2.0}, epsilon=0.05)
    assert isinstance(m, PowerTailBinaryModel) and m.c == 2.0
    with pytest.raises(UnknownFamilyError):
        truncate_family("nope", epsilon=0.1)
    with pytest.raises(ModelNotFiniteError):
        truncate_family("power_tail_binary", epsilon=0.0)
    with pytest.raises(InvalidModelError):
        truncate_family("uniform_binary", {"bogus": 1}, epsilon=0.1)


@pytest.mark.parametrize("build", [
    lambda: AtomicModel([([0.5, 0.5], 1.0), ([0.7, 0.2, 0.1], 0.5)]),
    lambda: UniformBinaryModel(),
    lambda: UniformBinaryModel(epsilon=0.02),
    lambda: PowerTailBinaryModel(epsilon=0.01, c=1.5, gamma=1.25),
])
def test_json_round_trip(build):
    model = build()
    blob = json.dumps(model_to_json(model))
    back = model_from_json(json.loads(blob))
    assert model_to_json(back) == model_to_json(model)
    assert back.total_rate == pytest.approx(model.total_rate, rel=1e-12)


def test_json_rejects_unknown_kind_and_fields():
    with pytest.raises(UnknownFamilyError):
        model_from_json({"kind": "mystery"})
    with pytest.raises(InvalidModelError):
        model_from_json({"kind": "uniform_binary", "extra": 1})
    with pytest.raises(InvalidModelError):
        model_from_json({"kind": "atomic", "atoms": []})
    with pytest.raises(InvalidModelError):
        model_from_json("not a dict")


_PT = {"kind": "truncated", "family": "power_tail_binary", "epsilon": 0.05}
# model objects whose numbers are not finite JSON numbers, or whose fields
# have the wrong type: each must raise InvalidModelError, nothing else
MALFORMED_MODELS = [
    {"kind": "uniform_binary", "epsilon": "x"},
    {"kind": "uniform_binary", "epsilon": "0.01"},
    {"kind": "uniform_binary", "epsilon": True},
    {"kind": "uniform_binary", "epsilon": False},  # would read as 0.0
    {"kind": "uniform_binary", "epsilon": math.nan},
    {"kind": "uniform_binary", "epsilon": 10**400},
    {"kind": "uniform_binary", "total_rate": "x"},
    {"kind": "uniform_binary", "total_rate": math.nan},
    dict(_PT, params={"c": "x"}),
    dict(_PT, params={"c": math.nan}),
    dict(_PT, params={"c": math.inf}),
    dict(_PT, params={"gamma": None}),
    dict(_PT, params=[1.0]),
    dict(_PT, epsilon=[0.05]),
    dict(_PT, family=["power_tail_binary"]),
    {"kind": "atomic", "atoms": [[[0.5, 0.5], "w"]]},
    {"kind": "atomic", "atoms": [[[0.5, 0.5], math.nan]]},
    {"kind": "atomic", "atoms": [[[0.5, 0.5], math.inf]]},
    {"kind": "atomic", "atoms": [[[0.5, 0.5], True]]},  # would read as 1.0
    {"kind": "atomic", "atoms": [[[True], 1.0]]},
    {"kind": "atomic", "atoms": [[[0.5, math.nan], 1.0]]},
    {"kind": "atomic", "atoms": [[[0.5, "0.5"], 1.0]]},
    {"kind": "atomic", "atoms": [[0.5, 1.0]]},
    {"kind": "atomic", "atoms": [[[0.5, 0.5], 1.0, 2.0]]},
    {"kind": "atomic", "atoms": [{"masses": [0.5, 0.5], "weight": 1.0}]},
]


@pytest.mark.parametrize("obj", MALFORMED_MODELS, ids=repr)
def test_json_rejects_malformed_numbers_and_fields(obj):
    with pytest.raises(InvalidModelError):
        model_from_json(obj)


def test_json_takes_int_numbers_as_floats():
    model = model_from_json({"kind": "atomic", "atoms": [[[0.5, 0.5], 2]],
                             "total_rate": 2})
    assert model_to_json(model) == {"kind": "atomic",
                                    "atoms": [[[0.5, 0.5], 2.0]]}
    assert model_from_json({"kind": "uniform_binary", "epsilon": 0}).epsilon == 0.0


def test_json_total_rate_cross_check():
    ok = {"kind": "uniform_binary", "epsilon": 0.1, "total_rate": 0.8}
    assert model_from_json(ok).total_rate == pytest.approx(0.8)
    bad = {"kind": "uniform_binary", "epsilon": 0.1, "total_rate": 0.75}
    with pytest.raises(InvalidModelError):
        model_from_json(bad)
