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
    sample_size_biased,
    sample_size_biased_batch,
    truncate_family,
    validate,
)
from homfrag.streams import Stream


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


def test_validate_sorts_and_strips_zeros():
    p = validate([0.0, 0.2, 0.8, 0.0])
    assert p.masses == (0.8, 0.2)
    assert p.conservative


def test_validate_trivial_gate():
    with pytest.raises(TrivialSplitError):
        validate([1.0])
    p = validate([1.0], allow_trivial=True)
    assert p.is_trivial


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
        assert dyadic.phi_closed(q) == pytest.approx(1.0 - 2.0 ** (-q), abs=1e-12)


def test_atomic_derivs_match_finite_differences(dyadic):
    h = 1e-6
    for q in (0.0, 1.0, 2.5):
        d1, d2 = dyadic.phi_derivs_closed(q)
        fd1 = (dyadic.phi_closed(q + h) - dyadic.phi_closed(q - h)) / (2 * h)
        fd2 = (dyadic.phi_closed(q + h) - 2 * dyadic.phi_closed(q)
               + dyadic.phi_closed(q - h)) / h**2
        assert d1 == pytest.approx(fd1, abs=1e-7)
        assert d2 == pytest.approx(fd2, abs=1e-4)


def test_atomic_rejects_bad_atoms():
    with pytest.raises(InvalidModelError):
        AtomicModel([])
    with pytest.raises(InvalidModelError):
        AtomicModel([([0.5, 0.5], -1.0)])
    with pytest.raises(TrivialSplitError):
        AtomicModel([([1.0], 1.0)])


# --- UniformBinaryModel -----------------------------------------------------


def test_uniform_binary_closed_form(ub):
    assert ub.total_rate == 1.0
    assert ub.p_lower == -2.0
    for q in np.linspace(-1.9, 6.0, 50):
        assert ub.phi_closed(q) == pytest.approx(1.0 - 2.0 / (q + 2.0), abs=1e-12)
        d1, d2 = ub.phi_derivs_closed(q)
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
        assert m.phi_closed(q) == pytest.approx(quad, abs=max(1e-9, 10 * err))
        c1, c2 = m.phi_derivs_closed(q)
        assert c1 == pytest.approx(d1, abs=max(1e-8, 10 * err))
        assert c2 == pytest.approx(d2, abs=max(1e-7, 10 * err))


def test_uniform_binary_epsilon_range():
    with pytest.raises(InvalidModelError):
        UniformBinaryModel(epsilon=0.5)
    with pytest.raises(InvalidModelError):
        UniformBinaryModel(epsilon=-0.01)


# --- PowerTailBinaryModel ---------------------------------------------------


def test_power_tail_needs_truncation():
    with pytest.raises(ModelNotFiniteError):
        PowerTailBinaryModel(epsilon=0.0)
    with pytest.raises(ModelNotFiniteError):
        PowerTailBinaryModel(epsilon=0.6)


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
        sample_size_biased_batch(dusty, None, np.arange(3))


class _FixedStream(Stream):
    """A scalar stream whose uniforms are given."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def uniform(self):
        return next(self.values)


class _FixedBatch:
    """A StreamBatch stand-in whose per-lane uniforms are given, call by call."""

    def __init__(self, rounds):
        self.rounds = iter(rounds)

    def uniform(self, idx):
        return np.array(next(self.rounds))


def test_size_biased_batch_pick_rule_matches_the_scalar_rule():
    # the masses sum to 1 - 5e-10 (conservative within tolerance): a draw
    # above that sum falls back to the last piece in both engines
    model = AtomicModel([([0.5, 0.3, 0.2 - 5e-10], 1.0), ([0.6, 0.4], 1.0)])
    atoms = [0.1, 0.1, 0.1, 0.1, 0.7, 0.7]
    picks = [0.0, 0.5, 0.8, 0.9999999999, 0.6, 0.59]
    mass, pick, masses = sample_size_biased_batch(
        model, _FixedBatch([atoms, picks]), np.arange(len(atoms)))
    assert pick.tolist() == [0, 1, 2, 2, 1, 0]
    for r, (a, u) in enumerate(zip(atoms, picks)):
        m, j, part = sample_size_biased(model, _FixedStream([a, u]))
        assert (mass[r], pick[r]) == (m, j)
        assert tuple(masses[r][:len(part)]) == part.masses


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


def test_json_total_rate_cross_check():
    ok = {"kind": "uniform_binary", "epsilon": 0.1, "total_rate": 0.8}
    assert model_from_json(ok).total_rate == pytest.approx(0.8)
    bad = {"kind": "uniform_binary", "epsilon": 0.1, "total_rate": 0.75}
    with pytest.raises(InvalidModelError):
        model_from_json(bad)
