"""Unit and property-based tests for the cost-model distributions."""

import copy
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Constant,
    Empirical,
    Exponential,
    LogNormal,
    Mixture,
    Normal,
    Shifted,
    Uniform,
)


class TestConstant:
    def test_returns_value(self):
        assert Constant(3.5).sample() == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Constant(-1.0)


class TestUniform:
    def test_within_bounds(self):
        dist = Uniform(1.0, 2.0, rng=random.Random(7))
        for _ in range(200):
            assert 1.0 <= dist.sample() <= 2.0

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Uniform(5.0, 1.0)

    def test_seeded_reproducibility(self):
        a = Uniform(0, 10, rng=random.Random(42))
        b = Uniform(0, 10, rng=random.Random(42))
        assert a.sample_many(20) == b.sample_many(20)


class TestNormal:
    def test_floor_applies(self):
        dist = Normal(0.1, 5.0, floor=0.0, rng=random.Random(1))
        assert all(s >= 0.0 for s in dist.sample_many(500))

    def test_mean_roughly_correct(self):
        dist = Normal(10.0, 1.0, rng=random.Random(3))
        samples = dist.sample_many(4000)
        assert abs(sum(samples) / len(samples) - 10.0) < 0.2

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            Normal(1.0, -0.5)


class TestLogNormal:
    def test_median_roughly_matches(self):
        dist = LogNormal(median=50.0, sigma=0.5, rng=random.Random(11))
        samples = sorted(dist.sample_many(4001))
        assert abs(samples[2000] - 50.0) < 5.0

    def test_shift_is_floor(self):
        dist = LogNormal(median=5.0, sigma=1.0, shift=40.0,
                         rng=random.Random(2))
        assert all(s > 40.0 for s in dist.sample_many(300))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LogNormal(median=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            LogNormal(median=1.0, sigma=-1.0)


class TestExponential:
    def test_mean_roughly_correct(self):
        dist = Exponential(4.0, rng=random.Random(5))
        samples = dist.sample_many(6000)
        assert abs(sum(samples) / len(samples) - 4.0) < 0.3

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            Exponential(0.0)


class TestShifted:
    def test_offset_applied(self):
        dist = Shifted(Constant(1.0), 2.5)
        assert dist.sample() == 3.5


class TestMixture:
    def test_single_component_degenerates(self):
        dist = Mixture([(1.0, Constant(7.0))], rng=random.Random(0))
        assert dist.sample() == 7.0

    def test_component_proportions(self):
        dist = Mixture(
            [(0.9, Constant(1.0)), (0.1, Constant(100.0))],
            rng=random.Random(123),
        )
        samples = dist.sample_many(5000)
        heavy = sum(1 for s in samples if s == 100.0)
        assert 350 < heavy < 650  # ~10%

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Mixture([])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            Mixture([(-1.0, Constant(1.0)), (2.0, Constant(2.0))])


class TestEmpirical:
    def test_samples_within_observed_range(self):
        dist = Empirical([1.0, 2.0, 10.0], rng=random.Random(9))
        for _ in range(200):
            assert 1.0 <= dist.sample() <= 10.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Empirical([])


def _reseedable():
    return [
        LogNormal(10, .5),
        Shifted(LogNormal(10, .5), 5),
        Mixture([(1, LogNormal(10, .5)), (2, Exponential(3))]),
        Mixture([(1, Shifted(LogNormal(10, .5), 5)),
                 (1, Shifted(Exponential(3), 1))]),
    ]


class TestReseed:
    """``reseed`` restarts the whole distribution, wrapped parts
    included: a wrapper that reseeded only itself left ``Shifted``'s
    base and ``Mixture``'s components on their old streams."""

    @pytest.mark.parametrize("dist", _reseedable(), ids=repr)
    def test_same_seed_same_samples(self, dist):
        dist.reseed(1)
        first = dist.sample_many(20)
        dist.reseed(1)
        assert dist.sample_many(20) == first
        dist.reseed(2)
        assert dist.sample_many(20) != first

    @pytest.mark.parametrize("dist", _reseedable(), ids=repr)
    def test_reseed_is_bind_of_a_fresh_generator(self, dist):
        twin = copy.deepcopy(dist).bind(random.Random(5))
        dist.reseed(5)
        assert dist.sample_many(20) == twin.sample_many(20)


class TestLazyDefaultStream:
    """A distribution nobody bound draws from its own ``Random(0)``,
    made when first read rather than at construction."""

    def test_unbound_yields_random_0_sequence(self):
        bound = LogNormal(10, .5, rng=random.Random(0))
        assert LogNormal(10, .5).sample_many(10) == bound.sample_many(10)

    def test_construction_seeds_nothing(self):
        from repro.sim import distributions
        stream = random.Random(1)
        with mock.patch.object(distributions, "random",
                               wraps=random) as seen:
            for dist in [Constant(1), Uniform(0, 1), Normal(1, 1),
                         LogNormal(10, .5), Exponential(3),
                         Empirical([1, 2]),
                         Shifted(LogNormal(10, .5), 5),
                         Mixture([(1, LogNormal(10, .5))])]:
                dist.bind(stream)
            assert seen.Random.call_count == 0
            LogNormal(10, .5).sample()
            seen.Random.assert_called_once_with(0)

    def test_shifted_leaves_an_unbound_base_unbound(self):
        base = LogNormal(10, .5)
        shifted = Shifted(base, 5)
        assert "rng" not in vars(base) and "rng" not in vars(shifted)
        stream = random.Random(3)
        assert Shifted(LogNormal(10, .5, rng=stream), 5).rng is stream

    def test_two_unbound_distributions_do_not_share_a_stream(self):
        a, b = LogNormal(10, .5), LogNormal(10, .5)
        assert a.rng is not b.rng
        assert a.sample_many(5) == b.sample_many(5)

    def test_bind_after_a_first_sample_switches_streams(self):
        dist = LogNormal(10, .5)
        dist.sample()
        dist.bind(random.Random(9))
        twin = LogNormal(10, .5, rng=random.Random(9))
        assert dist.sample_many(5) == twin.sample_many(5)

    @pytest.mark.parametrize("roundtrip", [
        copy.deepcopy, lambda dist: pickle.loads(pickle.dumps(dist))],
        ids=["deepcopy", "pickle"])
    def test_copies_round_trip_bound_and_unbound(self, roundtrip):
        # A __getattr__ that recurses on a half-built instance is the
        # classic way copying breaks.
        for dist in _reseedable():
            clone = roundtrip(dist)
            assert "rng" not in vars(clone)
            assert clone.sample_many(5) == dist.sample_many(5)
            dist.bind(random.Random(4))
            dist.sample()
            clone = roundtrip(dist)
            assert clone.rng is not dist.rng
            assert clone.sample_many(5) == dist.sample_many(5)

    def test_other_missing_attributes_still_raise(self):
        with pytest.raises(AttributeError):
            LogNormal(10, .5).no_such_attribute
        assert not hasattr(Constant(1), "__deepcopy__")


@given(st.floats(min_value=0.001, max_value=1e4),
       st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=50)
def test_lognormal_always_above_shift(median, sigma):
    dist = LogNormal(median=median, sigma=sigma, rng=random.Random(0))
    assert dist.sample() >= 0.0


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                max_size=30))
@settings(max_examples=50)
def test_empirical_bounded_by_min_max(values):
    dist = Empirical(values, rng=random.Random(1))
    low, high = min(values), max(values)
    for _ in range(20):
        sample = dist.sample()
        assert low - 1e-9 <= sample <= high + 1e-9


@given(st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=50)
def test_uniform_sample_in_bounds_property(a, b):
    low, high = min(a, b), max(a, b)
    dist = Uniform(low, high, rng=random.Random(2))
    for _ in range(10):
        assert low <= dist.sample() <= high
