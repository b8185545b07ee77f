"""Counter-based generator: reference vectors, bulk/scalar parity, stats."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cityattract.rng import GOLDEN_GAMMA, CounterRng, mix64

# The widely published output sequence of this mixer for seed 0: every
# independent implementation of the same finalizer must reproduce it.
SEED0_FIRST4 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)


def test_seed0_reference_sequence():
    rng = CounterRng(0)
    assert tuple(rng.u64(i) for i in range(4)) == SEED0_FIRST4


def test_counter_access_is_random_access():
    rng = CounterRng(123456789)
    forward = [rng.u64(i) for i in range(50)]
    backward = [rng.u64(i) for i in reversed(range(50))]
    assert forward == backward[::-1]


def test_mix64_stays_in_64_bits():
    for v in (0, 1, 2**63, 2**64 - 1, GOLDEN_GAMMA):
        assert 0 <= mix64(v) < 2**64


def test_streams_differ_and_are_stable():
    rng = CounterRng(7)
    a = rng.stream(1)
    b = rng.stream(2)
    assert [a.u64(i) for i in range(8)] != [b.u64(i) for i in range(8)]
    assert [a.u64(i) for i in range(8)] == [rng.stream(1).u64(i) for i in range(8)]


def test_uniform_in_half_open_unit_interval():
    rng = CounterRng(5)
    vals = [rng.uniform(i) for i in range(2000)]
    assert all(0.0 < v <= 1.0 for v in vals)
    # crude uniformity: mean near 1/2, min/max reach the edges
    assert abs(sum(vals) / len(vals) - 0.5) < 0.02
    assert min(vals) < 0.01 and max(vals) > 0.99


def test_normal_matches_transform_of_uniforms():
    rng = CounterRng(11)
    for i in range(100):
        u1 = rng.uniform(2 * i)
        u2 = rng.uniform(2 * i + 1)
        expect = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        assert rng.normal(i) == expect


def test_normal_moments():
    rng = CounterRng(99)
    vals = np.array([rng.normal(i) for i in range(20000)])
    assert abs(vals.mean()) < 0.03
    assert abs(vals.std() - 1.0) < 0.03


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=10**9))
def test_u64_is_deterministic_and_bounded(seed, counter):
    rng = CounterRng(seed)
    v = rng.u64(counter)
    assert 0 <= v < 2**64
    assert v == CounterRng(seed).u64(counter)


@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=10**6))
def test_uniform_bounds_property(seed, counter):
    u = CounterRng(seed).uniform(counter)
    assert 0.0 < u <= 1.0


WORD = st.integers(min_value=0, max_value=2**64 - 1)


@given(st.lists(st.tuples(WORD, WORD | st.sampled_from([0, 2**64 - 1]))), WORD)
def test_array_draws_match_the_scalar_stream(pairs, seed):
    # wrapping uint64 arithmetic must give the bits of the masked int code
    seeds = np.array([s for s, _ in pairs], dtype=np.uint64)
    counters = np.array([i for _, i in pairs], dtype=np.uint64)
    got = CounterRng(seeds).u64(counters)
    assert got.dtype == np.uint64
    assert got.tolist() == [CounterRng(s).u64(i) for s, i in pairs]
    assert CounterRng(seeds).uniform(counters).tolist() == [CounterRng(s).uniform(i) for s, i in pairs]
    # one seed broadcast over the counters
    assert CounterRng(seed).u64(counters).tolist() == [CounterRng(seed).u64(i) for _, i in pairs]
