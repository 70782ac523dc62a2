"""The dataset writer's float kernel against `json.dumps`, value for value.
Each input goes through the kernel in one pass, of any length.

The inputs are drawn from fixed seeds, so every run checks the same values
(about 0.3 M, in about a second). Warnings are errors here, as in the whole
suite, so a value that reached the kernel's arithmetic as NaN, inf or a
subnormal would fail."""
import json

import numpy as np
import pytest

from hieremb.dataset import _float_block


def expected(values):
    return "".join(json.dumps(float(v)) + ", " for v in values).encode()


def assert_written_as_json(values):
    values = np.asarray(values, dtype=np.float64)
    text, lengths = _float_block(values)
    want = expected(values)
    if text != want:
        wrong = [(v.hex(), g, w) for v, g, w in zip(values.tolist(), text.decode().split(", "),
                                                     want.decode().split(", ")) if g != w]
        pytest.fail(f"{len(wrong)} values differ from json.dumps, first {wrong[:5]}")
    assert lengths.tolist() == [len(json.dumps(float(v))) + 2 for v in values]


def random_bits(rng, size, exponents):
    """Doubles of both signs with random mantissas and a binary exponent
    field drawn from `exponents` (0 makes subnormals, 2047 inf and NaN)."""
    sign = rng.integers(0, 2, size=size, dtype=np.uint64) << np.uint64(63)
    exponent = rng.choice(np.asarray(exponents, dtype=np.uint64), size=size) << np.uint64(52)
    mantissa = rng.integers(0, 2**52, size=size, dtype=np.uint64)
    return (sign | exponent | mantissa).view(np.float64)


def test_random_bit_patterns_over_every_exponent():
    rng = np.random.default_rng(0)
    assert_written_as_json(random_bits(rng, 40_000, np.arange(2048)))
    # the exponents of |x| in [1e-4, 1e14), where the kernel settles values
    assert_written_as_json(random_bits(rng, 80_000, np.arange(1023 - 14, 1023 + 47)))


def test_special_and_extreme_values():
    big = np.finfo(np.float64).max
    assert_written_as_json([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, big, -big,
                            2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0)])


def test_powers_of_two_and_of_ten():
    assert_written_as_json(np.ldexp(1.0, np.arange(-1074, 1024)))
    tens = np.array([10.0**k for k in range(-8, 20)])
    ulps = np.spacing(tens)
    near = np.concatenate([tens + k * ulps for k in range(-4, 5)] + [np.nextafter(tens, 0)])
    assert_written_as_json(np.concatenate([near, -near]))


def test_values_at_the_kernel_boundaries():
    edges = np.array([1e-4, 1e14, 1e16, 1e15, 1e-3])
    around = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
                             edges - 3 * np.spacing(edges), edges + 3 * np.spacing(edges)])
    assert_written_as_json(np.concatenate([around, -around]))


def test_short_decimals_and_integers():
    rng = np.random.default_rng(1)
    wide = rng.normal(size=6_000) * 10.0 ** rng.integers(-5, 15, size=6_000)
    assert_written_as_json(np.concatenate([np.round(wide, d) for d in range(0, 16)]))
    assert_written_as_json(np.arange(-50_000, 50_000, 7, dtype=np.float64))


def test_gaussian_features_at_several_scales():
    rng = np.random.default_rng(2)
    assert_written_as_json(rng.normal(size=60_000) * 10.0 ** rng.integers(-4, 14, size=60_000))


@pytest.mark.parametrize("values", [[], [0.1], [-2.5e-7]], ids=["empty", "one", "one-other"])
def test_empty_and_one_value_rows(values):
    assert_written_as_json(values)
