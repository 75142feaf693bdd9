"""dataio._fmt_g17 writes a float block's text byte for byte as the %-template does."""

import numpy as np
import pytest

from cauchyflow import dataio
from helpers import percent_g17
from test_dataio import AWKWARD

BLOCK = dataio._ARRAY_VALUES


def assert_same_text(values):
    """Each block of `values` formats as percent_g17 formats it; the count of values checked."""
    values = np.asarray(values, dtype=float)
    for i in range(0, values.size, BLOCK):
        block = values[i:i + BLOCK]
        got, want = dataio._fmt_g17(block), percent_g17(block)
        if got != want:
            bad = [(a, b) for a, b in zip(got.split(", "), want.split(", ")) if a != b]
            raise AssertionError(f"{len(bad)} values differ, first {bad[:3]}")
    return values.size


def test_random_bit_patterns():
    rng = np.random.default_rng(3701)
    values = rng.integers(0, 1 << 64, 400_000, dtype=np.uint64, endpoint=False).view(np.float64)
    assert assert_same_text(values[np.isfinite(values)]) > 399_000


@pytest.mark.parametrize("k", range(-40, 25))
def test_normals_at_every_scale(k):
    rng = np.random.default_rng(3702 + k)
    assert assert_same_text(rng.standard_normal(6 * BLOCK) * 10.0 ** k) == 6 * BLOCK


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-40, 25)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    assert_same_text(np.concatenate([values, -values] * 2))


def test_seventeen_digit_integers_at_every_scale():
    rng = np.random.default_rng(3703)
    digits = rng.integers(10 ** 16, 10 ** 17, BLOCK).astype(float)
    for k in range(-45, 8):
        assert_same_text(digits * 10.0 ** k)


@pytest.mark.parametrize("scale", [1e-6, 1e-28, 1e17])
def test_uniforms_near_the_ends_of_the_product(scale):
    rng = np.random.default_rng(3704)
    assert_same_text(rng.uniform(0.5 * scale, 2.0 * scale, 40 * BLOCK))


def test_exact_ties_round_half_to_even():
    values = np.resize([1234567890123456.25, 1234567890123456.75, -1234567890123456.25], BLOCK)
    assert dataio._fmt_g17(values).startswith("1234567890123456.2, 1234567890123456.8, -1234567890123456.2, ")
    assert_same_text(values)


def test_signed_zeros_subnormals_and_the_largest_doubles():
    tiny = np.nextafter(0.0, 1.0)
    values = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, np.finfo(float).tiny, np.nextafter(np.finfo(float).tiny, 0),
                       np.finfo(float).max, -np.finfo(float).max, *AWKWARD])
    assert_same_text(np.resize(values, 4 * BLOCK))
    assert dataio._fmt_g17(np.resize(values, BLOCK)).startswith("0, -0, 4.9406564584124654e-324, ")


@pytest.mark.parametrize("n", [255, 256, 1023, 1024, 1025])
def test_every_block_size_writes_the_template_text(n):
    rng = np.random.default_rng(3705 + n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 16, n)
    values[::7] = np.rint(values[::7])
    assert "".join(dataio._fmt_array(values)) == "[" + percent_g17(values) + "]"


def test_a_million_values_per_run():
    rng = np.random.default_rng(3706)
    normals = rng.standard_normal(600 * BLOCK)
    scaled = normals[:400 * BLOCK] * 10.0 ** rng.integers(-28, 17, 400 * BLOCK)
    assert assert_same_text(normals) + assert_same_text(scaled) > 10 ** 6


@pytest.mark.parametrize("scale", [1.0, 1e-5, 1e15])
def test_array_passes_prove_every_value_of_plain_data(monkeypatch, scale):
    # no value from 0.1 to 10 times 1, 1e-5 or 1e15 needs "%.16e"; the array passes are what is timed
    proven = []
    flatnonzero = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda mask: proven.append(int(mask.sum())) or flatnonzero(mask))
    rng = np.random.default_rng(3707)
    dataio._digits17(rng.uniform(0.1, 10.0, BLOCK) * scale)
    assert proven == [0]


def blocks_through_the_passes(monkeypatch, values):
    """The sizes of the blocks of `values` that _fmt_array hands to _fmt_g17."""
    sizes, fmt_g17 = [], dataio._fmt_g17
    monkeypatch.setattr(dataio, "_fmt_g17", lambda v: sizes.append(v.size) or fmt_g17(v))
    assert "".join(dataio._fmt_array(values)) == "[" + percent_g17(values) + "]"
    return sizes


@pytest.mark.parametrize("scale", [1e-12, 1e-25, 1e-40, 1e20])
def test_blocks_mostly_out_of_reach_of_the_product_keep_the_template(monkeypatch, scale):
    # "%.16e" one value at a time would cost about three times the template
    rng = np.random.default_rng(3708)
    assert blocks_through_the_passes(monkeypatch, rng.uniform(0.1, 10.0, 3 * BLOCK) * scale) == []


def test_a_block_takes_the_passes_with_at_most_one_value_in_16_out_of_reach(monkeypatch):
    rng = np.random.default_rng(3709)
    values = rng.uniform(0.1, 10.0, 2 * BLOCK)
    values[:BLOCK // 16] *= 1e-12
    values[BLOCK:BLOCK + BLOCK // 16 + 1] *= 1e20
    assert blocks_through_the_passes(monkeypatch, values) == [BLOCK]


def test_short_and_all_integral_blocks_keep_the_template(monkeypatch):
    rng = np.random.default_rng(3710)
    short = rng.standard_normal(dataio._VECTOR_VALUES - 1)
    assert blocks_through_the_passes(monkeypatch, short) == []
    assert blocks_through_the_passes(monkeypatch, np.rint(rng.standard_normal(BLOCK) * 1e6)) == []
