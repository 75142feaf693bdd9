import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cauchyflow import (ScalarTrace, VectorTrace, tangential_derivative,
                        uniform_grid)


def trace_on(lo, hi, n, fn):
    x, h = uniform_grid(lo, hi, n)
    return x, ScalarTrace(fn(x), h)


def test_constant_trace_differentiates_to_zero():
    _, t = trace_on(-1, 1, 32, lambda x: np.full_like(x, 7.25))
    d = tangential_derivative(t)
    assert d.n == 28
    assert np.all(d.values == 0.0)


def test_linear_trace_is_exact():
    _, t = trace_on(0.3, 2.1, 23, lambda x: 3.0 * x)
    d = tangential_derivative(t)
    assert np.max(np.abs(d.values - 3.0)) <= 1e-12 * 3.0


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_exact_on_monomials(degree):
    x, t = trace_on(-2.0, 2.0, 41, lambda x: x ** degree)
    d = tangential_derivative(t)
    exact = degree * x[2:-2] ** (degree - 1) if degree > 0 else np.zeros(37)
    scale = max(1.0, float(np.max(np.abs(exact))))
    assert np.max(np.abs(d.values - exact)) <= 1e-11 * scale


def test_two_grid_ratio_is_fourth_order():
    errs = []
    for n in (41, 81):
        x, t = trace_on(-2.0, 2.0, n, np.sin)
        d = tangential_derivative(t)
        errs.append(np.max(np.abs(d.values - np.cos(x[2:-2]))))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_three_grid_observed_order():
    errs = []
    for n in (41, 81, 161):
        x, t = trace_on(-2.0, 2.0, n, np.sin)
        d = tangential_derivative(t)
        errs.append(np.max(np.abs(d.values - np.cos(x[2:-2]))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 3.7) and np.all(orders <= 4.3)


@given(a=st.floats(-10, 10), b=st.floats(-10, 10), seed=st.integers(0, 2**32 - 1))
def test_linearity(a, b, seed):
    rng = np.random.default_rng(seed)
    h = 0.05
    s = ScalarTrace(rng.uniform(-1, 1, 21), h)
    t = ScalarTrace(rng.uniform(-1, 1, 21), h)
    combo = ScalarTrace(a * s.values + b * t.values, h)
    left = tangential_derivative(combo).values
    right = a * tangential_derivative(s).values + b * tangential_derivative(t).values
    scale = max(1.0, float(np.max(np.abs(right))))
    assert np.max(np.abs(left - right)) <= 1e-13 * scale


def test_too_short_rejected():
    t = ScalarTrace(np.zeros(4), 0.1)
    with pytest.raises(ValueError):
        tangential_derivative(t)


def test_vector_trace_requires_matching_grids():
    with pytest.raises(ValueError):
        VectorTrace(ScalarTrace(np.zeros(5), 0.1), ScalarTrace(np.zeros(6), 0.1))
