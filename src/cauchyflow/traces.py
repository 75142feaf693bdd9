"""Sampled boundary traces on uniform grids and their tangential derivatives.

A trace is a quantity restricted to a graph patch and sampled at the patch
nodes. Differentiation uses the 5-point, 4th-order central stencil on the
interior nodes only; the two margin nodes at each patch end exist so that
no one-sided formula is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: margin nodes at each end of a patch grid, matching the stencil half-width
MARGIN = 2


@dataclass(frozen=True, eq=False)
class ScalarTrace:
    """Scalar boundary quantity sampled on a uniform grid with spacing h."""

    values: np.ndarray
    h: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.atleast_1d(np.asarray(self.values, dtype=float)))
        object.__setattr__(self, "h", float(self.h))
        if self.values.ndim != 1:
            raise ValueError("trace values must be one-dimensional")
        if not self.h > 0:
            raise ValueError("grid spacing must be positive")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class VectorTrace:
    """Two-component boundary vector field, one ScalarTrace per component."""

    c1: ScalarTrace
    c2: ScalarTrace

    def __post_init__(self):
        if self.c1.n != self.c2.n:
            raise ValueError("vector trace components must share the grid length")
        if abs(self.c1.h - self.c2.h) > 1e-12 * abs(self.c1.h):
            raise ValueError("vector trace components must share the grid spacing")

    @classmethod
    def from_arrays(cls, a1, a2, h: float) -> "VectorTrace":
        return cls(ScalarTrace(a1, h), ScalarTrace(a2, h))

    @property
    def h(self) -> float:
        return self.c1.h

    @property
    def n(self) -> int:
        return self.c1.n

    def stacked(self) -> np.ndarray:
        """Components as an (n, 2) array."""
        return np.stack([self.c1.values, self.c2.values], axis=-1)


def tangential_derivative(trace: ScalarTrace) -> ScalarTrace:
    """Differentiate a sampled trace along the grid coordinate.

    Interior node i receives (t[i-2] - 8 t[i-1] + 8 t[i+1] - t[i+2]) / (12 h),
    which is exact on polynomials of degree <= 4. The output lives on the
    n - 4 interior nodes.
    """
    v = trace.values
    if v.shape[0] < 2 * MARGIN + 1:
        raise ValueError("tangential derivative needs at least 5 nodes")
    d = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * trace.h)
    return ScalarTrace(d, trace.h)

