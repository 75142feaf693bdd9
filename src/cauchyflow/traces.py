"""Sampled boundary traces on uniform grids and their tangential derivatives.

A trace is a quantity restricted to a graph patch and sampled at the patch
nodes. Differentiation uses the 5-point, 4th-order central stencil on the
interior nodes only; the two margin nodes at each patch end exist so that
no one-sided formula is ever needed.

`blockwise` cuts the node arrays into cache-sized blocks and spreads them
over all available CPUs; no node depends on another, so the output does
not depend on the block size or the CPU count. It runs the oracle, both
conversions and transform.data_checks, and graph_patch's samples. On the
calling thread alone run BoundaryPatch.validate, whose whole-array passes
are memory-bound (at 2^20 nodes on a 2-vCPU VM, about 9 ms in blocks
against 4.6 ms), the differences in transform.tolerance and the
partitioner's node inversion, Newton solve included.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass

import numpy as np

#: margin nodes at each end of a patch grid, matching the stencil half-width
MARGIN = 2

# nodes per block: the few dozen temporaries of one block's formulas stay in
# L2, where whole-array passes would stream each one through memory
_BLOCK_NODES = 1 << 14
# the CPUs this process may run on
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def blockwise(kernel, *arrays):
    """Apply a per-node `kernel` to aligned 1-d node arrays, block by block.

    `kernel(*blocks)` receives the same slice of every array and returns a
    tuple of per-node float arrays and scalars. Per-node results are gathered
    into full-length outputs, and a scalar, such as the block's maximum of
    some quantity, into an array with one value per block; the outputs are
    returned as a tuple. The last block holds what is left, one node or more:
    elementwise arithmetic rounds a node alike at any block length. Every
    output is a new array, at one block as at many, so none shares memory
    with an input. The calling thread runs the first block and allocates the
    outputs (memory a worker thread allocates stays in that thread's malloc
    arena, where the caller's later allocations cannot reuse it). The other
    blocks run on min(available CPUs, blocks left) threads, the calling
    thread included, each in a copy of the caller's context so that numpy's
    error state carries over. If blocks raise, the exception of the
    lowest-numbered one is re-raised once all threads have stopped.
    """
    n = arrays[0].shape[0]
    bounds = list(range(0, n, _BLOCK_NODES)) + [n]
    blocks = [slice(a, b) for a, b in zip(bounds, bounds[1:])]

    def store(k, result):
        for out, node, value in zip(outputs, per_node, result):
            out[blocks[k] if node else k] = value

    def work():
        while True:
            with lock:
                k = None if failed else next(todo, None)
            if k is None:
                return
            try:
                result = kernel(*(a[blocks[k]] for a in arrays))
            except BaseException as exc:  # re-raised by the caller below
                with lock:
                    failed[k] = exc
                return
            store(k, result)

    first = kernel(*(a[blocks[0]] for a in arrays))
    per_node = [np.ndim(v) > 0 for v in first]
    outputs = [np.empty(n if node else len(blocks)) for node in per_node]
    store(0, first)
    del first
    todo = iter(range(1, len(blocks)))
    failed: dict = {}
    lock = threading.Lock()
    threads = [threading.Thread(target=contextvars.copy_context().run, args=(work,))
               for _ in range(min(_WORKERS, len(blocks) - 1) - 1)]
    for t in threads:
        t.start()
    try:
        work()
    finally:
        for t in threads:
            t.join()
    if failed:
        raise failed[min(failed)]
    return tuple(outputs)


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
    return ScalarTrace(stencil_slope(*stencil_neighbours(v), trace.h), trace.h)


def stencil_neighbours(v):
    """Values t[i-2], t[i-1], t[i+1], t[i+2] for every interior node i, as views."""
    return v[:-4], v[1:-3], v[3:-1], v[4:]


def stencil_slope(left2, left1, right1, right2, h):
    """The 5-point slope from a node's four neighbours; used by tangential_derivative."""
    return (left2 - 8.0 * left1 + 8.0 * right1 - right2) / (12.0 * h)

