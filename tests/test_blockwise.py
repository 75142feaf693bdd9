"""Per-node work in blocks: the output must not depend on the block size or
the number of worker threads."""

import dataclasses
import re
import threading
import time

import numpy as np
import pytest

from cauchyflow import (AnalyticScalarField, CauchyDN, CauchyStress,
                        VectorTrace, analytic_trace_slopes, builtin_catalog,
                        circle, dn_to_stress, evaluate_traces, graph_patch,
                        partition_curve, stress_to_dn, traces, uniform_grid)
from cauchyflow.geometry import on_grid
from cauchyflow.traces import blockwise

BLOCK = 7
# one block minus one, exactly one block, one block plus one, three blocks plus seven
SIZES = (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)


def flat_outputs(value):
    """Every array a conversion or the oracle returns, in a fixed order."""
    if isinstance(value, tuple):
        return [a for v in value for a in flat_outputs(v)]
    if isinstance(value, float):
        return [np.array([value])]
    if isinstance(value, np.ndarray):
        return [value]
    return [a for f in dataclasses.fields(value) for a in flat_outputs(getattr(value, f.name))]


def assert_bitwise(got, want):
    got, want = flat_outputs(got), flat_outputs(want)
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), k
        assert np.array_equal(np.signbit(g), np.signbit(w)), k


def in_blocks(monkeypatch, workers, fn, *args, **kwargs):
    """fn's result with 7-node blocks on `workers` threads, and on one whole block."""
    with monkeypatch.context() as m:
        m.setattr(traces, "_BLOCK_NODES", BLOCK)
        m.setattr(traces, "_WORKERS", workers)
        got = fn(*args, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(traces, "_BLOCK_NODES", 1 << 30)
        want = fn(*args, **kwargs)
    return got, want


def oracle_patches(n):
    circle_patches = [p for p in partition_curve(circle(1.0), nodes_per_patch=n)
                      if p.frame_angle != 0.0][:2]
    graph = graph_patch(lambda x: 0.3 * np.sin(2.0 * x), lambda x: 0.6 * np.cos(2.0 * x), -1.0, 1.0, n)
    # tilted graph patches, whose nodes, velocity and gradient are rotated
    # into the patch frame, in blocks down to a single node
    tilted = [dataclasses.replace(graph, frame_angle=a) for a in (0.3, 2.0)]
    return [dataclasses.replace(p, orientation=o)
            for p in (*circle_patches, graph, *tilted) for o in ("below", "above")]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n", SIZES)
def test_oracle_does_not_depend_on_blocks(monkeypatch, workers, n):
    for patch in oracle_patches(n):
        for t in builtin_catalog():
            assert_bitwise(*in_blocks(monkeypatch, workers, evaluate_traces,
                                      t.flow, t.pressure, t.viscosity, patch))


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n", SIZES)
def test_conversions_do_not_depend_on_blocks(monkeypatch, workers, n):
    # the interior has n - 4 nodes, so the oracle runs on n + 4 to cover SIZES
    triples = {t.name: t for t in builtin_catalog()}
    for name in ("trig/trig/variable", "cubic/linear/unit"):
        t = triples[name]
        for patch in oracle_patches(n + 4):
            patch = dataclasses.replace(patch, mu=t.viscosity.value(*patch.nodes_global().T))
            dn, stress, grad = evaluate_traces(t.flow, t.pressure, t.viscosity, patch)
            for u_prime in (None, analytic_trace_slopes(grad, patch.gamma_prime)):
                for convert, data in ((stress_to_dn, stress), (dn_to_stress, dn)):
                    got, want = in_blocks(monkeypatch, workers, convert, data, patch, u_prime=u_prime)
                    assert_bitwise(got, want)


def graph_inputs(n):
    """(gamma, gamma_prime, mu) as callables, constants and full-length arrays."""
    x = uniform_grid(-1.0, 1.0, n)[0]
    return {
        "callables": (lambda x: 0.3 * np.sin(2.0 * x), lambda x: 0.6 * np.cos(2.0 * x),
                      lambda x1, x2: 1.0 + 0.5 * np.sin(x1) ** 2),
        "scalar constants": (0.25, -0.5, 1.7),
        "callables of scalars": (lambda x: -0.0, lambda x: 0.0, lambda x1, x2: 2.0),
        "full-length arrays": (0.1 * x * x, 0.2 * x, 1.0 + x * x),
        # mu reads the block's own gamma, from a callable and from an array
        "mu reads gamma": (lambda x: 0.25 * x * x, 0.5, lambda x1, x2: 1.0 + x2),
        "mu reads a gamma array": (0.1 * x * x, lambda x: 0.2 * x, lambda x1, x2: 1.0 + x1 * x2),
    }


def patch_arrays(patch):
    return tuple(getattr(patch, name) for name in ("x1", "gamma", "gamma_prime", "mu"))


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n", SIZES)
def test_graph_patch_does_not_depend_on_blocks(monkeypatch, workers, n):
    for name, (gamma, gamma_prime, mu) in graph_inputs(n).items():
        for orientation in ("below", "above"):
            got, want = in_blocks(monkeypatch, workers, graph_patch, gamma, gamma_prime,
                                  -1.0, 1.0, n, mu=mu, orientation=orientation)
            assert got.orientation == want.orientation == orientation
            assert_bitwise(patch_arrays(got), patch_arrays(want))


@pytest.mark.parametrize("length", [3 * BLOCK + 6, 3 * BLOCK + 8])
@pytest.mark.parametrize("field", ["gamma", "gamma_prime", "mu"])
def test_graph_patch_refuses_a_wrong_length_array_before_a_callable_runs(monkeypatch, field,
                                                                          length):
    monkeypatch.setattr(traces, "_BLOCK_NODES", BLOCK)
    monkeypatch.setattr(traces, "_WORKERS", 3)
    n = 3 * BLOCK + 7
    calls = []

    def called(value):
        def f(*args):
            calls.append(args[0].size)
            return value
        return f

    inputs = {"gamma": called(0.1), "gamma_prime": called(0.0), "mu": called(1.0)}
    inputs[field] = np.ones(length)
    with pytest.raises(ValueError) as expected:  # the grid's own broadcast error
        on_grid(np.ones(length), uniform_grid(-1.0, 1.0, n)[0])
    with pytest.raises(ValueError, match="^" + re.escape(str(expected.value)) + "$"):
        graph_patch(inputs["gamma"], inputs["gamma_prime"], -1.0, 1.0, n, mu=inputs["mu"])
    assert calls == []


class LastBlockError(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("field", ["gamma", "gamma_prime", "mu"])
def test_graph_patch_raises_a_callable_error_from_the_last_block(monkeypatch, workers, field):
    n = 3 * BLOCK + 7  # in 7-node blocks, the last holds nodes 21-27
    x = uniform_grid(-1.0, 1.0, n)[0]

    def fails_on_the_last_block(x1, *_):
        if np.any(x1 >= x[3 * BLOCK]):
            raise LastBlockError(field)
        return 0.5 * x1 + 1.0

    inputs = {"gamma": np.sin, "gamma_prime": np.cos, "mu": 1.0, field: fails_on_the_last_block}
    before = threading.active_count()
    for block in (BLOCK, 1 << 30):
        with monkeypatch.context() as m:
            m.setattr(traces, "_BLOCK_NODES", block)
            m.setattr(traces, "_WORKERS", workers)
            with pytest.raises(LastBlockError, match=f"^{field}$"):
                graph_patch(inputs["gamma"], inputs["gamma_prime"], -1.0, 1.0, n, mu=inputs["mu"])
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 3])
def test_worker_block_error_is_raised(monkeypatch, workers):
    # the viscosity turns negative only on the last nodes, far from block 0
    bad = AnalyticScalarField("bad", lambda x1, x2: np.where(x1 > 0.9, -1.0, 1.0))
    t = builtin_catalog()[0]
    patch = graph_patch(0.0, 0.0, -1.0, 1.0, 3 * BLOCK + 7)
    for block in (BLOCK, 1 << 30):
        with monkeypatch.context() as m:
            m.setattr(traces, "_BLOCK_NODES", block)
            m.setattr(traces, "_WORKERS", workers)
            with pytest.raises(ValueError, match="^viscosity field is not positive on the patch$"):
                evaluate_traces(t.flow, t.pressure, bad, patch)


def test_lowest_failing_block_wins_and_threads_stop(monkeypatch):
    monkeypatch.setattr(traces, "_BLOCK_NODES", 4)
    monkeypatch.setattr(traces, "_WORKERS", 3)
    before = threading.active_count()

    def kernel(x):
        if x[0] >= 8:
            raise ValueError(f"block at {int(x[0])}")
        return (2.0 * x,)

    with pytest.raises(ValueError, match="^block at 8$"):
        blockwise(kernel, np.arange(40.0))
    assert threading.active_count() == before


def test_blocks_gather_in_order_with_a_one_node_tail(monkeypatch):
    monkeypatch.setattr(traces, "_BLOCK_NODES", 4)
    monkeypatch.setattr(traces, "_WORKERS", 3)
    sizes = []

    def kernel(x, y):
        sizes.append(x.shape[0])
        return x + y, x * y

    x = np.arange(9.0)
    s, p = blockwise(kernel, x, x[::-1].copy())
    assert np.array_equal(s, x + x[::-1]) and np.array_equal(p, x * x[::-1])
    assert sorted(sizes) == [1, 4, 4]  # the last block holds the one node left


def test_scalar_outputs_gather_one_value_per_block(monkeypatch):
    monkeypatch.setattr(traces, "_BLOCK_NODES", 4)
    monkeypatch.setattr(traces, "_WORKERS", 3)
    x = np.arange(9.0)
    doubled, block_max = blockwise(lambda v: (2.0 * v, np.max(v)), x)
    assert np.array_equal(doubled, 2.0 * x)
    assert np.array_equal(block_max, [3.0, 7.0, 8.0])  # blocks 0-3, 4-7 and 8


def test_workers_run_in_the_callers_error_state(monkeypatch):
    monkeypatch.setattr(traces, "_BLOCK_NODES", 4)
    monkeypatch.setattr(traces, "_WORKERS", 3)
    seen = []

    def kernel(x):
        time.sleep(0.01)  # lets every worker thread take a block
        seen.append((threading.get_ident(), np.geterr()["over"]))
        return (x,)

    with np.errstate(over="raise"):
        blockwise(kernel, np.arange(40.0))
    assert len({ident for ident, _ in seen}) > 1
    assert {over for _, over in seen} == {"raise"}


# a 32-node patch: two margin nodes per end and four 7-node interior blocks,
# which hold patch nodes 2-8, 9-15, 16-22 and 23-29
FAULT_NODES = {"head margin": 0, "block 0 end": 8, "block 1 start": 9, "late block": 26,
               "tail margin": 31}
FAULTS = {
    "x1 nan": ("x1", lambda v: np.nan), "x1 inf": ("x1", lambda v: np.inf),
    "gamma nan": ("gamma", lambda v: np.nan), "gamma_prime inf": ("gamma_prime", lambda v: -np.inf),
    "mu nan": ("mu", lambda v: np.nan), "mu zero": ("mu", lambda v: 0.0),
    "mu negative": ("mu", lambda v: -v), "grid": ("x1", lambda v: v + 1e-9),
}


def fault_case():
    t = {t.name: t for t in builtin_catalog()}["trig/trig/variable"]
    patch = graph_patch(lambda x: 0.3 * np.sin(2.0 * x), lambda x: 0.6 * np.cos(2.0 * x),
                        -1.0, 1.0, 4 * BLOCK + 4, mu=t.viscosity.value, orientation="above")
    dn, stress, _ = evaluate_traces(t.flow, t.pressure, t.viscosity, patch)
    return patch, dn, stress


def with_faults(patch, *faults):
    arrays = {name: getattr(patch, name).copy() for name in ("x1", "gamma", "gamma_prime", "mu")}
    for field, node, value in faults:
        arrays[field][node] = value(arrays[field][node])
    return dataclasses.replace(patch, **arrays)


def on_grid_of(patch, dn, stress):
    """The data, restated with the faulty patch's spacing when it has one."""
    h = patch.h if patch.h > 0 else dn.u.h

    def vec(v):
        return VectorTrace.from_arrays(v.c1.values, v.c2.values, h)

    return (CauchyDN(vec(dn.u), vec(dn.dnu), dataclasses.replace(dn.p, h=h)),
            CauchyStress(vec(stress.u), vec(stress.traction)))


def assert_conversions_raise_validate_error(patch, dn, stress, u_prime=None):
    with pytest.raises(ValueError) as expected:
        patch.validate()
    message = "^" + re.escape(str(expected.value)) + "$"
    dn, stress = on_grid_of(patch, dn, stress)
    with pytest.raises(ValueError, match=message):
        stress_to_dn(stress, patch, u_prime=u_prime)
    with pytest.raises(ValueError, match=message):
        dn_to_stress(dn, patch, u_prime=u_prime)
    return str(expected.value)


# moving x1[0] changes the spacing, which is checked before the grid
@pytest.mark.parametrize("fault, where", [(f, w) for f in FAULTS for w in FAULT_NODES
                                          if (f, w) != ("grid", "head margin")])
def test_conversions_check_the_patch_in_blocks(monkeypatch, fault, where):
    field, value = FAULTS[fault]
    node = FAULT_NODES[where]
    monkeypatch.setattr(traces, "_BLOCK_NODES", BLOCK)
    monkeypatch.setattr(traces, "_WORKERS", 3)
    patch, dn, stress = fault_case()
    assert_conversions_raise_validate_error(with_faults(patch, (field, node, value)), dn, stress)


@pytest.mark.parametrize("first, late, message", [
    (("gamma", 3, FAULTS["gamma nan"][1]), ("x1", 26, FAULTS["x1 nan"][1]), "x1 contains"),
    (("mu", 3, FAULTS["mu zero"][1]), ("gamma_prime", 26, FAULTS["gamma_prime inf"][1]),
     "gamma_prime contains"),
    (("x1", 4, FAULTS["grid"][1]), ("mu", 26, FAULTS["mu negative"][1]), "viscosity must be"),
])
def test_two_faults_give_the_message_validate_gives(monkeypatch, first, late, message):
    # block 0 alone would name its own fault; validate's order names the other
    monkeypatch.setattr(traces, "_BLOCK_NODES", BLOCK)
    monkeypatch.setattr(traces, "_WORKERS", 3)
    patch, dn, stress = fault_case()
    got = assert_conversions_raise_validate_error(with_faults(patch, first, late), dn, stress)
    assert message in got


def test_patch_fault_is_reported_before_bad_slopes(monkeypatch):
    monkeypatch.setattr(traces, "_BLOCK_NODES", BLOCK)
    patch, dn, stress = fault_case()
    bad = with_faults(patch, ("mu", 26, FAULTS["mu zero"][1]))
    assert_conversions_raise_validate_error(bad, dn, stress, u_prime=(np.zeros(3), np.zeros(3)))

