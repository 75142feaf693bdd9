"""transform.data_checks: verify's two data checks in one blocked pass.

Every value must equal, bit for bit, the arithmetic of the two conversions
it replaces: dn_to_stress's residual, and the largest |stress_to_dn output -
(dnu, p)| over the interior nodes.
"""

import numpy as np
import pytest

from cauchyflow import (CauchyDN, CauchyStress, ScalarTrace, VectorTrace, builtin_catalog,
                        dn_to_stress, evaluate_traces, partition_curve, stress_to_dn, traces)
from cauchyflow.cli import parse_curve_spec
from cauchyflow.transform import data_checks
from helpers import flat_patch, sine_patch, tolerance_by_fresh_differences

# with 7-node blocks: one block, a 1-node tail, a 2-node tail, eight blocks
# and a 4-node tail, and thousands of blocks
SIZES = (8, 12, 13, 64, 2 ** 14 + 5)
NAMES = ("consistency residual max", "cross-format max deviation")


@pytest.fixture
def blocks(monkeypatch):
    """Call to run the checks in 7-node blocks on 3 threads."""
    def use_blocks():
        monkeypatch.setattr(traces, "_BLOCK_NODES", 7)
        monkeypatch.setattr(traces, "_WORKERS", 3)
    return use_blocks


def trig_case(n, orientation="below"):
    t = {t.name: t for t in builtin_catalog()}["trig/trig/variable"]
    patch = sine_patch(n, mu=t.viscosity.value, orientation=orientation)
    dn, stress, _ = evaluate_traces(t.flow, t.pressure, t.viscosity, patch)
    return patch, dn, stress.traction


def replaced(dn, **arrays):
    """dn with some of u1, dnu2 and p replaced."""
    h = dn.u.h
    v = {"u1": dn.u.c1.values, "dnu2": dn.dnu.c2.values, "p": dn.p.values} | arrays
    return CauchyDN(VectorTrace.from_arrays(v["u1"], dn.u.c2.values, h),
                    VectorTrace.from_arrays(dn.dnu.c1.values, v["dnu2"], h), ScalarTrace(v["p"], h))


def reference(patch, dn, traction, residual_tol=None):
    """The checks as the two conversions and the error model of each check's arrays give them."""
    u, stored = (dn.u.c1.values, dn.u.c2.values), (dn.dnu.c1.values, dn.dnu.c2.values, dn.p.values)

    def tol(*arrays, residual=False):
        return residual_tol if residual_tol is not None else \
            tolerance_by_fresh_differences(patch, *u, *arrays, residual=residual)

    checks = [(NAMES[0], dn_to_stress(dn, patch)[1], tol(*stored, residual=True))]
    if traction is not None:
        conv = stress_to_dn(CauchyStress(dn.u, traction), patch)[0]
        got = (conv.dnu.c1.values, conv.dnu.c2.values, conv.p.values)
        deviation = float(np.max([np.max(np.abs(g - s[2:-2])) for g, s in zip(got, stored)]))
        checks.append((NAMES[1], deviation, tol(traction.c1.values, traction.c2.values, *stored)))
    return checks


def assert_same(got, want):
    assert [name for name, _, _ in got] == [name for name, _, _ in want]
    for (_, value, tol), (_, ref_value, ref_tol) in zip(got, want):
        assert type(value) is float
        assert np.array_equal(value, ref_value, equal_nan=True)
        assert np.signbit(value) == np.signbit(ref_value)
        assert tol == ref_tol


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("orientation", ["below", "above"])
def test_values_equal_the_conversions(blocks, n, orientation):
    patch, dn, traction = trig_case(n, orientation)
    want = reference(patch, dn, traction)
    blocks()
    got = data_checks(patch, dn, traction)
    assert_same(got, want)
    assert all(value <= tol for _, value, tol in got)  # exact data pass


@pytest.mark.parametrize("n", SIZES)
def test_a_defect_in_the_last_block_is_found(blocks, n):
    # patch node n - 3, the last interior node, is in the last block; a
    # pressure defect moves the deviation alone, a dnu2 defect both checks
    patch, dn, traction = trig_case(n)
    cases = []
    for name, base, moves in (("p", dn.p.values, NAMES[1:]), ("dnu2", dn.dnu.c2.values, NAMES)):
        bad = base.copy()
        bad[n - 3] += 0.1  # above both tolerances at 8 nodes
        data = replaced(dn, **{name: bad})
        cases.append((data, reference(patch, data, traction), moves))
    blocks()
    for data, want, moves in cases:
        got = data_checks(patch, data, traction)
        assert_same(got, want)
        assert tuple(check for check, (_, value, tol) in zip(NAMES, got) if value > tol) == moves


def test_overflowing_velocity_gives_nan_for_both_checks(blocks):
    patch, dn, traction = trig_case(64)
    data = replaced(dn, u1=1e308 * np.sin(3.0 * patch.x1))
    blocks()
    with np.errstate(all="ignore"):
        for residual_tol in (None, 1.0):
            got = data_checks(patch, data, traction, residual_tol)
            assert [name for name, _, _ in got] == list(NAMES)
            assert all(np.isnan(value) for _, value, _ in got)


@pytest.mark.parametrize("n", SIZES)
def test_a_nan_pressure_in_the_last_block_stays_nan(blocks, n):
    # the pressure is the last of the three deviations, and the residual does
    # not read it; a max() over the three would drop the NaN
    patch, dn, traction = trig_case(n)
    p = dn.p.values.copy()
    p[n - 3] = np.nan
    data = replaced(dn, p=p)
    blocks()
    (_, residual, _), (_, deviation, _) = data_checks(patch, data, traction, residual_tol=1.0)
    assert residual == reference(patch, dn, None)[0][1]
    assert np.isnan(deviation)


@pytest.mark.parametrize("n", SIZES)
def test_data_without_traction_give_one_record(blocks, n):
    patch, dn, _ = trig_case(n)
    want = reference(patch, dn, None)
    blocks()
    got = data_checks(patch, dn)
    assert len(got) == 1
    assert_same(got, want)


@pytest.mark.parametrize("with_traction", [False, True])
@pytest.mark.parametrize("n", [7, 64])
def test_an_explicit_tolerance_bounds_every_check(blocks, n, with_traction):
    # seven nodes are too few for the error model, not for the checks
    patch, dn, traction = trig_case(n)
    traction = traction if with_traction else None
    want = reference(patch, dn, traction, residual_tol=0.5)
    blocks()
    assert_same(data_checks(patch, dn, traction, residual_tol=0.5), want)


@pytest.mark.parametrize("with_traction", [False, True])
@pytest.mark.parametrize("n, residual_tol, message", [
    (4, None, "4 nodes, fewer than the 8 the error model needs"),
    (4, 1.0, "patch too short for stencil differentiation"),
    (7, None, "7 nodes, fewer than the 8 the error model needs"),
])
def test_short_patches_give_the_conversions_messages(blocks, n, residual_tol, message,
                                                     with_traction):
    # the residual's tolerance is worked out before the grid checks
    patch, z = flat_patch(n), np.zeros(n)
    zero = VectorTrace.from_arrays(z, z, patch.h)
    dn = CauchyDN(zero, zero, ScalarTrace(z, patch.h))
    blocks()
    with pytest.raises(ValueError, match=f"^{message}$"):
        data_checks(patch, dn, zero if with_traction else None, residual_tol)


@pytest.mark.parametrize("curve, nodes", [
    ("circle:1", 16), ("ellipse:2,1", 16), *((curve, 64) for curve in
                                             ("circle:1", "ellipse:2,1", "ellipse:10,1")),
    *((curve, 1024) for curve in ("circle:1", "ellipse:2,1", "ellipse:10,1", "ellipse:100,1"))])
def test_exact_data_pass_on_every_closed_cover(curve, nodes):
    # the greedy windows are long, yet these sizes resolve every catalog flow
    # on them; on ellipse:10,1 at 16 nodes generate refuses the trig flows
    covers = {}
    for triple in builtin_catalog():
        name = triple.viscosity.name
        if name not in covers:
            covers[name] = partition_curve(parse_curve_spec(curve), nodes_per_patch=nodes,
                                           mu=triple.viscosity.value)
        for k, patch in enumerate(covers[name]):
            dn, stress, _ = evaluate_traces(triple.flow, triple.pressure, triple.viscosity, patch)
            for check, value, tol in data_checks(patch, dn, stress.traction):
                assert value <= tol, (triple.name, k, check, value / tol)
