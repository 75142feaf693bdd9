import collections
import dataclasses

import numpy as np
import pytest

from cauchyflow import (FLOWS, PRESSURES, VISCOSITIES, AnalyticScalarField,
                        ScalarTrace, analytic_trace_slopes, builtin_catalog, circle,
                        ellipse, evaluate_traces, graph_patch, normal_at,
                        partition_curve, rigid_motion, stress_to_dn,
                        tangential_derivative)
from cauchyflow import manufactured, traces
from helpers import flat_patch, rotation_matrix, sine_patch


def test_catalog_contents():
    triples = builtin_catalog()
    assert len({t.flow.name for t in triples}) >= 5
    assert len(triples) == len(FLOWS) * len(PRESSURES) * len(VISCOSITIES)
    names = [t.name for t in triples]
    assert len(set(names)) == len(names)
    assert builtin_catalog()[0].name == names[0]  # deterministic ordering


def test_stagnation_point_values():
    u1, u2 = FLOWS["stagnation"].fields(2.0, 1.0)[:2]
    assert (float(u1), float(u2)) == (2.0, -1.0)


def test_variable_viscosity_positive():
    rng = np.random.default_rng(0)
    x = rng.uniform(-10, 10, 1000)
    y = rng.uniform(-10, 10, 1000)
    assert np.all(VISCOSITIES["variable"].value(x, y) >= 1.0)


def test_cubic_flow_node_values():
    flow = FLOWS["cubic"]
    u1, u2 = flow.fields(1.0, 1.0)[:2]
    f1, f2, f3 = flow.fields(1.0, 1.0)[2:]
    assert (float(u1), float(u2)) == (1.0, -2.0)
    assert (float(f1), float(f2), float(f3)) == (2.0, -2.0, 0.0)


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_divergence_free_finite_difference_audit(name):
    flow = FLOWS[name]
    rng = np.random.default_rng(123)
    x = rng.uniform(-2, 2, 100)
    y = rng.uniform(-2, 2, 100)
    step = 1e-5
    d1u1 = (flow.fields(x + step, y)[0] - flow.fields(x - step, y)[0]) / (2 * step)
    d2u2 = (flow.fields(x, y + step)[1] - flow.fields(x, y - step)[1]) / (2 * step)
    assert np.max(np.abs(d1u1 + d2u2)) <= 1e-8


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_hand_coded_partials_match_finite_differences(name):
    flow = FLOWS[name]
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, 50)
    y = rng.uniform(-2, 2, 50)
    step = 1e-6
    f1, f2, f3 = flow.fields(x, y)[2:]
    fd_f1 = (flow.fields(x + step, y)[0] - flow.fields(x - step, y)[0]) / (2 * step)
    fd_f2 = (flow.fields(x + step, y)[1] - flow.fields(x - step, y)[1]) / (2 * step)
    fd_f3 = (flow.fields(x, y + step)[0] - flow.fields(x, y - step)[0]) / (2 * step)
    assert np.max(np.abs(f1 - fd_f1)) <= 1e-8
    assert np.max(np.abs(f2 - fd_f2)) <= 1e-8
    assert np.max(np.abs(f3 - fd_f3)) <= 1e-8


def test_rigid_rotation_traction_is_minus_p_nu():
    patch = sine_patch(32)
    dn, stress, grad = evaluate_traces(
        FLOWS["rigid-rotation"], PRESSURES["linear"], VISCOSITIES["variable"], patch)
    nu = normal_at(patch.gamma_prime, patch.orientation)
    t = stress.traction.stacked()
    assert np.max(np.abs(t + dn.p.values[:, None] * nu)) <= 1e-13


def test_couette_gradient_trace():
    patch = sine_patch(24)
    _, _, grad = evaluate_traces(FLOWS["couette"], PRESSURES["zero"],
                                 VISCOSITIES["unit"], patch)
    assert np.max(np.abs(grad.f1)) <= 1e-15
    assert np.max(np.abs(grad.f2)) <= 1e-15
    assert np.max(np.abs(grad.f3 - 1.0)) <= 1e-15


def test_conversion_reproduces_analytic_dn_for_all_triples():
    for triple in builtin_catalog():
        for build in (flat_patch, sine_patch):
            patch = build(32, mu=triple.viscosity.value)
            dn, stress, grad = evaluate_traces(triple.flow, triple.pressure,
                                               triple.viscosity, patch)
            up = analytic_trace_slopes(grad, patch.gamma_prime)
            got, _ = stress_to_dn(stress, patch, u_prime=up)
            err = max(np.max(np.abs(got.dnu.c1.values - dn.dnu.c1.values[2:-2])),
                      np.max(np.abs(got.dnu.c2.values - dn.dnu.c2.values[2:-2])),
                      np.max(np.abs(got.p.values - dn.p.values[2:-2])))
            assert err <= 1e-10, triple.name


def test_chain_rule_against_stencil():
    flow, pres, visc = FLOWS["trig"], PRESSURES["zero"], VISCOSITIES["unit"]
    errs = []
    for n in (68, 135):
        patch = sine_patch(n)
        dn, _, grad = evaluate_traces(flow, pres, visc, patch)
        gpr_exact, hpr_exact = analytic_trace_slopes(grad, patch.gamma_prime)
        gpr_num = tangential_derivative(ScalarTrace(dn.u.c1.values, patch.h)).values
        hpr_num = tangential_derivative(ScalarTrace(dn.u.c2.values, patch.h)).values
        errs.append(max(np.max(np.abs(gpr_num - gpr_exact[2:-2])),
                        np.max(np.abs(hpr_num - hpr_exact[2:-2]))))
        assert errs[-1] <= 20.0 * patch.h ** 4
    assert 10.0 <= errs[0] / errs[1] <= 22.0


def test_rigid_motion_constructor():
    flow = rigid_motion(1.0, 3.0, 2.0)
    u1, u2 = flow.fields(0.5, -0.25)[:2]
    assert (float(u1), float(u2)) == (1.0 + 2.0 * -0.25, 3.0 - 2.0 * 0.5)
    f1, f2, f3 = flow.fields(0.3, 0.9)[2:]
    assert (float(f1), float(f2), float(f3)) == (0.0, -2.0, 2.0)


def test_nonpositive_viscosity_rejected():
    bad = VISCOSITIES["unit"].__class__("bad", lambda x1, x2: 0.0 * x1 - 1.0)
    patch = sine_patch(16)
    with pytest.raises(ValueError):
        evaluate_traces(FLOWS["couette"], PRESSURES["zero"], bad, patch)


def test_nan_viscosity_rejected():
    bad = AnalyticScalarField("nan", lambda x1, x2: np.where(x1 > 0.5, np.nan, 1.0))
    with pytest.raises(ValueError, match="not positive"):
        evaluate_traces(FLOWS["couette"], PRESSURES["zero"], bad, sine_patch(16))


def _const(c):
    return lambda x1, x2: np.full_like(np.asarray(x1, dtype=float), c)


def _rigid_partials(a, b, omega):
    return (lambda x1, x2: -b + omega * np.asarray(x1, dtype=float),
            lambda x1, x2: a + omega * np.asarray(x2, dtype=float),
            _const(omega), _const(0.0), _const(omega))


# Each flow's stream-function partials (psi_1, psi_2, psi_11, psi_12, psi_22),
# evaluated one by one: the definition `fields` must reproduce bit for bit.
PSI_PARTIALS = {
    "rigid-rotation": _rigid_partials(0.0, 0.0, 1.0),
    "couette": (_const(0.0), lambda x1, x2: np.asarray(x2, dtype=float),
                _const(0.0), _const(0.0), _const(1.0)),
    "stagnation": (lambda x1, x2: np.asarray(x2, dtype=float),
                   lambda x1, x2: np.asarray(x1, dtype=float),
                   _const(0.0), _const(1.0), _const(0.0)),
    "cubic": (lambda x1, x2: 2.0 * x1 * x2,
              lambda x1, x2: np.asarray(x1, dtype=float) ** 2,
              lambda x1, x2: 2.0 * np.asarray(x2, dtype=float),
              lambda x1, x2: 2.0 * np.asarray(x1, dtype=float),
              _const(0.0)),
    "trig": (lambda x1, x2: np.cos(x1) * np.cos(x2),
             lambda x1, x2: -np.sin(x1) * np.sin(x2),
             lambda x1, x2: -np.sin(x1) * np.cos(x2),
             lambda x1, x2: -np.cos(x1) * np.sin(x2),
             lambda x1, x2: -np.sin(x1) * np.cos(x2)),
}


@pytest.mark.parametrize("flow, partials", [
    *(pytest.param(FLOWS[name], PSI_PARTIALS[name], id=name) for name in sorted(FLOWS)),
    pytest.param(rigid_motion(1.0, 3.0, 2.0), _rigid_partials(1.0, 3.0, 2.0), id="rigid:1,3,2"),
    pytest.param(rigid_motion(0.0, -0.0, -1.0), _rigid_partials(0.0, -0.0, -1.0), id="rigid:0,-0,-1"),
])
def test_fields_bitwise_equal_to_psi_partials(flow, partials):
    axis = np.array([-0.0, 0.0, 5e-324, -1e-300, 0.5, -0.75, 1.0, -2.0, np.pi, -np.pi / 2, 3e5])
    x1, x2 = (a.ravel() for a in np.meshgrid(axis, axis))
    psi_1, psi_2, psi_11, psi_12, psi_22 = (f(x1, x2) for f in partials)
    want = (psi_2, -psi_1, psi_12, -psi_11, psi_22)
    got = flow.fields(x1, x2)
    assert len(got) == 5
    for k, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == np.float64 and g.shape == x1.shape, k
        assert np.array_equal(g, w), k
        assert np.array_equal(np.signbit(g), np.signbit(w)), k
    assert all(np.array_equal(g, w) for g, w in zip(flow.fields(x1, x2)[:2], want[:2]))
    assert all(np.array_equal(g, w) for g, w in zip(flow.fields(x1, x2)[2:], want[2:]))


def test_trig_fields_evaluate_sin_and_cos_once_per_coordinate(monkeypatch):
    calls = collections.Counter()

    class CountingNumpy:
        def __getattr__(self, attr):
            value = getattr(np, attr)
            if attr not in ("sin", "cos"):
                return value

            def counted(*args, **kwargs):
                calls[attr] += 1
                return value(*args, **kwargs)

            return counted

    monkeypatch.setattr(manufactured, "np", CountingNumpy())
    x = np.linspace(-2.0, 2.0, 9)
    FLOWS["trig"].fields(x, x[::-1])
    assert calls == {"sin": 2, "cos": 2}
    # one oracle block: the flow, the pressure and the viscosity share the four
    calls.clear()
    evaluate_traces(FLOWS["trig"], PRESSURES["trig"], VISCOSITIES["variable"], sine_patch(68))
    assert calls == {"sin": 2, "cos": 2}


@pytest.mark.parametrize("orientation", ["below", "above"])
@pytest.mark.parametrize("curve", [circle(1.0), ellipse(2.0, 1.0)], ids=["circle:1", "ellipse:2,1"])
def test_gradient_rotation_on_rotated_patches(curve, orientation):
    # reference: stack the global Jacobian and rotate it with matmul
    eps = np.finfo(float).eps
    patches = partition_curve(curve, nodes_per_patch=32)
    assert sum(p.frame_angle != 0.0 for p in patches) >= 3
    for patch in patches:
        patch = dataclasses.replace(patch, orientation=orientation)
        xg, yg = patch.nodes_global().T
        rot = rotation_matrix(patch.rotation)
        for flow in FLOWS.values():
            _, _, grad = evaluate_traces(flow, PRESSURES["zero"], VISCOSITIES["unit"], patch)
            g11, g21, g12 = (np.broadcast_to(v, xg.shape) for v in flow.fields(xg, yg)[2:])
            jac = np.stack([np.stack([g11, g12], axis=-1), np.stack([g21, -g11], axis=-1)], axis=-2)
            ref = np.matmul(np.matmul(rot.T, jac), rot)
            tol = 4 * eps * np.max(np.abs(jac))
            for got, (i, l) in ((grad.f1, (0, 0)), (grad.f2, (1, 0)), (grad.f3, (0, 1))):
                assert np.max(np.abs(got - ref[:, i, l])) <= tol, (flow.name, i, l)


@pytest.mark.parametrize("n", [16, 64, 1024])
def test_viscosity_at_global_nodes_is_patch_mu(n):
    # the partitioner and nodes_global rotate the nodes with one formula, so
    # the oracle's viscosity matches the stored one bit for bit
    visc = VISCOSITIES["variable"]
    for curve in (circle(1.0), circle(3.0), ellipse(2.0, 1.0)):
        for patch in partition_curve(curve, nodes_per_patch=n, mu=visc.value):
            assert np.array_equal(visc.value(*patch.nodes_global().T), patch.mu)


def test_oracle_rotates_without_einsum(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("oracle reached np.einsum")

    monkeypatch.setattr(np, "einsum", forbidden)
    flow, pres, visc = FLOWS["trig"], PRESSURES["trig"], VISCOSITIES["variable"]
    for patch in partition_curve(ellipse(2.0, 1.0), nodes_per_patch=16):
        evaluate_traces(flow, pres, visc, patch)


def test_evaluate_traces_refuses_an_oracle_value_that_overflows():
    # the cubic flow's velocity overflows on a radius-1e200 circle
    patch = partition_curve(circle(1e200), nodes_per_patch=16)[0]
    with pytest.raises(ValueError, match="^cannot serialize non-finite value: oracle value u1 is "
                                         "not finite on the patch$"):
        evaluate_traces(FLOWS["cubic"], PRESSURES["linear"], VISCOSITIES["unit"], patch)


def oracle_outputs(dn, stress, grad):
    """The oracle's arrays themselves, in the order of manufactured._ORACLE_OUTPUTS."""
    return (dn.u.c1.values, dn.u.c2.values, dn.dnu.c1.values, dn.dnu.c2.values, dn.p.values,
            stress.traction.c1.values, stress.traction.c2.values, grad.f1, grad.f2, grad.f3)


@pytest.mark.parametrize("nodes", [68, 2 * traces._BLOCK_NODES + 5], ids=["1 block", "3 blocks"])
def test_no_oracle_output_shares_memory_with_the_patch(nodes):
    # couette's u1 is x2 and stagnation's is x1: an unrotated patch evaluates
    # the fields at its own node arrays, and one block hands them straight back
    for orientation in ("below", "above"):
        patch = graph_patch(lambda x: 0.3 * np.sin(x), lambda x: 0.3 * np.cos(x), -1.0, 1.0, nodes,
                            orientation=orientation)
        for triple in builtin_catalog():
            dn, stress, grad = evaluate_traces(triple.flow, triple.pressure, triple.viscosity, patch)
            for out in (*oracle_outputs(dn, stress, grad), grad.f4, stress.u.c1.values, stress.u.c2.values):
                assert not any(np.shares_memory(out, getattr(patch, name))
                               for name in ("x1", "gamma", "gamma_prime", "mu")), triple.name


def oracle_by_rotation(triple, patch):
    """The oracle's general formulas: fields at the rotated nodes, rotated back into the patch frame."""
    rot = patch.rotation
    to_local = rot.inverse().rotate
    (e1, e2), (e3, e4) = rot.rotate(1.0, 0.0), rot.rotate(0.0, 1.0)
    xg, yg = rot.rotate(patch.x1, patch.gamma)
    ug1, ug2, g11, g21, g12 = (np.broadcast_to(v, xg.shape) for v in triple.flow.fields(xg, yg))
    mu = np.broadcast_to(triple.viscosity.value(xg, yg), xg.shape)
    p = np.broadcast_to(triple.pressure.value(xg, yg), xg.shape)
    f1, f2 = to_local(g11 * e1 + g12 * e2, g21 * e1 - g11 * e2)
    f3, _ = to_local(g11 * e3 + g12 * e4, g21 * e3 - g11 * e4)
    nu1, nu2 = normal_at(patch.gamma_prime, patch.orientation).T
    d1, d2 = f1 * nu1 + f3 * nu2, f2 * nu1 - f1 * nu2
    return (*to_local(ug1, ug2), d1, d2, p, mu * (d1 + f1 * nu1 + f2 * nu2) - p * nu1,
            mu * (d2 + f3 * nu1 - f1 * nu2) - p * nu2, f1, f2, f3)


@pytest.mark.parametrize("frame_angle", [0.0, 0.7])
@pytest.mark.parametrize("orientation", ["below", "above"])
def test_oracle_equals_the_rotation_formulas(orientation, frame_angle):
    # an unrotated patch reads the fields as local values; the rotation by 0
    # gives the same values, and only the sign of a zero may differ
    for triple in builtin_catalog():
        patch = dataclasses.replace(sine_patch(40, orientation=orientation), frame_angle=frame_angle)
        dn, stress, grad = evaluate_traces(triple.flow, triple.pressure, triple.viscosity, patch)
        for name, a, b in zip(manufactured._ORACLE_OUTPUTS, oracle_outputs(dn, stress, grad),
                              oracle_by_rotation(triple, patch)):
            assert np.array_equal(a, b), (triple.name, name)
            if frame_angle:
                assert np.array_equal(np.signbit(a), np.signbit(b)), (triple.name, name)
