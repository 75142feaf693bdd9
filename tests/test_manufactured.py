import dataclasses

import numpy as np
import pytest

from cauchyflow import (FLOWS, PRESSURES, VISCOSITIES, ScalarTrace,
                        analytic_trace_slopes, builtin_catalog, circle,
                        ellipse, evaluate_traces, normal_at,
                        partition_curve, rigid_motion, stress_to_dn,
                        tangential_derivative)
from helpers import flat_patch, sine_patch


def test_catalog_contents():
    triples = builtin_catalog()
    assert len({t.flow.name for t in triples}) >= 5
    assert len(triples) == len(FLOWS) * len(PRESSURES) * len(VISCOSITIES)
    names = [t.name for t in triples]
    assert len(set(names)) == len(names)
    assert builtin_catalog()[0].name == names[0]  # deterministic ordering


def test_stagnation_point_values():
    u1, u2 = FLOWS["stagnation"].velocity(2.0, 1.0)
    assert (float(u1), float(u2)) == (2.0, -1.0)


def test_variable_viscosity_positive():
    rng = np.random.default_rng(0)
    x = rng.uniform(-10, 10, 1000)
    y = rng.uniform(-10, 10, 1000)
    assert np.all(VISCOSITIES["variable"].value(x, y) >= 1.0)


def test_cubic_flow_node_values():
    flow = FLOWS["cubic"]
    u1, u2 = flow.velocity(1.0, 1.0)
    f1, f2, f3 = flow.gradient(1.0, 1.0)
    assert (float(u1), float(u2)) == (1.0, -2.0)
    assert (float(f1), float(f2), float(f3)) == (2.0, -2.0, 0.0)


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_divergence_free_finite_difference_audit(name):
    flow = FLOWS[name]
    rng = np.random.default_rng(123)
    x = rng.uniform(-2, 2, 100)
    y = rng.uniform(-2, 2, 100)
    step = 1e-5
    d1u1 = (flow.velocity(x + step, y)[0] - flow.velocity(x - step, y)[0]) / (2 * step)
    d2u2 = (flow.velocity(x, y + step)[1] - flow.velocity(x, y - step)[1]) / (2 * step)
    assert np.max(np.abs(d1u1 + d2u2)) <= 1e-8


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_hand_coded_partials_match_finite_differences(name):
    flow = FLOWS[name]
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, 50)
    y = rng.uniform(-2, 2, 50)
    step = 1e-6
    f1, f2, f3 = flow.gradient(x, y)
    fd_f1 = (flow.velocity(x + step, y)[0] - flow.velocity(x - step, y)[0]) / (2 * step)
    fd_f2 = (flow.velocity(x + step, y)[1] - flow.velocity(x - step, y)[1]) / (2 * step)
    fd_f3 = (flow.velocity(x, y + step)[0] - flow.velocity(x, y - step)[0]) / (2 * step)
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
    u1, u2 = flow.velocity(0.5, -0.25)
    assert (float(u1), float(u2)) == (1.0 + 2.0 * -0.25, 3.0 - 2.0 * 0.5)
    f1, f2, f3 = flow.gradient(0.3, 0.9)
    assert (float(f1), float(f2), float(f3)) == (0.0, -2.0, 2.0)


def test_nonpositive_viscosity_rejected():
    bad = VISCOSITIES["unit"].__class__("bad", lambda x1, x2: 0.0 * x1 - 1.0)
    patch = sine_patch(16)
    with pytest.raises(ValueError):
        evaluate_traces(FLOWS["couette"], PRESSURES["zero"], bad, patch)


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
        rot = patch.rotation.matrix
        for flow in FLOWS.values():
            _, _, grad = evaluate_traces(flow, PRESSURES["zero"], VISCOSITIES["unit"], patch)
            g11, g21, g12 = (np.broadcast_to(v, xg.shape) for v in flow.gradient(xg, yg))
            jac = np.stack([np.stack([g11, g12], axis=-1), np.stack([g21, -g11], axis=-1)], axis=-2)
            ref = np.matmul(np.matmul(rot.T, jac), rot)
            tol = 4 * eps * np.max(np.abs(jac))
            for got, (i, l) in ((grad.f1, (0, 0)), (grad.f2, (1, 0)), (grad.f3, (0, 1))):
                assert np.max(np.abs(got - ref[:, i, l])) <= tol, (flow.name, i, l)


def test_oracle_rotates_without_einsum(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("oracle reached np.einsum")

    monkeypatch.setattr(np, "einsum", forbidden)
    flow, pres, visc = FLOWS["trig"], PRESSURES["trig"], VISCOSITIES["variable"]
    for patch in partition_curve(ellipse(2.0, 1.0), nodes_per_patch=16):
        evaluate_traces(flow, pres, visc, patch)
