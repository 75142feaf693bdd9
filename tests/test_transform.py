import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyflow import (BoundaryPatch, CauchyDN, CauchyStress, GradientTrace,
                        ScalarTrace, VectorTrace, analytic_trace_slopes,
                        assemble_system, theta, uniform_grid,
                        determinant, dn_to_stress, evaluate_traces,
                        gradient_from_dn, normal_at,
                        normal_derivative_from_gradient, rigid_motion,
                        solve_system, stress_to_dn, traction_from_gradient,
                        FLOWS, PRESSURES, VISCOSITIES)
from cauchyflow import transform
from helpers import (flat_patch, rotated_field, rotated_flow, sine_patch,
                     traction_oracle)

slope = st.floats(-5, 5)
viscosity = st.floats(0.1, 10)
entry = st.floats(-3, 3)


def test_assemble_flat_unit_viscosity():
    expected = np.array([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 1, 1, 0],
        [-2, 0, 0, -1],
    ], dtype=float)
    assert np.array_equal(assemble_system(0.0, 1.0), expected)


def test_assemble_unit_slope_mu_two():
    expected = np.array([
        [1, 0, 1, 0],
        [-1, 1, 0, 0],
        [-4, 2, 2, 1],
        [-4, -2, -2, -1],
    ], dtype=float)
    assert np.array_equal(assemble_system(1.0, 2.0), expected)


def test_assemble_rejects_nonpositive_viscosity():
    with pytest.raises(ValueError):
        assemble_system(0.0, 0.0)
    with pytest.raises(ValueError):
        assemble_system(0.0, -1.0)


def test_determinant_examples():
    assert determinant(assemble_system(0.0, 1.0)) == -1.0
    assert determinant(assemble_system(1.0, 2.0)) == -8.0


@given(gp=slope, mu=viscosity)
def test_determinant_identity(gp, mu):
    d = determinant(assemble_system(gp, mu))
    expected = -mu * (1.0 + gp * gp) ** 2
    assert abs(d - expected) <= 1e-12 * abs(expected)


def test_determinant_magnitude_formula_random_sample():
    rng = np.random.default_rng(42)
    gp = rng.uniform(-5, 5, 1000)
    mu = rng.uniform(0.1, 10, 1000)
    d = determinant(assemble_system(gp, mu))
    magnitude = (np.abs(gp) ** 4 + 2 * np.abs(gp) ** 2 + 1) * mu
    assert np.max(np.abs(np.abs(d) - magnitude) / magnitude) <= 1e-12


def test_determinant_against_numpy():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(50, 4, 4))
    assert np.allclose(determinant(a), np.linalg.det(a), rtol=1e-10, atol=1e-12)


def test_traction_examples():
    t1, t2 = traction_from_gradient(GradientTrace(1.0, 2.0, 3.0, 5.0), 0.0, 1.0)
    assert (t1, t2) == (5.0, -7.0)

    # zero strain: traction reduces to -p nu for any viscosity
    for mu in (1.0, 3.7):
        for p in (0.0, 2.5, -4.0):
            t1, t2 = traction_from_gradient(GradientTrace(0.0, -1.0, 1.0, p), 0.0, mu)
            assert (t1, t2) == (0.0, -p)

    t1, t2 = traction_from_gradient(GradientTrace(1.0, 1.0, 1.0, 0.0), 1.0, 1.0)
    assert abs(t1) <= 1e-15
    assert abs(t2 + 2.0 * np.sqrt(2.0)) <= 1e-14


@given(f1=entry, f2=entry, f3=entry, p=entry, gp=entry, mu=viscosity)
def test_traction_two_paths_agree(f1, f2, f3, p, gp, mu):
    t1, t2 = traction_from_gradient(GradientTrace(f1, f2, f3, p), gp, mu)
    o1, o2 = traction_oracle(f1, f2, f3, p, gp, mu)
    assert abs(t1 - o1) <= 1e-13 and abs(t2 - o2) <= 1e-13


def _zero_or_at_least(tiny, bound):
    return st.one_of(st.just(0.0), st.floats(tiny, bound), st.floats(-bound, -tiny))


# scaling by powers of two is only exact while every product stays in the
# normal range: nonzero inputs as small as gp = f3 = 3.93e-161 make gp * f3
# subnormal, so each value here is 0 or at least 1e-100 in magnitude
normal_entry = _zero_or_at_least(1e-100, 3.0)


@given(f1=normal_entry, f2=normal_entry, f3=normal_entry,
       gp=_zero_or_at_least(1e-100, 5.0), mu=viscosity)
def test_traction_viscosity_scaling(f1, f2, f3, gp, mu):
    grad = GradientTrace(f1, f2, f3, 0.0)
    base = traction_from_gradient(grad, gp, mu)
    for c in (2.0, 0.5, 8.0):  # powers of two scale without rounding
        scaled = traction_from_gradient(grad, gp, c * mu)
        assert scaled[0] == c * base[0] and scaled[1] == c * base[1]
    general = traction_from_gradient(grad, gp, 3.0 * mu)
    scale = max(1.0, abs(base[0]), abs(base[1]))
    assert abs(general[0] - 3.0 * base[0]) <= 1e-13 * scale
    assert abs(general[1] - 3.0 * base[1]) <= 1e-13 * scale


def test_normal_derivative_examples():
    assert normal_derivative_from_gradient(GradientTrace(1., 2., 3., 0.), 0.0) == (3.0, -1.0)
    d1, d2 = normal_derivative_from_gradient(GradientTrace(1., 2., 3., 0.), 1.0)
    assert abs(d1 - np.sqrt(2.0)) <= 1e-15
    assert abs(d2 + 3.0 / np.sqrt(2.0)) <= 1e-15
    assert normal_derivative_from_gradient(GradientTrace(0., 0., 0., 0.), 2.0) == (0.0, 0.0)


@given(f1=entry, f2=entry, f3=entry, gp=slope)
def test_normal_derivative_orientation_negates(f1, f2, f3, gp):
    grad = GradientTrace(f1, f2, f3, 0.0)
    below = normal_derivative_from_gradient(grad, gp, "below")
    above = normal_derivative_from_gradient(grad, gp, "above")
    assert above[0] == -below[0] and above[1] == -below[1]


def test_solve_examples():
    assert np.allclose(solve_system(0.0, 1.0, [1., 2., 5., -7.]), [1., 2., 3., 5.],
                       rtol=0, atol=1e-13)
    assert np.all(solve_system(1.0, 2.0, np.zeros(4)) == 0.0)
    rhs = assemble_system(1.0, 2.0) @ np.array([1., 0., 0., 1.])
    assert np.allclose(rhs, [1., -1., -3., -5.], rtol=0, atol=0)
    assert np.allclose(solve_system(1.0, 2.0, rhs), [1., 0., 0., 1.], rtol=0, atol=1e-14)


def test_solve_round_trip_random():
    rng = np.random.default_rng(11)
    gp = rng.uniform(-5, 5, 1000)
    mu = rng.uniform(0.1, 10, 1000)
    f = rng.uniform(-10, 10, (1000, 4))
    rhs = (assemble_system(gp, mu) @ f[..., None])[..., 0]
    back = solve_system(gp, mu, rhs)
    scale = np.maximum(np.max(np.abs(f), axis=-1), 1e-30)
    assert np.max(np.max(np.abs(back - f), axis=-1) / scale) <= 1e-11


def test_solve_residual_bound():
    rng = np.random.default_rng(5)
    gp = rng.uniform(-5, 5, 500)
    mu = rng.uniform(0.1, 10, 500)
    rhs = rng.uniform(-10, 10, (500, 4))
    f = solve_system(gp, mu, rhs)
    res = np.max(np.abs((assemble_system(gp, mu) @ f[..., None])[..., 0] - rhs), axis=-1)
    assert np.all(res <= 1e-12 * (1.0 + np.max(np.abs(rhs), axis=-1)))


def test_gradient_from_dn_examples():
    f1, f2, f3, r = gradient_from_dn(0.0, 0.0, (1.0, 0.0), 0.0)
    assert (f1, f2, f3, r) == (0.0, 0.0, 1.0, 0.0)

    f1, f2, f3, r = gradient_from_dn(0.0, 0.0, (0.0, 0.0), 0.0)
    assert (f1, f2, f3, r) == (0.0, 0.0, 0.0, 0.0)

    f1, f2, f3, r = gradient_from_dn(1.0, 0.0, (0.0, 0.0), 0.0)
    assert (f1, f2, f3) == (1.0, 0.0, 0.0)
    assert r == 1.0  # flags n2 != -g' incompatibility


@given(f1=entry, f2=entry, f3=entry, gp=slope)
def test_gradient_from_dn_inverts_forward_formulas(f1, f2, f3, gp):
    grad = GradientTrace(f1, f2, f3, 0.0)
    gpr, hpr = analytic_trace_slopes(grad, gp)
    dnu = normal_derivative_from_gradient(grad, gp)
    r1, r2, r3, res = gradient_from_dn(gpr, hpr, dnu, gp)
    scale = max(1.0, abs(f1), abs(f2), abs(f3))
    assert max(abs(r1 - f1), abs(r2 - f2), abs(r3 - f3)) <= 1e-12 * scale
    assert res <= 1e-12 * scale


def _couette_stress(patch):
    # u = (x2, 0) on the flat patch: zero trace, traction (mu, 0) scaled by nu
    n = patch.n
    h = patch.h
    u = VectorTrace.from_arrays(np.zeros(n), np.zeros(n), h)
    traction = VectorTrace.from_arrays(np.ones(n), np.zeros(n), h)
    return CauchyStress(u, traction)


def test_stress_to_dn_couette_flat():
    patch = flat_patch(16)
    dn, residual = stress_to_dn(_couette_stress(patch), patch)
    assert residual <= 1e-14
    assert np.max(np.abs(dn.dnu.c1.values - 1.0)) <= 1e-14
    assert np.max(np.abs(dn.dnu.c2.values)) <= 1e-14
    assert np.max(np.abs(dn.p.values)) <= 1e-14


def test_stress_to_dn_stagnation_flat():
    patch = flat_patch(16)
    x = patch.x1
    h = patch.h
    u = VectorTrace.from_arrays(x, np.zeros_like(x), h)
    traction = VectorTrace.from_arrays(np.zeros_like(x), np.full_like(x, -5.0), h)
    dn, _ = stress_to_dn(CauchyStress(u, traction), patch)
    assert np.max(np.abs(dn.dnu.c1.values)) <= 1e-13
    assert np.max(np.abs(dn.dnu.c2.values + 1.0)) <= 1e-13
    assert np.max(np.abs(dn.p.values - 3.0)) <= 1e-13


def test_stress_to_dn_zero_data():
    patch = sine_patch(16)
    n, h = patch.n, patch.h
    zero = VectorTrace.from_arrays(np.zeros(n), np.zeros(n), h)
    dn, residual = stress_to_dn(CauchyStress(zero, zero), patch)
    assert residual == 0.0
    assert np.all(dn.dnu.stacked() == 0.0) and np.all(dn.p.values == 0.0)


def test_dn_to_stress_inverts_examples():
    patch = flat_patch(16)
    x = patch.x1
    h = patch.h
    dn = CauchyDN(
        VectorTrace.from_arrays(x, np.zeros_like(x), h),
        VectorTrace.from_arrays(np.zeros_like(x), np.full_like(x, -1.0), h),
        ScalarTrace(np.full_like(x, 3.0), h),
    )
    stress, residual = dn_to_stress(dn, patch)
    assert residual <= 1e-12
    assert np.max(np.abs(stress.traction.c1.values)) <= 1e-13
    assert np.max(np.abs(stress.traction.c2.values + 5.0)) <= 1e-13

    dn2 = CauchyDN(
        VectorTrace.from_arrays(np.zeros_like(x), np.zeros_like(x), h),
        VectorTrace.from_arrays(np.ones_like(x), np.zeros_like(x), h),
        ScalarTrace(np.zeros_like(x), h),
    )
    stress2, residual2 = dn_to_stress(dn2, patch)
    assert residual2 <= 1e-12
    assert np.max(np.abs(stress2.traction.c1.values - 1.0)) <= 1e-13
    assert np.max(np.abs(stress2.traction.c2.values)) <= 1e-13


@pytest.mark.parametrize("orientation", ["below", "above"])
def test_stress_to_dn_matches_generic_solver(orientation):
    # reference: the generic 4x4 solve in the physical frame, where a
    # domain-above patch reverses the normal and so negates rows 3 and 4
    rng = np.random.default_rng(17)
    n = 2000
    x1, _ = uniform_grid(-1.0, 1.0, n)
    gp = rng.uniform(-5.0, 5.0, n)
    patch = BoundaryPatch(0.0, x1, np.zeros(n), gp, rng.uniform(0.1, 10.0, n), orientation)
    u1, u2, t1, t2, p1, p2 = rng.uniform(-10.0, 10.0, (6, n))
    data = CauchyStress(VectorTrace.from_arrays(u1, u2, patch.h),
                        VectorTrace.from_arrays(t1, t2, patch.h))
    dn, residual = stress_to_dn(data, patch, u_prime=(p1, p2))

    inner = patch.interior()
    g, cut = inner.gamma_prime, slice(2, -2)
    side = -1.0 if orientation == "above" else 1.0
    scaled = side * theta(g)
    rhs = np.stack([p1[cut], p2[cut], scaled * t1[cut], scaled * t2[cut]], axis=-1)
    f = solve_system(g, inner.mu, rhs)
    d1, d2 = normal_derivative_from_gradient(GradientTrace(*f.T), g, orientation)
    want = np.stack([d1, d2, f[:, 3]], axis=-1)
    got = np.stack([dn.dnu.c1.values, dn.dnu.c2.values, dn.p.values], axis=-1)
    scale = np.max(np.abs(want), axis=-1)
    assert residual == 0.0
    assert np.all(np.max(np.abs(got - want), axis=-1) <= 1e-12 * scale)
    assert np.array_equal(dn.u.c2.values, u2[cut])


def test_conversions_bypass_generic_solver(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("conversion reached the generic 4x4 solver")

    for name in ("solve_system", "assemble_system"):
        monkeypatch.setattr(transform, name, forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    flow, pres, visc = FLOWS["trig"], PRESSURES["linear"], VISCOSITIES["variable"]
    for orientation in ("below", "above"):
        patch = sine_patch(40, mu=visc.value, orientation=orientation)
        dn, stress, _ = evaluate_traces(flow, pres, visc, patch)
        assert stress_to_dn(stress, patch)[1] == 0.0
        dn_to_stress(dn, patch)


def test_grid_mismatch_rejected():
    patch = flat_patch(16)
    short = VectorTrace.from_arrays(np.zeros(15), np.zeros(15), patch.h)
    with pytest.raises(ValueError, match="grid"):
        stress_to_dn(CauchyStress(short, short), patch)


def test_round_trip_analytic_both_orientations():
    flow, pres, visc = FLOWS["trig"], PRESSURES["linear"], VISCOSITIES["variable"]
    for orientation in ("below", "above"):
        patch = sine_patch(40, mu=visc.value, orientation=orientation)
        dn, stress, grad = evaluate_traces(flow, pres, visc, patch)
        up = analytic_trace_slopes(grad, patch.gamma_prime)
        dn1, _ = stress_to_dn(stress, patch, u_prime=up)
        inner = patch.interior()
        up_in = (up[0][2:-2], up[1][2:-2])
        stress2, residual = dn_to_stress(dn1, inner, u_prime=up_in)
        assert residual <= 1e-12
        assert np.max(np.abs(stress2.traction.c1.values - stress.traction.c1.values[4:-4])) <= 1e-10
        assert np.max(np.abs(stress2.traction.c2.values - stress.traction.c2.values[4:-4])) <= 1e-10


def test_numerical_conversion_fourth_order():
    flow, pres, visc = FLOWS["trig"], PRESSURES["trig"], VISCOSITIES["variable"]
    errs = []
    for n in (68, 135):
        patch = sine_patch(n, mu=visc.value)
        dn, stress, _ = evaluate_traces(flow, pres, visc, patch)
        got, _ = stress_to_dn(stress, patch)
        errs.append(max(
            np.max(np.abs(got.dnu.c1.values - dn.dnu.c1.values[2:-2])),
            np.max(np.abs(got.dnu.c2.values - dn.dnu.c2.values[2:-2])),
            np.max(np.abs(got.p.values - dn.p.values[2:-2])),
        ))
    h = sine_patch(68).h
    assert errs[0] <= 20.0 * h ** 4
    assert 12.0 <= errs[0] / errs[1] <= 20.0


@given(gp=slope, mu=viscosity, p=entry, a=entry, b=entry, omega=entry)
@settings(max_examples=100)
def test_rigid_motion_traction_is_pressure_times_normal(gp, mu, p, a, b, omega):
    # zero-strain gradient trace of u = (a + omega x2, b - omega x1)
    grad = GradientTrace(0.0, -omega, omega, p)
    t1, t2 = traction_from_gradient(grad, gp, mu)
    nu = normal_at(gp, "below")
    assert abs(t1 + p * nu[0]) <= 1e-13
    assert abs(t2 + p * nu[1]) <= 1e-13


def test_residual_detects_non_divergence_free_data():
    patch = flat_patch(68)
    x = patch.x1
    h = patch.h
    # u = (x1, x2) restricted to the flat boundary; its normal derivative is nu
    dn = CauchyDN(
        VectorTrace.from_arrays(x, np.zeros_like(x), h),
        VectorTrace.from_arrays(np.zeros_like(x), np.ones_like(x), h),
        ScalarTrace(np.zeros_like(x), h),
    )
    _, residual = dn_to_stress(dn, patch)
    assert residual > 0.5


def test_rotation_equivariance():
    angle = 0.7
    flow, pres, visc = FLOWS["trig"], PRESSURES["linear"], VISCOSITIES["variable"]
    patch = sine_patch(48, mu=visc.value)
    dn0, stress0, grad0 = evaluate_traces(flow, pres, visc, patch)
    up0 = analytic_trace_slopes(grad0, patch.gamma_prime)
    out0, _ = stress_to_dn(stress0, patch, u_prime=up0)

    # same physical scene rotated by `angle`: identical local arrays expected
    turned = dataclasses.replace(patch, frame_angle=angle)
    dn1, stress1, grad1 = evaluate_traces(
        rotated_flow(flow, angle), rotated_field(pres, angle),
        rotated_field(visc, angle), turned)
    up1 = analytic_trace_slopes(grad1, turned.gamma_prime)
    out1, _ = stress_to_dn(stress1, turned, u_prime=up1)

    assert np.max(np.abs(out1.dnu.c1.values - out0.dnu.c1.values)) <= 1e-10
    assert np.max(np.abs(out1.dnu.c2.values - out0.dnu.c2.values)) <= 1e-10
    assert np.max(np.abs(out1.p.values - out0.p.values)) <= 1e-10
