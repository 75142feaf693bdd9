"""The node kernels of transform against 80-digit Decimal evaluations of the same formulas.

Nodes are seeded and random, in both orientations: |gamma'| log-uniform in
[1e-8, 1e8], mu in [1e-12, 1e12], and the slopes a = (g', h'), the traction
t, dnu and p log-uniform in [1e-3, 1e3], each with a random sign. The frame
comes from geometry._frame, the reference takes it exactly
(helpers._exact_frame). |v| below is the 1-norm of a vector v and eps is
2^-52. The error of each output is at most C eps times its scale, with each C
the largest ratio measured over 400,000 nodes per kernel (seeds 4601-4650,
both orientations), rounded up: 4.37 for dnu, 6.65 for p, 4.25 for the
traction and 2.99 for the residual |tau.a + nu.dnu|.
"""

from decimal import Decimal

import numpy as np
import pytest

from cauchyflow import geometry, transform
from helpers import exact_dn_from_stress, exact_stress_from_dn

EPS = float(np.finfo(float).eps)
NODES = 4000
DNU_C, P_C, T_C, RESIDUAL_C = 5, 7, 5, 3


def random_nodes(seed):
    """(gamma', mu, g', h', x1, x2, x3) at NODES random nodes; x holds t1, t2 or dnu1, dnu2, p."""
    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi, signed=True):
        magnitude = np.exp(rng.uniform(np.log(lo), np.log(hi), NODES))
        return magnitude * rng.choice([-1.0, 1.0], NODES) if signed else magnitude

    return (log_uniform(1e-8, 1e8), log_uniform(1e-12, 1e12, signed=False),
            *(log_uniform(1e-3, 1e3) for _ in range(5)))


def errors(got, want):
    """|got - want| per node, each difference taken in Decimal and then rounded."""
    return np.array([abs(float(Decimal(g) - w)) for g, w in zip(got.tolist(), want)])


def dn_ratios(seed, orientation, kernel=transform._dn_from_stress):
    """Per node, the dnu error over eps (|t| / mu + |a|) and the p error over eps (|t| + mu |a|)."""
    g, mu, gpr, hpr, t1, t2, _ = random_nodes(seed)
    dnu1, dnu2, p = kernel(*geometry._frame(g, orientation), mu, gpr, hpr, t1, t2)
    want = [exact_dn_from_stress(slope, orientation, *rest)
            for slope, *rest in zip(g.tolist(), mu.tolist(), gpr.tolist(), hpr.tolist(), t1.tolist(), t2.tolist())]
    a, t = np.abs(gpr) + np.abs(hpr), np.abs(t1) + np.abs(t2)
    dnu = np.maximum(errors(dnu1, [w[0] for w in want]), errors(dnu2, [w[1] for w in want]))
    return dnu / (EPS * (t / mu + a)), errors(p, [w[2] for w in want]) / (EPS * (t + mu * a))


def stress_ratios(seed, orientation, kernel=transform._stress_from_dn):
    """Per node, the traction error over eps (mu (|dnu| + |a|) + |p|) and the
    residual's over eps (|dnu| + |a|); the kernel runs one node at a time, since
    it returns the largest residual of its arrays."""
    g, mu, gpr, hpr, n1, n2, p = random_nodes(seed)
    frame = geometry._frame(g, orientation)
    got = [kernel(*(v[i:i + 1] for v in (*frame, mu, gpr, hpr, n1, n2, p))) for i in range(NODES)]
    want = [exact_stress_from_dn(slope, orientation, *rest)
            for slope, *rest in zip(g.tolist(), mu.tolist(), gpr.tolist(), hpr.tolist(), n1.tolist(), n2.tolist(),
                                    p.tolist())]
    a, dnu = np.abs(gpr) + np.abs(hpr), np.abs(n1) + np.abs(n2)
    t = np.maximum(errors(np.array([t1[0] for t1, _, _ in got]), [w[0] for w in want]),
                   errors(np.array([t2[0] for _, t2, _ in got]), [w[1] for w in want]))
    residual = errors(np.array([r for _, _, r in got]), [abs(w[2]) for w in want])
    return t / (EPS * (mu * (dnu + a) + np.abs(p))), residual / (EPS * (dnu + a))


@pytest.mark.parametrize("orientation", ["below", "above"])
def test_dn_from_stress_rounds_a_few_times_at_any_slope_and_viscosity(orientation):
    dnu, p = dn_ratios(4601, orientation)
    assert dnu.max() <= DNU_C
    assert p.max() <= P_C


@pytest.mark.parametrize("orientation", ["below", "above"])
def test_stress_from_dn_rounds_a_few_times_at_any_slope_and_viscosity(orientation):
    t, residual = stress_ratios(4601, orientation)
    assert t.max() <= T_C
    assert residual.max() <= RESIDUAL_C
