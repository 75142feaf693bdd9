"""Shared fixtures and independent oracles used across the test suite."""

import math
from collections import deque

import numpy as np

from cauchyflow import (BoundaryPatch, DatasetFormatError, FrameRotation, graph_patch, normal_at,
                        theta, AnalyticFlow, AnalyticScalarField)
from cauchyflow import dataio


# file contents no reader can parse, each with a phrase of the error it gives
UNREADABLE_FILES = {"not-utf8": (b"\xff\xfe\x00garbage", "not UTF-8 text"),
                    "nested-200000-deep": (b"[" * 200_000 + b"]" * 200_000, "nested too deeply")}


def read_patch_set(path) -> list[BoundaryPatch]:
    """The patches of a patch-set file; the reader leaves the number lists under "patches" as lists."""
    doc = dataio._load_json(path)
    items = doc.get("patches")
    if not isinstance(items, list) or not items:
        raise DatasetFormatError("patch-set document must carry a non-empty patch list")
    for item in items:
        for key, value in item.items() if isinstance(item, dict) else ():
            if key in dataio._NUMBER_ARRAYS and isinstance(value, list):
                item[key] = dataio._floats(value, key)
    return [dataio._patch_from_doc(item) for item in items]


def scan_window_ends(s, phi, budget, n_starts, cap):
    """Per start j < n_starts, the last sample k of the longest window from j.

    That is the largest k with max(phi[j..k]) - min(phi[j..k]) <= budget and
    s[k] - s[j] <= cap, found for all starts in one sliding scan.

    The partitioner's one-time deque scan over all starts, kept as the
    reference geometry._window_end must equal at every start.
    """
    hi: deque = deque()
    lo: deque = deque()

    def push(i):
        while hi and phi[hi[-1]] <= phi[i]:
            hi.pop()
        hi.append(i)
        while lo and phi[lo[-1]] >= phi[i]:
            lo.pop()
        lo.append(i)

    out = np.empty(n_starts, dtype=np.intp)
    k = -1
    for j in range(n_starts):
        if k < j:
            k = j
            hi.clear()
            lo.clear()
            push(j)
        while k + 1 < s.shape[0] and s[k + 1] - s[j] <= cap:
            nxt = phi[k + 1]
            if max(phi[hi[0]], nxt) - min(phi[lo[0]], nxt) > budget:
                break
            k += 1
            push(k)
        out[j] = k
        if hi[0] == j:
            hi.popleft()
        if lo[0] == j:
            lo.popleft()
    return out


def greedy_open_windows(s, phi, budget, ovl):
    """An open arc's forward cover by maximal windows, as (start sample, end sample, frame angle).

    The open-arc routine geometry._greedy_windows replaced, kept as the
    reference its open-arc covers must equal.
    """
    last = s.shape[0] - 1
    ends = scan_window_ends(s, phi, budget, last + 1, np.inf)
    windows = []
    a_idx = 0
    while True:
        k = int(ends[a_idx])
        window_phi = phi[a_idx:k + 1]
        windows.append((a_idx, k, 0.5 * float(window_phi.max() + window_phi.min())))
        if k == last:
            return windows
        nxt = int(np.searchsorted(s, s[k] - ovl * (s[k] - s[a_idx]), side="right")) - 1
        a_idx = min(max(nxt, a_idx + 1), last - 1)


def flat_patch(n=68, lo=-1.0, hi=1.0, mu=1.0, orientation="below"):
    return graph_patch(0.0, 0.0, lo, hi, n, mu=mu, orientation=orientation)


def sine_patch(n=68, amplitude=0.3, lo=-1.0, hi=1.0, mu=1.0, orientation="below"):
    return graph_patch(lambda x: amplitude * np.sin(x),
                       lambda x: amplitude * np.cos(x),
                       lo, hi, n, mu=mu, orientation=orientation)


def traction_oracle(f1, f2, f3, p, gamma_prime, mu, orientation="below"):
    """Independent traction path: build sigma = 2 mu eps - p I, contract with nu.

    Deliberately avoids traction_from_gradient so the two code paths share
    nothing beyond the inputs.
    """
    f1, f2, f3, p = (np.asarray(v, dtype=float) for v in (f1, f2, f3, p))
    eps11, eps12, eps22 = f1, 0.5 * (f2 + f3), -f1
    mu = np.asarray(mu, dtype=float)
    s11 = 2.0 * mu * eps11 - p
    s12 = 2.0 * mu * eps12
    s22 = 2.0 * mu * eps22 - p
    nu = normal_at(gamma_prime, orientation)
    return s11 * nu[..., 0] + s12 * nu[..., 1], s12 * nu[..., 0] + s22 * nu[..., 1]


def normal_derivative_from_gradient(grad, gamma_prime):
    """Normal derivative (nu . grad) u for a domain-below graph, as (d1, d2).

    The graph-frame reference for the conversions' dnu. Uses d2 u2 = -f1.
    Callers with a domain-above patch negate the result, as for
    traction_from_gradient.
    """
    gp = np.asarray(gamma_prime, dtype=float)
    th = theta(gp)
    return (-gp * grad.f1 + grad.f3) / th, (-gp * grad.f2 - grad.f1) / th


def rotation_matrix(rot):
    """The 2x2 matrix [[c, -s], [s, c]] of a FrameRotation."""
    c, s = math.cos(rot.angle), math.sin(rot.angle)
    return np.array([[c, -s], [s, c]])


def rotate_rows(rot, vectors):
    """Rotate an array of 2-vectors with shape (..., 2) by a FrameRotation."""
    v = np.asarray(vectors, dtype=float)
    return np.stack(rot.rotate(v[..., 0], v[..., 1]), axis=-1)


def restrict(a, times=1):
    """Drop `times` margin layers (2 nodes per end each) from an array."""
    k = 2 * times
    return np.asarray(a)[k:-k]


def max_abs_diff(*pairs):
    return max(float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) for a, b in pairs)


def local_poly_interp(x_nodes, y_nodes, x, k=8):
    """Degree k-1 polynomial interpolation through the k nodes nearest x."""
    x_nodes = np.asarray(x_nodes, dtype=float)
    y_nodes = np.asarray(y_nodes, dtype=float)
    i = int(np.searchsorted(x_nodes, x))
    lo = max(0, min(i - k // 2, x_nodes.shape[0] - k))
    window = slice(lo, lo + k)
    center = x_nodes[lo]
    coef = np.polynomial.polynomial.polyfit(x_nodes[window] - center, y_nodes[window], k - 1)
    return float(np.polynomial.polynomial.polyval(x - center, coef))


def rotated_flow(flow, angle):
    """The flow carried along by a global rotation: u'(x) = R u(R^T x).

    Its Jacobian is R J(R^T x) R^T, with J built from the base flow's fields.
    """
    rot = FrameRotation(angle)
    r = rotation_matrix(rot)

    def back(x1, x2):
        q = rotate_rows(rot.inverse(), np.stack(np.broadcast_arrays(x1, x2), axis=-1))
        return q[..., 0], q[..., 1]

    def fields(x1, x2):
        u1, u2, g11, g21, g12 = np.broadcast_arrays(*flow.fields(*back(x1, x2)))
        u = rotate_rows(rot, np.stack([u1, u2], axis=-1))
        jac = np.stack([np.stack([g11, g12], axis=-1), np.stack([g21, -g11], axis=-1)], axis=-2)
        jac = r @ jac @ r.T
        return u[..., 0], u[..., 1], jac[..., 0, 0], jac[..., 1, 0], jac[..., 0, 1]

    return AnalyticFlow(f"{flow.name}@{angle:g}", fields)


def rotated_field(field, angle):
    """Scalar field carried along by a global rotation."""
    back = FrameRotation(-angle)

    def value(x1, x2):
        q = rotate_rows(back, np.stack(np.broadcast_arrays(x1, x2), axis=-1))
        return field.value(q[..., 0], q[..., 1])

    return AnalyticScalarField(name=f"{field.name}@{angle:g}", value=value)


def tolerance_by_fresh_differences(patch, u1, u2, *arrays, residual=False):
    """The error model of `transform.tolerance` for one check, written out on its own.

    The check reads u and `arrays`; `residual` picks the consistency
    residual's gain 8 over the outputs' 8 max(1, max mu). Each difference
    order is taken from u by np.diff(v, k), and T, M0 and X are recomputed
    per call.
    """
    eps, h = float(np.finfo(float).eps), patch.h
    tops = ([float(np.max(np.abs(np.diff(v, k)))) for k in (5, 6, 7)] for v in (u1, u2))
    t = max(0.0, *(d5 - d6 / 2.0 - d7 / 4.0 for d5, d6, d7 in tops))
    m0 = max(float(np.max(np.abs(v))) for v in (u1, u2))
    s = max([m0] + [float(np.max(np.abs(v[2:-2]))) for v in arrays])
    x = float(np.max(np.hypot(patch.x1, patch.gamma)))
    gain = 8.0 if residual else 8.0 * max(1.0, float(np.max(patch.mu)))
    return 2.0 * gain * (t / (30.0 * h) + 1.5 * (eps * max(m0, x * s) + 2.0 ** -1074) / h
                         + eps * s)


def percent_g17(values):
    """The text of a block of floats as the JSON writer made it before dataio._fmt_g17.

    One %-template per block, kept as the reference the array passes must equal byte for byte.
    """
    return ", ".join(["%.17g"] * values.size) % tuple(values.tolist())
