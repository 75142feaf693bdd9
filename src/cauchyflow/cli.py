"""Batch front end: generate oracle datasets, convert, verify, partition.

Exit codes form a stable contract:
    0  success
    2  unknown catalog name or missing data arrays
    3  malformed input (file, curve spec, or parameters)
    4  consistency residual above tolerance (output still written; never
       from `convert stress-to-dn`, whose residual is always 0)
    5  invariant violation (positivity, grid uniformity, determinant identity)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import dataio, geometry, manufactured, transform

EXIT_OK = 0
EXIT_UNKNOWN_NAME = 2
EXIT_MALFORMED = 3
EXIT_RESIDUAL = 4
EXIT_INVARIANT = 5

_DET_IDENTITY_TOL = 1e-12


class CurveSpecError(ValueError):
    pass


def parse_curve_spec(spec: str, x1_range=(-1.0, 1.0)) -> geometry.ParametricCurve:
    """Builtin curve specs: circle:R, ellipse:A,B, graph:poly:c0,c1,..."""
    head, _, rest = spec.partition(":")
    try:
        if head == "circle":
            return geometry.circle(float(rest))
        if head == "ellipse":
            a, b = (float(v) for v in rest.split(","))
            return geometry.ellipse(a, b)
        if head == "graph":
            sub, _, coeff_text = rest.partition(":")
            if sub != "poly" or not coeff_text:
                raise ValueError("graph specs take the form graph:poly:c0,c1,...")
            coeffs = [float(v) for v in coeff_text.split(",")]
            lo, hi = (float(v) for v in x1_range)
            return geometry.polynomial_graph(coeffs, lo, hi)
    except CurveSpecError:
        raise
    except ValueError as exc:
        raise CurveSpecError(f"malformed curve spec {spec!r}: {exc}") from exc
    raise CurveSpecError(f"unrecognized curve spec {spec!r}")


def _parse_range(text: str):
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise CurveSpecError(f"malformed range {text!r}") from exc
    if not hi > lo:
        raise CurveSpecError(f"empty range {text!r}")
    return lo, hi


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _numbered_paths(out_path: str, count: int) -> list[Path]:
    out = Path(out_path)
    if count == 1:
        return [out]
    return [out.with_name(f"{out.stem}-p{k:02d}{out.suffix}") for k in range(count)]


def _data_scale(arrays) -> float:
    return max(float(np.max(np.abs(a))) for a in arrays)


def _cmd_generate(args) -> int:
    flow = manufactured.FLOWS.get(args.flow)
    if flow is None:
        return _fail(EXIT_UNKNOWN_NAME, f"unknown flow {args.flow!r}")
    pressure = manufactured.PRESSURES.get(args.pressure)
    if pressure is None:
        return _fail(EXIT_UNKNOWN_NAME, f"unknown pressure {args.pressure!r}")
    viscosity = manufactured.VISCOSITIES.get(args.viscosity)
    if viscosity is None:
        return _fail(EXIT_UNKNOWN_NAME, f"unknown viscosity {args.viscosity!r}")
    if args.nodes < 5:
        return _fail(EXIT_MALFORMED, "nodes must be at least 5 (stencil support)")
    try:
        curve = parse_curve_spec(args.curve, _parse_range(args.x1_range))
        patches = geometry.partition_curve(
            curve, max_slope=args.max_slope, overlap_fraction=args.overlap,
            nodes_per_patch=args.nodes, mu=viscosity.value)
    except (CurveSpecError, ValueError) as exc:
        return _fail(EXIT_MALFORMED, str(exc))

    provenance = {"flow": args.flow, "pressure": args.pressure,
                  "viscosity": args.viscosity, "curve": args.curve}
    paths = _numbered_paths(args.out, len(patches))
    csv_paths = _numbered_paths(args.csv, len(patches)) if args.csv else None
    for k, (patch, path) in enumerate(zip(patches, paths)):
        dn, stress, _ = manufactured.evaluate_traces(flow, pressure, viscosity, patch)
        ds = dataio.dataset_from_traces(patch, dn=dn, stress=stress,
                                        provenance=provenance | {"patch_index": str(k)})
        dataio.write_dataset(path, ds)
        if csv_paths:
            dataio.write_csv(csv_paths[k], ds)
        print(f"wrote {path} ({patch.n} nodes, data_kind=both)")
    return EXIT_OK


def _cmd_convert(args) -> int:
    try:
        ds = dataio.read_dataset(args.input)
    except dataio.DatasetFormatError as exc:
        return _fail(EXIT_MALFORMED, str(exc))
    try:
        ds.patch.validate()
    except ValueError as exc:
        return _fail(EXIT_INVARIANT, f"patch invariant violated: {exc}")

    if args.direction == "stress-to-dn":
        if ds.data_kind == "dn":
            return _fail(EXIT_UNKNOWN_NAME, "input has no traction arrays (t1, t2)")
        data = ds.stress()
        used = (ds.u1, ds.u2, ds.t1, ds.t2)
        converter = transform.stress_to_dn
    else:
        if ds.data_kind == "stress":
            return _fail(EXIT_UNKNOWN_NAME, "input has no (dnu1, dnu2, p) arrays")
        data = ds.dn()
        used = (ds.u1, ds.u2, ds.dnu1, ds.dnu2, ds.p)
        converter = transform.dn_to_stress

    try:
        converted, residual = converter(data, ds.patch)
        inner = ds.patch.interior()
    except ValueError as exc:
        return _fail(EXIT_MALFORMED, str(exc))

    tol = args.residual_tol
    if tol is None:
        tol = transform.default_residual_tol(ds.patch.h, _data_scale(used))
    provenance = (ds.provenance or {}) | {"converted": args.direction}
    if args.direction == "stress-to-dn":
        out = dataio.dataset_from_traces(inner, dn=converted, provenance=provenance)
    else:
        out = dataio.dataset_from_traces(inner, stress=converted, provenance=provenance)
    dataio.write_dataset(args.output, out)
    if args.csv:
        dataio.write_csv(args.csv, out)
    print(f"wrote {args.output} ({out.patch.n} nodes, data_kind={out.data_kind})")
    print(f"max consistency residual = {residual:.17g}")
    print(f"residual tolerance = {tol:.17g}")
    return EXIT_OK if residual <= tol else EXIT_RESIDUAL


def _cmd_verify(args) -> int:
    try:
        ds = dataio.read_dataset(args.input)
    except dataio.DatasetFormatError as exc:
        return _fail(EXIT_MALFORMED, str(exc))

    invariant_failed = False
    residual_failed = False
    patch = ds.patch

    try:
        patch.validate(max_slope=args.max_slope)
        print("patch invariants: pass")
    except ValueError as exc:
        print(f"patch invariants: FAIL ({exc})")
        invariant_failed = True

    if not invariant_failed:
        det = transform.determinant(transform.assemble_system(patch.gamma_prime, patch.mu))
        expected = -patch.mu * (1.0 + patch.gamma_prime ** 2) ** 2
        rel = float(np.max(np.abs(det - expected) / np.abs(expected)))
        ok = rel <= _DET_IDENTITY_TOL
        print(f"determinant identity max rel error = {rel:.17g} "
              f"(tol {_DET_IDENTITY_TOL:.17g}): {'pass' if ok else 'FAIL'}")
        if not ok:
            invariant_failed = True

        tol = args.residual_tol
        if tol is None:
            tol = transform.default_residual_tol(patch.h, _data_scale(ds.arrays.values()))

        short = patch.n < 2 * geometry.MARGIN + 1
        if short and ds.data_kind != "stress":
            print(f"consistency and cross-format checks: skipped ({patch.n} nodes, "
                  f"stencil differentiation needs at least {2 * geometry.MARGIN + 1})")

        if ds.data_kind in ("dn", "both") and not short:
            _, residual = transform.dn_to_stress(ds.dn(), patch)
            ok = residual <= tol
            print(f"consistency residual max = {residual:.17g} (tol {tol:.17g}): "
                  f"{'pass' if ok else 'FAIL'}")
            if not ok:
                residual_failed = True

        if ds.data_kind == "both" and not short:
            dn_conv, _ = transform.stress_to_dn(ds.stress(), patch)
            cut = slice(geometry.MARGIN, -geometry.MARGIN)
            deviation = max(
                float(np.max(np.abs(dn_conv.dnu.c1.values - ds.dnu1[cut]))),
                float(np.max(np.abs(dn_conv.dnu.c2.values - ds.dnu2[cut]))),
                float(np.max(np.abs(dn_conv.p.values - ds.p[cut]))),
            )
            # the stencil error amplified through the solve carries a larger
            # constant than the raw residual, so this check gets headroom
            cross_tol = 50.0 * tol
            ok = deviation <= cross_tol
            print(f"cross-format max deviation = {deviation:.17g} (tol {cross_tol:.17g}): "
                  f"{'pass' if ok else 'FAIL'}")
            if not ok:
                residual_failed = True

    if invariant_failed:
        return EXIT_INVARIANT
    if residual_failed:
        return EXIT_RESIDUAL
    return EXIT_OK


def _cmd_partition(args) -> int:
    try:
        curve = parse_curve_spec(args.curve, _parse_range(args.x1_range))
        patches = geometry.partition_curve(
            curve, max_slope=args.max_slope, overlap_fraction=args.overlap,
            nodes_per_patch=args.nodes)
    except (CurveSpecError, ValueError) as exc:
        return _fail(EXIT_MALFORMED, str(exc))
    dataio.write_patch_set(args.out, patches)
    max_slope_seen = max(float(np.max(np.abs(p.gamma_prime))) for p in patches)
    print(f"wrote {args.out}")
    print(f"patches = {len(patches)}")
    print(f"max |gamma'| = {max_slope_seen:.17g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cauchyflow",
        description="Convert 2D incompressible-flow boundary data between the "
                    "(u, normal derivative, p) and (u, traction) formats.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an analytic oracle dataset")
    gen.add_argument("--flow", required=True, help=f"one of {sorted(manufactured.FLOWS)}")
    gen.add_argument("--pressure", required=True, help=f"one of {sorted(manufactured.PRESSURES)}")
    gen.add_argument("--viscosity", required=True, help=f"one of {sorted(manufactured.VISCOSITIES)}")
    gen.add_argument("--curve", required=True, help="circle:R | ellipse:A,B | graph:poly:c0,c1,...")
    gen.add_argument("--nodes", type=int, required=True, help="nodes per patch, margins included")
    gen.add_argument("--out", required=True)
    gen.add_argument("--csv", default=None, help="also write a flat CSV export")
    gen.add_argument("--x1-range", default="-1,1", help="abscissa range for graph curves (use --x1-range=LO,HI)")
    gen.add_argument("--max-slope", type=float, default=1.0)
    gen.add_argument("--overlap", type=float, default=0.2)
    gen.set_defaults(func=_cmd_generate)

    conv = sub.add_parser("convert", help="convert a dataset between the two formats")
    conv.add_argument("direction", choices=("stress-to-dn", "dn-to-stress"))
    conv.add_argument("--in", dest="input", required=True)
    conv.add_argument("--out", dest="output", required=True)
    conv.add_argument("--residual-tol", type=float, default=None,
                      help="override the 10 h^4 (data scale) default; traction data carry "
                           "no redundant relation, so stress-to-dn reports a residual of 0 "
                           "and never exits 4")
    conv.add_argument("--csv", default=None)
    conv.set_defaults(func=_cmd_convert)

    ver = sub.add_parser("verify", help="audit invariants and data consistency")
    ver.add_argument("input")
    ver.add_argument("--residual-tol", type=float, default=None)
    ver.add_argument("--max-slope", type=float, default=1.0)
    ver.set_defaults(func=_cmd_verify)

    part = sub.add_parser("partition", help="cover a curve with graph patches")
    part.add_argument("--curve", required=True)
    part.add_argument("--max-slope", type=float, default=1.0)
    part.add_argument("--overlap", type=float, default=0.2)
    part.add_argument("--nodes", type=int, default=64)
    part.add_argument("--out", required=True)
    part.add_argument("--x1-range", default="-1,1")
    part.set_defaults(func=_cmd_partition)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def console() -> None:
    sys.exit(main())
