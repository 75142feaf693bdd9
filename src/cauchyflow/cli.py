"""Batch front end: generate oracle datasets, convert, verify, partition.

Exit codes form a stable contract:
    0  success
    1  standard output closed before everything was printed (`__main__.console`)
    2  usage error (argparse's usage text and one "error:" line, as for no
       command, --nodes x or --flow nosuch) or missing data arrays
    3  malformed input (file, curve spec, --x1-range, a parameter that parses
       but cannot be used), an unwritable output, a size too large for memory,
       or `generate` data that fail its own data checks
    4  a data check above its tolerance (output still written; never
       from `convert stress-to-dn`, whose residual is always 0)
    5  invariant violation (positivity, grid uniformity, slope bound)

`main` sends every ValueError (DatasetFormatError included) and MemoryError
a command raises to exit 3 with one "error:" line, never a traceback. Local
handlers map elsewhere: `generate` names the patch and removes what it wrote,
`convert` sends a failed patch check to exit 5, and `verify` reports one as
"patch invariants: FAIL" (exit 5) and, with no --residual-tol, a patch of
fewer nodes than the error model needs as "skipped".
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import dataio, geometry, manufactured, transform

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MALFORMED = 3
EXIT_RESIDUAL = 4
EXIT_INVARIANT = 5

# partition_curve's parameters, named in its errors, and the flags that set them
_PARTITION_FLAGS = {"max_slope": "--max-slope", "overlap_fraction": "--overlap",
                    "nodes_per_patch": "--nodes"}


def parse_curve_spec(spec: str, x1_range: str = "-1,1") -> geometry.ParametricCurve:
    """Builtin curve specs: circle:R, ellipse:A,B, graph:poly:c0,c1,... over x1_range "LO,HI"."""
    head, _, rest = spec.partition(":")
    if head == "graph":  # a range that is not two numbers is the flag's fault, not the spec's
        try:
            lo, hi = (float(v) for v in x1_range.split(","))
        except ValueError:
            raise ValueError(f"--x1-range must be two numbers LO,HI, got {x1_range!r}") from None
    try:
        if head == "circle":
            return geometry.circle(float(rest))
        if head == "ellipse":
            axes = [float(v) for v in rest.split(",")]
            if len(axes) != 2:
                raise ValueError("ellipse specs take the form ellipse:A,B")
            return geometry.ellipse(*axes)
        if head == "graph":
            sub, _, coeff_text = rest.partition(":")
            if sub != "poly" or not coeff_text:
                raise ValueError("graph specs take the form graph:poly:c0,c1,...")
            coeffs = [float(v) for v in coeff_text.split(",")]
            return geometry.polynomial_graph(coeffs, lo, hi)
    except ValueError as exc:
        raise ValueError(f"malformed curve spec {spec!r}: {exc}") from exc
    raise ValueError(f"unrecognized curve spec {spec!r}")


def _curve_patches(args, mu=1.0) -> list[geometry.BoundaryPatch]:
    """Cover the --curve spec with patches as --max-slope, --overlap and --nodes ask."""
    curve = parse_curve_spec(args.curve, args.x1_range)
    try:
        return geometry.partition_curve(curve, max_slope=args.max_slope,
                                        overlap_fraction=args.overlap, nodes_per_patch=args.nodes,
                                        mu=mu)
    except ValueError as exc:
        message = str(exc)
        for name, flag in _PARTITION_FLAGS.items():
            message = message.replace(name, flag)
        raise ValueError(message) from None


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _fails(value: float, tol: float) -> bool:
    return not value <= tol  # a data check above its tolerance, or NaN


def _numbered_paths(out_path: str, count: int) -> list[Path]:
    out = Path(out_path)
    if count == 1:
        return [out]
    return [out.with_name(f"{out.stem}-p{k:02d}{out.suffix}") for k in range(count)]


def _check_limits(residual_tol, max_slope=None) -> None:
    """Raise ValueError if a --residual-tol or --max-slope value cannot be used."""
    if residual_tol is not None and not residual_tol >= 0:
        raise ValueError(f"--residual-tol must be a non-negative number, got {residual_tol}")
    if max_slope is not None:
        geometry.positive_finite("--max-slope", max_slope)


def _cmd_generate(args) -> int:
    flow = manufactured.FLOWS[args.flow]
    pressure = manufactured.PRESSURES[args.pressure]
    viscosity = manufactured.VISCOSITIES[args.viscosity]
    patches = _curve_patches(args, viscosity.value)
    provenance = {"flow": args.flow, "pressure": args.pressure,
                  "viscosity": args.viscosity, "curve": args.curve, "max_slope": args.max_slope}
    paths = _numbered_paths(args.out, len(patches))
    csv_paths = _numbered_paths(args.csv, len(patches)) if args.csv else None
    written = []
    for k, (patch, path) in enumerate(zip(patches, paths)):
        try:
            dn, stress, _ = manufactured.evaluate_traces(flow, pressure, viscosity, patch)
            if patch.n >= transform.MODEL_NODES:  # as verify, which skips shorter patches
                ratios = [value / tol if tol else np.inf for _, value, tol in
                          transform.data_checks(patch, dn, stress.traction) if _fails(value, tol)]
                if ratios:  # exact data fail only where the grid is too coarse
                    raise ValueError(f"the data checks fail at {max(ratios):.3g} times their tolerance: "
                                     "the grid does not resolve the flow; use more --nodes or a smaller curve")
            ds = dataio.dataset_from_traces(patch, dn=dn, stress=stress,
                                            provenance=provenance | {"patch_index": str(k)})
            dataio.write_dataset(path, ds)
            written.append(path)
            if csv_paths:
                dataio.write_csv(csv_paths[k], ds)
                written.append(csv_paths[k])
        except ValueError as exc:  # DatasetFormatError included: non-finite values, write errors
            for done in written:  # a refused run leaves no file
                done.unlink(missing_ok=True)
            return _fail(EXIT_MALFORMED, f"patch {k}: {exc}")
        print(f"wrote {path} ({patch.n} nodes, data_kind=both)")
    return EXIT_OK


def _cmd_convert(args) -> int:
    _check_limits(args.residual_tol)
    ds = dataio.read_dataset(args.input)
    try:
        ds.patch.validate()
    except ValueError as exc:
        return _fail(EXIT_INVARIANT, f"patch invariant violated: {exc}")

    to_dn = args.direction == "stress-to-dn"
    if to_dn and ds.data_kind == "dn":
        return _fail(EXIT_USAGE, "input has no traction arrays (t1, t2)")
    if not to_dn and ds.data_kind == "stress":
        return _fail(EXIT_USAGE, "input has no (dnu1, dnu2, p) arrays")

    tol = args.residual_tol
    if to_dn:  # traction data have no residual to bound
        tol = 0.0 if tol is None else tol
    else:
        dn = ds.dn()
        tol = transform.tolerance(ds.patch, dn)[0] if tol is None else tol
    inner = ds.patch.interior()  # a patch too short to restrict is refused before either conversion
    converted, residual = (transform.stress_to_dn(ds.stress(), ds.patch) if to_dn
                           else transform.dn_to_stress(dn, ds.patch))
    provenance = (ds.provenance or {}) | {"converted": args.direction}
    kind = "dn" if to_dn else "stress"
    out = dataio.dataset_from_traces(inner, provenance=provenance, **{kind: converted})
    dataio.write_dataset(args.output, out)
    if args.csv:
        dataio.write_csv(args.csv, out)
    print(f"wrote {args.output} ({out.patch.n} nodes, data_kind={out.data_kind})")
    print(f"max consistency residual = {residual:.17g}")
    print(f"residual tolerance = {tol:.17g}")
    return EXIT_RESIDUAL if _fails(residual, tol) else EXIT_OK


def _cmd_verify(args) -> int:
    _check_limits(args.residual_tol, args.max_slope)
    ds = dataio.read_dataset(args.input)
    max_slope = args.max_slope
    if max_slope is None:  # the bound generate recorded, else 1.0
        max_slope = (ds.provenance or {}).get("max_slope", 1.0)
        geometry.positive_finite("provenance max_slope", max_slope)

    try:
        ds.patch.validate(max_slope=max_slope)
    except ValueError as exc:
        print(f"patch invariants: FAIL ({exc})")
        return EXIT_INVARIANT
    print("patch invariants: pass")
    if ds.data_kind == "stress":
        return EXIT_OK

    if args.residual_tol is None and ds.patch.n < transform.MODEL_NODES:  # as generate skips them
        print(f"consistency and cross-format checks: skipped ({ds.patch.n} nodes, fewer than the "
              f"{transform.MODEL_NODES} the error model needs)")
        return EXIT_OK
    traction = ds.stress().traction if ds.data_kind == "both" else None
    checks = transform.data_checks(ds.patch, ds.dn(), traction, args.residual_tol)
    for name, value, tol in checks:
        print(f"{name} = {value:.17g} (tol {tol:.17g}): {'FAIL' if _fails(value, tol) else 'pass'}")
    return EXIT_RESIDUAL if any(_fails(value, tol) for _, value, tol in checks) else EXIT_OK


def _cmd_partition(args) -> int:
    patches = _curve_patches(args)
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
    curve = argparse.ArgumentParser(add_help=False)  # the flags generate and partition share
    curve.add_argument("--curve", required=True, help="circle:R | ellipse:A,B | graph:poly:c0,c1,...")
    curve.add_argument("--out", required=True)
    curve.add_argument("--x1-range", default="-1,1",
                       help="abscissa range for graph curves (use --x1-range=LO,HI)")
    curve.add_argument("--max-slope", type=float, default=1.0)
    curve.add_argument("--overlap", type=float, default=0.2,
                       help="least overlap of consecutive patches, a fraction of their arc in "
                            "[0, 0.5); values below 0.05 give 0.05")

    gen = sub.add_parser("generate", parents=[curve], help="write an analytic oracle dataset")
    gen.add_argument("--flow", required=True, choices=sorted(manufactured.FLOWS))
    gen.add_argument("--pressure", required=True, choices=sorted(manufactured.PRESSURES))
    gen.add_argument("--viscosity", required=True, choices=sorted(manufactured.VISCOSITIES))
    gen.add_argument("--nodes", type=int, required=True, help="nodes per patch, margins included")
    gen.add_argument("--csv", default=None, help="also write a flat CSV export")
    gen.set_defaults(func=_cmd_generate)

    conv = sub.add_parser("convert", help="convert a dataset between the two formats")
    conv.add_argument("direction", choices=("stress-to-dn", "dn-to-stress"))
    conv.add_argument("--in", dest="input", required=True)
    conv.add_argument("--out", dest="output", required=True)
    conv.add_argument("--residual-tol", type=float, default=None,
                      help="override the stencil error bound the data imply; the residual is the "
                           "boundary divergence tau.a + nu.dnu, with a the tangential "
                           "derivative of u; traction data carry no redundant relation, so "
                           "stress-to-dn reports a residual of 0 and never exits 4")
    conv.add_argument("--csv", default=None)
    conv.set_defaults(func=_cmd_convert)

    ver = sub.add_parser("verify", help="audit invariants and data consistency")
    ver.add_argument("input")
    ver.add_argument("--residual-tol", type=float, default=None,
                     help="tolerance of both data checks; default: the stencil error bound "
                          "implied by the arrays each check reads")
    ver.add_argument("--max-slope", type=float, default=None,
                     help="slope bound to audit; default: the max_slope generate recorded, else 1.0")
    ver.set_defaults(func=_cmd_verify)

    part = sub.add_parser("partition", parents=[curve], help="cover a curve with graph patches")
    part.add_argument("--nodes", type=int, default=64)
    part.set_defaults(func=_cmd_partition)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # overflow on finite data near the float limit already shows as inf or
        # nan in the checks and outputs; numpy's RuntimeWarnings add nothing
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return args.func(args)
        except ValueError as exc:  # DatasetFormatError included: every malformed input or output
            return _fail(EXIT_MALFORMED, str(exc))
        except MemoryError as exc:  # e.g. a --nodes value whose arrays cannot be allocated
            return _fail(EXIT_MALFORMED, str(exc) or "out of memory")
