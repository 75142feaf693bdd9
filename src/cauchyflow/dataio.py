"""On-disk formats: boundary datasets, patch sets, and CSV export.

A dataset file is a flat JSON document carrying one patch plus boundary
data arrays; a patch-set file carries a list of patches. All numbers are
written with 17 significant digits, which round-trips IEEE doubles bit
for bit, and the writer emits keys in a fixed order so repeated runs
produce byte-identical files.

Dataset schema (format_version 1):

    {
      "format_version": 1,
      "patch": {"frame_angle", "h", "orientation",
                "x1_nodes", "gamma", "gamma_prime", "mu"},
      "data_kind": "dn" | "stress" | "both",
      "u1", "u2",                      always present
      "dnu1", "dnu2", "p",             for kinds "dn" and "both"
      "t1", "t2",                      for kinds "stress" and "both"
      "provenance": {...}              optional free-form strings
    }
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import ORIENTATIONS, BoundaryPatch
from .traces import ScalarTrace, VectorTrace
from .transform import CauchyDN, CauchyStress

FORMAT_VERSION = 1
DATA_KINDS = ("dn", "stress", "both")

_PATCH_KEYS = ("frame_angle", "h", "orientation", "x1_nodes", "gamma", "gamma_prime", "mu")
_KIND_ARRAYS = {
    "dn": ("u1", "u2", "dnu1", "dnu2", "p"),
    "stress": ("u1", "u2", "t1", "t2"),
    "both": ("u1", "u2", "dnu1", "dnu2", "p", "t1", "t2"),
}
_CSV_COLUMNS = ("x1", "gamma", "gamma_prime", "mu",
                "u1", "u2", "dnu1", "dnu2", "p", "t1", "t2")


class DatasetFormatError(ValueError):
    """Raised for structurally malformed dataset or patch-set documents."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """One patch with its boundary data arrays, mirroring the file schema."""

    patch: BoundaryPatch
    data_kind: str
    u1: np.ndarray
    u2: np.ndarray
    dnu1: np.ndarray | None = None
    dnu2: np.ndarray | None = None
    p: np.ndarray | None = None
    t1: np.ndarray | None = None
    t2: np.ndarray | None = None
    provenance: dict | None = None

    def __post_init__(self):
        if self.data_kind not in DATA_KINDS:
            raise DatasetFormatError(f"unknown data_kind {self.data_kind!r}")
        required = _KIND_ARRAYS[self.data_kind]
        for name in ("u1", "u2", "dnu1", "dnu2", "p", "t1", "t2"):
            value = getattr(self, name)
            if name in required:
                if value is None:
                    raise DatasetFormatError(f"data_kind {self.data_kind!r} requires array {name!r}")
                arr = np.atleast_1d(np.asarray(value, dtype=float))
                if arr.shape != (self.patch.n,):
                    raise DatasetFormatError(f"array {name!r} does not match the patch grid")
                object.__setattr__(self, name, arr)
            elif value is not None:
                raise DatasetFormatError(f"array {name!r} is inconsistent with data_kind {self.data_kind!r}")

    @property
    def arrays(self) -> dict:
        return {name: getattr(self, name) for name in _KIND_ARRAYS[self.data_kind]}

    def dn(self) -> CauchyDN:
        if self.data_kind == "stress":
            raise ValueError("dataset carries no normal-derivative data")
        h = self.patch.h
        return CauchyDN(
            VectorTrace.from_arrays(self.u1, self.u2, h),
            VectorTrace.from_arrays(self.dnu1, self.dnu2, h),
            ScalarTrace(self.p, h),
        )

    def stress(self) -> CauchyStress:
        if self.data_kind == "dn":
            raise ValueError("dataset carries no traction data")
        h = self.patch.h
        return CauchyStress(
            VectorTrace.from_arrays(self.u1, self.u2, h),
            VectorTrace.from_arrays(self.t1, self.t2, h),
        )


def dataset_from_traces(patch: BoundaryPatch, dn: CauchyDN | None = None,
                        stress: CauchyStress | None = None,
                        provenance: dict | None = None) -> Dataset:
    """Bundle in-memory boundary data into a Dataset of the right kind."""
    if dn is None and stress is None:
        raise ValueError("need at least one of dn or stress data")
    u = (dn or stress).u
    fields = {"u1": u.c1.values, "u2": u.c2.values}
    if dn is not None:
        fields |= {"dnu1": dn.dnu.c1.values, "dnu2": dn.dnu.c2.values, "p": dn.p.values}
    if stress is not None:
        fields |= {"t1": stress.traction.c1.values, "t2": stress.traction.c2.values}
    kind = "both" if dn is not None and stress is not None else ("dn" if dn is not None else "stress")
    return Dataset(patch=patch, data_kind=kind, provenance=provenance, **fields)


def _fmt(value) -> str:
    v = float(value)
    if not math.isfinite(v):
        raise DatasetFormatError("cannot serialize non-finite value")
    return format(v, ".17g")


def _fmt_array(values) -> str:
    return "[" + ", ".join(_fmt(v) for v in np.asarray(values, dtype=float)) + "]"


def _patch_text(patch: BoundaryPatch, indent: str) -> str:
    inner = indent + "  "
    lines = [
        f'{inner}"frame_angle": {_fmt(patch.frame_angle)},',
        f'{inner}"h": {_fmt(patch.h)},',
        f'{inner}"orientation": {json.dumps(patch.orientation)},',
        f'{inner}"x1_nodes": {_fmt_array(patch.x1)},',
        f'{inner}"gamma": {_fmt_array(patch.gamma)},',
        f'{inner}"gamma_prime": {_fmt_array(patch.gamma_prime)},',
        f'{inner}"mu": {_fmt_array(patch.mu)}',
    ]
    return "{\n" + "\n".join(lines) + "\n" + indent + "}"


def dumps_dataset(ds: Dataset) -> str:
    lines = ['{', f'  "format_version": {FORMAT_VERSION},',
             f'  "patch": {_patch_text(ds.patch, "  ")},',
             f'  "data_kind": {json.dumps(ds.data_kind)},']
    names = _KIND_ARRAYS[ds.data_kind]
    for i, name in enumerate(names):
        tail = "," if (i + 1 < len(names) or ds.provenance is not None) else ""
        lines.append(f'  "{name}": {_fmt_array(getattr(ds, name))}{tail}')
    if ds.provenance is not None:
        lines.append(f'  "provenance": {json.dumps(ds.provenance, sort_keys=True)}')
    lines.append('}')
    return "\n".join(lines) + "\n"


def write_dataset(path, ds: Dataset) -> None:
    Path(path).write_text(dumps_dataset(ds), encoding="utf-8")


def _reject_constant(name):
    raise DatasetFormatError(f"non-finite number {name!r} in document")


def _load_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"invalid JSON in {path}: {exc}") from exc


def _floats(values, key) -> np.ndarray:
    """A list of JSON numbers as floats; booleans and overflowing literals fail."""
    # type(), not isinstance: JSON true/false load as bool, a subclass of int
    if not all(type(v) in (int, float) for v in values):
        raise DatasetFormatError(f"field {key!r} must hold numbers only")
    try:
        arr = np.asarray(values, dtype=float)
        if np.all(np.isfinite(arr)):  # a float literal such as 1e400 loads as inf
            return arr
    except OverflowError:  # an integer literal such as 10**400
        pass
    raise DatasetFormatError(f"field {key!r} holds a number beyond the float range")


def _number_array(doc, key, length=None):
    values = doc.get(key)
    if not isinstance(values, list):
        raise DatasetFormatError(f"field {key!r} must be a numeric array")
    arr = _floats(values, key)
    if length is not None and arr.shape != (length,):
        raise DatasetFormatError(f"field {key!r} has the wrong length")
    return arr


def _patch_from_doc(doc) -> BoundaryPatch:
    if not isinstance(doc, dict) or set(doc) != set(_PATCH_KEYS):
        raise DatasetFormatError("patch object must carry exactly the patch fields")
    if doc["orientation"] not in ORIENTATIONS:
        raise DatasetFormatError("patch orientation must be 'below' or 'above'")
    frame_angle, h = (float(_floats([doc[key]], key)[0]) for key in ("frame_angle", "h"))
    x1 = _number_array(doc, "x1_nodes")
    n = x1.shape[0]
    if n < 2:
        raise DatasetFormatError("patch needs at least 2 nodes")
    patch = BoundaryPatch(
        frame_angle,
        x1,
        _number_array(doc, "gamma", n),
        _number_array(doc, "gamma_prime", n),
        _number_array(doc, "mu", n),
        doc["orientation"],
    )
    if not math.isclose(patch.h, h, rel_tol=1e-12, abs_tol=0.0):
        raise DatasetFormatError("stored spacing h disagrees with the x1 grid")
    return patch


def read_dataset(path) -> Dataset:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise DatasetFormatError("dataset document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise DatasetFormatError("unsupported or missing format_version")
    kind = doc.get("data_kind")
    if kind not in DATA_KINDS:
        raise DatasetFormatError(f"unknown data_kind {kind!r}")
    patch = _patch_from_doc(doc.get("patch"))
    arrays = {name: _number_array(doc, name, patch.n) for name in _KIND_ARRAYS[kind]}
    provenance = doc.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        raise DatasetFormatError("provenance must be an object")
    return Dataset(patch=patch, data_kind=kind, provenance=provenance, **arrays)


def dumps_patch_set(patches) -> str:
    body = ",\n".join("    " + _patch_text(p, "    ") for p in patches)
    return ('{\n  "format_version": %d,\n  "patches": [\n%s\n  ]\n}\n'
            % (FORMAT_VERSION, body))


def write_patch_set(path, patches) -> None:
    Path(path).write_text(dumps_patch_set(patches), encoding="utf-8")


def read_patch_set(path) -> list[BoundaryPatch]:
    doc = _load_json(path)
    if not isinstance(doc, dict) or doc.get("format_version") != FORMAT_VERSION:
        raise DatasetFormatError("unsupported or missing format_version")
    items = doc.get("patches")
    if not isinstance(items, list) or not items:
        raise DatasetFormatError("patch-set document must carry a non-empty patch list")
    return [_patch_from_doc(item) for item in items]


def write_csv(path, ds: Dataset) -> None:
    """Flat export with one row per node; absent columns stay empty."""
    present = ds.arrays
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_COLUMNS)
        patch_cols = {"x1": ds.patch.x1, "gamma": ds.patch.gamma,
                      "gamma_prime": ds.patch.gamma_prime, "mu": ds.patch.mu}
        for i in range(ds.patch.n):
            row = []
            for name in _CSV_COLUMNS:
                if name in patch_cols:
                    row.append(_fmt(patch_cols[name][i]))
                elif name in present:
                    row.append(_fmt(present[name][i]))
                else:
                    row.append("")
            writer.writerow(row)
