"""On-disk formats: boundary datasets, patch sets, and CSV export.

A dataset file is a flat JSON document carrying one patch plus boundary
data arrays; a patch-set file carries a list of patches. Numbers have 17
significant digits, which round-trips IEEE doubles bit for bit (-0.0 is
written as -0 and read back as -0.0), and keys come in a fixed order, so
repeated runs write identical bytes. Writes stream a block at a time:
each number array is formatted _ARRAY_VALUES values at a time, and a CSV
file _CSV_ROWS rows at a time, so a write holds one block's text. Data a
write refuses, such as a non-finite value, are refused before the file
is opened, so they create no file.
Reads stream too: the file is read through a window of text that drops
what is parsed, and a number array is decoded to floats a window of text
at a time, so a read holds one window's text and list beside the float
arrays. A file that cannot be written or read raises DatasetFormatError.

Dataset schema (format_version 1):

    {
      "format_version": 1,
      "patch": {"frame_angle", "h", "orientation",
                "x1_nodes", "gamma", "gamma_prime", "mu"},
      "data_kind": "dn" | "stress" | "both",
      "u1", "u2",                      always present
      "dnu1", "dnu2", "p",             for kinds "dn" and "both"
      "t1", "t2",                      for kinds "stress" and "both"
      "provenance": {...}              optional free-form strings and finite numbers
    }
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .geometry import ORIENTATIONS, BoundaryPatch
from .traces import ScalarTrace, VectorTrace
from .transform import CauchyDN, CauchyStress, _on_grid

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
_NUMBER_ARRAYS = frozenset(_PATCH_KEYS[3:] + _KIND_ARRAYS["both"])
_CSV_ROWS = 1024  # CSV rows formatted per write
_ARRAY_VALUES = 4096  # JSON array values formatted per write
_CHUNK_CHARS = 1 << 16  # characters a read adds to its window, at least


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
        # what the reader accepts: a JSON object, whose keys are strings
        if self.provenance is not None and not (isinstance(self.provenance, dict)
                                                and all(isinstance(k, str) for k in self.provenance)):
            raise DatasetFormatError("provenance must be an object")

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
    """Bundle in-memory boundary data on the patch grid (_on_grid) into a Dataset of the right kind."""
    if dn is None and stress is None:
        raise ValueError("need at least one of dn or stress data")
    u = (dn or stress).u
    traces = {"u1": u.c1, "u2": u.c2}
    if dn is not None:
        traces |= {"dnu1": dn.dnu.c1, "dnu2": dn.dnu.c2, "p": dn.p}
    if stress is not None:
        traces |= {"t1": stress.traction.c1, "t2": stress.traction.c2}
    kind = "both" if dn is not None and stress is not None else ("dn" if dn is not None else "stress")
    return Dataset(patch=patch, data_kind=kind, provenance=provenance,
                   **dict(zip(traces, _on_grid(patch, *traces.values()))))


def _check_finite(*values) -> None:
    # every value is checked before the file is opened, so a refused write leaves no file
    if not all(np.isfinite(v).all() for v in values):
        raise DatasetFormatError("cannot serialize non-finite value")


def _patch_values(patch: BoundaryPatch) -> tuple:
    return patch.frame_angle, patch.h, patch.x1, patch.gamma, patch.gamma_prime, patch.mu


def _fmt_array(values: np.ndarray):
    """The JSON text of a float array: "[", the text of each block of _ARRAY_VALUES values, "]"."""
    yield "["
    # one %-template per block; "%.17g" prints what format(v, ".17g") does
    for i in range(0, values.size, _ARRAY_VALUES):
        block = values[i:i + _ARRAY_VALUES]
        yield (", " if i else "") + ", ".join(["%.17g"] * block.size) % tuple(block.tolist())
    yield "]"


def _array_chunks(indent, items):
    """'indent"key": [...]' for each (key, array), joined by ",\n", a block of values at a time."""
    for i, (key, values) in enumerate(items):
        yield (",\n" if i else "") + f'{indent}"{key}": '
        yield from _fmt_array(values)


def _patch_chunks(lead: str, patch: BoundaryPatch, indent: str):
    """`lead`, then the patch object, one array at a time."""
    inner = indent + "  "
    yield (f'{lead}{{\n{inner}"frame_angle": {patch.frame_angle:.17g},\n{inner}"h": {patch.h:.17g},\n'
           f'{inner}"orientation": {json.dumps(patch.orientation)},\n')
    yield from _array_chunks(inner, zip(_PATCH_KEYS[3:], _patch_values(patch)[2:]))
    yield "\n" + indent + "}"


def write_dataset(path, ds: Dataset) -> None:
    _check_finite(*_patch_values(ds.patch), *ds.arrays.values())
    try:  # allow_nan=False: bare NaN or Infinity would make a file the reader refuses
        provenance = ("" if ds.provenance is None else
                      f',\n  "provenance": {json.dumps(ds.provenance, sort_keys=True, allow_nan=False)}')
    except ValueError:
        raise DatasetFormatError("cannot serialize non-finite value") from None
    except TypeError as exc:  # a value json has no form for, such as a set
        raise DatasetFormatError(f"cannot serialize provenance: {exc}") from None
    _write_text(path, itertools.chain(
        _patch_chunks(f'{{\n  "format_version": {FORMAT_VERSION},\n  "patch": ', ds.patch, "  "),
        [f',\n  "data_kind": {json.dumps(ds.data_kind)},\n'], _array_chunks("  ", ds.arrays.items()),
        [provenance + "\n}\n"]))


def _write_text(path, chunks, newline=None) -> None:
    """Write an iterable of strings, one at a time, so no whole-file string is built."""
    try:
        with open(path, "w", newline=newline, encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise DatasetFormatError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _reject_constant(name):
    raise DatasetFormatError(f"non-finite number {name!r} in document")


def _parse_int(literal):
    if literal == "-0":  # the writer prints -0.0 so, and int() would read +0
        return -0.0
    try:
        return int(literal)
    except ValueError:  # more digits than int() converts
        raise DatasetFormatError(f"a {len(literal.lstrip('-'))}-digit integer is beyond the float range") from None


_DECODER = json.JSONDecoder(parse_int=_parse_int, parse_constant=_reject_constant)
_SPACE = re.compile(r"[ \t\n\r]*").match  # JSON whitespace


def _load_json(path) -> dict:
    """The JSON object in `path`, with format_version checked.

    A failed parse runs again with the whole text in one window, so that a
    fault is named as in the whole file: its line, column and char, and a
    byte that is not UTF-8 ahead of any other fault.
    """
    try:
        doc = _parse(path, _CHUNK_CHARS)
    except DatasetFormatError:
        doc = _parse(path, None)
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"{path} does not hold a JSON object")
    # type(), as in _floats: JSON true and 1.0 compare equal to the integer 1
    if type(doc.get("format_version")) is not int or doc["format_version"] != FORMAT_VERSION:
        raise DatasetFormatError("unsupported or missing format_version")
    return doc


def _parse(path, chunk):
    """The JSON value in `path`, read through a _Window of `chunk` characters."""
    try:
        with open(path, encoding="utf-8") as handle:
            w = _Window(handle, chunk)
            if w.text.startswith("\ufeff"):  # refused as json.loads refuses it
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", w.text, 0)
            doc, end = _value(w, _skip(w, 0))
            end = _skip(w, end)
            if end != len(w.text):
                raise json.JSONDecodeError("Extra data", w.text, end)
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError:  # the decoder and _value recurse once per nesting level
        raise DatasetFormatError(f"invalid JSON in {path}: nested too deeply") from None
    return doc


class _Window:
    """The text of an open file that is read and not yet dropped; `eof` once it runs to the end.

    An index into `text` holds until the next `fill`. A chunk of None reads the whole file at once.
    """

    def __init__(self, handle, chunk):
        self.handle, self.chunk = handle, chunk
        self.text, self.eof = "", False
        self.fill(0)

    def fill(self, i) -> int:
        """Drop text[:i], then read a chunk or len(text) - i characters, whichever is more.

        So the window doubles while a value outgrows it, and a long value is
        decoded a logarithmic number of times. Returns 0, the new index of text[i].
        """
        size = -1 if self.chunk is None else max(self.chunk, len(self.text) - i)
        rest, self.text = self.text[i:], ""  # the old text goes before more is read
        more = self.handle.read(size)  # fewer than `size` characters only at the end
        self.text, self.eof = rest + more, size < 0 or len(more) < size
        return 0


def _skip(w, i) -> int:
    """The index of the first non-space at or after w.text[i], read in unless the file ends first."""
    i = _SPACE(w.text, i).end()
    while i == len(w.text) and not w.eof:
        i = w.fill(i)
        i = _SPACE(w.text, i).end()
    return i


def _decode(w, i):
    """(value, end) of the JSON value at w.text[i], the window grown until it holds the value."""
    while True:
        try:
            value, end = _DECODER.raw_decode(w.text, i)
            # a number that meets the window's edge, or a "." or an "e" there,
            # may go on past it: "1.5" of "1.5e3"
            if w.eof or type(value) not in (int, float) or w.text[end:end + 1] not in ".eE":
                return value, end
        except json.JSONDecodeError:
            if w.eof:
                raise
        i = w.fill(i)


def _value(w, i, key=None):
    """(value, end) of the JSON value at w.text[i], the member `key` of its object.

    The top-level object, each "patch" object and each object in the
    "patches" list are parsed here one member at a time, and a number array
    is decoded a window at a time by _float_blocks. Every other value goes
    to the decoder whole, and so does a number array when the window holds
    the whole file, so that a fault is named where json.loads names it.
    """
    if key in (None, "patch") and w.text.startswith("{", i):
        members, end = _items(w, i, "}", _member)
        return dict(members), end  # a repeated key keeps its last value, as in json.loads
    if key == "patches" and w.text.startswith("[", i):
        return _items(w, i, "]", _value)
    if key in _NUMBER_ARRAYS and w.text.startswith("[", i) and w.chunk is not None:
        return _float_blocks(w, i, key)
    value, end = _decode(w, i)
    if key in _NUMBER_ARRAYS and isinstance(value, list):
        value = _floats(value, key)
    return value, end


def _float_blocks(w, i, key):
    """(float array, end) of the number array opened at w.text[i], decoded a block at a time.

    A block is what the window holds of the array: its values up to the
    window's last comma, or up to the "]" that closes the array. Each block
    becomes floats before the window drops its text and reads on, so a read
    holds one window of text and one block's list, never the array's. A
    block that is not a list of numbers raises, empty blocks between commas
    included, and the whole-text parse then names the fault.
    """
    blocks = []
    i += 1
    while True:
        close = w.text.find("]", i)
        cut = close if close >= 0 else w.text.rfind(",", i)
        if cut < 0:  # not one whole value in the window yet
            if w.eof:
                raise json.JSONDecodeError("Expecting ',' delimiter", w.text, len(w.text))
            i = w.fill(i)
            continue
        values = _DECODER.raw_decode("[" + w.text[i:cut] + "]")[0]
        if not values and (blocks or close < 0):  # "[,", ",,", ",]"
            raise json.JSONDecodeError("Expecting value", w.text, cut)
        blocks.append(_floats(values, key))
        if close >= 0:
            return np.concatenate(blocks) if len(blocks) > 1 else blocks[0], close + 1
        i = w.fill(cut + 1)


def _member(w, i):
    """((key, value), end) of the object member at w.text[i]."""
    if not w.text.startswith('"', i):
        raise json.JSONDecodeError("Expecting property name enclosed in double quotes", w.text, i)
    key, i = _decode(w, i)
    i = _skip(w, i)
    if not w.text.startswith(":", i):
        raise json.JSONDecodeError("Expecting ':' delimiter", w.text, i)
    value, end = _value(w, _skip(w, i + 1), key)
    return (key, value), end


def _items(w, i, close, parse):
    """(items, end) of the object or array opened at w.text[i], each item read by parse(w, start)."""
    items = []
    i = _skip(w, i + 1)
    if w.text.startswith(close, i):
        return items, i + 1
    while True:
        item, i = parse(w, i)
        items.append(item)
        i = _skip(w, i)
        if w.text.startswith(close, i):
            return items, i + 1
        if not w.text.startswith(",", i):
            raise json.JSONDecodeError("Expecting ',' delimiter", w.text, i)
        i = _skip(w, i + 1)


def _floats(values, key) -> np.ndarray:
    """A list of JSON numbers as floats; booleans and overflowing literals fail."""
    # type(), not isinstance: JSON true/false load as bool, a subclass of int
    if not set(map(type, values)) <= {int, float}:
        raise DatasetFormatError(f"field {key!r} must hold numbers only")
    try:
        arr = np.asarray(values, dtype=float)
        if np.all(np.isfinite(arr)):  # a float literal such as 1e400 loads as inf
            return arr
    except OverflowError:  # an integer literal such as 10**400
        pass
    raise DatasetFormatError(f"field {key!r} holds a number beyond the float range")


def _number_array(doc, key, length=None):
    arr = doc.get(key)  # _value made every number array a float array
    if not isinstance(arr, np.ndarray):
        raise DatasetFormatError(f"field {key!r} must be a numeric array")
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
    kind = doc.get("data_kind")
    if kind not in DATA_KINDS:
        raise DatasetFormatError(f"unknown data_kind {kind!r}")
    patch = _patch_from_doc(doc.get("patch"))
    arrays = {name: _number_array(doc, name, patch.n) for name in _KIND_ARRAYS[kind]}
    return Dataset(patch=patch, data_kind=kind, provenance=doc.get("provenance"), **arrays)


def write_patch_set(path, patches) -> None:
    patches = list(patches)  # checked first, then written
    _check_finite(*(v for patch in patches for v in _patch_values(patch)))

    def chunks():
        yield f'{{\n  "format_version": {FORMAT_VERSION},\n  "patches": [\n'
        for i, patch in enumerate(patches):
            yield from _patch_chunks(",\n    " if i else "    ", patch, "    ")
        yield "\n  ]\n}\n"

    _write_text(path, chunks())


def read_patch_set(path) -> list[BoundaryPatch]:
    doc = _load_json(path)
    items = doc.get("patches")
    if not isinstance(items, list) or not items:
        raise DatasetFormatError("patch-set document must carry a non-empty patch list")
    return [_patch_from_doc(item) for item in items]


def write_csv(path, ds: Dataset) -> None:
    """Flat export with one row per node; absent columns stay empty.

    Rows end in CRLF, as the csv module writes them.
    """
    present = ds.arrays | {"x1": ds.patch.x1, "gamma": ds.patch.gamma,
                           "gamma_prime": ds.patch.gamma_prime, "mu": ds.patch.mu}
    given = [present[name] for name in _CSV_COLUMNS if name in present]
    _check_finite(*given)
    # one %-template per row, as in _fmt_array, filled _CSV_ROWS rows at a time
    row = ",".join("%.17g" if name in present else "" for name in _CSV_COLUMNS) + "\r\n"
    blocks = (np.stack([c[i:i + _CSV_ROWS] for c in given], axis=-1)
              for i in range(0, ds.patch.n, _CSV_ROWS))
    _write_text(path, itertools.chain([",".join(_CSV_COLUMNS) + "\r\n"],
                                      ((row * len(b)) % tuple(b.ravel().tolist()) for b in blocks)),
                newline="")
