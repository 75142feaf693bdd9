"""On-disk formats: boundary datasets, patch sets, and CSV export.

A dataset file is a flat JSON document carrying one patch plus boundary
data arrays; a patch-set file carries a list of patches. Numbers have 17
significant digits, which round-trips IEEE doubles bit for bit (-0.0 is
written as -0 and read back as -0.0), and keys come in a fixed order, so
repeated runs write identical bytes. Writes stream a block at a time:
each number array is formatted _ARRAY_VALUES values at a time, and a CSV
file _CSV_ROWS rows at a time, so a write holds one block's text. The
bytes are always "%.17g"'s: a block of _VECTOR_VALUES or more values, not
all integers and nearly all from 1e-6 to 1e17 (_g17_pays), takes its
digits from exact products by powers of ten in array passes (_fmt_g17),
any other block from "%.17g" itself. Data a
write refuses, such as a non-finite value, are refused before the file
is opened, so they create no file.
BoundaryPatch and Dataset judge what they hold, for the writer and the
reader alike: a patch's array lengths, orientation and node count; a
dataset's data_kind, arrays and provenance (_check_provenance). The
reader adds only the format's own rules: encoding, JSON syntax, number
types and range, the top-level and patch key sets, format_version,
data_kind, stored h.
Reads stream too: a well-formed file is read through a window of text
that drops what is parsed, and a number array is decoded to floats a
window of text at a time, so a read holds one window's text and list
beside the float arrays. A read that fails passes the file to one
json.loads, which names the fault. A file that cannot be written or read
raises DatasetFormatError.

Dataset schema (format_version 1):

    {
      "format_version": 1,
      "patch": {"frame_angle", "h", "orientation",
                "x1_nodes", "gamma", "gamma_prime", "mu"},
      "data_kind": "dn" | "stress" | "both",
      "u1", "u2",                      always present
      "dnu1", "dnu2", "p",             for kinds "dn" and "both"
      "t1", "t2",                      for kinds "stress" and "both"
      "provenance": {...}              optional: JSON objects with string keys,
                                       lists, strings, finite numbers, booleans
                                       and null, at most 200 containers deep
    }
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryPatch
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
_DATASET_KEYS = ("format_version", "patch", "data_kind", *_KIND_ARRAYS["both"], "provenance")
_CSV_ROWS = 1024  # CSV rows formatted per write
_ARRAY_VALUES = 1024  # JSON array values formatted per write
_VECTOR_VALUES = 256  # values in the shortest block _fmt_g17 formats
_CHUNK_CHARS = 1 << 16  # characters a read adds to its window, at least
_PROVENANCE_DEPTH = 200  # containers in a provenance, itself included; far below any recursion limit


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
        if not isinstance(self.provenance, (dict, type(None))):
            raise DatasetFormatError("provenance must be an object")
        _check_provenance(self.provenance)

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
    # before the file is opened, so a refused write leaves no file; min and max carry NaN and inf
    if not all(np.isfinite(np.min(v)) and np.isfinite(np.max(v)) for v in values):
        raise DatasetFormatError("cannot serialize non-finite value")


def _patch_values(patch: BoundaryPatch) -> tuple:
    return patch.frame_angle, patch.h, patch.x1, patch.gamma, patch.gamma_prime, patch.mu


def _fmt_array(values: np.ndarray):
    """The JSON text of a float array: "[", the text of each block of _ARRAY_VALUES values, "]"."""
    yield "["
    for i in range(0, values.size, _ARRAY_VALUES):
        block = values[i:i + _ARRAY_VALUES]
        # one %-template ("%.17g" prints what format(v, ".17g") does) for a
        # block that _fmt_g17's array passes would not speed up
        yield (", " if i else "") + (
            _fmt_g17(block) if _g17_pays(block) else ", ".join(["%.17g"] * block.size) % tuple(block.tolist()))
    yield "]"


def _split(a):
    """Veltkamp's split of `a` into hi + lo, each of at most 26 significant bits."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


@functools.cache  # built on first use, so a process that formats no long block pays nothing
def _g17_tables():
    """_fmt_g17's pieces of a row, as little-endian uint16 character pairs, NUL where nothing prints.

    "00" .. "99" with a point after each digit; per X (-5 and 17 stand for
    e-notation) and count of digits, the mask of the 17 digit slots that
    print their digit (0xFF) or point (0x2E00); per X and sign, the sign and
    "0.000"; per X, the exponent and ", ".
    """
    pairs = (np.indices((10, 10)).reshape(2, -1).T + 0x2E30).astype("<u2", order="C")
    x = np.arange(-5, 18, dtype=np.int8)[:, None, None]
    point = np.where((x >= -4) & (x <= 16), x, 0)  # the digit a point may follow
    k, count = np.arange(17, dtype=np.int8), np.arange(18, dtype=np.int8)[:, None]
    mask = ((k < np.maximum(count, point + 1)) * np.uint16(0xFF)
            | ((k == point) & (count > point + 1)) * np.uint16(0x2E00))
    head = b"".join((b"-" if neg else b"\0") + (b"0.000"[:1 - x] if -4 <= x < 0 else b"").ljust(5, b"\0")
                    for x in range(-5, 18) for neg in (0, 1))
    tail = b"".join((b"" if -4 <= x < 17 else b"e%+03d" % x).ljust(5, b"\0") + b", \0"
                    for x in range(-324, 309))
    return (pairs.view("<u4").ravel(), mask.reshape(-1, 17).astype("<u2"),
            np.frombuffer(head, "<u2").reshape(-1, 3), np.frombuffer(tail, "<u2").reshape(-1, 4))


_TEN = np.array([10 ** k for k in range(23)], dtype=float)  # each exact in a double


def _g17_pays(block) -> bool:
    """Whether _fmt_g17 beats "%.17g" on a block: at least _VECTOR_VALUES values,
    not all integers (dtoa is fast on those), and at most one in 16 of them
    outside the reach of _digits17's product, which "%.16e" formats one by one.
    """
    a = np.abs(block)
    return (block.size >= _VECTOR_VALUES and not (a == np.rint(a)).all()
            and 16 * np.count_nonzero((a >= 1e17) | ((a < 1e-6) & (a > 0))) <= block.size)


def _digits17(a):
    """(N, X) of each finite a >= 0: the 17 significant digits and exponent of "%.17g", (0, 0) for 0.

    N rounds a 10^q = p + e half to even, q = 16 - floor(log10 a). For
    1e-6 <= a < 1e17, 10^q is an exact double (0 <= q <= 22) and Dekker's
    product gives p + e exactly; p is an even integer, so N = p + rint(e).
    Where that is not proven (a outside that range, or log10 missed by one
    near a power of ten), N and X come from "%.16e".
    """
    x = np.floor(np.log10(np.where(a > 0, a, 1.0)))
    ok = (a > 0) & (x >= -6) & (x <= 16)
    a1, b = np.where(ok, a, 1.0), _TEN.take(np.where(ok, 16 - x, 0).astype(np.intp))
    p = a1 * b
    (ah, al), (bh, bl) = _split(a1), _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # p + e = a1 b exactly
    r = np.rint(e)
    n = p.astype(np.int64) + r.astype(np.int64)
    # 17 digits, and N = 10^16 only if a 10^q >= 10^16
    ok &= (n + (e >= r) > 10 ** 16) & (n < 10 ** 17)
    n, x = np.where(ok, n, 0), np.where(ok, x, 0).astype(np.intp)
    rest = np.flatnonzero(~ok & (a > 0))
    texts = ["%.16e" % value for value in a[rest].tolist()]
    n[rest], x[rest] = [int(s[0] + s[2:18]) for s in texts], [int(s[19:]) for s in texts]
    return n, x


def _fmt_g17(v) -> str:
    """", ".join(["%.17g"] * v.size) % tuple(v.tolist()) of finite `v`: rows of 48 bytes without their NULs."""
    pairs, mask, head, tail = _g17_tables()
    n, x = _digits17(np.abs(v))
    lead, n = np.divmod(n, 10 ** 16)
    quads = np.stack(np.divmod(np.stack(np.divmod(n, 10 ** 8), axis=1).astype(np.uint32), 10 ** 4), axis=2)
    row = np.empty((v.size, 24), "<u2")
    slots = row[:, 3:20]
    slots[:, 0] = lead + 0x2E30
    slots[:, 1:] = pairs.take(np.stack(np.divmod(quads, 100), axis=3).reshape(-1, 8)).view("<u2")
    count = (17 - (slots != 0x2E30)[:, ::-1].argmax(axis=1)) * (lead > 0)  # up to the last nonzero digit
    x5 = np.clip(x, -5, 17) + 5
    slots &= mask.take(18 * x5 + count, axis=0)
    row[:, :3] = head.take(2 * x5 + np.signbit(v), axis=0)
    row[:, 20:] = tail.take(x + 324, axis=0)
    return row.tobytes().translate(None, b"\0")[:-2].decode()


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


def _check_provenance(value, outer=()) -> None:
    """Raise DatasetFormatError unless `value` is a JSON value as the reader makes it.

    json writes a tuple as a list, a key that is not a string as a string and a
    non-finite float bare; `outer` holds the ids of the containers around `value`.
    """
    if type(value) not in (dict, list, str, int, float, bool, type(None)):
        raise DatasetFormatError(f"provenance holds a value of type {type(value).__name__}, not a JSON value")
    if type(value) is float and not math.isfinite(value):
        raise DatasetFormatError("provenance holds a non-finite number")
    if type(value) is int:
        try:
            repr(value)
        except ValueError:  # more digits than int() converts, so the reader refuses it too
            raise DatasetFormatError("provenance holds an integer with too many digits to write") from None
    if type(value) not in (dict, list):
        return
    if id(value) in outer:
        raise DatasetFormatError("provenance contains itself")
    if len(outer) == _PROVENANCE_DEPTH:
        raise DatasetFormatError(f"provenance is nested more than {_PROVENANCE_DEPTH} deep")
    for key in value if type(value) is dict else ():
        if type(key) is not str:
            raise DatasetFormatError(f"provenance key {key!r} is not a string")
    for item in value.values() if type(value) is dict else value:
        _check_provenance(item, (*outer, id(value)))


def write_dataset(path, ds: Dataset) -> None:
    _check_finite(*_patch_values(ds.patch), *ds.arrays.values())
    _check_provenance(ds.provenance)  # again: the dict may have changed since the Dataset was built
    provenance = ("" if ds.provenance is None else
                  f',\n  "provenance": {json.dumps(ds.provenance, sort_keys=True)}')
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

    A well-formed file is read through a _Window; a read that fails there,
    on any fault, passes the file to _parse_whole.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            w = _Window(handle)
            doc, end = _object(w, 0)
            _mark(w, end, "")
    except (OSError, ValueError, RecursionError):
        doc = _parse_whole(path)
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"{path} does not hold a JSON object")
    # type(), as in _floats: JSON true and 1.0 compare equal to the integer 1
    if type(doc.get("format_version")) is not int or doc["format_version"] != FORMAT_VERSION:
        raise DatasetFormatError("unsupported or missing format_version")
    return doc


def _parse_whole(path):
    """The JSON value of the text in `path` by json.loads, which names a fault as in the whole file.

    A byte that is not UTF-8 comes ahead of any other fault, then JSON
    syntax, then _floats on the number lists of the top level and "patch".
    """
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.loads(handle.read(), parse_int=_parse_int, parse_constant=_reject_constant)
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError:  # the decoder recurses once per nesting level
        raise DatasetFormatError(f"invalid JSON in {path}: nested too deeply") from None
    for members in (doc, doc.get("patch")) if isinstance(doc, dict) else ():
        for key, value in members.items() if isinstance(members, dict) else ():
            if key in _NUMBER_ARRAYS and isinstance(value, list):
                members[key] = _floats(value, key)
    return doc


class _Window:
    """The text of an open file read and not yet dropped, and `eof`; an index into it holds until a `fill`."""

    def __init__(self, handle):
        self.handle, self.text, self.eof = handle, "", False
        self.fill(0)

    def fill(self, i) -> int:
        """Drop text[:i], then read _CHUNK_CHARS or len(text) - i characters, whichever is more.

        So the window doubles while a value outgrows it, and a long value is
        decoded a logarithmic number of times. Returns 0, the new index of text[i].
        """
        size = max(_CHUNK_CHARS, len(self.text) - i)
        rest, self.text = self.text[i:], ""  # the old text goes before more is read
        more = self.handle.read(size)  # fewer than `size` characters only at the end
        self.text, self.eof = rest + more, len(more) < size
        return 0


def _skip(w, i) -> int:
    """The index of the first non-space at or after w.text[i], read in unless the file ends first."""
    i = _SPACE(w.text, i).end()
    while i == len(w.text) and not w.eof:
        i = w.fill(i)
        i = _SPACE(w.text, i).end()
    return i


def _mark(w, i, *marks):
    """(mark, index) of the first non-space at or after w.text[i], one of `marks` ("" for the file's end)."""
    i = _skip(w, i)
    if w.text[i:i + 1] not in marks:
        raise ValueError(f"expected one of {marks} at a window's index {i}")
    return w.text[i:i + 1], i


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


def _object(w, i):
    """(dict, end) of the JSON object at the first non-space at or after w.text[i], read a member at a time.

    A list under a _NUMBER_ARRAYS key is decoded a window at a time by
    _float_blocks, and an object under "patch" by _object; every other
    value goes to the decoder whole. A repeated key keeps its last value,
    as in json.loads.
    """
    members = {}
    _, i = _mark(w, i, "{")
    mark, i = _mark(w, i + 1, '"', "}")
    while mark == '"':
        key, i = _decode(w, i)
        _, i = _mark(w, i, ":")
        i = _skip(w, i + 1)
        if key == "patch" and w.text.startswith("{", i):
            members[key], i = _object(w, i)
        elif key in _NUMBER_ARRAYS and w.text.startswith("[", i):
            members[key], i = _float_blocks(w, i, key)
        else:
            members[key], i = _decode(w, i)
        mark, i = _mark(w, i, ",", "}")
        if mark == ",":
            mark, i = _mark(w, i + 1, '"')
    return members, i + 1


def _float_blocks(w, i, key):
    """(float array, end) of the number array opened at w.text[i], decoded a block at a time.

    A block is what the window holds of the array: its values up to the
    window's last comma, or up to the "]" that closes the array. Each block
    becomes floats before the window drops its text and reads on, so a read
    holds one window of text and one block's list, never the array's. A
    block that is not a list of numbers raises, empty blocks between commas
    included.
    """
    blocks = []
    i += 1
    while True:
        close = w.text.find("]", i)
        cut = close if close >= 0 else w.text.rfind(",", i)
        if cut < 0 and not w.eof:  # not one whole value in the window yet
            i = w.fill(i)
            continue
        values = _DECODER.raw_decode("[" + w.text[i:cut] + "]")[0] if cut >= 0 else []
        if not values and (blocks or close < 0):  # "[,", ",,", ",]", or no "]" before the file ends
            raise ValueError("a number array holds an empty item or is not closed")
        blocks.append(_floats(values, key))
        if close >= 0:
            return np.concatenate(blocks) if len(blocks) > 1 else blocks[0], close + 1
        i = w.fill(cut + 1)


def _floats(values, key) -> np.ndarray:
    """A list of JSON numbers as floats; booleans and overflowing literals fail."""
    # type(), not isinstance: JSON true/false load as bool, a subclass of int
    if not set(map(type, values)) <= {int, float}:
        raise DatasetFormatError(f"field {key!r} must hold numbers only")
    try:
        arr = np.asarray(values, dtype=float)
        if np.isfinite(arr).all():  # a float literal such as 1e400 loads as inf
            return arr
    except OverflowError:  # an integer literal such as 10**400
        pass
    raise DatasetFormatError(f"field {key!r} holds a number beyond the float range")


def _number_array(doc, key):
    arr = doc.get(key)  # _load_json made every number array a float array
    if not isinstance(arr, np.ndarray):
        raise DatasetFormatError(f"field {key!r} must be a numeric array")
    return arr


def _patch_from_doc(doc) -> BoundaryPatch:
    if not isinstance(doc, dict) or set(doc) != set(_PATCH_KEYS):
        raise DatasetFormatError("patch object must carry exactly the patch fields")
    frame_angle, h = (float(_floats([doc[key]], key)[0]) for key in ("frame_angle", "h"))
    arrays = [_number_array(doc, key) for key in _PATCH_KEYS[3:]]
    try:
        patch = BoundaryPatch(frame_angle, *arrays, doc["orientation"])
    except ValueError as exc:
        raise DatasetFormatError(str(exc)) from None
    if not math.isclose(patch.h, h, rel_tol=1e-12, abs_tol=0.0):
        raise DatasetFormatError("stored spacing h disagrees with the x1 grid")
    return patch


def read_dataset(path) -> Dataset:
    doc = _load_json(path)
    for key in doc:
        if key not in _DATASET_KEYS:
            raise DatasetFormatError(f"unknown top-level key {key!r}")
    kind = doc.get("data_kind")
    if kind not in DATA_KINDS:
        raise DatasetFormatError(f"unknown data_kind {kind!r}")
    patch = _patch_from_doc(doc.get("patch"))
    # every array the file holds goes to Dataset, which refuses one its kind does not carry
    arrays = {name: _number_array(doc, name) for name in _KIND_ARRAYS["both"]
              if name in doc or name in _KIND_ARRAYS[kind]}
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
