import concurrent.futures
import csv
import dataclasses
import json
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cauchyflow import (BoundaryPatch, Dataset, DatasetFormatError, VectorTrace, dataset_from_traces,
                        evaluate_traces, graph_patch, partition_curve, circle, read_dataset,
                        write_csv, write_dataset, write_patch_set, FLOWS, PRESSURES, VISCOSITIES)
from cauchyflow import dataio
from cauchyflow.cli import main
from helpers import UNREADABLE_FILES, read_patch_set, sine_patch


def _sample_dataset(n=16, kind="both", provenance=None):
    patch = sine_patch(n)
    dn, stress, _ = evaluate_traces(FLOWS["trig"], PRESSURES["trig"],
                                    VISCOSITIES["unit"], patch)
    if kind == "dn":
        return dataset_from_traces(patch, dn=dn, provenance=provenance)
    if kind == "stress":
        return dataset_from_traces(patch, stress=stress, provenance=provenance)
    return dataset_from_traces(patch, dn=dn, stress=stress, provenance=provenance)


@pytest.mark.parametrize("kind", ["dn", "stress", "both"])
def test_round_trip_is_bitwise(tmp_path, kind):
    provenance = {"note": "fixture", "grid": [[1, 2], [3.5, [-4]]]}  # lists stay lists
    ds = _sample_dataset(kind=kind, provenance=provenance)
    path = tmp_path / "d.json"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.data_kind == kind
    assert back.provenance == provenance
    for name, arr in ds.arrays.items():
        assert np.array_equal(getattr(back, name), arr), name
    for name in ("x1", "gamma", "gamma_prime", "mu"):
        assert np.array_equal(getattr(back.patch, name), getattr(ds.patch, name))
    assert back.patch.frame_angle == ds.patch.frame_angle


def test_awkward_floats_survive(tmp_path):
    patch = sine_patch(8)
    tricky = np.array([0.1, 1.0 / 3.0, 1e-308, 1e300, -7.25, np.pi, 2.0 ** -52, 0.0])
    ds = Dataset(patch=patch, data_kind="stress", u1=tricky, u2=-tricky,
                 t1=tricky * 3, t2=tricky / 7)
    path = tmp_path / "tricky.json"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert np.array_equal(back.u1, tricky)
    assert np.array_equal(back.t2, tricky / 7)


def test_negative_zero_keeps_its_sign(tmp_path):
    # the writer prints -0.0 as the integer literal -0
    base = sine_patch(8)
    signed = np.array([-0.0, 0.0, -0.0, 1.0, -1.0, 0.0, -0.0, 2.5])
    patch = BoundaryPatch(-0.0, base.x1, signed, -signed, base.mu, base.orientation)
    ds = Dataset(patch=patch, data_kind="stress", u1=signed, u2=-signed, t1=signed[::-1], t2=-signed)
    path = tmp_path / "zeros.json"
    write_dataset(path, ds)
    assert "-0," in path.read_text()
    back = read_dataset(path)
    write_patch_set(tmp_path / "patches.json", [patch])
    (back_patch,) = read_patch_set(tmp_path / "patches.json")
    for got, want in [(getattr(back, k), v) for k, v in ds.arrays.items()] + [
            (getattr(p, k), getattr(patch, k)) for p in (back.patch, back_patch)
            for k in ("frame_angle", "gamma", "gamma_prime")]:
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_write_is_deterministic(tmp_path):
    ds = _sample_dataset(provenance={"b": "2", "a": "1"})
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_dataset(p1, ds)
    write_dataset(p2, ds)
    assert p1.read_bytes() == p2.read_bytes()


def test_kind_array_consistency_enforced():
    patch = sine_patch(8)
    z = np.zeros(8)
    with pytest.raises(DatasetFormatError):
        Dataset(patch=patch, data_kind="dn", u1=z, u2=z)  # missing dnu/p
    with pytest.raises(DatasetFormatError):
        Dataset(patch=patch, data_kind="stress", u1=z, u2=z, t1=z, t2=z, p=z)
    with pytest.raises(DatasetFormatError):
        Dataset(patch=patch, data_kind="stress", u1=z, u2=np.zeros(7), t1=z, t2=z)


def _corrupt(tmp_path, name, mutate):
    good = tmp_path / "good.json"
    if not good.exists():
        write_dataset(good, _sample_dataset(kind="dn"))
    doc = json.loads(good.read_text())
    mutate(doc)
    bad = tmp_path / name
    bad.write_text(json.dumps(doc))
    return bad


def test_malformed_documents_rejected(tmp_path, capsys):
    garbage = tmp_path / "bad.json"
    garbage.write_text("not json at all")
    with pytest.raises(DatasetFormatError):
        read_dataset(garbage)

    def drop_mu(doc):
        del doc["patch"]["mu"]

    def shorten_u1(doc):
        doc["u1"] = doc["u1"][:-1]

    def bump_version(doc):
        doc["format_version"] = 99

    def bad_kind(doc):
        doc["data_kind"] = "mystery"

    def version_true(doc):
        doc["format_version"] = True

    def version_float(doc):
        doc["format_version"] = 1.0

    for name, mutate in [("m1.json", drop_mu), ("m2.json", shorten_u1),
                         ("m3.json", bump_version), ("m4.json", bad_kind),
                         ("m5.json", version_true), ("m6.json", version_float)]:
        with pytest.raises(DatasetFormatError):
            read_dataset(_corrupt(tmp_path, name, mutate))

    # the rest through `cauchyflow verify`: exit 3 and one error line naming the fault
    doc = json.loads((tmp_path / "good.json").read_text())

    def replaced(key, value, in_patch=False):
        edited = json.loads(json.dumps(doc))
        (edited["patch"] if in_patch else edited)[key] = value
        return json.dumps(edited)

    text = json.dumps(doc)
    for k, (content, message) in enumerate([
            ("\ufeff" + text, "Unexpected UTF-8 BOM"),
            (text + " {}", "Extra data"),
            (replaced("patch", {}), "patch object must carry exactly the patch fields"),
            (replaced("u1", {"0": 1.0}), "field 'u1' must be a numeric array"),
            (replaced("orientation", "left", in_patch=True), "orientation must be one of ('below', 'above')"),
            (replaced("x1_nodes", [0.0], in_patch=True), "patch needs at least 2 nodes"),
            (replaced("gamma", doc["patch"]["gamma"][:-1], in_patch=True),
             "patch array gamma does not match the x1 grid"),
            (replaced("h", 1.5 * doc["patch"]["h"], in_patch=True), "stored spacing h disagrees"),
            (replaced("provenance", ["a"]), "provenance must be an object")]):
        bad = tmp_path / f"r{k}.json"
        bad.write_text(content, encoding="utf-8")
        assert main(["verify", str(bad)]) == 3, message
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: [^\n]*{re.escape(message)}[^\n]*\n", err), err

    # no command reads a patch set; the library refuses an empty one
    empty = tmp_path / "no-patches.json"
    empty.write_text('{"format_version": 1, "patches": []}')
    with pytest.raises(DatasetFormatError, match="non-empty patch list"):
        read_patch_set(empty)

    # format_version must be the JSON integer 1: true and 1.0 compare equal to it
    patches = tmp_path / "patches.json"
    write_patch_set(patches, partition_curve(circle(1.0), nodes_per_patch=16))
    for literal in ("true", "1.0"):
        bad = tmp_path / f"patches-{literal}.json"
        bad.write_text(patches.read_text().replace('"format_version": 1,',
                                                   f'"format_version": {literal},', 1))
        with pytest.raises(DatasetFormatError, match="format_version"):
            read_patch_set(bad)
        with pytest.raises(DatasetFormatError, match="format_version"):
            read_dataset(bad)


@pytest.mark.parametrize("reader", [read_dataset, read_patch_set])
@pytest.mark.parametrize("name", sorted(UNREADABLE_FILES))
def test_unreadable_documents_rejected(tmp_path, reader, name):
    content, message = UNREADABLE_FILES[name]
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    with pytest.raises(DatasetFormatError, match=message):
        reader(bad)


def test_nan_rejected_on_read(tmp_path):
    def poison(doc):
        doc["u1"][0] = float("nan")

    bad = _corrupt(tmp_path, "nan.json", poison)
    with pytest.raises(DatasetFormatError):
        read_dataset(bad)


@pytest.mark.parametrize("literal, message", [
    ("true", "numbers only"), ("1" + "0" * 400, "float range"), ("-1e400", "float range"),
    ("1" * 5000, "float range"),
], ids=["bool", "int", "float", "int-beyond-int-digit-limit"])
def test_non_float_literals_rejected(tmp_path, literal, message):
    def in_array(doc):
        doc["u1"][0] = "VALUE"

    def in_patch_array(doc):
        doc["patch"]["gamma"][1] = "VALUE"

    def as_angle(doc):
        doc["patch"]["frame_angle"] = "VALUE"

    def as_spacing(doc):
        doc["patch"]["h"] = "VALUE"

    for k, mutate in enumerate((in_array, in_patch_array, as_angle, as_spacing)):
        bad = _corrupt(tmp_path, f"v{k}.json", mutate)
        bad.write_text(bad.read_text().replace('"VALUE"', literal))
        with pytest.raises(DatasetFormatError, match=message):
            read_dataset(bad)


def test_nonfinite_rejected_on_write(tmp_path):
    # every value is checked before the file is opened, the last array
    # written included, so a refused write leaves no file behind
    patch = sine_patch(8)
    z = np.zeros(8)
    bad = z.copy()
    bad[3] = np.inf
    # and nan, inf or -inf at either end of an array
    ends = [np.where(np.arange(8) == i, v, 0.0) for i in (0, 7) for v in (np.nan, np.inf, -np.inf)]
    for k, arrays in enumerate([dict(u1=bad, u2=z, t1=z, t2=z), dict(u1=z, u2=z, t1=z, t2=bad),
                                *(dict(u1=end, u2=z, t1=z, t2=z) for end in ends)]):
        ds = Dataset(patch=patch, data_kind="stress", **arrays)
        with pytest.raises(DatasetFormatError, match="non-finite"):
            write_dataset(tmp_path / f"x{k}.json", ds)
        assert not (tmp_path / f"x{k}.json").exists()
    mu = patch.mu.copy()
    mu[-1] = np.nan
    last = BoundaryPatch(patch.frame_angle, patch.x1, patch.gamma, patch.gamma_prime, mu,
                         patch.orientation)
    with pytest.raises(DatasetFormatError, match="non-finite"):
        write_patch_set(tmp_path / "set.json", [patch, patch, last])
    assert not (tmp_path / "set.json").exists()


def test_dataset_write_streams_one_array_at_a_time(tmp_path):
    # a 2^15-node "both" file is about 7 MB; built as one string it took
    # about 22 MB of traced memory, one array at a time 2.16 MB. A block of
    # 1792 values at a time (its digits, rows and text) peaks at 0.21 MB,
    # 0.33 MB with _fmt_g17's tables, which the first long write of a
    # process builds: the only write a generate or convert makes. Clearing
    # them measures that write, whatever ran before
    n = 1 << 15
    rng = np.random.default_rng(0)
    arrays = {name: rng.standard_normal(n) for name in ("u1", "u2", "dnu1", "dnu2", "p", "t1", "t2")}
    ds = Dataset(patch=sine_patch(n), data_kind="both", provenance={"note": "fixture"}, **arrays)
    dataio._g17_tables.cache_clear()
    tracemalloc.start()
    try:
        write_dataset(tmp_path / "big.json", ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.35e6
    back = read_dataset(tmp_path / "big.json")
    assert all(np.array_equal(getattr(back, name), arr) for name, arr in arrays.items())


# -0.0, the smallest subnormal, the largest doubles, and the values either
# side of the points where %.17g turns to e-notation (1e16 and 1e17, 1e-4
# and 1e-5)
AWKWARD = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                    1e16, 1e17, 1e-4, 1e-5, 0.1, -1.0 / 3.0, 2.0 ** 52, 0.0])


def one_list(values):
    """The reference JSON text of a float array: every value's format(v, ".17g") in one list."""
    return ["[" + ", ".join(format(v, ".17g") for v in values.tolist()) + "]"]


# 4096: the block before the writer formatted longer blocks in array passes;
# 1024: the block before the writer took its digits from 4-digit groups
@pytest.mark.parametrize("block", [7, 1024, dataio._ARRAY_VALUES, 4096])
@pytest.mark.parametrize("n", [2, 6, 7, 8, 15, (1 << 15) + 1])
def test_arrays_write_as_one_list_in_any_block(tmp_path, monkeypatch, block, n):
    values = np.resize(AWKWARD, n)
    patch = BoundaryPatch(-0.0, np.arange(n) * 0.25 - 1.0, values, np.roll(values, 1),
                          np.roll(values, 2), "above")
    arrays = {name: np.roll(values, k + 3)
              for k, name in enumerate(("u1", "u2", "dnu1", "dnu2", "p", "t1", "t2"))}
    ds = Dataset(patch=patch, data_kind="both", provenance={"note": "fixture"}, **arrays)
    with monkeypatch.context() as m:
        m.setattr(dataio, "_ARRAY_VALUES", block)
        write_dataset(tmp_path / "d.json", ds)
        write_patch_set(tmp_path / "s.json", [patch, patch])
    with monkeypatch.context() as m:
        m.setattr(dataio, "_fmt_array", one_list)
        write_dataset(tmp_path / "d-ref.json", ds)
        write_patch_set(tmp_path / "s-ref.json", [patch, patch])
    for name in ("d", "s"):
        assert (tmp_path / f"{name}.json").read_bytes() == (tmp_path / f"{name}-ref.json").read_bytes()
    assert one_list(AWKWARD[[0, 1, 4, 5, 6, 7]]) == [
        "[-0, 4.9406564584124654e-324, 10000000000000000, 1e+17, 0.0001, "
        "1.0000000000000001e-05]"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_provenance_rejected_on_write(tmp_path, bad):
    # json.dumps would write a bare NaN or Infinity, which the reader refuses;
    # the Dataset refuses it when it is built, and the writer when it is put in later
    with pytest.raises(DatasetFormatError, match="^provenance holds a non-finite number$"):
        _sample_dataset(kind="stress", provenance={"max_slope": bad})
    ds = _sample_dataset(kind="stress", provenance={"max_slope": 1.0})
    ds.provenance["max_slope"] = bad
    with pytest.raises(DatasetFormatError, match="^provenance holds a non-finite number$"):
        write_dataset(tmp_path / "p.json", ds)
    assert not (tmp_path / "p.json").exists()


def _nested(depth, inner=None):
    value = {} if inner is None else inner
    for _ in range(depth):
        value = {"a": value}
    return value


def _containing_itself():
    value = {"note": "x", "grid": [1]}
    value["grid"].append({"up": value})
    return value


def _list_containing_itself():
    grid = [1.5]
    grid.append([grid])
    return {"grid": grid}


@pytest.mark.parametrize("provenance, message", [
    ([1, 2], "provenance must be an object"),
    ({1: "a", "b": 2}, "provenance key 1 is not a string"),
    ({"a": {1}}, "provenance holds a value of type set, not a JSON value"),
    # nested faults: none of these would read back as written
    ({"a": {1: 2}}, "provenance key 1 is not a string"),
    ({"b": "c", "a": [{"d": {None: 2, "e": 1}}]}, "provenance key None is not a string"),
    ({"a": (1, 2)}, "provenance holds a value of type tuple, not a JSON value"),
    ({"a": [[1, (2,)]]}, "provenance holds a value of type tuple, not a JSON value"),
    ({"a": [1.0, {"b": float("nan")}]}, "provenance holds a non-finite number"),
    (_nested(5000), "provenance is nested more than 200 deep"),
    (_containing_itself(), "provenance contains itself"),
    (_list_containing_itself(), "provenance contains itself"),
    ({"a": [1, {"b": np.int64(3)}]}, "provenance holds a value of type int64, not a JSON value"),
], ids=["list", "integer key", "set value", "nested integer key", "nested null key", "tuple",
        "nested tuple", "nested nan", "5000 deep", "object containing itself", "list containing itself",
        "numpy integer"])
def test_provenance_the_reader_refuses_is_never_written(provenance, message):
    # the Dataset refuses it when it is built, so no writer is given it
    with pytest.raises(DatasetFormatError, match="^" + re.escape(message) + "$"):
        _sample_dataset(kind="stress", provenance=provenance)


def test_writer_and_reader_agree_at_every_provenance_depth(tmp_path):
    # a provenance of `depth` objects is written exactly when the reader reads
    # it back from a hand-written file. Each depth runs on a new thread, whose
    # stack starts almost empty: called so, a provenance nested about 990 deep
    # was once written and then refused on read as nested too deeply
    base = _sample_dataset(n=8, kind="stress")
    out, hand = tmp_path / "written.json", tmp_path / "hand.json"
    write_dataset(hand, base)
    head = hand.read_text()[:-3] + ',\n  "provenance": '

    def written_and_read(depth):
        provenance = _nested(depth - 1)
        hand.write_text(head + '{"a": ' * (depth - 1) + "{}" + "}" * (depth - 1) + "\n}\n")
        try:
            write_dataset(out, dataclasses.replace(base, provenance=provenance))
            written = out.exists()
            out.unlink()
        except DatasetFormatError:
            written = out.exists()
        try:
            return written, read_dataset(hand).provenance == provenance
        except DatasetFormatError:
            return written, False

    depths = [*range(1, 1001), 5000]
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        found = {depth: pool.submit(written_and_read, depth).result() for depth in depths}
    assert found == {depth: (depth <= dataio._PROVENANCE_DEPTH,) * 2 for depth in depths}


def test_writer_and_reader_refuse_the_same_provenance_numbers(tmp_path):
    # 1e400 reads as inf, and json writes inf bare; an integer of 4301
    # digits is past the limit int() converts on read and repr on write
    good = tmp_path / "good.json"
    write_dataset(good, _sample_dataset(n=8, kind="stress", provenance={"note": "x"}))
    for literal, value in [("1e400", float("inf")), ("1" * 4301, (10 ** 4301 - 1) // 9)]:
        hand = tmp_path / "hand.json"
        hand.write_text(good.read_text().replace('"note": "x"', f'"note": {literal}'))
        with pytest.raises(DatasetFormatError):
            read_dataset(hand)
        with pytest.raises(DatasetFormatError):
            _sample_dataset(n=8, kind="stress", provenance={"note": value})
        ds = _sample_dataset(n=8, kind="stress", provenance={"note": "x"})
        ds.provenance["note"] = value
        with pytest.raises(DatasetFormatError):
            write_dataset(tmp_path / "p.json", ds)
        assert not (tmp_path / "p.json").exists()


def _sharing_a_list():
    grid = [1, [2.5]]  # in two places, but inside neither
    return {"a": grid, "b": {"c": grid}}


@pytest.mark.parametrize("provenance", [
    {"grid": [[1, 2], [3.5, [-4]]], "flags": [True, False, None], "big": 10 ** 400, "zero": -0.0},
    _sharing_a_list(),
    _nested(100, [["x"]]),
], ids=["values", "shared list", "100 deep"])
def test_provenance_reads_back_as_written(tmp_path, provenance):
    write_dataset(tmp_path / "p.json", _sample_dataset(kind="stress", provenance=provenance))
    assert read_dataset(tmp_path / "p.json").provenance == provenance


def test_dataset_read_parses_one_array_at_a_time(tmp_path):
    # the peak holds the float arrays read so far (2.9 MB), the float blocks
    # of one array and a window of text with its parsed list: 0.43 MB above
    # the arrays. A whole array's text and parsed list took 3.2 MB above them,
    # the file's bytes and whole text 2.0x the file, every parsed list 2.5x
    n = 1 << 15
    rng = np.random.default_rng(0)
    arrays = {name: rng.standard_normal(n) for name in ("u1", "u2", "dnu1", "dnu2", "p", "t1", "t2")}
    path = tmp_path / "big.json"
    write_dataset(path, Dataset(patch=sine_patch(n), data_kind="both", provenance={"note": "fixture"},
                                **arrays))
    tracemalloc.start()
    try:
        back = read_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * n * 8 + 0.55e6
    assert all(np.array_equal(getattr(back, name), arr) for name, arr in arrays.items())


def _json_text(value, rng):
    """`value` as JSON text with random whitespace between tokens; before some
    object members, the same key with a decoy value that a later one overrides."""
    def ws():
        return "".join(rng.choice(" \t\r\n") for _ in range(rng.randrange(3)))

    if isinstance(value, dict):
        members = []
        for key in rng.sample(list(value), len(value)):
            if rng.random() < 0.3:
                members.append((key, [7.0, -0.0]))
            members.append((key, value[key]))
        return "{" + ",".join(f"{ws()}{json.dumps(k)}{ws()}:{ws()}{_json_text(v, rng)}{ws()}"
                              for k, v in members) + "}"
    if isinstance(value, list):
        return "[" + ",".join(f"{ws()}{_json_text(v, rng)}{ws()}" for v in value) + "]"
    return json.dumps(value)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_reserialized_dataset_reads_as_json_loads(tmp_path, seed):
    # any whitespace, key order or repeated key reads as json.loads reads it
    base = sine_patch(8)
    signed = np.array([-0.0, 0.0, -0.0, 1.0, -1.0, 1e-308, -0.0, 2.5])
    arrays = dict(u1=signed, u2=-signed, dnu1=signed[::-1], dnu2=signed / 3, p=-signed[::-1],
                  t1=signed * 7, t2=-signed / 7)
    doc = {"format_version": 1, "data_kind": "both",
           "provenance": {"grid": [[1, 2], [3.5]], "note": "fixture"},
           "patch": {"frame_angle": -0.0, "h": base.h, "orientation": base.orientation,
                     "x1_nodes": base.x1.tolist(), "gamma": signed.tolist(),
                     "gamma_prime": (-signed).tolist(), "mu": base.mu.tolist()},
           **{name: arr.tolist() for name, arr in arrays.items()}}
    path = tmp_path / "d.json"
    path.write_text(_json_text(doc, random.Random(seed)))
    want = json.loads(path.read_text())
    back = read_dataset(path)
    for got, values in [(getattr(back, name), want[name]) for name in arrays] + [
            (getattr(back.patch, attr), want["patch"][key])
            for attr, key in [("x1", "x1_nodes"), ("gamma", "gamma"), ("gamma_prime", "gamma_prime"),
                              ("mu", "mu")]]:
        assert got.tobytes() == np.asarray(values, dtype=float).tobytes()
    assert np.signbit(back.patch.frame_angle)
    assert back.provenance == want["provenance"]


@pytest.mark.parametrize("kind", ["dataset", "patch-set"])
def test_every_prefix_is_refused(tmp_path, kind):
    path = tmp_path / "whole.json"
    if kind == "dataset":
        write_dataset(path, _sample_dataset(n=8, provenance={"grid": [[1], [2]]}))
    else:
        write_patch_set(path, partition_curve(circle(1.0), nodes_per_patch=8)[:2])
    text = path.read_text().rstrip()  # the last character closes the document
    cut = tmp_path / "cut.json"
    for k in range(len(text)):
        cut.write_text(text[:k])
        for reader in (read_dataset, read_patch_set):
            with pytest.raises(DatasetFormatError):
                reader(cut)


def _small_window(monkeypatch, chunk) -> list:
    """Read through windows of `chunk` characters; the list holds `chunk`, then None per whole-text parse.

    A failed windowed read passes the file to the whole-text parse, which
    would hide a fault of the windowed read from a test of results; so the
    list stays [chunk] only while the whole-text parse never runs.
    """
    parses = [chunk]
    parse = dataio._parse_whole
    monkeypatch.setattr(dataio, "_CHUNK_CHARS", chunk)
    monkeypatch.setattr(dataio, "_parse_whole", lambda path: parses.append(None) or parse(path))
    return parses


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("kind", ["dataset", "patch-set"])
def test_every_prefix_is_refused_through_a_small_window(tmp_path, monkeypatch, kind, chunk):
    _small_window(monkeypatch, chunk)
    test_every_prefix_is_refused(tmp_path, kind)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), chunk=st.integers(1, 9))
def test_reserialized_dataset_reads_through_a_small_window(tmp_path, monkeypatch, seed, chunk):
    with monkeypatch.context() as patched:
        parses = _small_window(patched, chunk)
        test_reserialized_dataset_reads_as_json_loads.hypothesis.inner_test(tmp_path, seed)
    assert parses == [chunk]


@pytest.mark.parametrize("chunk", range(1, 60))
def test_a_number_cut_by_the_window_edge_reads_whole(tmp_path, monkeypatch, chunk):
    # a window that ends in 1.25e-3 holds "1.2", "1.25" or "1.25e", which
    # decode to another number or fail; each is decoded again once whole
    path = tmp_path / "d.json"
    path.write_text('{"format_version": 1, "a": 1.25e-3, "b": 10, "c": 1e5, "d": -0}')
    parses = _small_window(monkeypatch, chunk)
    doc = dataio._load_json(path)
    assert doc == {"format_version": 1, "a": 1.25e-3, "b": 10, "c": 1e5, "d": 0.0}
    assert type(doc["b"]) is int and np.signbit(doc["d"])
    assert parses == [chunk]


def _arithmetic_dataset(n, provenance=None):
    """A "both" dataset from arithmetic alone, so its file has the same bytes on every platform."""
    patch = graph_patch(lambda x: 0.25 * x * x, lambda x: 0.5 * x, -1.0, 1.0, n, mu=lambda x, g: 1.0 + g)
    x = patch.x1
    arrays = dict(u1=x / 3, u2=-x * x / 7, dnu1=1 / (2 + x), dnu2=x / 11 - 0.25, p=x * x * x / 13,
                  t1=0.1 - x / 9, t2=(x + 3) / 17)
    return Dataset(patch=patch, data_kind="both", provenance=provenance, **arrays)


@pytest.mark.parametrize("chunk", [16, 1000])
def test_long_values_read_through_a_small_window(tmp_path, monkeypatch, chunk):
    # a provenance string many windows long, and number arrays that each
    # take many refills, read bitwise as json.loads reads them
    ds = _arithmetic_dataset(1024, provenance={"note": "x" * 20 * chunk, "grid": [[1.5e-3, -0.0]] * 50})
    path = tmp_path / "d.json"
    write_dataset(path, ds)
    parses = _small_window(monkeypatch, chunk)
    want = json.loads(path.read_text())
    back = read_dataset(path)
    assert parses == [chunk]
    for name in ("u1", "u2", "dnu1", "dnu2", "p", "t1", "t2"):
        assert getattr(back, name).tobytes() == np.asarray(want[name], dtype=float).tobytes()
    for attr, key in [("x1", "x1_nodes"), ("gamma", "gamma"), ("gamma_prime", "gamma_prime"), ("mu", "mu")]:
        assert getattr(back.patch, attr).tobytes() == np.asarray(want["patch"][key], dtype=float).tobytes()
    assert back.provenance == want["provenance"]


def _array_values(n):
    """n doubles over sixty decades, with -0, the extremes and integer literals among them."""
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    special = [-0.0, 0.0, 5e-324, -1.7976931348623157e308, 1e16, 1e17, 1e-5, 10.0, -3.0, 0.1]
    values[::7] = np.resize(special, values[::7].size)
    return values


@pytest.mark.parametrize("chunk", [7, 4096, dataio._CHUNK_CHARS])
@pytest.mark.parametrize("layout", ["written", "crlf"])
@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, (1 << 15) + 1])
def test_number_arrays_read_bitwise_across_block_seams(tmp_path, monkeypatch, n, layout, chunk):
    # an array is decoded a window at a time, up to the window's last comma:
    # every value, wherever a seam cuts the text, reads back bit for bit
    u1, x1 = _array_values(n), -_array_values(n)[::-1]
    texts = [[format(v, ".17g") for v in arr] for arr in (u1, x1)]
    if layout == "written":
        arrays = ["[" + ", ".join(t) + "]" for t in texts]
    else:  # one number a line, each line ending in CRLF
        arrays = ["[\r\n  " + ",\r\n  ".join(t) + "\r\n ]" for t in texts]
    path = tmp_path / "d.json"
    path.write_bytes(f'{{"format_version": 1, "u1": {arrays[0]}, "x1_nodes": {arrays[1]}}}'.encode())
    parses = _small_window(monkeypatch, chunk)
    doc = dataio._load_json(path)
    assert parses == [chunk]  # read through the window, with no whole-text parse
    assert doc["u1"].tobytes() == u1.tobytes()
    assert doc["x1_nodes"].tobytes() == x1.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, dataio._CHUNK_CHARS])
@pytest.mark.parametrize("array", ["[1,,2]", "[,1]", "[1,]", "[1 2]", "[ , ]", "[1, 2]]", "[[1], 2]",
                                   '[1, "2, 3"]', "[1, 2"])
def test_malformed_number_arrays_are_named_as_in_the_whole_file(tmp_path, monkeypatch, chunk, array):
    # a block of nothing between two commas decodes to [], so it is refused
    # on its own; every fault is then named as in the whole file, and a
    # comma in a nested list or a string cuts no block that reads as numbers
    path = tmp_path / "d.json"
    path.write_text(f'{{"format_version": 1, "gamma": {array}}}')
    try:
        json.loads(path.read_text())
        want = "field 'gamma' must hold numbers only"
    except json.JSONDecodeError as whole:
        want = f"invalid JSON in {path}: {whole}"
    monkeypatch.setattr(dataio, "_CHUNK_CHARS", chunk)
    with pytest.raises(DatasetFormatError) as exc:
        dataio._load_json(path)
    assert str(exc.value) == want


@pytest.mark.parametrize("chunk", [7, dataio._CHUNK_CHARS])
@pytest.mark.parametrize("at", [0, 4095, 4096, -1])
@pytest.mark.parametrize("literal, message", [
    ("true", "must hold numbers only"), ('"1"', "must hold numbers only"),
    ("[1]", "must hold numbers only"), ("1e400", "holds a number beyond the float range"),
])
def test_non_numbers_are_refused_in_any_block(tmp_path, monkeypatch, capsys, chunk, at, literal, message):
    monkeypatch.setattr(dataio, "_CHUNK_CHARS", chunk)
    path = tmp_path / "good.json"
    write_dataset(path, _arithmetic_dataset(4097))
    doc = json.loads(path.read_text())
    doc["t1"][at] = "VALUE"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"VALUE"', literal))
    assert main(["verify", str(bad)]) == 3
    assert capsys.readouterr().err == f"error: field 't1' {message}\n"


def _late_fault(data: bytes, fault: str) -> bytes:
    """`data`, a file of _arithmetic_dataset(4096), with `fault` placed far past the first window."""
    if fault.startswith("crlf "):  # every array item on its own line, each line ending in CRLF
        data = json.dumps(json.loads(data), indent=1).replace("\n", "\r\n").encode()
        fault = fault[5:]
    cut = data.index(b",", data.index(b'"t1"') + 5000)  # a separator 5 kB into t1
    start = re.compile(rb"\s*").match(data, cut + 1).end()
    after = data.index(b",", start)  # the number from start to after
    return {"stray comma": data[:start] + b"," + data[start:],
            "NaN": data[:start] + b"NaN" + data[after:],
            "not UTF-8": data[:start] + b"\xff" + data[start:],
            "NaN, then not UTF-8": data[:start] + b"NaN" + data[after:-200] + b"\xff" + data[-200:],
            "trailing data": data + b"x",
            "truncated": data[:start + 5]}[fault]


# the error lines the reader printed when it held the whole file, with the
# file's path as {path}
LATE_FAULT_ERRORS = {
    "stray comma": "error: invalid JSON in {path}: Expecting value: line 18 column 5022 (char 805831)",
    "NaN": "error: non-finite number 'NaN' in document",
    "not UTF-8": ("error: {path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
                  "position 805831: invalid start byte"),
    "NaN, then not UTF-8": ("error: {path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
                            "position 974402: invalid start byte"),
    "trailing data": "error: invalid JSON in {path}: Extra data: line 21 column 1 (char 974618)",
    "truncated": "error: invalid JSON in {path}: Expecting ',' delimiter: line 18 column 5027 (char 805836)",
    "crlf stray comma": "error: invalid JSON in {path}: Expecting value: line 37103 column 3 (char 877806)",
    "crlf NaN": "error: non-finite number 'NaN' in document",
    "crlf not UTF-8": ("error: {path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
                       "position 914908: invalid start byte"),
    "crlf trailing data": "error: invalid JSON in {path}: Extra data: line 45087 column 2 (char 1060593)",
    "crlf truncated": ("error: invalid JSON in {path}: Expecting ',' delimiter: "
                       "line 37103 column 8 (char 877811)"),
}


@pytest.mark.parametrize("chunk", [dataio._CHUNK_CHARS, 64])
@pytest.mark.parametrize("fault", sorted(LATE_FAULT_ERRORS))
def test_late_faults_read_as_in_the_whole_file(tmp_path, monkeypatch, capsys, fault, chunk):
    monkeypatch.setattr(dataio, "_CHUNK_CHARS", chunk)
    good = tmp_path / "good.json"
    write_dataset(good, _arithmetic_dataset(4096))
    bad = tmp_path / "bad.json"
    bad.write_bytes(_late_fault(good.read_bytes(), fault))
    assert main(["verify", str(bad)]) == 3
    assert capsys.readouterr().err == LATE_FAULT_ERRORS[fault].format(path=bad) + "\n"


@pytest.mark.parametrize("chunk", [7, dataio._CHUNK_CHARS])
@pytest.mark.parametrize("second", ["truncated", "trailing object"])
def test_json_syntax_is_named_ahead_of_a_number_type(tmp_path, monkeypatch, capsys, second, chunk):
    # a true in u1 and a syntax fault after it: the syntax fault is named, as
    # json.loads names it in the whole text
    monkeypatch.setattr(dataio, "_CHUNK_CHARS", chunk)
    path = tmp_path / "good.json"
    write_dataset(path, _arithmetic_dataset(64))
    text = re.sub(r'("u1": \[)[^,]*', r"\1true", path.read_text(), count=1)
    text = text[:-40] if second == "truncated" else text + "{}"
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    with pytest.raises(json.JSONDecodeError) as whole:
        json.loads(text)
    want = f"invalid JSON in {bad}: {whole.value}"
    with pytest.raises(DatasetFormatError) as exc:
        read_dataset(bad)
    assert str(exc.value) == want
    assert main(["verify", str(bad)]) == 3
    assert capsys.readouterr().err == f"error: {want}\n"


def test_patch_set_round_trip(tmp_path):
    patches = partition_curve(circle(1.0), nodes_per_patch=16)
    path = tmp_path / "patches.json"
    write_patch_set(path, patches)
    write_patch_set(tmp_path / "again.json", iter(patches))  # any iterable, read once
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    back = read_patch_set(path)
    assert len(back) == len(patches)
    for a, b in zip(patches, back):
        assert a.frame_angle == b.frame_angle
        assert a.orientation == b.orientation
        assert np.array_equal(a.x1, b.x1)
        assert np.array_equal(a.gamma_prime, b.gamma_prime)


def test_an_empty_patch_set_is_refused_before_the_file_is_opened(tmp_path):
    # a patch-set reader needs a non-empty patch list
    for patches in ([], iter([])):
        with pytest.raises(DatasetFormatError, match="^a patch set needs at least one patch$"):
            write_patch_set(tmp_path / "empty.json", patches)
        assert not (tmp_path / "empty.json").exists()


def test_dn_and_stress_data_must_carry_the_same_velocity():
    patch = sine_patch(16)
    dn, stress, _ = evaluate_traces(FLOWS["trig"], PRESSURES["trig"], VISCOSITIES["unit"], patch)
    u1, u2 = dn.u.c1.values, dn.u.c2.values

    def with_u(a1, a2):
        return dataclasses.replace(stress, u=VectorTrace.from_arrays(a1, a2, patch.h))

    for a1, a2 in ((u1 + 1.0, u2), (u1, np.where(np.arange(16) == 15, np.nan, u2)), (-u1, u2)):
        with pytest.raises(ValueError, match="^dn and stress data must carry the same velocity u$"):
            dataset_from_traces(patch, dn=dn, stress=with_u(a1, a2))
    ds = dataset_from_traces(patch, dn=dn, stress=with_u(u1.copy(), u2.copy()))  # equal, not the same arrays
    assert ds.data_kind == "both" and np.array_equal(ds.u1, u1) and np.array_equal(ds.u2, u2)
    nan = np.where(np.arange(16) == 3, np.nan, u1)  # NaN at the same node in both is equal
    ds = dataset_from_traces(patch, dn=dataclasses.replace(dn, u=VectorTrace.from_arrays(nan, u2, patch.h)),
                             stress=with_u(nan.copy(), u2))
    assert np.array_equal(ds.u1, nan, equal_nan=True)


def test_stress_velocity_off_the_patch_spacing_is_refused_beside_dn_data():
    patch = sine_patch(16)
    dn, stress, _ = evaluate_traces(FLOWS["trig"], PRESSURES["trig"], VISCOSITIES["unit"], patch)
    off = dataclasses.replace(stress, u=VectorTrace.from_arrays(dn.u.c1.values, dn.u.c2.values, 5.0))
    for data in ({"stress": off}, {"dn": dn, "stress": off}):
        with pytest.raises(ValueError, match="^data grid spacing does not match the patch$"):
            dataset_from_traces(patch, **data)


def test_csv_export_columns(tmp_path):
    ds = _sample_dataset(kind="dn")
    path = tmp_path / "d.csv"
    write_csv(path, ds)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,gamma,gamma_prime,mu,u1,u2,dnu1,dnu2,p,t1,t2"
    assert len(lines) == 1 + ds.patch.n
    first = lines[1].split(",")
    assert first[-1] == "" and first[-2] == ""  # traction columns absent for dn
    assert float(first[0]) == ds.patch.x1[0]


def reference_write_csv(path, ds):
    """The row-by-row csv.writer export that write_csv must reproduce byte for byte."""
    present = ds.arrays
    patch_cols = {"x1": ds.patch.x1, "gamma": ds.patch.gamma,
                  "gamma_prime": ds.patch.gamma_prime, "mu": ds.patch.mu}
    columns = ("x1", "gamma", "gamma_prime", "mu", "u1", "u2", "dnu1", "dnu2", "p", "t1", "t2")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for i in range(ds.patch.n):
            row = []
            for name in columns:
                values = patch_cols.get(name, present.get(name))
                row.append("" if values is None else format(float(values[i]), ".17g"))
            writer.writerow(row)


@pytest.mark.parametrize("kind", ["dn", "stress", "both"])
def test_csv_matches_the_row_writer(tmp_path, kind):
    ds = _sample_dataset(n=12, kind=kind)
    awkward = np.array([-0.0, 5e-324, -2.5e-310, 1e308, -1.7976931348623157e308, 0.1])
    for k, values in enumerate([ds.patch.gamma, ds.patch.gamma_prime, *ds.arrays.values()]):
        values[:awkward.size] = np.roll(awkward, k)
    write_csv(tmp_path / "new.csv", ds)
    reference_write_csv(tmp_path / "ref.csv", ds)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert b"\r\n" in (tmp_path / "new.csv").read_bytes()


@pytest.mark.parametrize("block", [300, 4096])
def test_every_csv_field_is_the_json_number_text_across_both_seams(tmp_path, monkeypatch, block):
    # JSON value blocks of another length than the CSV's row blocks, long
    # enough for the array passes; 3 blocks of rows and 5 more cross both seams
    n = 3 * dataio._CSV_ROWS + 5
    ds = _sample_dataset(n=n)
    monkeypatch.setattr(dataio, "_ARRAY_VALUES", block)
    write_dataset(tmp_path / "d.json", ds)
    write_csv(tmp_path / "d.csv", ds)
    texts = {name.replace("_nodes", ""): body.split(", ")
             for name, body in re.findall(r'"(\w+)": \[([^]]*)\]', (tmp_path / "d.json").read_text())}
    with open(tmp_path / "d.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == n and set(rows[0]) <= set(texts)
    for i, row in enumerate(rows):
        for name, field in row.items():
            assert field == texts[name][i], (name, i)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_csv_rejects_non_finite_values(tmp_path, bad):
    ds = _sample_dataset(kind="stress")
    ds.t2[3] = bad
    with pytest.raises(DatasetFormatError, match="non-finite"):
        write_csv(tmp_path / "bad.csv", ds)
    assert not (tmp_path / "bad.csv").exists()
    # the last value written: the last row of the last column, in a later block of rows
    ds = _sample_dataset(n=2500, kind="stress")
    ds.t2[-1] = bad
    with pytest.raises(DatasetFormatError, match="non-finite"):
        write_csv(tmp_path / "last.csv", ds)
    assert not (tmp_path / "last.csv").exists()
