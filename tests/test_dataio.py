import json

import numpy as np
import pytest

from cauchyflow import (Dataset, DatasetFormatError, dataset_from_traces,
                        evaluate_traces, partition_curve, circle, read_dataset,
                        read_patch_set, write_csv, write_dataset,
                        write_patch_set, FLOWS, PRESSURES, VISCOSITIES)
from helpers import sine_patch


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
    ds = _sample_dataset(kind=kind, provenance={"note": "fixture"})
    path = tmp_path / "d.json"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.data_kind == kind
    assert back.provenance == {"note": "fixture"}
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


def test_malformed_documents_rejected(tmp_path):
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

    for name, mutate in [("m1.json", drop_mu), ("m2.json", shorten_u1),
                         ("m3.json", bump_version), ("m4.json", bad_kind)]:
        with pytest.raises(DatasetFormatError):
            read_dataset(_corrupt(tmp_path, name, mutate))


def test_nan_rejected_on_read(tmp_path):
    def poison(doc):
        doc["u1"][0] = float("nan")

    bad = _corrupt(tmp_path, "nan.json", poison)
    with pytest.raises(DatasetFormatError):
        read_dataset(bad)


@pytest.mark.parametrize("literal, message", [
    ("true", "numbers only"), ("1" + "0" * 400, "float range"), ("-1e400", "float range"),
], ids=["bool", "int", "float"])
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
    patch = sine_patch(8)
    z = np.zeros(8)
    bad = z.copy()
    bad[3] = np.inf
    ds = Dataset(patch=patch, data_kind="stress", u1=bad, u2=z, t1=z, t2=z)
    with pytest.raises(DatasetFormatError):
        write_dataset(tmp_path / "x.json", ds)


def test_patch_set_round_trip(tmp_path):
    patches = partition_curve(circle(1.0), nodes_per_patch=16)
    path = tmp_path / "patches.json"
    write_patch_set(path, patches)
    back = read_patch_set(path)
    assert len(back) == len(patches)
    for a, b in zip(patches, back):
        assert a.frame_angle == b.frame_angle
        assert a.orientation == b.orientation
        assert np.array_equal(a.x1, b.x1)
        assert np.array_equal(a.gamma_prime, b.gamma_prime)


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
