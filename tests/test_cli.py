import json
import re

import numpy as np
import pytest

from cauchyflow import read_dataset, write_dataset, Dataset
from cauchyflow.cli import main
from helpers import flat_patch


def run(args):
    return main([str(a) for a in args])


def generate_couette(tmp_path, name="couette.json", nodes=64):
    out = tmp_path / name
    code = run(["generate", "--flow", "couette", "--pressure", "zero",
                "--viscosity", "unit", "--curve", "graph:poly:0",
                "--nodes", nodes, "--out", out])
    assert code == 0
    return out


def test_generate_flat_couette(tmp_path):
    out = generate_couette(tmp_path)
    ds = read_dataset(out)
    assert ds.data_kind == "both"
    assert ds.patch.n == 64
    assert ds.provenance["flow"] == "couette"
    # u = (x2, 0) vanishes on the flat boundary, traction is (1, 0)
    assert np.max(np.abs(ds.u1)) == 0.0
    assert np.max(np.abs(ds.t1 - 1.0)) <= 1e-15
    assert np.max(np.abs(ds.dnu1 - 1.0)) <= 1e-15


def test_generate_unknown_names(tmp_path):
    base = ["--pressure", "zero", "--viscosity", "unit",
            "--curve", "graph:poly:0", "--nodes", 16, "--out", tmp_path / "x.json"]
    assert run(["generate", "--flow", "xyz", *base]) == 2
    assert run(["generate", "--flow", "couette", "--pressure", "nope",
                "--viscosity", "unit", "--curve", "graph:poly:0",
                "--nodes", 16, "--out", tmp_path / "x.json"]) == 2
    assert run(["generate", "--flow", "couette", "--pressure", "zero",
                "--viscosity", "nope", "--curve", "graph:poly:0",
                "--nodes", 16, "--out", tmp_path / "x.json"]) == 2


def test_generate_too_few_nodes(tmp_path):
    code = run(["generate", "--flow", "couette", "--pressure", "zero",
                "--viscosity", "unit", "--curve", "graph:poly:0",
                "--nodes", 4, "--out", tmp_path / "x.json"])
    assert code == 3


def test_generate_malformed_curve(tmp_path):
    for spec in ("blob:1", "circle:-2", "circle:abc", "ellipse:1", "graph:spline:1"):
        code = run(["generate", "--flow", "couette", "--pressure", "zero",
                    "--viscosity", "unit", "--curve", spec,
                    "--nodes", 16, "--out", tmp_path / "x.json"])
        assert code == 3, spec


def test_generate_circle_writes_one_file_per_patch(tmp_path):
    out = tmp_path / "ring.json"
    code = run(["generate", "--flow", "stagnation", "--pressure", "linear",
                "--viscosity", "unit", "--curve", "circle:1.0",
                "--nodes", 32, "--out", out])
    assert code == 0
    parts = sorted(tmp_path.glob("ring-p*.json"))
    assert len(parts) >= 4
    for part in parts:
        ds = read_dataset(part)
        assert ds.patch.n == 32
        assert ds.patch.orientation == "above"


def test_convert_couette_matches_analytic(tmp_path, capsys):
    src = generate_couette(tmp_path)
    out = tmp_path / "dn.json"
    code = run(["convert", "stress-to-dn", "--in", src, "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "max consistency residual" in printed
    ds = read_dataset(out)
    assert ds.data_kind == "dn"
    assert ds.patch.n == 60
    assert np.max(np.abs(ds.dnu1 - 1.0)) <= 1e-10
    assert np.max(np.abs(ds.dnu2)) <= 1e-10
    assert np.max(np.abs(ds.p)) <= 1e-10


def test_convert_round_trip_through_files(tmp_path):
    src = generate_couette(tmp_path, nodes=72)
    dn_path = tmp_path / "dn.json"
    back_path = tmp_path / "stress.json"
    assert run(["convert", "stress-to-dn", "--in", src, "--out", dn_path]) == 0
    assert run(["convert", "dn-to-stress", "--in", dn_path, "--out", back_path]) == 0
    first = read_dataset(src)
    back = read_dataset(back_path)
    assert back.patch.n == 64
    assert np.max(np.abs(back.t1 - first.t1[4:-4])) <= 1e-10
    assert np.max(np.abs(back.t2 - first.t2[4:-4])) <= 1e-10

    # opposite order: dn-to-stress first, then back to dn arrays
    st_path = tmp_path / "st.json"
    dn_back = tmp_path / "dn-back.json"
    assert run(["convert", "dn-to-stress", "--in", src, "--out", st_path]) == 0
    assert run(["convert", "stress-to-dn", "--in", st_path, "--out", dn_back]) == 0
    again = read_dataset(dn_back)
    assert np.max(np.abs(again.dnu1 - first.dnu1[4:-4])) <= 1e-10
    assert np.max(np.abs(again.dnu2 - first.dnu2[4:-4])) <= 1e-10
    assert np.max(np.abs(again.p - first.p[4:-4])) <= 1e-10


def test_convert_missing_arrays(tmp_path):
    src = generate_couette(tmp_path)
    dn_path = tmp_path / "dn.json"
    run(["convert", "stress-to-dn", "--in", src, "--out", dn_path])
    # a dn-only file cannot feed stress-to-dn
    assert run(["convert", "stress-to-dn", "--in", dn_path, "--out", tmp_path / "y.json"]) == 2


def test_convert_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert run(["convert", "stress-to-dn", "--in", bad, "--out", tmp_path / "y.json"]) == 3
    assert run(["convert", "stress-to-dn", "--in", tmp_path / "missing.json",
                "--out", tmp_path / "y.json"]) == 3


def test_convert_rejects_boolean_and_out_of_range_numbers(tmp_path):
    src = generate_couette(tmp_path)
    for name, literal in [("bool.json", "true"), ("huge.json", "1" + "0" * 400)]:
        doc = json.loads(src.read_text())
        doc["t1"][3] = "VALUE"
        bad = tmp_path / name
        bad.write_text(json.dumps(doc).replace('"VALUE"', literal))
        assert run(["convert", "stress-to-dn", "--in", bad, "--out", tmp_path / "o.json"]) == 3


def test_convert_minimal_patch_too_short_to_restrict(tmp_path):
    src = generate_couette(tmp_path, name="five.json", nodes=5)
    # the 1-node interior cannot carry a grid spacing, so this is malformed
    assert run(["convert", "stress-to-dn", "--in", src, "--out", tmp_path / "o.json"]) == 3


def test_convert_flags_non_divergence_free_input(tmp_path, capsys):
    patch = flat_patch(64)
    x = patch.x1
    ds = Dataset(patch=patch, data_kind="dn",
                 u1=x, u2=np.zeros_like(x),
                 dnu1=np.zeros_like(x), dnu2=np.ones_like(x),
                 p=np.zeros_like(x))
    src = tmp_path / "corrupt.json"
    write_dataset(src, ds)
    code = run(["convert", "dn-to-stress", "--in", src, "--out", tmp_path / "out.json"])
    assert code == 4
    printed = capsys.readouterr().out
    residual = float(re.search(r"max consistency residual = (\S+)", printed).group(1))
    assert residual > 0.5
    assert (tmp_path / "out.json").exists()  # output still written


def test_verify_generated_dataset(tmp_path):
    src = generate_couette(tmp_path)
    assert run(["verify", src]) == 0


def test_verify_generated_curved_dataset(tmp_path):
    # honest analytic data on a curved window must not be flagged
    out = tmp_path / "ell.json"
    code = run(["generate", "--flow", "stagnation", "--pressure", "linear",
                "--viscosity", "variable", "--curve", "ellipse:2.0,1.0",
                "--nodes", 48, "--out", out])
    assert code == 0
    for part in sorted(tmp_path.glob("ell-p*.json")):
        assert run(["verify", part]) == 0, part.name


def test_verify_zeroed_viscosity(tmp_path):
    src = generate_couette(tmp_path)
    doc = json.loads(src.read_text())
    doc["patch"]["mu"][3] = 0.0
    bad = tmp_path / "mu0.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", bad]) == 5


def test_verify_perturbed_slope_fails_cross_format(tmp_path, capsys):
    src = generate_couette(tmp_path)
    doc = json.loads(src.read_text())
    doc["patch"]["gamma_prime"] = [g + 1.0 for g in doc["patch"]["gamma_prime"]]
    bad = tmp_path / "gp.json"
    bad.write_text(json.dumps(doc))
    code = run(["verify", bad])
    printed = capsys.readouterr().out
    assert code == 4
    assert "determinant identity" in printed and "pass" in printed
    assert "FAIL" in printed


def test_verify_reports_skipped_checks_on_short_patch(tmp_path, capsys):
    patch = flat_patch(4)
    z = np.zeros(4)
    src = tmp_path / "short.json"
    write_dataset(src, Dataset(patch=patch, data_kind="both", u1=z, u2=z,
                               dnu1=z, dnu2=z, p=z, t1=z, t2=z))
    assert run(["verify", src]) == 0
    printed = capsys.readouterr().out
    assert "consistency and cross-format checks: skipped (4 nodes" in printed


def test_verify_malformed(tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text("[1, 2, 3]")
    assert run(["verify", bad]) == 3


def test_verify_stress_only_dataset(tmp_path):
    src = generate_couette(tmp_path)
    dn_only = json.loads(src.read_text())
    for key in ("dnu1", "dnu2", "p"):
        del dn_only[key]
    dn_only["data_kind"] = "stress"
    stress_path = tmp_path / "stress.json"
    stress_path.write_text(json.dumps(dn_only))
    assert run(["verify", stress_path]) == 0


def test_partition_circle_cli(tmp_path, capsys):
    out = tmp_path / "patches.json"
    code = run(["partition", "--curve", "circle:1.0", "--max-slope", 1.0,
                "--overlap", 0.2, "--nodes", 64, "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    count = int(re.search(r"patches = (\d+)", printed).group(1))
    max_gp = float(re.search(r"max \|gamma'\| = (\S+)", printed).group(1))
    assert count >= 4
    assert max_gp <= 1.0 + 1e-10
    assert out.exists()


def test_partition_ellipse_cli(tmp_path):
    out = tmp_path / "patches.json"
    assert run(["partition", "--curve", "ellipse:2.0,1.0", "--out", out]) == 0


def test_partition_invalid_slope(tmp_path):
    code = run(["partition", "--curve", "circle:1.0", "--max-slope", 0,
                "--out", tmp_path / "p.json"])
    assert code == 3


def test_pipeline_bitwise_stable(tmp_path):
    outs = []
    for tag in ("one", "two"):
        src = generate_couette(tmp_path, name=f"{tag}.json")
        dn = tmp_path / f"{tag}-dn.json"
        assert run(["convert", "stress-to-dn", "--in", src, "--out", dn]) == 0
        assert run(["verify", dn]) == 0
        outs.append((src.read_bytes(), dn.read_bytes()))
    assert outs[0] == outs[1]


def test_csv_export(tmp_path):
    out = tmp_path / "c.json"
    csv_path = tmp_path / "c.csv"
    code = run(["generate", "--flow", "trig", "--pressure", "trig",
                "--viscosity", "variable", "--curve", "graph:poly:0,0.1,0.2",
                "--nodes", 32, "--out", out, "--csv", csv_path])
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == "x1,gamma,gamma_prime,mu,u1,u2,dnu1,dnu2,p,t1,t2"
