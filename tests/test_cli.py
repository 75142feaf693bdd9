import csv
import gc
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cauchyflow import read_dataset, write_csv, write_dataset, Dataset, graph_patch, normal_at
from cauchyflow import __main__ as entry
from cauchyflow import cli
from cauchyflow.cli import main
from helpers import UNREADABLE_FILES, flat_patch


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(autouse=True)
def blas_threads_restored():
    """A test that runs `python -m cauchyflow` in-process sets OPENBLAS_NUM_THREADS in this
    process; the variable is back as it was once the test ends."""
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    yield
    if before is None:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = before


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
    # argparse refuses a name outside the catalog with its usage exit
    base = ["--curve", "graph:poly:0", "--nodes", 16, "--out", tmp_path / "x.json"]
    for names in (("xyz", "zero", "unit"), ("couette", "nope", "unit"), ("couette", "zero", "nope")):
        flags = [v for pair in zip(("--flow", "--pressure", "--viscosity"), names) for v in pair]
        with pytest.raises(SystemExit) as exc:
            run(["generate", *flags, *base])
        assert exc.value.code == 2
    assert not (tmp_path / "x.json").exists()


def test_generate_unknown_flow_names_every_flow(tmp_path, capsys):
    with pytest.raises(SystemExit):
        run(["generate", "--flow", "nosuch", "--pressure", "zero", "--viscosity", "unit",
             "--curve", "graph:poly:0", "--nodes", 16, "--out", tmp_path / "x.json"])
    line, = [ln for ln in capsys.readouterr().err.splitlines() if "invalid choice" in ln]
    # the quoting of the names differs between Python versions
    assert "--flow" in line and "nosuch" in line
    assert all(name in line for name in ("couette", "cubic", "rigid-rotation", "stagnation", "trig"))


def test_generate_too_few_nodes(tmp_path, capsys):
    code = run(["generate", "--flow", "couette", "--pressure", "zero",
                "--viscosity", "unit", "--curve", "graph:poly:0",
                "--nodes", 4, "--out", tmp_path / "x.json"])
    assert code == 3
    assert capsys.readouterr().err == "error: --nodes must be at least 5\n"


def test_generate_malformed_curve(tmp_path):
    for spec in ("blob:1", "circle:-2", "circle:abc", "ellipse:1", "graph:spline:1"):
        code = run(["generate", "--flow", "couette", "--pressure", "zero",
                    "--viscosity", "unit", "--curve", spec,
                    "--nodes", 16, "--out", tmp_path / "x.json"])
        assert code == 3, spec


@pytest.mark.parametrize("command", ["generate", "partition"])
@pytest.mark.parametrize("spec", ["ellipse:1", "ellipse:1,2,3"])
def test_ellipse_spec_needs_two_axes(tmp_path, capsys, command, spec):
    assert partition_or_generate(command, spec, tmp_path / "x.json") == 3
    assert capsys.readouterr().err == (
        f"error: malformed curve spec {spec!r}: ellipse specs take the form ellipse:A,B\n")
    assert not (tmp_path / "x.json").exists()


def test_generate_overflow_exits_3_without_traceback(tmp_path):
    # the cubic flow overflows on a radius-1e200 circle; the writer refuses inf
    env = os.environ | {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "cauchyflow", "generate", "--flow", "cubic",
         "--pressure", "linear", "--viscosity", "unit", "--curve", "circle:1e200",
         "--nodes", "16", "--out", str(tmp_path / "x.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr
    assert "error: patch 0: cannot serialize non-finite value" in done.stderr
    assert not list(tmp_path.iterdir())


SRC_ENV = os.environ | {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "cauchyflow", *map(str, argv)],
                          env=SRC_ENV, capture_output=True, text=True, timeout=120)


def test_generate_oracle_overflow_is_one_error_line(tmp_path):
    done = run_cli("generate", "--flow", "cubic", "--pressure", "linear", "--viscosity", "unit",
                   "--curve", "circle:1e200", "--nodes", 16, "--out", tmp_path / "x.json")
    assert done.returncode == 3
    assert re.fullmatch(r"error: patch 0: [^\n]*oracle value u1 is not finite on the patch\n",
                        done.stderr), done.stderr


def test_generate_on_huge_circle_warns_nothing(tmp_path):
    # the partitioner's orientation test used to overflow at this radius; the
    # couette flow is resolved on any grid, so generate writes every patch
    done = run_cli("generate", "--flow", "couette", "--pressure", "trig", "--viscosity", "unit",
                   "--curve", "circle:1e200", "--nodes", 16, "--out", tmp_path / "x.json")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


@pytest.mark.parametrize("args", [
    [],
    ["generate", "--flow", "trig", "--pressure", "trig", "--viscosity", "unit",
     "--curve", "circle:1", "--nodes", "x", "--out", "x.json"],
    ["verify"],
    ["convert", "sideways", "--in", "x.json", "--out", "y.json"],
], ids=["no-command", "nodes-not-an-int", "verify-no-file", "convert-sideways"])
def test_usage_errors_exit_2_with_the_usage_and_one_error_line(tmp_path, args):
    # argparse refuses these before any command runs: its usage text, then
    # one "error:" line naming what is wrong, on stderr; nothing is written
    done = subprocess.run([sys.executable, "-m", "cauchyflow", *args], cwd=tmp_path,
                          env=SRC_ENV, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert re.fullmatch(r"usage: cauchyflow[^\n]*\n( [^\n]*\n)*cauchyflow[ a-z]*: error: [^\n]+\n",
                        done.stderr), done.stderr
    assert not list(tmp_path.iterdir())


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


def test_convert_keeps_integer_provenance(tmp_path):
    # only the literal -0 reads as a float; other integers stay integers
    src = generate_couette(tmp_path)
    doc = json.loads(src.read_text())
    doc["provenance"] |= {"run": 3, "offset": -7, "big": 10 ** 400}
    src.write_text(json.dumps(doc))
    out = tmp_path / "dn.json"
    assert run(["convert", "stress-to-dn", "--in", src, "--out", out]) == 0
    kept = read_dataset(out).provenance
    assert {k: kept[k] for k in ("run", "offset", "big")} == {"run": 3, "offset": -7, "big": 10 ** 400}
    assert all(type(kept[k]) is int for k in ("run", "offset", "big"))
    assert '"big": 1' + "0" * 400 + "," in out.read_text()


def test_convert_missing_arrays(tmp_path):
    src = generate_couette(tmp_path)
    dn_path = tmp_path / "dn.json"
    run(["convert", "stress-to-dn", "--in", src, "--out", dn_path])
    # a dn-only file cannot feed stress-to-dn, nor a stress-only file dn-to-stress
    assert run(["convert", "stress-to-dn", "--in", dn_path, "--out", tmp_path / "y.json"]) == 2
    stress_path = tmp_path / "stress.json"
    assert run(["convert", "dn-to-stress", "--in", dn_path, "--out", stress_path]) == 0
    assert run(["convert", "dn-to-stress", "--in", stress_path, "--out", tmp_path / "y.json"]) == 2
    assert not (tmp_path / "y.json").exists()


def test_convert_csv_is_the_csv_of_the_converted_file(tmp_path):
    src = generate_couette(tmp_path, nodes=16)
    out, csv_path = tmp_path / "dn.json", tmp_path / "dn.csv"
    assert run(["convert", "stress-to-dn", "--in", src, "--out", out, "--csv", csv_path]) == 0
    write_csv(tmp_path / "want.csv", read_dataset(out))  # the JSON round trip is bitwise
    assert csv_path.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_convert_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert run(["convert", "stress-to-dn", "--in", bad, "--out", tmp_path / "y.json"]) == 3
    assert run(["convert", "stress-to-dn", "--in", tmp_path / "missing.json",
                "--out", tmp_path / "y.json"]) == 3


@pytest.mark.parametrize("name", sorted(UNREADABLE_FILES))
def test_unreadable_file_is_one_error_line(tmp_path, name):
    content, message = UNREADABLE_FILES[name]
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    for argv in (["verify", bad], ["convert", "stress-to-dn", "--in", bad, "--out", tmp_path / "o.json"]):
        done = run_cli(*argv)
        assert done.returncode == 3, done.stderr
        assert re.fullmatch(rf"error: [^\n]*{message}[^\n]*\n", done.stderr), done.stderr
    assert not (tmp_path / "o.json").exists()


def test_convert_rejects_boolean_and_out_of_range_numbers(tmp_path):
    src = generate_couette(tmp_path)
    for name, literal in [("bool.json", "true"), ("huge.json", "1" + "0" * 400)]:
        doc = json.loads(src.read_text())
        doc["t1"][3] = "VALUE"
        bad = tmp_path / name
        bad.write_text(json.dumps(doc).replace('"VALUE"', literal))
        assert run(["convert", "stress-to-dn", "--in", bad, "--out", tmp_path / "o.json"]) == 3


def test_convert_minimal_patch_too_short_to_restrict(tmp_path, capsys):
    # the 1-node interior of a 5-node patch cannot carry a grid spacing, so
    # this is malformed; six nodes leave a 2-node interior
    for direction, tol in (("stress-to-dn", []), ("dn-to-stress", ["--residual-tol", "1"])):
        for nodes, code in ((5, 3), (6, 0)):
            src = generate_trig(tmp_path, "graph:poly:0,0.2", nodes, name=f"n{nodes}.json")
            out = tmp_path / f"{direction}-{nodes}.json"
            capsys.readouterr()
            assert run(["convert", direction, "--in", src, "--out", out, *tol]) == code
            assert out.exists() == (code == 0)
            if code:
                assert capsys.readouterr().err == \
                    "error: patch too short to restrict: needs at least 6 nodes\n"


@pytest.mark.parametrize("nodes", [3, 5])
@pytest.mark.parametrize("direction", ["stress-to-dn", "dn-to-stress"])
def test_convert_refuses_a_patch_too_short_to_restrict_before_converting(
        tmp_path, capsys, monkeypatch, direction, nodes):
    def conversion(*args):
        raise AssertionError("a patch too short to restrict was converted")

    src = generate_trig(tmp_path, "graph:poly:0,0.2", 5)
    doc = json.loads(src.read_text())  # 3 nodes: the file generate cannot write
    for arrays in (doc["patch"], doc):
        for key in ("x1_nodes", "gamma", "gamma_prime", "mu", "u1", "u2", "dnu1", "dnu2", "p",
                    "t1", "t2"):
            if key in arrays:
                arrays[key] = arrays[key][:nodes]
    src.write_text(json.dumps(doc))
    monkeypatch.setattr("cauchyflow.transform.stress_to_dn", conversion)
    monkeypatch.setattr("cauchyflow.transform.dn_to_stress", conversion)
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run(["convert", direction, "--in", src, "--out", out, "--residual-tol", "1"]) == 3
    assert capsys.readouterr().err == "error: patch too short to restrict: needs at least 6 nodes\n"
    assert not out.exists()


@pytest.mark.parametrize("direction", ["stress-to-dn", "dn-to-stress"])
def test_non_finite_provenance_is_refused_on_read(tmp_path, capsys, monkeypatch, direction):
    # 1e400 reads as inf, which no file can hold; verify passed it, and convert
    # ran the whole conversion before the writer refused it
    def conversion(*args):
        raise AssertionError("a file the reader refuses was converted")

    src = generate_couette(tmp_path)
    src.write_text(src.read_text().replace('"flow": "couette"', '"flow": 1e400'))
    capsys.readouterr()
    assert run(["verify", src]) == 3
    assert capsys.readouterr() == ("", "error: provenance holds a non-finite number\n")
    monkeypatch.setattr("cauchyflow.transform.stress_to_dn", conversion)
    monkeypatch.setattr("cauchyflow.transform.dn_to_stress", conversion)
    out = tmp_path / "out.json"
    assert run(["convert", direction, "--in", src, "--out", out]) == 3
    assert capsys.readouterr() == ("", "error: provenance holds a non-finite number\n")
    assert not out.exists()


@pytest.mark.parametrize("fault, message", [
    ("unknown key", "unknown top-level key 'provenence'"),
    ("array of another kind", "array 't1' is inconsistent with data_kind 'dn'"),
])
def test_reader_refuses_a_key_the_file_may_not_hold(tmp_path, capsys, fault, message):
    # the reader dropped both without a word
    src = generate_couette(tmp_path)
    doc = json.loads(src.read_text())
    if fault == "unknown key":
        doc["provenence"] = {}
    else:
        doc["data_kind"] = "dn"  # t1 and t2 stay
    src.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", src]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    for direction in ("stress-to-dn", "dn-to-stress"):
        out = tmp_path / f"{direction}.json"
        assert run(["convert", direction, "--in", src, "--out", out]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


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


def test_generate_on_a_far_off_tip_window_writes_uniform_grids(tmp_path):
    # a tip window of this cover spans x1 in [-42.627, -42.613] in its
    # frame: 1023 steps of 1.4e-5 near |x1| = 43, whose nodes stay exact
    # multiples of the grid's raster
    out = tmp_path / "tip.json"
    code = run(["generate", "--flow", "couette", "--pressure", "zero", "--viscosity", "unit",
                "--curve", "ellipse:100,1", "--max-slope", 0.5, "--nodes", 1024, "--out", out])
    assert code == 0
    parts = sorted(tmp_path.glob("tip-p*.json"))
    assert len(parts) == 20
    for part in parts:
        assert run(["verify", part]) == 0, part.name


@pytest.mark.parametrize("max_slope, count", [(0.5, 34), (1.0, 30)])
def test_partition_covers_the_tips_of_a_thin_ellipse_at_the_widest_overlap(tmp_path, max_slope,
                                                                           count):
    # sampled uniformly in t, the tips of ellipse:100,1 (|x| > 99) held 371
    # of the partitioner's 4097 samples and its shortest windows a handful,
    # too few for windows that share 45% and meet at their stencil interiors,
    # and this was refused; spaced by arc length plus turn, the tips hold 1979
    out = tmp_path / "thin.json"
    assert run(["partition", "--curve", "ellipse:100,1", "--max-slope", max_slope,
                "--overlap", 0.45, "--nodes", 1024, "--out", out]) == 0
    patches = json.loads(out.read_text())["patches"]
    assert len(patches) == count


def test_verify_zeroed_viscosity(tmp_path):
    src = generate_couette(tmp_path)
    doc = json.loads(src.read_text())
    doc["patch"]["mu"][3] = 0.0
    bad = tmp_path / "mu0.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", bad]) == 5


@pytest.mark.parametrize("direction", ["stress-to-dn", "dn-to-stress"])
def test_convert_zeroed_viscosity_exits_5(tmp_path, capsys, direction):
    src = generate_couette(tmp_path)
    doc = json.loads(src.read_text())
    doc["patch"]["mu"][3] = 0.0
    bad = tmp_path / "mu0.json"
    bad.write_text(json.dumps(doc))
    assert run(["convert", direction, "--in", bad, "--out", tmp_path / "o.json"]) == 5
    assert capsys.readouterr().err == ("error: patch invariant violated: "
                                       "viscosity must be positive at every node\n")
    assert not (tmp_path / "o.json").exists()


def test_verify_perturbed_slope_fails_cross_format(tmp_path, capsys):
    src = generate_couette(tmp_path)
    doc = json.loads(src.read_text())
    doc["patch"]["gamma_prime"] = [g + 1.0 for g in doc["patch"]["gamma_prime"]]
    bad = tmp_path / "gp.json"
    bad.write_text(json.dumps(doc))
    code = run(["verify", bad])
    printed = capsys.readouterr().out
    assert code == 4
    assert "patch invariants: pass" in printed
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


def test_consistency_tolerance_does_not_grow_with_the_viscosity(tmp_path, capsys):
    # the residual tau.a + nu.dnu does not read mu, so mu = 1e5 leaves its
    # tolerance where it is and a wrong u1 value still fails both commands
    generate_trig(tmp_path, "circle:1", 64)
    doc = json.loads((tmp_path / "trig-p00.json").read_text())
    del doc["t1"], doc["t2"]
    doc["data_kind"] = "dn"
    doc["patch"]["mu"] = [1e5] * 64
    src = tmp_path / "dn.json"
    src.write_text(json.dumps(doc))
    assert run(["verify", src]) == 0
    doc["u1"][32] += 1e-3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", bad]) == 4
    assert re.search(r"consistency residual max = \S+ \(tol \S+\): FAIL", capsys.readouterr().out)
    assert run(["convert", "dn-to-stress", "--in", bad, "--out", tmp_path / "out.json"]) == 4


def test_data_near_the_float_limit_print_no_warnings(tmp_path):
    # the stencil overflows to inf and nan; the checks and the writer say so
    patch = flat_patch(16)
    z = np.zeros(16)
    src = tmp_path / "big.json"
    write_dataset(src, Dataset(patch=patch, data_kind="dn", u1=1e308 * np.sin(3 * patch.x1),
                               u2=z, dnu1=z, dnu2=z, p=z))
    done = run_cli("verify", src)
    assert done.returncode == 4
    assert done.stderr == ""
    assert re.search(r"consistency residual max = nan \(tol \S+\): FAIL", done.stdout)
    done = run_cli("convert", "dn-to-stress", "--in", src, "--out", tmp_path / "out.json")
    assert done.returncode == 3
    assert done.stderr == "error: cannot serialize non-finite value\n"


def generate_trig(tmp_path, curve, nodes, name="trig.json"):
    out = tmp_path / name
    assert run(["generate", "--flow", "trig", "--pressure", "trig", "--viscosity", "variable",
                "--curve", curve, "--nodes", nodes, "--out", out]) == 0
    return out


@pytest.mark.parametrize("nodes", [5, 7])
def test_verify_skips_data_checks_below_eight_nodes(tmp_path, capsys, nodes):
    # the error model reads seventh differences of u
    src = generate_trig(tmp_path, "graph:poly:0,0.1", nodes)
    capsys.readouterr()
    assert run(["verify", src]) == 0
    assert (f"consistency and cross-format checks: skipped ({nodes} nodes, fewer than the 8 "
            "the error model needs)") in capsys.readouterr().out


def test_verify_checks_short_patch_with_an_explicit_tolerance(tmp_path, capsys):
    src = generate_trig(tmp_path, "graph:poly:0,0.1", 6)
    capsys.readouterr()
    assert run(["verify", src, "--residual-tol", "1"]) == 0
    printed = capsys.readouterr().out
    assert re.search(r"consistency residual max = \S+ \(tol 1\): pass", printed)
    assert re.search(r"cross-format max deviation = \S+ \(tol 1\): pass", printed)


def test_verify_refuses_a_patch_the_stencil_cannot_differentiate(tmp_path, capsys):
    # only the error model's 8-node rule skips the checks; with a tolerance
    # given, a 4-node patch is refused as convert refuses it
    src = tmp_path / "short.json"
    z = np.zeros(4)
    write_dataset(src, Dataset(patch=flat_patch(4), data_kind="dn", u1=z, u2=z, dnu1=z, dnu2=z, p=z))
    capsys.readouterr()
    assert run(["verify", src, "--residual-tol", "1"]) == 3
    assert capsys.readouterr() == ("patch invariants: pass\n",
                                   "error: patch too short for stencil differentiation\n")


def test_convert_below_eight_nodes_needs_an_explicit_tolerance(tmp_path, capsys):
    src = generate_trig(tmp_path, "graph:poly:0,0.1", 7)
    args = ["convert", "dn-to-stress", "--in", src, "--out", tmp_path / "out.json"]
    capsys.readouterr()
    assert run(args) == 3
    assert capsys.readouterr().err == "error: 7 nodes, fewer than the 8 the error model needs\n"
    assert run([*args, "--residual-tol", "1"]) == 0


def test_stress_to_dn_needs_no_tolerance_on_a_short_patch(tmp_path, capsys):
    # traction data carry no redundant relation, so there is nothing to bound
    src = generate_trig(tmp_path, "graph:poly:0,0.1", 6)
    capsys.readouterr()
    assert run(["convert", "stress-to-dn", "--in", src, "--out", tmp_path / "out.json"]) == 0
    assert "residual tolerance = 0\n" in capsys.readouterr().out


def test_verify_checks_dn_data_on_their_own_scale(tmp_path, capsys):
    # criterion 8's divergent dn data beside a huge traction: the consistency
    # check reads (u, dnu, p) only, so t1 does not widen its tolerance
    patch = flat_patch(68)
    x, z = patch.x1, np.zeros(68)
    src = tmp_path / "bad.json"
    write_dataset(src, Dataset(patch=patch, data_kind="both", u1=x, u2=z, dnu1=z,
                               dnu2=np.ones(68), p=z, t1=np.full(68, 1e300), t2=z))
    assert run(["verify", src]) == 4
    printed = capsys.readouterr().out
    assert re.search(r"consistency residual max = 2 \(tol \S+\): FAIL", printed)


@pytest.mark.parametrize("nodes, delta", [(64, 1e-3), (4096, 1e-8)])
def test_verify_flags_one_perturbed_normal_derivative(tmp_path, capsys, nodes, delta):
    generate_trig(tmp_path, "circle:1", nodes)
    src = tmp_path / "trig-p00.json"
    assert run(["verify", src]) == 0
    doc = json.loads(src.read_text())
    doc["dnu2"][nodes // 2] += delta
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", bad]) == 4
    assert re.search(r"consistency residual max = \S+ \(tol \S+\): FAIL", capsys.readouterr().out)


def defect(kind, n):
    """A change to u1 on an n-node patch: one node, two nodes, or noise on all."""
    if kind == "noise":
        return 1e-6 * np.random.default_rng(0).standard_normal(n)
    where, size = kind
    d = np.zeros(n)
    d[where] = size
    return d


@pytest.mark.parametrize("kind", [(32, 1e-3), (32, 1e3), (2, 1e-3), (-3, 1e-3),
                                  (slice(32, 34), 1e-3), "noise"],
                         ids=["mid", "mid-huge", "first-interior", "last-interior", "two-nodes",
                              "noise"])
def test_verify_flags_a_defect_in_the_velocity(tmp_path, capsys, kind):
    # a defect in u raises the higher differences of u more than the fifth,
    # so it does not widen the tolerance with its own size
    generate_trig(tmp_path, "circle:1", 64)
    src = tmp_path / "trig-p00.json"
    doc = json.loads(src.read_text())
    doc["u1"] = (np.array(doc["u1"]) + defect(kind, 64)).tolist()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", bad]) == 4
    printed = capsys.readouterr().out
    assert re.search(r"consistency residual max = \S+ \(tol \S+\): FAIL", printed)
    assert re.search(r"cross-format max deviation = \S+ \(tol \S+\): FAIL", printed)


def test_margin_values_do_not_widen_the_tolerance(tmp_path, capsys):
    # no check reads dnu, p or t at the margin nodes, so huge values there
    # must not widen the tolerances and hide a defect in u
    out = tmp_path / "trig.json"
    assert run(["generate", "--flow", "trig", "--pressure", "trig", "--viscosity", "unit",
                "--curve", "circle:1", "--nodes", 64, "--out", out]) == 0
    doc = json.loads((tmp_path / "trig-p00.json").read_text())
    doc["u1"][32] += 1e-4
    doc["dnu1"][0], doc["p"][-1], doc["t1"][1] = 1e12, -1e12, 1e12
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", bad]) == 4
    printed = capsys.readouterr().out
    assert re.search(r"consistency residual max = \S+ \(tol \S+\): FAIL", printed)
    assert re.search(r"cross-format max deviation = \S+ \(tol \S+\): FAIL", printed)


def test_generate_then_verify_passes_on_every_curve_kind(tmp_path, monkeypatch):
    # exact oracle data pass both data checks: every catalog triple on each
    # builtin curve kind at 16 nodes and on one of them at 64, some at 4096
    # nodes, and a circle so small that the cubic flow's velocity underflows
    from cauchyflow import builtin_catalog, cli

    parser = cli.build_parser()
    covers = {}
    partition = cli._curve_patches

    def partition_once(args, mu=1.0):  # the cover depends on the curve, size and viscosity
        key = (args.curve, args.nodes, mu)
        if key not in covers:
            covers[key] = partition(args, mu)
        return covers[key]

    def run_once(*argv):  # main() without rebuilding the parser
        args = parser.parse_args([str(a) for a in argv])
        return args.func(args)

    monkeypatch.setattr(cli, "_curve_patches", partition_once)
    catalog = {t.name: t for t in builtin_catalog()}
    curves = ("circle:1", "ellipse:2,1", "graph:poly:0,0.5,-0.2")
    cases = [(t, curve, 16) for t in catalog.values() for curve in curves]
    cases += [(t, curves[k % 3], 64) for k, t in enumerate(catalog.values())]
    cases += [(catalog[name], curve, 4096) for name, curve in (
        ("trig/trig/variable", "circle:1"), ("trig/trig/variable", "graph:poly:0,0.5,-0.2"),
        ("cubic/linear/unit", "graph:poly:0,0.5,-0.2"))]
    cases += [(catalog[f"{flow}/{rest}"], "circle:1e-300", 16) for flow in ("cubic", "trig")
              for rest in ("zero/unit", "trig/variable")]
    for k, (triple, curve, nodes) in enumerate(cases):
        out = tmp_path / str(k)
        out.mkdir()
        assert run_once("generate", "--flow", triple.flow.name, "--pressure", triple.pressure.name,
                        "--viscosity", triple.viscosity.name, "--curve", curve,
                        "--nodes", nodes, "--out", out / "g.json") == 0
        for path in sorted(out.glob("*.json")):
            assert run_once("verify", path) == 0, (triple.name, curve, nodes, path.name)


@pytest.mark.parametrize("command,option,value", [
    ("convert", "--residual-tol", "nan"),
    ("convert", "--residual-tol", "-1"),
    ("verify", "--residual-tol", "nan"),
    ("verify", "--residual-tol", "-1"),
    ("verify", "--max-slope", "nan"),
    ("verify", "--max-slope", "0"),
    ("verify", "--max-slope", "-1"),
    ("verify", "--max-slope", "inf"),
])
def test_malformed_limits_exit_3(tmp_path, capsys, command, option, value):
    src = generate_couette(tmp_path)
    if command == "convert":
        args = ["convert", "dn-to-stress", "--in", src, "--out", tmp_path / "out.json"]
    else:
        args = ["verify", src]
    capsys.readouterr()
    assert run([*args, f"{option}={value}"]) == 3
    # --max-slope in the line partition and generate print for it
    rule = {"--residual-tol": "a non-negative number, got", "--max-slope": "a positive finite number, not"}
    assert capsys.readouterr() == ("", f"error: {option} must be {rule[option]} {float(value)!r}\n")
    assert not (tmp_path / "out.json").exists()


def test_verify_malformed(tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text("[1, 2, 3]")
    assert run(["verify", bad]) == 3


@pytest.mark.parametrize("argv, target, message", [
    (["partition", "--curve", "circle:1", "--out", "{out}"], "dataio.write_patch_set", "boom"),
    (["partition", "--curve", "circle:1", "--out", "{out}"], "geometry.partition_curve", "boom"),
    (["convert", "stress-to-dn", "--in", "{data}", "--out", "{out}"], "dataio.read_dataset", "boom"),
    (["convert", "dn-to-stress", "--in", "{data}", "--out", "{out}"], "dataio.write_dataset", "boom"),
    (["verify", "{data}"], "dataio.read_dataset", "boom"),
    (["generate", "--flow", "couette", "--pressure", "zero", "--viscosity", "unit",
      "--curve", "graph:poly:0", "--nodes", "16", "--out", "{out}"],
     "manufactured.evaluate_traces", "patch 0: boom"),
])
def test_any_value_error_exits_3_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                     argv, target, message):
    # main holds the one handler: a ValueError from any layer a command reaches,
    # not only a DatasetFormatError, ends as exit 3 and one line on stderr
    data = generate_couette(tmp_path)
    capsys.readouterr()

    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(f"cauchyflow.{target}", boom)
    assert run([a.format(data=data, out=tmp_path / "out.json") for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("literal", ["true", "1.0"])
def test_format_version_must_be_the_integer_1(tmp_path, capsys, literal):
    # JSON true and 1.0 compare equal to 1, and neither is the version
    src = generate_couette(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(src.read_text().replace('"format_version": 1,', f'"format_version": {literal},', 1))
    capsys.readouterr()
    for argv in (["verify", bad], ["convert", "stress-to-dn", "--in", bad, "--out", tmp_path / "out.json"]):
        assert run(argv) == 3
        assert "format_version" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def generate_steep(tmp_path):
    """Circle patches cut with slope bound 2, whose |gamma'| reaches 1.5."""
    out = tmp_path / "g.json"
    assert run(["generate", "--flow", "trig", "--pressure", "trig", "--viscosity", "unit",
                "--curve", "circle:1", "--max-slope", 2, "--nodes", 64, "--out", out]) == 0
    return tmp_path / "g-p00.json"


def test_verify_audits_the_recorded_slope_bound(tmp_path, capsys):
    src = generate_steep(tmp_path)
    assert read_dataset(src).provenance["max_slope"] == 2.0
    capsys.readouterr()
    assert run(["verify", src]) != 5  # the residual is not what this test is about
    assert "patch invariants: pass" in capsys.readouterr().out
    # convert carries the provenance, so its output is audited the same way
    out = tmp_path / "dn.json"
    assert run(["convert", "stress-to-dn", "--in", src, "--out", out]) == 0
    assert read_dataset(out).provenance["max_slope"] == 2.0
    assert run(["verify", out]) == 0
    # an explicit flag wins over the provenance
    capsys.readouterr()
    assert run(["verify", src, "--max-slope", 1]) == 5
    assert "slope bound |gamma'| <= 1.0 violated" in capsys.readouterr().out


def test_verify_without_recorded_slope_bound_uses_1(tmp_path, capsys):
    doc = json.loads(generate_steep(tmp_path).read_text())
    del doc["provenance"]
    src = tmp_path / "bare.json"
    src.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", src]) == 5
    assert "slope bound |gamma'| <= 1.0 violated" in capsys.readouterr().out


@pytest.mark.parametrize("value", [0, -2.5, "2", True, None, 10 ** 400],
                         ids=["zero", "negative", "string", "bool", "null", "huge-int"])
def test_verify_bad_recorded_slope_bound_exits_3(tmp_path, capsys, value):
    src = generate_couette(tmp_path)
    doc = json.loads(src.read_text())
    doc["provenance"]["max_slope"] = value
    src.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", src]) == 3
    assert capsys.readouterr().err == (
        f"error: provenance max_slope must be a positive finite number, not {value!r}\n")
    assert run(["verify", src, "--max-slope", 1]) == 0


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


def test_x1_range_applies_only_to_graph_curves(tmp_path):
    out = tmp_path / "p.json"
    assert run(["partition", "--curve", "circle:1", "--x1-range=1,0", "--out", out]) == 0


@pytest.mark.parametrize("spec", ["circle:10000", "ellipse:1e5,1e4"])
def test_partition_large_closed_curves(tmp_path, spec):
    assert run(["partition", "--curve", spec, "--nodes", 16, "--out", tmp_path / "p.json"]) == 0


@pytest.mark.parametrize("spec, name", [
    ("circle:nan", "radius"), ("circle:inf", "radius"),
    ("ellipse:2,nan", "semi-axis b"), ("ellipse:inf,1", "semi-axis a"), ("circle:0", "radius"),
])
def test_partition_rejects_nonfinite_size(tmp_path, capsys, spec, name):
    assert run(["partition", "--curve", spec, "--out", tmp_path / "p.json"]) == 3
    err = capsys.readouterr().err
    assert name in err
    assert err.count("\n") == 1
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("spec", ["circle:1e-13", "circle:1e-200"])
def test_partition_small_closed_curves(tmp_path, spec):
    assert run(["partition", "--curve", spec, "--nodes", 16, "--out", tmp_path / "p.json"]) == 0


def partition_or_generate(command, spec, out):
    extra = {"partition": [], "generate": ["--flow", "trig", "--pressure", "trig",
                                           "--viscosity", "unit", "--nodes", 16]}[command]
    return run([command, *extra, "--curve", spec, "--out", out])


@pytest.mark.parametrize("command", ["partition", "generate"])
@pytest.mark.parametrize("radius", ["5e-310", "1e-310", "5e-324"])
def test_curve_below_float_resolution_exits_3(tmp_path, capsys, command, radius):
    # arclength maps back to the curve parameter through 1/speed, which overflows
    assert partition_or_generate(command, f"circle:{radius}", tmp_path / "p.json") == 3
    size = f"{float(radius):.3g}"
    assert capsys.readouterr().err == (
        f"error: curve of size {size} is too small to sample in floating point\n")
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("command", ["partition", "generate"])
@pytest.mark.parametrize("radius", ["1e-309", "3e-309"])
def test_smallest_sampleable_circles_partition(tmp_path, command, radius):
    assert partition_or_generate(command, f"circle:{radius}", tmp_path / "p.json") == 0
    # more nodes bring Newton steps that round from below the tolerance to a
    # move above it, where t could cycle between two floats
    if command == "partition":
        for nodes in (1024, 4096):
            argv = ["partition", "--curve", f"circle:{radius}", "--nodes", nodes, "--out", tmp_path / "p.json"]
            assert run(argv) == 0


def steep_line_dataset(orientation, slope=1e6, nodes=33):
    """Exact data of a constant trace-free gradient on the line x2 = slope x1.

    The velocity trace is linear in x1, so the stencil slopes are exact to
    roundoff; the traction and normal derivative follow by definition.
    """
    patch = graph_patch(lambda x: slope * x, slope, -1.0, 1.0, nodes, mu=1.7,
                        orientation=orientation)
    jac = np.array([[0.3, -1.1], [0.8, -0.3]])  # trace free, generic
    x = np.stack([patch.x1, patch.gamma])
    u = jac @ x
    p = 0.5 + 0.2 * x[0] - 0.4 * x[1]
    nu = normal_at(patch.gamma_prime, orientation).T
    dnu = jac @ nu
    traction = 1.7 * (jac + jac.T) @ nu - p * nu
    ds = Dataset(patch=patch, data_kind="both", u1=u[0], u2=u[1], dnu1=dnu[0], dnu2=dnu[1],
                 p=p, t1=traction[0], t2=traction[1])
    return ds, jac


@pytest.mark.parametrize("slope", [1e100, 1e300, 1e307])
@pytest.mark.parametrize("orientation", ["below", "above"])
def test_verify_passes_exact_data_at_any_finite_slope(tmp_path, capsys, orientation, slope):
    # exact data pass where the determinant's (1 + gamma'^2)^2 would overflow,
    # and at 1e307, where the sum of the patch's 33 slopes overflows
    src = tmp_path / "steep.json"
    write_dataset(src, steep_line_dataset(orientation, slope)[0])
    capsys.readouterr()
    assert run(["verify", src, "--max-slope", "1e308"]) == 0
    printed = capsys.readouterr().out
    assert re.fullmatch(r"patch invariants: pass\n"
                        r"consistency residual max = \S+ \(tol \S+\): pass\n"
                        r"cross-format max deviation = \S+ \(tol \S+\): pass\n", printed), printed


def relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("orientation", ["below", "above"])
def test_steep_slope_conversions_exact(tmp_path, capsys, orientation):
    ds, jac = steep_line_dataset(orientation)
    src = tmp_path / "steep.json"
    write_dataset(src, ds)
    cut = slice(2, -2)

    assert run(["convert", "stress-to-dn", "--in", src, "--out", tmp_path / "dn.json"]) == 0
    got = read_dataset(tmp_path / "dn.json")
    for name in ("dnu1", "dnu2", "p"):
        assert relative_error(getattr(got, name), getattr(ds, name)[cut]) <= 1e-12, name

    capsys.readouterr()
    assert run(["convert", "dn-to-stress", "--in", src, "--out", tmp_path / "st.json"]) == 0
    residual = float(re.search(r"max consistency residual = (\S+)",
                               capsys.readouterr().out).group(1))
    assert residual <= 1e-12 * np.max(np.abs(jac))  # the data are divergence free
    got = read_dataset(tmp_path / "st.json")
    for name in ("t1", "t2"):
        assert relative_error(getattr(got, name), getattr(ds, name)[cut]) <= 1e-12, name


@pytest.mark.parametrize("command", ["partition", "convert", "generate"])
def test_output_in_missing_directory_exits_3(tmp_path, capsys, command):
    out = tmp_path / "nodir" / "x.json"
    args = {
        "partition": ["partition", "--curve", "circle:1", "--out", out],
        "convert": ["convert", "stress-to-dn", "--in", generate_couette(tmp_path), "--out", out],
        "generate": ["generate", "--flow", "couette", "--pressure", "zero", "--viscosity", "unit",
                     "--curve", "circle:1", "--nodes", 16, "--out", out],
    }[command]
    capsys.readouterr()
    assert run(args) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: (patch 0: )?cannot write \S+x(-p00)?\.json: [^\n]+\n", err)


@pytest.mark.parametrize("args, message", [
    (["--curve", "graph:poly:nan"],
     "malformed curve spec 'graph:poly:nan': polynomial coefficients must be finite"),
    (["--curve", "graph:poly:0,inf"],
     "malformed curve spec 'graph:poly:0,inf': polynomial coefficients must be finite"),
    (["--curve", "graph:poly:1e308,1e308"], "curve samples are not finite"),
    (["--curve", "graph:poly:0", "--x1-range=-1e308,1e308"],
     "malformed curve spec 'graph:poly:0': abscissa range [-1e+308, 1e+308] must be "
     "non-empty and finite"),
    (["--curve", "graph:poly:0", "--x1-range=-inf,1"],
     "malformed curve spec 'graph:poly:0': abscissa range [-inf, 1.0] must be non-empty and finite"),
    (["--curve", "graph:poly:0", "--x1-range=1,0"],
     "malformed curve spec 'graph:poly:0': abscissa range [1.0, 0.0] must be non-empty and finite"),
    # a range that is not two numbers is the flag's fault, not the curve spec's
    (["--curve", "graph:poly:0,0.2", "--x1-range=1"], "--x1-range must be two numbers LO,HI, got '1'"),
    (["--curve", "graph:poly:0,0.2", "--x1-range=a,b"],
     "--x1-range must be two numbers LO,HI, got 'a,b'"),
    (["--curve", "graph:poly:0,0.2", "--x1-range=1,2,3"],
     "--x1-range must be two numbers LO,HI, got '1,2,3'"),
    (["--curve", "circle:1", "--max-slope", "inf"],
     "--max-slope must be a positive finite number, not inf"),
    (["--curve", "circle:1", "--max-slope", "0"], "--max-slope must be a positive finite number, not 0.0"),
    (["--curve", "circle:1", "--overlap", "0.5"], "--overlap must lie in [0, 0.5)"),
    (["--curve", "circle:1", "--nodes", "4"], "--nodes must be at least 5"),
], ids=["poly-nan", "poly-inf", "poly-overflow", "range-overflow", "range-inf", "range-empty",
        "range-one-number", "range-not-numbers", "range-three-numbers",
        "slope-inf", "slope-zero", "overlap-half", "nodes-4"])
@pytest.mark.parametrize("command", ["partition", "generate"])
def test_non_finite_curve_input_exits_3_with_one_line(tmp_path, capsys, command, args, message):
    out = tmp_path / "x.json"
    if command == "generate":
        args = ["--flow", "trig", "--pressure", "trig", "--viscosity", "unit", "--nodes", 16, *args]
    capsys.readouterr()
    assert run([command, *args, "--out", out]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# runs the CLI in a child whose address space is capped at 3 GiB; never run
# the commands below without the cap: where memory is overcommitted, numpy
# could start filling their 7.45 GiB arrays
CAPPED_CLI = ("import os, resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
              "os.execv(sys.executable, [sys.executable, '-m', 'cauchyflow', *sys.argv[1:]])")


@pytest.mark.parametrize("args", [
    ["generate", "--flow", "trig", "--pressure", "trig", "--viscosity", "unit",
     "--curve", "graph:poly:0,0.2", "--nodes", "1000000000"],
    ["partition", "--curve", "circle:1", "--nodes", "1000000000"],
], ids=["generate", "partition"])
def test_nodes_too_large_for_memory_exit_3_with_one_line(tmp_path, args):
    pytest.importorskip("resource")
    out = tmp_path / "x.json"
    done = subprocess.run([sys.executable, "-c", CAPPED_CLI, *args, "--out", str(out)],
                          env=SRC_ENV, capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert re.fullmatch(r"error: [^\n]+\n", done.stderr), done.stderr
    assert not out.exists()


def test_a_memory_error_without_a_message_exits_3(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("cauchyflow.geometry.partition_curve", exhausted)
    assert run(["partition", "--curve", "circle:1", "--out", tmp_path / "x.json"]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"


def test_partition_invalid_slope(tmp_path, capsys):
    code = run(["partition", "--curve", "circle:1.0", "--max-slope", 0,
                "--out", tmp_path / "p.json"])
    assert code == 3
    assert capsys.readouterr().err == "error: --max-slope must be a positive finite number, not 0.0\n"


@pytest.mark.parametrize("spec, slope, why", [
    ("circle:1", "1e-4", "its tangent turns past the slope cone between adjacent samples"),
    ("graph:poly:0,0,3", "1e-4", "its tangent turns past the slope cone between adjacent samples"),
])
def test_partition_max_slope_too_small_exits_3(tmp_path, capsys, spec, slope, why):
    out = tmp_path / "p.json"
    assert run(["partition", "--curve", spec, "--max-slope", slope, "--nodes", 16, "--out", out]) == 3
    assert capsys.readouterr().err == f"error: --max-slope is too small for this curve: {why}\n"
    assert not out.exists()


@pytest.mark.parametrize("spec, slope, nodes", [
    ("circle:1", "1e-3", 16), ("circle:1", "1", 5), ("graph:poly:0,0,3", "1", 5)])
def test_partition_refuses_windows_too_short_for_the_overlap(tmp_path, capsys, spec, slope, nodes):
    # at slope 1e-3 the unit circle's windows are one sample interval long and
    # could share only an end; a 5-node patch's stencil interior is one node
    out = tmp_path / "p.json"
    assert run(["partition", "--curve", spec, "--max-slope", slope, "--nodes", nodes,
                "--out", out]) == 3
    assert capsys.readouterr().err == (
        "error: --max-slope or --nodes is too small for this curve: its windows are too short "
        "to share the overlap and the patches' stencil margins\n")
    assert not out.exists()


@pytest.mark.parametrize("curve, nodes", [("circle:1e6", 16), ("circle:1e6", 4096),
                                          ("ellipse:100,1", 16), ("ellipse:10,1", 16)])
def test_generate_refuses_data_its_checks_fail(tmp_path, capsys, curve, nodes):
    # the trig flow has fewer than 6 nodes per wavelength on these patches; on
    # ellipse:10,1 patches 0-6 pass and are written, then removed; patch 7 is
    # a 16-node flank patch at 1.5 times the tolerance
    code = run(["generate", "--flow", "trig", "--pressure", "trig", "--viscosity", "variable",
                "--curve", curve, "--nodes", nodes, "--out", tmp_path / "g.json",
                "--csv", tmp_path / "g.csv"])
    assert code == 3
    assert re.fullmatch(r"error: patch \d+: the data checks fail at \S+ times their tolerance: "
                        r"the grid does not resolve the flow; use more --nodes or a smaller curve\n",
                        capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


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


def test_verify_prints_its_three_lines_on_exact_closed_curve_data(tmp_path, capsys):
    # the invariants line, then the two data checks, residual first; exact data pass both
    generate_trig(tmp_path, "circle:1", 64)
    for part in sorted(tmp_path.glob("trig-p*.json")):
        capsys.readouterr()
        assert run(["verify", part]) == 0, part.name
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3, lines
        assert lines[0] == "patch invariants: pass"
        assert re.fullmatch(r"consistency residual max = \S+ \(tol \S+\): pass", lines[1])
        assert re.fullmatch(r"cross-format max deviation = \S+ \(tol \S+\): pass", lines[2])


def test_every_csv_field_is_the_json_number_text_at_its_node(tmp_path):
    # the JSON writer formats 1024 values a block, in array passes, and the
    # CSV writer 1024 rows a block through "%.17g"; 3 * 4096 + 5 nodes cross
    # many seams of both (test_dataio checks seams that fall apart)
    n, out, csv_path = 3 * 4096 + 5, tmp_path / "big.json", tmp_path / "big.csv"
    assert run(["generate", "--flow", "trig", "--pressure", "trig", "--viscosity", "variable",
                "--curve", "graph:poly:0.1,0.3,-0.2,0.1", "--nodes", n,
                "--out", out, "--csv", csv_path]) == 0
    texts = {name.replace("_nodes", ""): body.split(", ")
             for name, body in re.findall(r'"(\w+)": \[([^]]*)\]', out.read_text())}
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == n
    assert set(rows[0]) <= set(texts)
    for i, row in enumerate(rows):
        for name, field in row.items():
            assert field == texts[name][i], (name, i)


HELP_RUN = """
import runpy, sys
sys.argv = ["cauchyflow", "--help"]
try:
    runpy.run_module("cauchyflow", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def modules_loaded_at_startup(code, package):
    probe = code + ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules "
                    f"if m.split('.')[0] == {package!r})))")
    done = subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("code", ["import cauchyflow", HELP_RUN], ids=["import", "help"])
def test_startup_loads_no_scipy(code):
    # numpy is the only runtime dependency; scipy would triple startup time
    assert modules_loaded_at_startup(code, "scipy") == []


@pytest.mark.parametrize("code", ["import cauchyflow", HELP_RUN], ids=["import", "help"])
def test_startup_loads_no_executor(code):
    # blockwise starts plain threads only when a call spans several blocks
    assert modules_loaded_at_startup(code, "concurrent") == []


def _record_freezes(monkeypatch, calls):
    """Replace gc.freeze with a recorder, so this process's heap is never frozen."""
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))


def _record_entry(monkeypatch, calls, code):
    """Record the collector's disable and freeze, and run a `cli.main` that returns `code`."""
    _record_freezes(monkeypatch, calls)
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)


def test_console_freezes_the_collector_after_main_then_exits_with_its_code(monkeypatch):
    calls = []
    _record_entry(monkeypatch, calls, 4)
    with pytest.raises(SystemExit) as exc:
        entry.console()
    assert exc.value.code == 4
    assert calls == ["disable", "main", "freeze"]


def test_main_never_freezes_the_collector(tmp_path, monkeypatch):
    calls = []
    _record_freezes(monkeypatch, calls)
    frozen = gc.get_freeze_count()
    assert main(["verify", str(generate_couette(tmp_path))]) == 0
    assert calls == []
    assert gc.get_freeze_count() == frozen


def test_module_entry_runs_through_console(monkeypatch):
    calls = []
    _record_entry(monkeypatch, calls, 0)
    # runpy warns of a module it would run that is already imported, as `entry` is
    monkeypatch.delitem(sys.modules, "cauchyflow.__main__")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("cauchyflow", run_name="__main__")
    assert exc.value.code == 0
    assert calls == ["disable", "main", "freeze"]


def test_a_cli_process_prints_and_exits_as_main_returns(tmp_path, capsys):
    # the process exits with the collector frozen: its output is still flushed
    # whole. One pressure value changed fails the cross-format check: exit 4
    path = generate_couette(tmp_path)
    doc = json.loads(path.read_text())
    doc["p"][20] = 1e-3
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 4
    printed = capsys.readouterr()
    done = run_cli("verify", path)
    assert (done.returncode, done.stdout, done.stderr) == (4, printed.out, printed.err)


def run_child(code, **env):
    """Run `code` in a new interpreter importing src/, OPENBLAS_NUM_THREADS unset unless given;
    returns the JSON value of its last stdout line."""
    child_env = {k: v for k, v in SRC_ENV.items() if k != "OPENBLAS_NUM_THREADS"} | env
    done = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_loads_neither_numpy_nor_a_submodule():
    assert modules_loaded_at_startup("import cauchyflow", "numpy") == []
    assert modules_loaded_at_startup("import cauchyflow", "cauchyflow") == ["cauchyflow"]


def test_every_root_name_resolves_to_its_submodule_attribute():
    found = run_child("""
import json, sys, cauchyflow
names = list(cauchyflow.__all__)
values = {name: getattr(cauchyflow, name) for name in names}
from cauchyflow import dataio, geometry, manufactured, traces, transform
owners = {name: [m.__name__ for m in (dataio, geometry, manufactured, traces, transform)
                 if name in vars(m)] for name in names}
same = all(owners[n] and all(values[n] is getattr(sys.modules[m], n) for m in owners[n])
           for n in names)
try:
    cauchyflow.nosuch
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps([names, same, sorted(set(names) - set(dir(cauchyflow))), missing]))
""")
    names, same, undir, missing = found
    assert len(names) == 45 and names == sorted(names)
    assert same
    assert undir == []
    assert missing == "module 'cauchyflow' has no attribute 'nosuch'"


# `python -m cauchyflow` with cli.main replaced by a recorder of the variable, of numpy and of
# the collector
ENTRY_PROBE = """
import gc, json, os, runpy, sys, types
import cauchyflow
seen = []
cli = types.ModuleType("cauchyflow.cli")
cli.main = lambda: seen.append([os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules,
                                gc.isenabled()]) or 0
sys.modules["cauchyflow.cli"] = cauchyflow.cli = cli
try:
    runpy.run_module("cauchyflow", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(seen))
"""


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("2", "2")], ids=["unset", "user-set"])
def test_module_entry_sets_one_blas_thread_before_numpy_loads(preset, seen):
    # and turns the collector off before anything loads
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    assert run_child(ENTRY_PROBE, **env) == [[seen, False, False]]


def test_console_script_module_loads_no_numpy():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, func = re.search(r'^cauchyflow = "([\w.]+):(\w+)"$', text, re.M).groups()
    loaded = run_child(f"import importlib, json, sys\nm = importlib.import_module({module!r})\n"
                       f"print(json.dumps([callable(m.{func}), 'numpy' in sys.modules]))")
    assert loaded == [True, False]


def test_library_use_leaves_the_environment_alone(tmp_path):
    # the environment and the collector, which only the module entry turns off
    unchanged = run_child(f"""
import gc, json, os
before = dict(os.environ)
import cauchyflow
cauchyflow.circle(1.0)
from cauchyflow import cli
code = cli.main(["partition", "--curve", "circle:1", "--out", {str(tmp_path / "p.json")!r}])
print(json.dumps([code, dict(os.environ) == before, gc.isenabled()]))
""")
    assert unchanged == [0, True, True]


def closed_stdout_run(*argv):
    """Run the CLI with its stdout a pipe whose read end is already closed."""
    r, w = os.pipe()
    os.close(r)
    try:
        return subprocess.run([sys.executable, "-m", "cauchyflow", *map(str, argv)], stdout=w,
                              stderr=subprocess.PIPE, env=SRC_ENV, text=True, timeout=120)
    finally:
        os.close(w)


def test_a_closed_stdout_exits_1_without_a_traceback(tmp_path):
    path = generate_couette(tmp_path)
    done = closed_stdout_run("verify", path)
    assert (done.returncode, done.stderr) == (1, "")
    assert run_cli("convert", "stress-to-dn", "--in", path, "--out", tmp_path / "a.json").returncode == 0
    done = closed_stdout_run("convert", "stress-to-dn", "--in", path, "--out", tmp_path / "b.json")
    assert (done.returncode, done.stderr) == (1, "")
    assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()
