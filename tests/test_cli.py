import json
import os
import subprocess
import sys

import pytest

import qop
from qop.cli import main
from qop.generators import ginibre
from qop.linalg import QMatrix
from qop.matio import json_to_matrix, save_matrix
from qop.quaternion import I, Quaternion


def _write(tmp_path, name, matrix):
    path = tmp_path / name
    save_matrix(str(path), matrix)
    return str(path)


def _shift_file(tmp_path):
    return _write(tmp_path, "shift.json",
                  QMatrix.from_quaternions([[0.0, 1.0], [0.0, 0.0]]))


def test_classify_identity(tmp_path, capsys):
    path = _write(tmp_path, "eye.json", QMatrix.identity(2))
    assert main(["classify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["selfadjoint"] and out["positive"] and out["normal"] and out["unitary"]
    assert out["positive_margin"] == pytest.approx(1.0)


def test_classify_with_hyponormal_flag(tmp_path, capsys):
    path = _shift_file(tmp_path)
    assert main(["classify", path, "--p", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert not out["normal"]
    assert out["p_hyponormal"]["violated"] is True
    assert out["p_hyponormal"]["margin"] == pytest.approx(-1.0)


def test_classify_finds_no_violation_on_a_near_singular_normal_operator(tmp_path, capsys):
    # (TT*)^p is pulled back from the SVD's left vectors, so U's error near
    # sigma = 1e-12 does not enter: the U sandwich printed "violated": true
    path = str(tmp_path / "n.json")
    assert main(["gen", "normal-with-spectrum", "--dim", "4", "--seed", "0", "--spectrum",
                 "1,0,0,0;0.5,0,0,0;1e-12,0,0,0;0.3,0,0,0", "-o", path]) == 0
    for p in ("0.1", "0.05"):
        capsys.readouterr()
        assert main(["classify", path, "--p", p]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["normal"] is True and out["p_hyponormal"]["violated"] is False, p


def test_polar_output(tmp_path, capsys):
    path = _shift_file(tmp_path)
    assert main(["polar", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rank"] == 1
    assert json_to_matrix(out["absT"]).entry(1, 1) == Quaternion(1.0, 0.0, 0.0, 0.0)
    assert json_to_matrix(out["U"]).entry(0, 1) == Quaternion(1.0, 0.0, 0.0, 0.0)


def test_transform_aluthge_annihilates_shift(tmp_path, capsys):
    path = _shift_file(tmp_path)
    assert main(["transform", "--kind", "aluthge", path]) == 0
    out = json_to_matrix(json.loads(capsys.readouterr().out))
    assert out.frobenius() <= 1e-12


def test_transform_lambda_and_sr_kinds(tmp_path, capsys):
    path = _write(tmp_path, "pos.json", QMatrix.diag([1.0, 4.0]))
    assert main(["transform", "--kind", "lambda:0.5", path]) == 0
    assert main(["transform", "--kind", "sr:1.0", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines:
        m = json_to_matrix(json.loads(line))
        assert (m - QMatrix.diag([1.0, 4.0])).frobenius() <= 1e-9


def test_transform_unknown_kind(tmp_path, capsys):
    path = _shift_file(tmp_path)
    assert main(["transform", "--kind", "cayley", path]) == 2
    assert "unknown transform kind" in capsys.readouterr().err
    # a malformed number is a usage error (2), not a violation (1)
    for kind in ("lambda:abc", "sr:x"):
        assert main(["transform", "--kind", kind, path]) == 2
        assert "is not a number" in capsys.readouterr().err


def test_transform_rejects_a_nonfinite_exponent(tmp_path, capsys):
    path = _shift_file(tmp_path)
    for kind in ("sr:nan", "sr:inf"):
        assert main(["transform", "--kind", kind, path]) == 2
        assert "exponent must be positive and finite" in capsys.readouterr().err


def test_spectrum_classes(tmp_path, capsys):
    t = QMatrix.diag([I, Quaternion(0.0, 0.0, 2.0, 0.0)])
    path = _write(tmp_path, "norm.json", t)
    assert main(["spectrum", path]) == 0
    out = json.loads(capsys.readouterr().out)
    got = sorted(map(tuple, out["classes"]))
    assert len(got) == 2
    assert got[0] == pytest.approx((0.0, 1.0), abs=1e-10)
    assert got[1] == pytest.approx((0.0, 2.0), abs=1e-10)
    assert out["radius"] == pytest.approx(2.0)


def test_spectrum_of_generated_i_j_2k(tmp_path, capsys):
    # i and j share a sphere whose real parts differ only by round-off
    path = str(tmp_path / "t.json")
    assert main(["gen", "normal-with-spectrum", "--dim", "3", "--seed", "0",
                 "--spectrum", "0,1,0,0;0,0,1,0;0,0,0,2", "-o", path]) == 0
    capsys.readouterr()
    assert main(["spectrum", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sum(out["classes"], []) == pytest.approx([0.0, 1.0, 0.0, 2.0], abs=1e-10)
    assert out["radius"] == pytest.approx(2.0)


def test_verify_pass_and_determinism(capsys):
    argv = ["verify", "tu-star", "--trials", "3", "--seed", "2", "--dim", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["min_margin"] >= -report["tol"]
    assert "witness" not in report


def test_verify_probe_violation_exits_one(capsys):
    assert main(["verify", "lowner-heinz", "--trials", "1", "--probe"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["witness"]["r"] == 2.0
    assert report["min_margin"] < 0


def test_verify_rejects_unknown_property(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "fermat"])
    assert exc.value.code == 2
    assert "argument property: invalid choice: 'fermat'" in capsys.readouterr().err


def test_verify_and_fuzz_help_list_the_property_registry(capsys):
    from qop.harness import PROPERTIES

    choices = "{" + ",".join(sorted(PROPERTIES)) + "}"
    for command in ("verify", "fuzz"):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert f"usage: qop {command} " in out
        assert choices in out, command


def test_fuzz_clean_run(capsys):
    assert main(["fuzz", "tu-star", "--budget", "3", "--dim", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trials"] == 3


def test_tol_env_has_no_effect(tmp_path, capsys, monkeypatch):
    # only --tol sets the tolerance: a stray QOP_TOL changes no verdict,
    # output or exit code
    path = _shift_file(tmp_path)
    runs = (["classify", path], ["verify", "tu-star", "--trials", "3", "--dim", "3"])
    plain = []
    for argv in runs:
        plain.append((main(argv), capsys.readouterr()))
    assert not json.loads(plain[0][1].out)["normal"]
    monkeypatch.setenv("QOP_TOL", "1e6")
    for argv, want in zip(runs, plain):
        assert (main(argv), capsys.readouterr()) == want, argv
    assert main(["classify", path, "--tol", "1e6"]) == 0
    assert json.loads(capsys.readouterr().out)["normal"]


def test_tol_env_invalid(tmp_path, capsys, monkeypatch):
    path = _shift_file(tmp_path)
    # an invalid QOP_TOL is not read either
    for bad in ("abc", "nan", "-1", "inf"):
        monkeypatch.setenv("QOP_TOL", bad)
        assert main(["classify", path]) == 0
        assert capsys.readouterr().err == ""
    # the tolerance must be finite and nonnegative
    for argv in (["classify", path, "--tol", "nan"], ["classify", path, "--tol", "-1"],
                 ["verify", "furuta", "--trials", "1", "--tol", "inf"],
                 ["fuzz", "furuta", "--budget", "1", "--tol", "nan"]):
        assert main(argv) == 2
        assert "--tol must be finite and nonnegative" in capsys.readouterr().err
    # 0 is allowed
    assert main(["classify", path, "--tol", "0"]) == 0
    capsys.readouterr()


def test_missing_file_exits_two(capsys):
    assert main(["polar", "/nonexistent/thing.json"]) == 2
    capsys.readouterr()


def test_nan_payload_exits_two(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [[[NaN, 0, 0, 0]]]}')
    assert main(["classify", str(path)]) == 2
    capsys.readouterr()


def test_garbage_json_exits_two(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["classify", str(path)]) == 2
    capsys.readouterr()


def test_gen_all_kinds_parse(capsys):
    for kind in ("ginibre", "hermitian", "positive", "partial-isometry",
                 "near-normal"):
        assert main(["gen", kind, "--dim", "3", "--seed", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == 3 and payload["cols"] == 3


def test_gen_near_normal_rejects_a_nonfinite_eps(capsys):
    for eps in ("nan", "inf", "-1"):
        assert main(["gen", "near-normal", "--dim", "3", "--eps", eps]) == 2
        assert "perturbation size must be finite and nonnegative" in capsys.readouterr().err


def test_gen_ordered_pair_shape(capsys):
    assert main(["gen", "ordered-pair", "--dim", "2", "--seed", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"A", "B"}


def test_gen_spectrum_argument(capsys):
    argv = ["gen", "normal-with-spectrum", "--dim", "2",
            "--spectrum", "1,0,0,0;0,1,0,0"]
    assert main(argv) == 0
    t = json_to_matrix(json.loads(capsys.readouterr().out))
    gram = t.H @ t
    comm = (t @ t.H - gram).frobenius()
    assert comm <= 1e-10
    assert main(["gen", "normal-with-spectrum", "--dim", "3",
                 "--spectrum", "1,0,0,0"]) == 2
    capsys.readouterr()
    assert main(["gen", "normal-with-spectrum", "--dim", "1",
                 "--spectrum", "1,2,x,4"]) == 2
    assert "spectrum component is not a number: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("dim", ["0", "-2", "100"])
def test_gen_normal_with_spectrum_checks_dim_before_drawing(capsys, dim):
    # without --spectrum the values are drawn from the seed, so --dim is
    # checked first, with the message of the other kinds
    assert main(["gen", "normal-with-spectrum", "--dim", dim]) == 2
    assert f"dimension must lie in [1, 64], got {dim}" in capsys.readouterr().err
    assert main(["gen", "ginibre", "--dim", dim]) == 2
    assert f"dimension must lie in [1, 64], got {dim}" in capsys.readouterr().err


def test_gen_normal_with_spectrum_checks_the_length_of_a_given_spectrum(capsys):
    spectrum = ";".join(["1,0,0,0"] * 65)
    assert main(["gen", "normal-with-spectrum", "--dim", "65", "--spectrum", spectrum]) == 2
    assert "dimension must lie in [1, 64], got 65" in capsys.readouterr().err


def test_gen_determinism_and_output_file(tmp_path, capsys):
    assert main(["gen", "ginibre", "--dim", "2", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "ginibre", "--dim", "2", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    dest = tmp_path / "out.json"
    assert main(["gen", "ginibre", "--dim", "2", "--seed", "9",
                 "-o", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert dest.read_text() == first
    t = json_to_matrix(json.loads(first))
    assert t.equals_exact(ginibre(2, seed=9))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qop", "gen", "ginibre", "--dim", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["rows"] == 2


_MODULES_AFTER_MAIN = """
import contextlib, io, json, sys
from qop.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("qop."))]))
"""


@pytest.mark.parametrize("argv, needs, skips", [
    (["polar", "{f}"], {"transforms"}, {"harness", "oracles", "generators"}),
    (["transform", "--kind", "aluthge", "{f}"], {"transforms"},
     {"harness", "oracles", "generators"}),
    (["spectrum", "{f}"], {"spectral"}, {"harness", "oracles", "generators"}),
    (["gen", "ginibre", "--dim", "2"], {"generators"}, {"harness", "oracles"}),
    (["classify", "{f}"], {"oracles"}, {"harness", "generators"}),
], ids=["polar", "transform", "spectrum", "gen", "classify"])
def test_each_command_loads_only_the_modules_it_uses(tmp_path, argv, needs, skips):
    path = _shift_file(tmp_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(qop.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_MAIN, *(a.format(f=path) for a in argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert {"qop." + m for m in needs} <= set(loaded)
    assert not {"qop." + m for m in skips} & set(loaded), loaded


def test_verify_bytes_do_not_depend_on_the_blas_thread_count():
    # at dim 64 OpenBLAS splits a product by its thread count, so the CLI
    # pins one thread before numpy loads, whatever the shell asked for
    src = os.path.dirname(os.path.dirname(os.path.abspath(qop.__file__)))
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "qop", "verify", "collapse", "--trials", "4", "--seed", "42",
             "--dim", "64"],
            capture_output=True, env={**os.environ, "PYTHONPATH": src,
                                      "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
