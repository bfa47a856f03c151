import json
import subprocess
import sys

import numpy as np
import pytest

import ncfock as nf
from ncfock.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_command(capsys):
    code, out = run_cli(capsys, "parse", "-d", "2", "1 + z1 + z1*z2")
    assert code == 0
    obj = json.loads(out)
    assert obj["formatted"] == "1 + z1 + z1*z2"
    assert obj["degree"] == 2
    assert {"word": [1, 2], "re": 1.0, "im": 0.0} in obj["polynomial"]


def test_member_command(capsys):
    code, out = run_cli(capsys, "member", "-d", "2", "1 + z1 + z1*z2")
    obj = json.loads(out)
    assert code == 0
    assert obj["verdict"] == "in_H2"
    assert obj["spr"] == 0.0
    assert obj["radius"] == "inf"


def test_member_negative_with_witness(capsys):
    code, out = run_cli(capsys, "member", "-d", "1", "inv(1 - z1)")
    obj = json.loads(out)
    assert code == 0
    assert obj["in_h2"] is False
    assert abs(obj["spr"] - 1.0) <= 1e-9
    assert obj["witness_sigma_min"] <= 1e-8


def test_realize_minimize_and_closure(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, _ = run_cli(capsys, "realize", "-d", "2",
                      "inv(1 - 0.5*z1*z2 - 0.5*z2*z1)", "--minimize",
                      "--out", str(path))
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["n"] == 3 and obj["d"] == 2
    _, direct = run_cli(capsys, "spr", "-d", "2",
                        "inv(1 - 0.5*z1*z2 - 0.5*z2*z1)")
    _, loaded = run_cli(capsys, "spr", "--realization", str(path))
    assert direct == loaded
    assert json.loads(direct)["spr"] == pytest.approx(2 ** -0.25, abs=1e-12)


def test_eval_command(tmp_path, capsys):
    rpath = tmp_path / "r.json"
    run_cli(capsys, "realize", "-d", "1", "inv(1 - 0.5*z1)", "--minimize",
            "--out", str(rpath))
    point = {"d": 1, "n": 1, "X": [[[[0.5, 0.0]]]]}
    ppath = tmp_path / "pt.json"
    ppath.write_text(json.dumps(point))
    code, out = run_cli(capsys, "eval", "--realization", str(rpath),
                        "--point", str(ppath))
    assert code == 0
    value = json.loads(out)["value"]
    assert value[0][0]["re"] == pytest.approx(1.0 / (1 - 0.25))


def test_norm_kernel_outer_inner(capsys):
    _, out = run_cli(capsys, "norm", "-d", "2", "1 + z1 + z1*z2")
    assert json.loads(out)["h2_norm"] == pytest.approx(np.sqrt(3), abs=1e-10)
    _, out = run_cli(capsys, "kernel", "-d", "1", "inv(1 - 0.5*z1)")
    obj = json.loads(out)
    assert obj["row_norm"] < 1.0
    _, out = run_cli(capsys, "inner-test", "-d", "2", "z1")
    assert json.loads(out)["inner"] is True
    _, out = run_cli(capsys, "outer-test", "-d", "2", "1 + z1 + z1*z2")
    assert json.loads(out)["outer"] is False


def test_factor_command(capsys, t0_root):
    code, out = run_cli(capsys, "factor", "-d", "2", "1 + z1 + z1*z2")
    assert code == 0
    obj = json.loads(out)
    assert obj["q0_squared"] == pytest.approx(t0_root, abs=1e-8)
    assert obj["outer_certified"] and obj["inner_certified"]
    assert obj["autocorrelation_residual"] <= 1e-8


def test_boundary_sing_command(capsys):
    _, out = run_cli(capsys, "boundary-sing", "-d", "1", "inv(1 - 0.5*z1)")
    obj = json.loads(out)
    assert obj["row_norm"] == pytest.approx(2.0, abs=1e-10)
    assert obj["sigma_min"] <= 1e-10


def test_spectrum_scan_artifacts(tmp_path, capsys):
    prefix = str(tmp_path / "scan")
    code, out = run_cli(capsys, "spectrum-scan", "-d", "2", "z1",
                        "--rect=-1.2,1.2,-1.2,1.2", "--res", "0.4",
                        "--out", prefix)
    assert code == 0
    info = json.loads(out)
    assert info["cells"] == 36
    csv_text = (tmp_path / "scan.csv").read_text()
    assert csv_text.startswith("re,im,member,class\n")
    pgm = (tmp_path / "scan.pgm").read_bytes()
    assert pgm.startswith(b"P5\n6 6\n255\n")
    # determinism: byte-identical artifacts on a second run
    prefix2 = str(tmp_path / "scan2")
    run_cli(capsys, "spectrum-scan", "-d", "2", "z1",
            "--rect=-1.2,1.2,-1.2,1.2", "--res", "0.4", "--out", prefix2)
    assert (tmp_path / "scan2.csv").read_text() == csv_text
    assert (tmp_path / "scan2.pgm").read_bytes() == pgm


def test_spectrum_sample_deterministic(tmp_path, capsys):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    run_cli(capsys, "spectrum-sample", "-d", "2", "z1", "--samples", "60",
            "--seed", "7", "--out", str(out1))
    run_cli(capsys, "spectrum-sample", "-d", "2", "z1", "--samples", "60",
            "--seed", "7", "--out", str(out2))
    assert out1.read_text() == out2.read_text()
    assert out1.read_text().startswith("re,im,level\n")


def test_variety_search_command(capsys):
    code, out = run_cli(capsys, "variety-search", "-d", "2",
                        "1 - z1*z2 - z2*z1", "--level", "3",
                        "--attempts", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] is True
    assert obj["residual"] <= 1e-8


def test_continuity_probe_command(capsys):
    code, out = run_cli(capsys, "continuity-probe", "-d", "2", "z1",
                        "--rect=-1.2,1.2,-1.2,1.2", "--res", "0.4",
                        "--scales", "1e-1,1e-2")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["distances"]) == 2


def test_error_json_and_exit_codes(capsys):
    code, out = run_cli(capsys, "member", "-d", "2", "1 + z9")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["code"] == "parse-error"
    code, out = run_cli(capsys, "factor", "-d", "1", "inv(1 - z1)")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "not-a-polynomial"
    with pytest.raises(SystemExit) as info:
        main(["no-such-subcommand"])
    assert info.value.code == 2


def test_missing_source_is_module_error(capsys):
    code, out = run_cli(capsys, "member")
    assert code == 1
    assert "error" in json.loads(out)


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ncfock", "spr", "-d", "1", "inv(1 - 0.5*z1)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["spr"] == pytest.approx(0.5)


def _error_code(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    return json.loads(out)["error"]["code"]


def test_scan_zero_resolution_is_module_error(tmp_path, capsys):
    assert _error_code(capsys, "spectrum-scan", "-d", "2", "z1",
                       "--rect=-1.5,1.5,-1.5,1.5", "--res", "0",
                       "--out", str(tmp_path / "s")) == "invalid-scan-grid"


def test_scan_reversed_rect_is_module_error(tmp_path, capsys):
    assert _error_code(capsys, "spectrum-scan", "-d", "2", "z1",
                       "--rect=1.5,-1.5,-1.5,1.5", "--res", "0.5",
                       "--out", str(tmp_path / "s")) == "invalid-scan-grid"


@pytest.mark.parametrize("key", ["d", "n", "A", "b", "c"])
def test_realization_json_missing_key(tmp_path, capsys, key):
    doc = nf.realization_to_json(
        nf.minimize(nf.from_expression("inv(1 - 0.5*z1)", 1)))
    del doc[key]
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert _error_code(capsys, "spr", "--realization",
                       str(path)) == "malformed-json"


def test_boundary_sing_failed_certificate(capsys):
    # the certificate compares floats with roundoff against tol = 0
    assert _error_code(capsys, "boundary-sing", "-d", "2",
                       "inv(1 - 0.5*z1*z2 - 0.5*z2*z1)",
                       "--tol", "0") == "boundary-certificate-failed"
