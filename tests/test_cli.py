import argparse
import contextlib
import importlib.util
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncfock as nf
from conftest import DEGREE9_POLY, src_env
from ncfock.cli import build_parser, main


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
    Z = nf.matrix_tuple_from_json(obj["Z"])
    y = [complex(entry["re"], entry["im"]) for entry in obj["y"]]
    poly = nf.NCPolynomial(2, {(): 1.0, (1, 2): -1.0, (2, 1): -1.0})
    nf.certify_witness(poly, Z, y, 1e-8)


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


def _source_subcommands():
    """The subcommands built with ``_add_source_args``: those that take
    --realization."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return sorted(name for name, sub in subparsers.choices.items()
                  if any("--realization" in action.option_strings
                         for action in sub._actions))


# the options each of them requires besides its source
_REQUIRED_OPTIONS = {
    "eval": ["--point", "pt.json"],
    "spectrum-scan": ["--rect=-1,1,-1,1", "--res", "0.5"],
    "continuity-probe": ["--rect=-1,1,-1,1", "--res", "0.5"],
    "variety-search": ["--level", "1"],
}


@pytest.mark.parametrize("command", _source_subcommands())
def test_an_expression_and_a_realization_are_refused(tmp_path, capsys,
                                                      monkeypatch, command):
    # exactly one input source, for every subcommand: the expression is
    # not silently preferred
    monkeypatch.chdir(tmp_path)
    r = nf.from_expression("inv(1 - 0.5*z1*z2 - 0.5*z2*z1) - 2", 2)
    (tmp_path / "f.json").write_text(json.dumps(nf.realization_to_json(r)))
    (tmp_path / "pt.json").write_text(json.dumps(
        nf.matrix_tuple_to_json(nf.MatrixTuple.zeros(2, 1))))
    code, out = run_cli(capsys, command, "-d", "2", "1 - z1*z2 - z2*z1",
                        "--realization", "f.json",
                        *_REQUIRED_OPTIONS.get(command, []))
    assert code == 1
    assert json.loads(out) == {"error": {
        "code": "error",
        "message": "give an expression or --realization, not both"}}


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ncfock", "spr", "-d", "1", "inv(1 - 0.5*z1)"],
        env=src_env(), capture_output=True, text=True)
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


def test_zero_random_starts_are_valid(capsys):
    # --starts counts the random starts on top of the four fixed ones
    code, out = run_cli(capsys, "factor", "-d", "2", "1 + z1*z2",
                        "--starts", "0")
    assert code == 0 and json.loads(out)["outer"]


def test_boundary_sing_failed_certificate(capsys):
    # the certificate compares floats with roundoff against tol = 0
    assert _error_code(capsys, "boundary-sing", "-d", "2",
                       "inv(1 - 0.5*z1*z2 - 0.5*z2*z1)",
                       "--tol", "0") == "boundary-certificate-failed"


def test_a_degree_nine_polynomial_is_jointly_nilpotent(capsys):
    # 17 minimal states, d = 2: spr exactly 0, radius inf, no boundary point
    code, out = run_cli(capsys, "spr", "-d", "2", DEGREE9_POLY)
    assert code == 0 and json.loads(out)["spr"] == 0.0
    code, out = run_cli(capsys, "member", "-d", "2", DEGREE9_POLY)
    member = json.loads(out)
    assert code == 0 and member["verdict"] == "in_H2"
    assert member["radius"] == "inf" and member["spr"] == 0.0
    assert _error_code(capsys, "boundary-sing", "-d", "2",
                       DEGREE9_POLY) == "jointly-nilpotent"


def test_spr_of_a_realization_near_overflow(capsys, tmp_path):
    # ||R||_F overflows at entries 1e77, R and Ad(I) do not
    path = tmp_path / "big.json"
    path.write_text('{"d": 1, "n": 1, "A": [[[[1e77, 1e77]]]], '
                    '"b": [[1, 0]], "c": [[1, 0]]}')
    code, out = run_cli(capsys, "spr", "--realization", str(path))
    assert code == 0
    assert json.loads(out)["spr"] == pytest.approx(np.sqrt(2) * 1e77,
                                                   rel=1e-12)


@pytest.mark.parametrize("rect, res", [
    ("-1,1,-1,1", "nan"), ("-1,1,-1,1", "inf"), ("-1,1,nan,1", "0.5"),
    ("-1e308,1e308,-1,1", "0.5"), ("-1,1,-1,1", "1e-300")])
def test_scan_non_finite_or_huge_grid_is_module_error(rect, res, tmp_path,
                                                      capsys):
    assert _error_code(capsys, "spectrum-scan", "-d", "2", "z1",
                       f"--rect={rect}", "--res", res,
                       "--out", str(tmp_path / "s")) == "invalid-scan-grid"


@pytest.mark.parametrize("argv", [
    ["spectrum-scan", "-d", "2", "z1", "--rect=a,b,c,d", "--res", "0.5"],
    ["spectrum-scan", "-d", "2", "z1", "--rect=-1,1,-1", "--res", "0.5"],
    ["continuity-probe", "-d", "2", "z1", "--rect=-1,1,-1,1", "--res", "0.5",
     "--scales", "x"],
    ["continuity-probe", "-d", "2", "z1", "--rect=-1,1,-1,1", "--res", "0.5",
     "--scales="],
    ["continuity-probe", "-d", "2", "z1", "--rect=-1,1,-1,1", "--res", "0.5",
     "--scales", "0.1,nan"],
    ["spectrum-sample", "-d", "2", "z1", "--levels", "0"],
    ["variety-search", "-d", "2", "1-z1*z2", "--level", "0"],
    # a tolerance is a number in [0, 1), and counts are at least 1 (0 starts)
    ["realize", "-d", "2", "z1*inv(1-0.5*z2)", "--minimize", "--tol", "nan"],
    ["realize", "-d", "2", "z1*inv(1-0.5*z2)", "--minimize", "--tol", "inf"],
    ["realize", "-d", "2", "z1*inv(1-0.5*z2)", "--minimize", "--tol", "1"],
    ["realize", "-d", "2", "z1", "--minimize", "--tol", "-1e-10"],
    ["inner-test", "-d", "2", "z1", "--tol", "nan"],
    ["boundary-sing", "-d", "2", "inv(1 - 0.5*z1*z2 - 0.5*z2*z1)",
     "--tol", "nan"],
    ["variety-search", "-d", "2", "1 + z1*z2", "--level", "1",
     "--attempts", "1", "--tol", "nan"],
    ["spectrum-sample", "-d", "2", "z1", "--samples", "0"],
    ["variety-search", "-d", "2", "1-z1*z2", "--level", "1",
     "--attempts", "0"],
    ["factor", "-d", "2", "1 + z1*z2", "--starts", "-1"],
], ids=["rect-letters", "rect-three-numbers", "scales-letter", "scales-empty",
        "scales-nan", "levels-zero", "level-zero", "realize-tol-nan",
        "realize-tol-inf", "realize-tol-one", "realize-tol-negative",
        "inner-tol-nan", "boundary-tol-nan", "variety-tol-nan",
        "samples-zero", "attempts-zero", "starts-negative"])
def test_bad_numeric_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


_FUZZ_GOOD = {
    "expression": ["z1", "0.5*z1*z2", "inv(1 - 0.5*z1)", "1 + z1*z2", "0.3"],
    "coord": ["-1.5", "-1", "0", "0.7", "1.5"],
    "res": ["0.5", "0.75", "1"],
    "scale": ["0", "1e-2", "0.1"],
    "count": ["1", "2"],
}
_FUZZ_BAD = {
    "expression": ["inv(1 - z1)", "inv(z1)", "", "z3", "z1 +", "inv(",
                   "1e400*z1", "nan*z1", "inv(1 - 1e200*z1)"],
    "coord": ["nan", "inf", "-inf", "1e308", "-1e308", "a", ""],
    "res": ["0", "-0.5", "nan", "inf", "-inf", "1e-300", "1e-9", "1e308",
            "x", ""],
    "scale": ["-0.1", "nan", "inf", "1e300", "x", ""],
    "count": ["0", "-1", "1.5", "x", "", "nan"],
}


def _fuzz_value(kind):
    """Half the draws valid; the rest from valid, non-finite and malformed
    values alike."""
    good = st.sampled_from(_FUZZ_GOOD[kind])
    return st.one_of(good, st.sampled_from(_FUZZ_BAD[kind]), good)


def _fuzz_list(kind, sizes):
    return st.integers(*sizes).flatmap(
        lambda k: st.lists(_fuzz_value(kind), min_size=k, max_size=k)
    ).map(",".join)


@st.composite
def _fuzz_rect(draw):
    if draw(st.booleans()):
        return draw(_fuzz_list("coord", (3, 5)))
    coords = _FUZZ_GOOD["coord"]
    picks = draw(st.lists(st.sampled_from(coords), min_size=4, max_size=4))
    re_min, re_max = sorted(picks[:2], key=float)
    im_min, im_max = sorted(picks[2:], key=float)
    return ",".join([re_min, re_max, im_min, im_max])


@st.composite
def _fuzz_argv(draw, out):
    command = draw(st.sampled_from(["spectrum-scan", "continuity-probe",
                                    "spectrum-sample", "variety-search"]))
    argv = [command, "-d", "2", draw(_fuzz_value("expression"))]
    if command in ("spectrum-scan", "continuity-probe"):
        argv += [f"--rect={draw(_fuzz_rect())}",
                 f"--res={draw(_fuzz_value('res'))}"]
    if command == "spectrum-scan":
        argv += ["--out", out]
    elif command == "continuity-probe":
        argv += [f"--scales={draw(_fuzz_list('scale', (1, 2)))}"]
    elif command == "spectrum-sample":
        argv += [f"--levels={draw(_fuzz_value('count'))}",
                 f"--samples={draw(_fuzz_value('count'))}"]
    else:
        argv += [f"--level={draw(_fuzz_value('count'))}", "--attempts", "1"]
    return argv


def _run_recording(argv):
    """(exit code, stdout) of main(argv), or (None, "") for a usage error,
    which must exit 2; stderr must stay empty (argparse's usage message
    aside) and no RuntimeWarning may be raised."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = main(argv)
        except SystemExit as exit_:
            assert exit_.code == 2, argv
            code = None
    assert not [w for w in caught
                if issubclass(w.category, RuntimeWarning)], argv
    if code is None:
        return None, ""
    assert code in (0, 1) and stderr.getvalue() == "", argv
    return code, stdout.getvalue()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_error_contract_fuzz(data, tmp_path_factory):
    """Any numeric flag value or expression text gives a result, a coded JSON
    error with exit 1, or a usage error with exit 2; never a traceback, a
    RuntimeWarning or, but for a usage error, anything on stderr."""
    out = str(tmp_path_factory.mktemp("fuzz") / "scan")
    argv = data.draw(_fuzz_argv(out))
    code, stdout = _run_recording(argv)
    if code is None:
        return
    if code == 1:
        error = json.loads(stdout)["error"]
        assert set(error) == {"code", "message"}, argv


_GOOD_REALIZATION = json.dumps(nf.realization_to_json(
    nf.minimize(nf.from_expression("inv(1 - 0.5*z1*z2 - 0.5*z2*z1)", 2))))
# finite entries whose Taylor coefficients and CP-map matrization overflow
_OVERFLOW_REALIZATION = ('{"d": 1, "n": 1, "A": [[[[1e308, 1e308]]]], '
                         '"b": [[1e308, 0]], "c": [[1e308, 0]]}')
_GOOD_POINT = json.dumps({"d": 2, "n": 1, "X": [[[[0.2, 0.1]]], [[[0.3, 0.0]]]]})
_FUZZ_FILES = {
    "realization": [
        _GOOD_REALIZATION,
        '{"d": 1, "n": 1, "A": [[[[0.5, 0.0]]]], "b": [[1, 0]], "c": [[1, 0]]}',
        '{"d": 1, "n": 1, "A": [[[[NaN, 0.0]]]], "b": [[1, 0]], "c": [[1, 0]]}',
        '{"d": 1, "n": 1, "A": [[[[0.5, 0.0]]]], "b": [[Infinity, 0]], '
        '"c": [[1, 0]]}',
        _OVERFLOW_REALIZATION,
        '{"d": 1, "n": 1, "A": [[[[1e200, 0.0]]]], "b": [[1, 0]], '
        '"c": [[1, 0]]}',
        '{"d": 1, "n": 2, "A": [[[[0.5, 0.0]]]], "b": [[1, 0]], "c": [[1, 0]]}',
        '{"d": 1, "n": 1, "A": [[[[0.5, 0.0]]]], "b": [], "c": [[1, 0]]}',
        '{"d": 1, "n": 1, "A": [], "b": [[1, 0]], "c": [[1, 0]]}',
        '{"d": 0, "n": 1, "A": [], "b": [[1, 0]], "c": [[1, 0]]}',
        '{"d": 1, "n": 0, "A": [[]], "b": [], "c": []}',
        '{"d": -1, "n": -1, "A": [], "b": [], "c": []}',
        '{"d": "x", "n": 1, "A": [], "b": [[1, 0]], "c": [[1, 0]]}',
        '{"d": 1.5, "n": null, "A": [], "b": [[1, 0]], "c": [[1, 0]]}',
        '{"d": 1, "n": 1, "A": [[[0.5]]], "b": [[1]], "c": [[1]]}',
        '{"d": 1, "n": 1, "A": [[[[0.5, 0.0, 1.0]]]], "b": [[1, 0]], '
        '"c": [[1, 0]]}',
        '{"d": 1, "n": 1, "A": [[["a", "b"]]], "b": [[1, 0]], "c": [[1, 0]]}',
        '{"d": 1, "n": 1, "A": [[[[0.5, 0.0]], [[0.5]]]], "b": [[1, 0]], '
        '"c": [[1, 0]]}',
        '{"d": 1, "n": 1, "A": 0.5, "b": 1, "c": 1}',
        '[1, 2, 3]', '"text"', 'null', '', '{"d": 1,', '{"d": 1} trailing',
    ],
    "point": [
        _GOOD_POINT,
        '{"d": 2, "n": 1, "X": [[[[NaN, 0.0]]], [[[0.3, 0.0]]]]}',
        '{"d": 2, "n": 1, "X": [[[[-Infinity, 0.0]]], [[[0.3, 0.0]]]]}',
        '{"d": 2, "n": 1, "X": []}',
        '{"d": 2, "n": 1, "X": [[[[0.2, 0.1]]]]}',
        '{"d": 1, "n": 1, "X": [[[[0.2, 0.1]]]]}',
        '{"d": 2, "n": 2, "X": [[[[0.2, 0.1]], [[0.2, 0.1]]], '
        '[[[0.3, 0.0]], [[0.3, 0.0]]]]}',
        '{"d": 2, "n": 1, "X": [[[0.2]], [[0.3]]]}',
        '{"d": 2, "n": 1, "X": [[[[0.2, 0.1]]], [[[0.3, 0.0]], [[0.1, 0]]]]}',
        '{"d": 2, "n": 1, "X": [[[[2.0, 0.0]]], [[[2.0, 0.0]]]]}',
        '{"d": "two", "n": 1, "X": [[[[0.2, 0.1]]], [[[0.3, 0.0]]]]}',
        '{"X": 1}', '[]', '', '{"d": 2, "n": 1, "X": [[[[0.2, 0.1',
    ],
}
_FLAG_VALUES = {
    "tol": ["1e-8", "1e-10", "0.5", "0", "-1", "nan", "inf", "-inf", "1e308",
            "1e-320", "x", ""],
    "count": ["1", "2", "0", "-1", "1.5", "nan", "x", ""],
}


@st.composite
def _file_flag_argv(draw, tmp):
    """A command with its --tol, --starts, --attempts, --point and
    --realization flags drawn from valid, non-finite and malformed values."""
    def flag(kind):
        return draw(st.sampled_from(_FLAG_VALUES[kind]))

    def write(kind):
        text = draw(st.sampled_from(_FUZZ_FILES[kind]))
        path = tmp / f"{kind}.json"
        path.write_text(text)
        return str(path)

    command = draw(st.sampled_from([
        "realize", "eval", "spr", "norm", "member", "kernel", "outer-test",
        "inner-test", "boundary-sing", "variety-search", "factor"]))
    if command == "factor":
        expression = draw(st.sampled_from(["1 + z1 + z1*z2", "1 + 0.5*z1"]))
        return [command, "-d", "2", expression,
                f"--starts={flag('count')}"]
    argv = [command, "--realization", write("realization")]
    if command == "realize":
        argv += ["--minimize", f"--tol={flag('tol')}"]
    elif command == "eval":
        argv += ["--point", write("point")]
    elif command in ("inner-test", "boundary-sing"):
        argv += [f"--tol={flag('tol')}"]
    elif command == "variety-search":
        argv += ["--level", "1", f"--attempts={flag('count')}",
                 f"--tol={flag('tol')}"]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_file_and_flag_fuzz(data, tmp_path_factory):
    """--tol, --starts, --attempts, --point and --realization with valid,
    non-finite, malformed or wrongly shaped values: exit 0, a coded JSON
    error with exit 1, or a usage error with exit 2; never a traceback, a
    RuntimeWarning or, but for a usage error, anything on stderr.
    A realization that overflows gives numerical-failure wherever it is
    minimized or analysed; eval may print the overflowed value."""
    tmp = tmp_path_factory.mktemp("files")
    argv = data.draw(_file_flag_argv(tmp))
    code, stdout = _run_recording(argv)
    if code is None:
        return
    if code == 1:
        error = json.loads(stdout)["error"]
        assert set(error) == {"code", "message"}, argv
    realization = tmp / "realization.json"
    if argv[0] != "eval" and "--realization" in argv \
            and realization.read_text() == _OVERFLOW_REALIZATION:
        assert code == 1, argv
        assert error["code"] == "numerical-failure", argv


@pytest.mark.parametrize("command", [
    ["realize", "--minimize"], ["spr"], ["norm"], ["member"], ["kernel"],
    ["outer-test"], ["inner-test"], ["boundary-sing"],
    ["variety-search", "--level", "1", "--attempts", "1"]])
def test_overflowing_realization_is_a_numerical_failure(capsys, tmp_path,
                                                        command):
    path = tmp_path / "realization.json"
    path.write_text(_OVERFLOW_REALIZATION)
    code, out = run_cli(capsys, command[0], "--realization", str(path),
                        *command[1:])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "numerical-failure"


def test_kernel_of_a_long_power_sum_is_a_numerical_failure(capsys):
    """z1 + ... + z1^40: the similarity to a row contraction fails, which
    is a coded error on stdout with nothing on stderr."""
    text = " + ".join("*".join(["z1"] * k) for k in range(1, 41))
    code = main(["kernel", "-d", "1", text])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert json.loads(out)["error"]["code"] == "numerical-failure"


def test_failed_inverse_self_check_is_a_numerical_failure(capsys):
    code, out = run_cli(capsys, "member", "-d", "1", "inv(1 - 1e200*z1)")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "numerical-failure"


def test_uncoded_exceptions_are_not_swallowed(monkeypatch):
    # only NCFockError and OSError become JSON errors: a ZeroDivisionError
    # or LinAlgError from a command is a bug and must surface as one
    from ncfock import cli

    for exc in (ZeroDivisionError, np.linalg.LinAlgError):
        def command(args, exc=exc):
            raise exc("bug")

        monkeypatch.setattr(cli, "_cmd_spr", command)
        with pytest.raises(exc):
            main(["spr", "-d", "1", "z1"])


def test_outer_test_of_a_tiny_constant(capsys):
    # a nonzero constant is outer at any scale: 1e-13 answers as 1e-11 does
    for text in ("1e-13", "1e-11"):
        code, out = run_cli(capsys, "outer-test", "-d", "1", text)
        obj = json.loads(out)
        assert code == 0, text
        assert obj["outer"] is True and obj["spr_inverse"] == 0.0, text


def test_member_of_the_inverse_of_a_tiny_constant(capsys):
    code, out = run_cli(capsys, "member", "-d", "1", "inv(1e-15)")
    obj = json.loads(out)
    assert code == 0
    assert obj["verdict"] == "in_H2"
    assert obj["h2_norm"] == pytest.approx(1e15, rel=1e-12)


def test_factor_error_contract(capsys):
    """The zero polynomial and a polynomial whose autocorrelations overflow
    give coded errors; a tiny one factors."""
    assert _error_code(capsys, "factor", "-d", "2", "0") == "zero-polynomial"
    assert _error_code(capsys, "factor", "-d", "1",
                       "1e170*(1+z1)") == "numerical-failure"
    code, out = run_cli(capsys, "factor", "-d", "1", "1e-200*(1+z1)")
    assert code == 0
    assert json.loads(out)["outer_certified"] is True


@pytest.mark.parametrize("argv", [
    ["factor", "-d", "1", "1e-150*(1+z1)"],
    ["factor", "-d", "1", "1e200*(1+z1)"],
    ["factor", "-d", "1", "1e150*(2+z1)"],
    ["variety-search", "-d", "1", "1e200*(1-z1)", "--level", "1"],
    ["variety-search", "-d", "1", "1e-200*(1-z1)", "--level", "2"]])
def test_scaled_factor_and_witness_runs_warn_nothing(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(capsys, *argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code in (0, 1)
    if argv[0] == "variety-search":
        assert json.loads(out)["found"] is True


# inv(1 - 1e154*z1*z1), whose mantissa has Ad entries near 1e-309, answers
# with spr 1e77; 1 + 1e200*z1, whose cleanup overflows on the Taylor tail,
# answers numerical-failure, as do 1e170*z2 and 1e170*z1*z1, whose Stein
# sum overflows (their 4^-k is below the smallest double); inner-test of
# 1e100*z2 and of 1 + 1e100*z1, whose Q c has a norm that overflows,
# answers with the unit defect 1e200
_HUGE_SQUARE = "inv(1 - 1e154*z1*z1)"
_HUGE_LINEAR = "1 + 1e200*z1"
_HUGE_NILPOTENT = ("1e170*z2", "1e170*z1*z1")


@pytest.mark.parametrize("argv", [
    *([command, "-d", "1", _HUGE_SQUARE]
      for command in ("spr", "norm", "member", "kernel", "inner-test",
                      "boundary-sing", "spectrum-sample")),
    *([command, "-d", "2", _HUGE_LINEAR, *extra]
      for command, *extra in (["spr"], ["norm"], ["member"], ["kernel"],
                              ["outer-test"], ["inner-test"],
                              ["boundary-sing"], ["realize", "--minimize"],
                              ["spectrum-sample"])),
    *([command, "-d", "2", "1e170*z2"]
      for command in ("norm", "member", "kernel", "inner-test")),
    *([command, "-d", "1", "1e170*z1*z1"] for command in ("kernel",
                                                           "inner-test")),
    ["inner-test", "-d", "2", "1e100*z2"],
    ["inner-test", "-d", "1", "1 + 1e100*z1"]])
def test_rescaled_tuples_answer_in_json_without_warnings(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1) and err == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    obj = json.loads(out)
    if _HUGE_LINEAR in argv or argv[3] in _HUGE_NILPOTENT:
        assert obj["error"]["code"] == "numerical-failure"
    elif "1e100" in argv[3]:
        assert obj["inner"] is False and obj["orthogonality_defect"] == 0.0
        assert obj["unit_defect"] == pytest.approx(1e200, rel=1e-12)
    elif argv[0] == "spr":
        assert obj["spr"] == pytest.approx(1e77, rel=1e-12)


@pytest.mark.parametrize("text, probe_error", [
    ("1e100*z2", "spectral-radius-too-large"),
    ("1e200*z2", "numerical-failure")])
def test_scans_of_a_huge_tuple_answer_without_warnings(
        capsys, tmp_path, monkeypatch, text, probe_error):
    """The scan resolvent of a*z2 is built from the mantissa of A: all 16
    cells lie in the spectrum, the disk of radius a.  The probe's noisy
    copy is unbounded at a = 1e100 and overflows at 1e200, a coded error
    either way.  Nothing reaches stderr and no RuntimeWarning is raised."""
    monkeypatch.chdir(tmp_path)
    for command, *out in (["spectrum-scan", "--out", "scan"],
                          ["continuity-probe"]):
        argv = [command, "-d", "2", text, "--rect=-2,2,-2,2", "--res", "1",
                *out]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        stdout, err = capsys.readouterr()
        assert err == "" and not [w for w in caught if issubclass(
            w.category, RuntimeWarning)], argv
        obj = json.loads(stdout)
        if command == "spectrum-scan":
            assert code == 0 and obj["cells"] == obj["members"] == 16
        else:
            assert code == 1 and obj["error"]["code"] == probe_error


def _artifact_script():
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_artifacts.py"
    spec = importlib.util.spec_from_file_location("cli_artifacts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SEEDED = {
    "factor": [],
    "spectrum-sample": [],
    "variety-search": ["--level", "1"],
    "continuity-probe": ["--rect=-1,1,-1,1", "--res", "1"],
}


def test_only_the_randomized_subcommands_take_a_seed():
    with pytest.raises(SystemExit) as info:
        main(["member", "-d", "2", "z1", "--seed", "1"])
    assert info.value.code == 2
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    required = {"eval": ["--point", "point.json"],
                "spectrum-scan": ["--rect=-1,1,-1,1", "--res", "1"],
                **_SEEDED}
    for command in subparsers.choices:
        argv = [command, "-d", "2", "z1", *required.get(command, []),
                "--seed", "7"]
        if command in _SEEDED:
            assert parser.parse_args(argv).seed == 7, command
            continue
        with pytest.raises(SystemExit) as info, \
                contextlib.redirect_stderr(io.StringIO()):
            parser.parse_args(argv)
        assert info.value.code == 2, command


def test_artifact_script_covers_every_subcommand():
    module = _artifact_script()
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    covered = {argv[0] for argv in module.COMMANDS}
    assert set(subparsers.choices) <= covered


# the artifact runs on 1/(1 - z/2) scaled through c to 1e-170 and through
# b to 1e160, and on the tuple A = 1e160, whose Ad(I) overflows and whose
# inverse 1 - 1e160*z1 is outer
_SCALED_RUNS = [
    ["outer-test", "--realization", "inputs/tiny-c.json"],
    ["outer-test", "--realization", "inputs/huge-b.json"],
    ["outer-test", "--realization", "inputs/huge-a.json"],
    ["spectrum-scan", "--realization", "inputs/tiny-c.json",
     "--rect=1e-170,2e-170,-5e-171,5e-171", "--res", "1.25e-171",
     "--out", "{run}/scan"],
    ["spectrum-scan", "--realization", "inputs/huge-b.json",
     "--rect=1e160,2e160,-5e159,5e159", "--res", "1.25e159",
     "--out", "{run}/scan"],
    ["spr", "--realization", "inputs/huge-a.json"],
    ["spr", "--method", "iterate", "--realization", "inputs/huge-a.json"],
    ["member", "--realization", "inputs/huge-a.json"],
    ["boundary-sing", "--realization", "inputs/huge-a.json"],
]


def test_scaled_artifact_runs_answer_as_their_mantissa(capsys, tmp_path,
                                                       monkeypatch):
    """Each run exits 0 with nothing on stderr and no RuntimeWarning, and
    gives the exactly rescaled answer: outer-test and the two scans answer
    as inv(1 - 0.5*z1) does over the unscaled rectangle, the 1e160 tuple
    has spr 1e160, radius 1e-160, a witness and a boundary point."""
    script = _artifact_script()
    (tmp_path / "inputs").mkdir()
    for name, obj in script.INPUTS.items():
        (tmp_path / "inputs" / name).write_text(json.dumps(obj) + "\n")
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path)
    reference = nf.grid_scan(nf.from_expression("inv(1 - 0.5*z1)", 1),
                             (1.0, 2.0, -0.5, 0.5), 0.125)
    assert reference.member.sum() == 60
    want_cells = [f"{int(m)},{c}" for m, c in
                  zip(reference.member.ravel(), reference.classes.ravel())]
    for argv in _SCALED_RUNS:
        assert argv in script.COMMANDS, argv
        argv = [a.replace("{run}", "run") for a in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0 and err == "", argv
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], argv
        obj = json.loads(out)
        if argv[0] == "outer-test":
            assert obj["outer"] is True and obj["spr_inverse"] == 0.0
            assert obj["indeterminate"] is False
        elif argv[0] == "spectrum-scan":
            rows = Path("run/scan.csv").read_text().splitlines()[1:]
            assert [row.split(",", 2)[2] for row in rows] == want_cells
        elif argv[0] == "spr":
            assert obj["spr"] == pytest.approx(1e160, rel=1e-12)
        elif argv[0] == "member":
            assert obj["verdict"] == "not_in_H2" and obj["spr"] == 1e160
            assert obj["radius"] == pytest.approx(1e-160, rel=1e-12)
            assert obj["witness_sigma_min"] <= 1e-8
        else:
            assert obj["one_over_spr"] == pytest.approx(1e-160, rel=1e-12)
            assert obj["Z"]["X"][0][0][0][0] == pytest.approx(1e-160,
                                                              rel=1e-12)


# the artifact runs of constants past the double range, of nesting deeper
# than the parser's recursion and of the isometry test on the scaled files,
# with the error code or the defects each must answer
_RANGE_RUNS = [
    (["parse", "-d", "1", "1e200*1e200"], "parse-error"),
    (["parse", "-d", "1", "1e308+1e308"], "parse-error"),
    (["realize", "-d", "1", "1e200*1e200*z1"], "numerical-failure"),
    (["parse", "-d", "1", "(" * 400 + "z1" + ")" * 400], "parse-error"),
    (["inner-test", "--realization", "inputs/huge-b.json"], ("inf", 1.0)),
    (["inner-test", "--realization", "inputs/tiny-c.json"], (1.0, 1.0)),
]


def test_out_of_range_artifact_runs_answer_with_codes(capsys, tmp_path,
                                                      monkeypatch):
    """Each run prints a coded error (exit 1) or finite or inf defects
    (exit 0), with nothing on stderr and no RuntimeWarning."""
    script = _artifact_script()
    (tmp_path / "inputs").mkdir()
    for name, obj in script.INPUTS.items():
        (tmp_path / "inputs" / name).write_text(json.dumps(obj) + "\n")
    monkeypatch.chdir(tmp_path)
    for argv, want in _RANGE_RUNS:
        assert argv in script.COMMANDS, argv
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out, err = capsys.readouterr()
        assert err == "", argv
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], argv
        obj = json.loads(out)
        if argv[0] == "inner-test":
            assert code == 0 and obj["inner"] is False
            assert (obj["unit_defect"], obj["orthogonality_defect"]) == want
        else:
            assert code == 1 and obj["error"]["code"] == want, argv


@pytest.mark.parametrize("argv", _artifact_script().OVERFLOW_RUNS,
                         ids=lambda argv: " ".join(argv).replace(
                             "--realization inputs/", ""))
def test_overflowing_products_of_finite_entries_are_numerical_failures(
        capsys, tmp_path, monkeypatch, argv):
    """Finite realizations whose Krylov generations (every subcommand that
    minimizes), kernel datum S* b, value r(1/2) or inverse tuple overflow:
    each run is a coded numerical-failure, with nothing on stderr and no
    RuntimeWarning."""
    script = _artifact_script()
    (tmp_path / "inputs").mkdir()
    for name, obj in script.INPUTS.items():
        (tmp_path / "inputs" / name).write_text(json.dumps(obj) + "\n")
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([a.replace("{run}", "run") for a in argv])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert json.loads(out)["error"]["code"] == "numerical-failure"


def test_imprimitive_artifact_runs_answer(capsys):
    """The 13-state tuple of a cyclic word has spr^2 times the 13th roots
    of unity as its peripheral spectrum; each run reads the one that is
    real positive and certifies its boundary point."""
    script = _artifact_script()
    spr = 2.0 ** (1.0 / 13)
    for command in ("spr", "member", "boundary-sing"):
        argv = [command, "-d", "2", script.CYCLIC13]
        assert argv in script.COMMANDS
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0 and err == "", command
        obj = json.loads(out)
        if command == "boundary-sing":
            assert obj["one_over_spr"] == pytest.approx(1.0 / spr, rel=1e-12)
            assert obj["sigma_min"] <= 1e-8
        else:
            assert obj["spr"] == pytest.approx(spr, rel=1e-12)
        if command == "member":
            assert obj["verdict"] == "not_in_H2"
            assert obj["witness_sigma_min"] <= 1e-8


def test_deep_nesting_artifact_runs_are_parse_errors():
    """In a fresh process, as the artifacts run, both nestings parse, but
    the output of parse and the expansion of factor are too deep."""
    script = _artifact_script()
    for argv in (["parse", "-d", "1", script.nested_inverse(200)],
                 ["factor", "-d", "1", script.nested_inverse(246)]):
        assert argv in script.COMMANDS
        proc = subprocess.run([sys.executable, "-m", "ncfock", *argv],
                              env=src_env(), capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stderr == "", argv[0]
        assert json.loads(proc.stdout)["error"]["code"] == "parse-error"
