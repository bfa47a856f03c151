import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncfock as nf
from conftest import src_env
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


def test_boundary_sing_failed_certificate(capsys):
    # the certificate compares floats with roundoff against tol = 0
    assert _error_code(capsys, "boundary-sing", "-d", "2",
                       "inv(1 - 0.5*z1*z2 - 0.5*z2*z1)",
                       "--tol", "0") == "boundary-certificate-failed"


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
], ids=["rect-letters", "rect-three-numbers", "scales-letter", "scales-empty",
        "scales-nan", "levels-zero", "level-zero"])
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


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_error_contract_fuzz(data, tmp_path_factory):
    """Any numeric flag value or expression text gives a result, a coded JSON
    error with exit 1, or a usage error with exit 2; never a traceback."""
    out = str(tmp_path_factory.mktemp("fuzz") / "scan")
    argv = data.draw(_fuzz_argv(out))
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exit_:
        assert exit_.code == 2, argv
        return
    assert code in (0, 1), argv
    if code == 1:
        error = json.loads(stdout.getvalue())["error"]
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


# entries near the overflow threshold make numpy warn of overflow and of
# invalid values; the outcome is what the test checks
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_file_and_flag_fuzz(data, tmp_path_factory):
    """--tol, --starts, --attempts, --point and --realization with valid,
    non-finite, malformed or wrongly shaped values: exit 0, a coded JSON
    error with exit 1, or a usage error with exit 2; never a traceback.
    A realization that overflows gives numerical-failure wherever it is
    minimized or analysed; eval may print the overflowed value."""
    tmp = tmp_path_factory.mktemp("files")
    argv = data.draw(_file_flag_argv(tmp))
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exit_:
        assert exit_.code == 2, argv
        return
    assert code in (0, 1), argv
    if code == 1:
        error = json.loads(stdout.getvalue())["error"]
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
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_realization_is_a_numerical_failure(capsys, tmp_path,
                                                        command):
    path = tmp_path / "realization.json"
    path.write_text(_OVERFLOW_REALIZATION)
    code, out = run_cli(capsys, command[0], "--realization", str(path),
                        *command[1:])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "numerical-failure"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
