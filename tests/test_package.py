"""The package surface and what a process loads: ``import ncfock`` binds
its public names lazily, each to the object of the module that owns it,
and a CLI command imports only the modules its handler calls."""

import importlib
import subprocess
import sys

import pytest

import ncfock as nf
from conftest import src_env

PUBLIC_NAMES = [
    "BoundarySingularityError", "CPMap", "CertificationError",
    "ContinuityProbe", "DimensionMismatchError", "DomainError",
    "EMPTY_WORD", "FactorizationResult", "FockMembership", "InnerResult",
    "JointlyNilpotentError", "KernelVector", "MalformedJSONError",
    "MatrixTuple", "NCFockError", "NCPolynomial", "NotPolynomialError",
    "NotRegularAtZeroError", "NumericalFailureError", "OuterResult",
    "ParseError", "Realization", "ScanGridError", "SpectralRadiusError",
    "SpectrumMembership", "SpectrumScan", "ToeplitzTruncation",
    "ToleranceError", "VarietyWitness", "ZeroAtZeroError",
    "ZeroPolynomialError", "add", "as_polynomial", "autocorrelations",
    "boundary_singularity", "certify_witness", "conjugate_kernel",
    "conjugate_realization", "conjugate_series", "const",
    "contains_lambda", "continuity_probe", "errors", "eval_ast",
    "evaluate", "expr", "factorization", "finite_spectrum_sample", "fock",
    "format_expr", "from_ast", "from_expression", "from_polynomial",
    "grid_scan", "h2_norm", "hausdorff_distance", "hereditary_tree",
    "invert", "is_in_fock", "is_inner", "is_outer_rational",
    "kernel_coefficients", "kernel_from_realization",
    "kernel_to_realization", "lsq", "matrix_tuple_from_json",
    "matrix_tuple_to_json", "matrize", "minimize", "monomial_basis", "mul",
    "normalize", "outer_factor", "parse", "pencil", "realization",
    "realization_from_json", "realization_to_json", "reproduce",
    "samples_to_csv", "scale", "scan_to_csv", "scan_to_pgm",
    "similarity_to_contraction", "spectral", "spectrum", "spr",
    "stein_solve", "sub", "suffixes", "taylor_coeff", "taylor_table",
    "toeplitz", "unvec", "variable", "variety_witness_search", "vec",
    "witness_residual", "words", "words_up_to",
]

SUBMODULES = {"errors", "expr", "factorization", "fock", "lsq",
              "realization", "spectral", "spectrum", "words"}

FIXTURE = "inv(1 - 0.5*z1*z2 - 0.5*z2*z1)"


def test_the_package_exports_the_same_names_from_their_owners():
    assert len(PUBLIC_NAMES) == 100
    assert sorted(nf.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        if name in SUBMODULES:
            owner = importlib.import_module(f"ncfock.{name}")
            assert getattr(nf, name) is owner
        else:
            owner = importlib.import_module(f"ncfock.{nf._OWNER[name]}")
            value = getattr(nf, name)
            assert value is getattr(owner, name), name
            assert getattr(value, "__module__", owner.__name__) \
                == owner.__name__, name
    namespace = {}
    exec("from ncfock import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert set(PUBLIC_NAMES) <= set(dir(nf))
    with pytest.raises(AttributeError, match="no_such_name"):
        nf.no_such_name


def test_a_package_name_follows_its_owner(monkeypatch):
    # the package keeps no copy, so a patch of the owner reaches ncfock.X
    from ncfock import spectral

    def patched(*args, **kwargs):
        return 0.0

    monkeypatch.setattr(spectral, "spr", patched)
    assert nf.spr is patched
    monkeypatch.undo()
    assert nf.spr is spectral.spr is not patched


def _loaded(code):
    """The ncfock modules, numpy and dataclasses that a fresh interpreter
    holds after running code, with the CLI's stdout swallowed."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         f"{code}\n"
         "print(sorted(m for m in sys.modules\n"
         "             if m in ('numpy', 'dataclasses')\n"
         "             or m.startswith('ncfock')))"],
        env=src_env(), capture_output=True, text=True, check=True)
    assert proc.stderr == ""
    return set(eval(proc.stdout.strip().splitlines()[-1]))


def _after_cli(*argv):
    return _loaded("from ncfock.cli import main\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   f"    assert main({list(argv)!r}) == 0")


def test_a_process_loads_only_what_its_command_runs():
    assert _loaded("import ncfock") == {"ncfock"}
    # parse imports neither numpy nor dataclasses
    assert _after_cli("parse", "-d", "2", "2*3 + 1.5i*z1 - inv(z2)") == {
        "ncfock", "ncfock.cli", "ncfock.errors", "ncfock.expr",
        "ncfock.words"}
    for command in ("spr", "member"):
        loaded = _after_cli(command, "-d", "2", FIXTURE)
        assert "numpy" in loaded and "ncfock.spectral" in loaded
        assert not loaded & {"ncfock.factorization", "ncfock.spectrum",
                             "ncfock.lsq"}, command
