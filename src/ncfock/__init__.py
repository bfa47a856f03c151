"""ncfock: noncommutative rational functions in the Fock space.

Parse NC rational expressions, compile them to minimal state-space
realizations, and decide membership in the NC Hardy space, compute norms,
inner-outer factorizations, outerness certificates, boundary singularities,
and spectra of rational multipliers.

``import ncfock`` loads none of the modules below: each public name is
looked up in the module that owns it on first use (PEP 562), so a process
pays only for the modules it calls.  The lookup is not cached here, so
``ncfock.X`` is always the owner module's current ``X``.
"""

import importlib

__version__ = "0.1.0"

# owner module -> the public names it exports through the package; every
# owner is itself a public name, as a submodule
_EXPORTS = {
    "errors": (
        "BoundarySingularityError", "CertificationError",
        "DimensionMismatchError", "DomainError", "JointlyNilpotentError",
        "MalformedJSONError", "NCFockError", "NotPolynomialError",
        "NotRegularAtZeroError", "NumericalFailureError", "ParseError",
        "ScanGridError", "SpectralRadiusError", "ToleranceError",
        "ZeroAtZeroError", "ZeroPolynomialError"),
    "expr": ("as_polynomial", "eval_ast", "format_expr", "normalize",
             "parse"),
    "factorization": (
        "FactorizationResult", "InnerResult", "OuterResult",
        "autocorrelations", "hereditary_tree", "is_inner",
        "is_outer_rational", "outer_factor"),
    "fock": (
        "FockMembership", "KernelVector", "ToeplitzTruncation",
        "conjugate_kernel", "conjugate_series", "h2_norm", "is_in_fock",
        "kernel_coefficients", "kernel_from_realization",
        "kernel_to_realization", "monomial_basis", "reproduce", "toeplitz"),
    "lsq": (),
    "realization": (
        "MatrixTuple", "Realization", "add", "conjugate_realization",
        "const", "evaluate", "from_ast", "from_expression",
        "from_polynomial", "invert", "matrix_tuple_from_json",
        "matrix_tuple_to_json", "minimize", "mul", "pencil",
        "realization_from_json", "realization_to_json", "scale", "sub",
        "taylor_coeff", "taylor_table", "variable"),
    "spectral": (
        "CPMap", "boundary_singularity", "matrize",
        "similarity_to_contraction", "spr", "stein_solve", "unvec", "vec"),
    "spectrum": (
        "ContinuityProbe", "SpectrumMembership", "SpectrumScan",
        "VarietyWitness", "certify_witness", "contains_lambda",
        "continuity_probe", "finite_spectrum_sample", "grid_scan",
        "hausdorff_distance", "samples_to_csv", "scan_to_csv",
        "scan_to_pgm", "variety_witness_search", "witness_residual"),
    "words": ("EMPTY_WORD", "NCPolynomial", "suffixes", "words_up_to"),
}

_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        owner = importlib.import_module(f"{__name__}.{_OWNER[name]}")
        return getattr(owner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
