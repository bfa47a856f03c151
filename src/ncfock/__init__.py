"""ncfock: noncommutative rational functions in the Fock space.

Parse NC rational expressions, compile them to minimal state-space
realizations, and decide membership in the NC Hardy space, compute norms,
inner-outer factorizations, outerness certificates, boundary singularities,
and spectra of rational multipliers.
"""

from .errors import (
    BoundarySingularityError,
    CertificationError,
    DimensionMismatchError,
    DomainError,
    JointlyNilpotentError,
    MalformedJSONError,
    NCFockError,
    NotPolynomialError,
    NotRegularAtZeroError,
    NumericalFailureError,
    ParseError,
    ScanGridError,
    SpectralRadiusError,
    ZeroAtZeroError,
)
from .expr import as_polynomial, eval_ast, format_expr, normalize, parse
from .factorization import (
    FactorizationResult,
    InnerResult,
    OuterResult,
    autocorrelations,
    hereditary_tree,
    is_inner,
    is_outer_rational,
    outer_factor,
)
from .fock import (
    FockMembership,
    KernelVector,
    ToeplitzTruncation,
    conjugate_kernel,
    conjugate_series,
    h2_norm,
    is_in_fock,
    kernel_coefficients,
    kernel_from_realization,
    kernel_to_realization,
    monomial_basis,
    reproduce,
    toeplitz,
)
from .realization import (
    MatrixTuple,
    Realization,
    add,
    conjugate_realization,
    const,
    evaluate,
    from_ast,
    from_expression,
    from_polynomial,
    invert,
    matrix_tuple_from_json,
    matrix_tuple_to_json,
    minimize,
    mul,
    pencil,
    realization_from_json,
    realization_to_json,
    scale,
    sub,
    taylor_coeff,
    taylor_table,
    variable,
)
from .spectral import (
    CPMap,
    boundary_singularity,
    matrize,
    similarity_to_contraction,
    spr,
    stein_solve,
    unvec,
    vec,
)
from .spectrum import (
    ContinuityProbe,
    SpectrumMembership,
    SpectrumScan,
    VarietyWitness,
    certify_witness,
    contains_lambda,
    continuity_probe,
    finite_spectrum_sample,
    grid_scan,
    hausdorff_distance,
    samples_to_csv,
    scan_to_csv,
    scan_to_pgm,
    variety_witness_search,
    witness_residual,
)
from .words import EMPTY_WORD, NCPolynomial, suffixes, words_up_to

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
