"""Fock-space semantics: Szego kernel vectors, H^2 norms, membership, Toeplitz
truncations, and the coefficient conjugation.

A kernel datum {Z, y, v} with Z a strict row contraction represents the
Fock-space element whose coefficient at the word a is <Z^a v, y> = (Z^a v)* y.
A realization (A, b, c) with spr(A) < 1 equals the kernel
{conj(W), conj(S* b), conj(S^{-1} c)} for any similarity S with
W = S^{-1} A S a strict row contraction; both directions are implemented
and checked against each other through coefficient tables, which are the
canonical representation (kernel data are not unique).
"""

from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import (
    DimensionMismatchError,
    NumericalFailureError,
    SpectralRadiusError,
)
from .realization import (
    MatrixTuple,
    Realization,
    as_matrix_tuple,
    taylor_coeff,
    taylor_table,
)
from .spectral import (
    SPR_BOUNDARY_TOL,
    CPMap,
    _boundary_singularity,
    similarity_to_contraction,
    stein_solve,
)
from .words import monomial_count, words_up_to


class KernelVector:
    """NC Szego kernel datum {Z, y, v}; Z must be a strict row contraction."""

    __slots__ = ("Z", "y", "v")

    def __init__(self, Z, y, v):
        Z = as_matrix_tuple(Z)
        y = np.asarray(y, dtype=complex).reshape(-1)
        v = np.asarray(v, dtype=complex).reshape(-1)
        if y.shape[0] != Z.n or v.shape[0] != Z.n:
            raise DimensionMismatchError("kernel vectors must match the point size")
        if not Z.is_strict_row_contraction():
            raise ValueError(
                f"kernel point must be a strict row contraction "
                f"(row norm {Z.row_norm():.6g})")
        self.Z = Z
        self.y = y
        self.v = v

    @property
    def d(self):
        return self.Z.d

    @property
    def n(self):
        return self.Z.n

    def coefficient(self, word):
        """<Z^a v, y>, the Taylor coefficient of kernel_to_realization."""
        return taylor_coeff(kernel_to_realization(self), word)

    def __repr__(self):
        return f"KernelVector(d={self.d}, n={self.n}, row_norm={self.Z.row_norm():.6g})"


def kernel_coefficients(kernel, max_len):
    """Coefficient table <Z^a v, y> for all words of length <= max_len."""
    return taylor_table(kernel_to_realization(kernel), max_len)


def kernel_to_realization(kernel):
    """The (not necessarily minimal) realization (conj Z, conj y, conj v)."""
    return Realization(np.conj(kernel.Z.X), np.conj(kernel.y), np.conj(kernel.v))


def kernel_from_realization(r, margin=None):
    """Kernel datum of a realization with spr(A) < 1.

    Applies the similarity to a strict row contraction W = S^{-1} A S and
    returns {conj(W), conj(S* b), conj(S^{-1} c)}; the coefficient table of
    the result reproduces the Taylor coefficients b* A^w c.
    """
    cp = CPMap(r.A)
    s = cp.spr
    if s >= 1.0 - SPR_BOUNDARY_TOL:
        raise SpectralRadiusError(
            f"not in Fock space: spr(A) = {s:.12g} is not < 1")
    if margin is None:
        margin = min(0.5 * (1.0 - s), 0.1)
    S, W = similarity_to_contraction(cp, margin)
    x = S.conj().T @ r.b
    u = np.linalg.solve(S, r.c)
    return KernelVector(W.conjugate(), np.conj(x), np.conj(u))


# ---------------------------------------------------------------------------
# Norms and membership (Theorem A chain)
# ---------------------------------------------------------------------------

def h2_norm(r):
    """Fock-space norm sqrt(b* P b) with P - sum A_j P A_j* = c c*."""
    return _h2_norm(r, CPMap(r.A))


def _h2_norm(r, cp):
    """h2_norm of r with cp = CPMap(r.A), whose spr it reads."""
    s = cp.spr
    if s >= 1.0 - SPR_BOUNDARY_TOL:
        raise SpectralRadiusError(
            f"not in Fock space: spr(A) = {s:.12g} is not < 1")
    P = stein_solve(cp, np.outer(r.c, np.conj(r.c)), side="right")
    value = float(np.real(np.conj(r.b) @ P @ r.b))
    if not np.isfinite(value):
        raise NumericalFailureError("the squared Fock norm overflows")
    return float(np.sqrt(max(value, 0.0)))


def kernel_norm_bound(kernel):
    """The crude bound ||K{Z,y,v}||^2 <= ||y||^2 ||v||^2 / (1 - ||Z||^2)."""
    t = kernel.Z.row_norm()
    return float(np.linalg.norm(kernel.y) ** 2 * np.linalg.norm(kernel.v) ** 2
                 / (1.0 - t ** 2))


@dataclass
class FockMembership:
    """Outcome of the membership test with its certificate.

    verdict is "in" (member of H^2, H^infty, and the NC disk algebra),
    "not_in", or "boundary" for the knife edge |spr - 1| <= 1e-9, which is
    surfaced rather than forced into a class.  ``in_h2`` is True only for
    the certified positive verdict.  On the non-positive side ``witness``
    is a pencil-singular point at norm 1/spr <= 1 (+/- the band width), and
    ``witness_sigma_min`` an upper bound on the smallest singular value of
    the pencil there, the residual of its known null vector.
    """

    verdict: str
    in_h2: bool
    spr: float
    radius: float
    h2_norm: float = None
    witness: MatrixTuple = None
    witness_row_norm: float = None
    witness_sigma_min: float = None


def is_in_fock(r, witness_tol=1e-8):
    """Theorem-A membership trichotomy for a minimal realization."""
    cp = CPMap(r.A)
    s = cp.spr
    radius = inf if s < 1e-12 else 1.0 / s
    if s < 1.0 - SPR_BOUNDARY_TOL:
        return FockMembership(verdict="in", in_h2=True, spr=s, radius=radius,
                              h2_norm=_h2_norm(r, cp))
    verdict = "boundary" if abs(s - 1.0) <= SPR_BOUNDARY_TOL else "not_in"
    try:
        witness, sigma_min = _boundary_singularity(cp, witness_tol)
    except ArithmeticError:
        return FockMembership(verdict=verdict, in_h2=False, spr=s,
                              radius=radius)
    return FockMembership(verdict=verdict, in_h2=False, spr=s, radius=radius,
                          witness=witness,
                          witness_row_norm=witness.row_norm(),
                          witness_sigma_min=sigma_min)


# ---------------------------------------------------------------------------
# Reproducing property and conjugation
# ---------------------------------------------------------------------------

def reproduce(kernel, f):
    """<K{Z,y,v}, f> = y* f(Z) v, computed both ways and cross-checked."""
    if f.d != kernel.d:
        raise DimensionMismatchError("kernel and polynomial dimensions differ")
    via_coeffs = 0.0 + 0.0j
    for word, value in f.coeffs.items():
        via_coeffs += np.conj(kernel.coefficient(word)) * value
    fz = f.evaluate(kernel.Z)
    direct = complex(np.conj(kernel.y) @ fz @ kernel.v)
    if abs(via_coeffs - direct) > 1e-10 * max(1.0, abs(direct)):
        raise ArithmeticError(
            f"reproducing property self-check failed: {via_coeffs} vs {direct}")
    return direct


def conjugate_series(f):
    """The conjugation C: coefficientwise conjugate, an isometric involution."""
    return f.conjugate()


def conjugate_kernel(kernel):
    """C K{Z,y,v} = K{conj Z, conj y, conj v}."""
    return KernelVector(kernel.Z.conjugate(), np.conj(kernel.y),
                        np.conj(kernel.v))


# ---------------------------------------------------------------------------
# Toeplitz truncations of multipliers
# ---------------------------------------------------------------------------

@dataclass
class ToeplitzTruncation:
    """Matrix of left multiplication by f on monomials of length <= degree,
    in the length-then-lex monomial basis; block lower triangular in degree."""

    degree: int
    words: tuple
    matrix: np.ndarray

    def index(self, word):
        return self.words.index(tuple(word))


def monomial_basis(d, degree):
    return tuple(words_up_to(d, degree))


def toeplitz(f, degree):
    """Truncated left-multiplication matrix of the polynomial f."""
    words = monomial_basis(f.d, degree)
    index = {w: k for k, w in enumerate(words)}
    size = monomial_count(f.d, degree)
    T = np.zeros((size, size), dtype=complex)
    for col, beta in enumerate(words):
        for omega, value in f.coeffs.items():
            target = omega + beta
            if len(target) <= degree:
                T[index[target], col] += value
    return ToeplitzTruncation(degree=degree, words=words, matrix=T)
