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
from math import inf, ldexp

import numpy as np

from .errors import DimensionMismatchError, NumericalFailureError
from .realization import (
    MatrixTuple,
    Realization,
    as_matrix_tuple,
    taylor_coeff,
    taylor_table,
)
from .spectral import (
    _BELOW,
    _EDGE,
    _boundary_singularity,
    similarity_to_contraction,
    spr_below,
    stein_solve,
)
from .words import words_up_to

_WITNESS_TOL = 1e-8    # sigma_min goal of an is_in_fock boundary witness


class KernelVector:
    """NC Szego kernel datum {Z, y, v}: Z, y and v are finite and Z is a
    strict row contraction, else the construction raises ValueError."""

    __slots__ = ("Z", "y", "v")

    def __init__(self, Z, y, v):
        Z = as_matrix_tuple(Z)
        y = np.asarray(y, dtype=complex).reshape(-1)
        v = np.asarray(v, dtype=complex).reshape(-1)
        if y.shape[0] != Z.n or v.shape[0] != Z.n:
            raise DimensionMismatchError("kernel vectors must match the point size")
        if not all(np.isfinite(x).all() for x in (Z.X, y, v)):
            raise ValueError("kernel data {Z, y, v} must be finite")
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


def kernel_from_realization(r):
    """Kernel datum of a realization with spr(A) < 1.

    Applies the similarity to a row contraction W = S^{-1} A S of row norm
    <= spr(A) + min((1 - spr(A)) / 2, 0.1) and returns {conj(W), conj(S* b),
    conj(S^{-1} c)}, whose coefficients are the b* A^w c, or raises
    ``NumericalFailureError`` where that is no ``KernelVector``: where it
    overflows, or the Gram matrix of the similarity is too ill-conditioned.
    """
    spr_below(r.cpmap, "not in Fock space: spr(A) = {s:.12g} is not < 1")
    s = r.cpmap.spr
    S, W = similarity_to_contraction(r.cpmap, min(0.5 * (1.0 - s), 0.1))
    with np.errstate(over="ignore", invalid="ignore"):
        x, u = S.conj().T @ r.b, np.linalg.solve(S, r.c)
    failed = "the similarity to a row contraction failed"
    try:
        return KernelVector(W.conjugate(), np.conj(x), np.conj(u))
    except ValueError as exc:    # not finite, or no strict row contraction
        raise NumericalFailureError(f"{failed}: {exc}") from None


# ---------------------------------------------------------------------------
# Norms and membership (Theorem A chain)
# ---------------------------------------------------------------------------

def h2_norm(r):
    """Fock-space norm sqrt(b* P b) with P - sum A_j P A_j* = c c*.  It is
    2^e times that of the mantissa m of ``Realization.pow2``, so neither
    c c* nor b* P b over- or underflows."""
    spr_below(r.cpmap, "not in Fock space: spr(A) = {s:.12g} is not < 1")
    m, e = r.pow2
    P = stein_solve(r.cpmap, np.outer(m.c, np.conj(m.c)), side="right")
    value = float(np.real(np.conj(m.b) @ P @ m.b))
    if np.isfinite(value):
        try:
            return ldexp(float(np.sqrt(max(value, 0.0))), e)
        except OverflowError:
            pass
    raise NumericalFailureError("the Fock norm overflows")


def kernel_norm_bound(kernel):
    """The crude bound ||K{Z,y,v}||^2 <= ||y||^2 ||v||^2 / (1 - ||Z||^2)."""
    t = kernel.Z.row_norm()
    return float(np.linalg.norm(kernel.y) ** 2 * np.linalg.norm(kernel.v) ** 2
                 / (1.0 - t ** 2))


@dataclass
class FockMembership:
    """Outcome of the membership test with its certificate.

    verdict is "in" (member of H^2, H^infty, and the NC disk algebra),
    "not_in", or "boundary" for the knife edge (``CPMap.band``), which is
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


def is_in_fock(r):
    """Theorem-A membership trichotomy for a minimal realization."""
    s = r.cpmap.spr
    radius = inf if s == 0.0 else 1.0 / s
    if r.cpmap.band == _BELOW:
        return FockMembership(verdict="in", in_h2=True, spr=s, radius=radius,
                              h2_norm=h2_norm(r))
    verdict = "boundary" if r.cpmap.band == _EDGE else "not_in"
    try:
        witness, sigma_min = _boundary_singularity(r.cpmap, _WITNESS_TOL)
    except ArithmeticError:
        witness = sigma_min = None
    return FockMembership(
        verdict=verdict, in_h2=False, spr=s, radius=radius, witness=witness,
        witness_row_norm=None if witness is None else witness.row_norm(),
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
    size = len(words)
    T = np.zeros((size, size), dtype=complex)
    for col, beta in enumerate(words):
        for omega, value in f.coeffs.items():
            target = omega + beta
            if len(target) <= degree:
                T[index[target], col] += value
    return ToeplitzTruncation(degree=degree, words=words, matrix=T)
