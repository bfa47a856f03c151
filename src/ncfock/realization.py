"""State-space realizations (A, b, c) of NC rational functions regular at 0.

A realization represents r(X) = (b* ⊗ I) L_A(X)^{-1} (c ⊗ I) with the monic
linear pencil L_A(X) = I - sum_j A_j ⊗ X_j.  The module provides the
compile step from expression ASTs, the realization algebra (sum, scalar
multiple, product, inverse), two-sided Krylov minimization, pencil
evaluation, Taylor coefficients b* A^w c, and the JSON wire format.

Only the spectrum functions and the outerness test minimize their input; the
Fock and innerness certificates take a realization as given.
"""

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import expr as ex
from .errors import (
    DimensionMismatchError,
    DomainError,
    MalformedJSONError,
    NotRegularAtZeroError,
    NumericalFailureError,
    ToleranceError,
    ZeroAtZeroError,
)
from .words import NCPolynomial, _pow2_scaled, suffix_closure

DEFAULT_RANK_TOL = 1e-10
PENCIL_RCOND = 1e-12
_NILPOTENT_COEFF_TOL = 1e-12   # relative zero of a Taylor tail coefficient


# ---------------------------------------------------------------------------
# Matrix tuples (points of the NC universe)
# ---------------------------------------------------------------------------

class MatrixTuple:
    """A point Z in C^{(n x n) d}: a d-tuple of equal-size square matrices."""

    __slots__ = ("X",)

    def __init__(self, X):
        X = np.asarray(X, dtype=complex)
        if X.ndim == 2:
            X = X[None, :, :]
        if X.ndim != 3 or X.shape[1] != X.shape[2]:
            raise DimensionMismatchError(
                "a matrix tuple is a d x n x n array of square matrices")
        self.X = X

    @classmethod
    def zeros(cls, d, n):
        return cls(np.zeros((d, n, n), dtype=complex))

    @property
    def d(self):
        return self.X.shape[0]

    @property
    def n(self):
        return self.X.shape[1]

    def __getitem__(self, j):
        return self.X[j]

    def __iter__(self):
        return iter(self.X)

    def row_norm(self):
        """Largest singular value of the 1 x d block row [X_1 ... X_d]."""
        return float(np.linalg.norm(np.hstack(list(self.X)), 2))

    def is_strict_row_contraction(self):
        return self.row_norm() < 1.0

    def conjugate(self):
        return MatrixTuple(np.conj(self.X))

    def scale(self, s):
        return MatrixTuple(s * self.X)

    def direct_sum(self, other):
        if self.d != other.d:
            raise DimensionMismatchError("direct sum needs matching d")
        return MatrixTuple(_block_diagonal(self.X, other.X))

    def __repr__(self):
        return f"MatrixTuple(d={self.d}, n={self.n}, row_norm={self.row_norm():.6g})"


def as_matrix_tuple(X, d=None):
    Z = X if isinstance(X, MatrixTuple) else MatrixTuple(np.asarray(X, dtype=complex))
    if d is not None and Z.d != d:
        raise DimensionMismatchError(f"point has {Z.d} components, expected {d}")
    return Z


# ---------------------------------------------------------------------------
# Realizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Realization:
    """Triple (A, b, c); A has shape (d, n, n), b and c have shape (n,),
    and every entry is finite: a construction given an inf or a nan, as an
    overflow leaves it, raises NumericalFailureError."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        b = np.asarray(self.b, dtype=complex).reshape(-1)
        c = np.asarray(self.c, dtype=complex).reshape(-1)
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise DimensionMismatchError("A must be a d x n x n array")
        if b.shape[0] != A.shape[1] or c.shape[0] != A.shape[1]:
            raise DimensionMismatchError("b, c must be length-n vectors")
        # count_nonzero is numpy's cheapest all() on small arrays
        if (np.count_nonzero(np.isfinite(A)) + np.count_nonzero(np.isfinite(b))
                + np.count_nonzero(np.isfinite(c)) < A.size + 2 * b.size):
            raise NumericalFailureError(
                "the entries of the realization overflow")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def d(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]

    def value_at_zero(self):
        return complex(np.vdot(self.b, self.c))

    @cached_property
    def pow2(self):
        """(m, e) with m = (A, 2^-e_b b, 2^-e_c c) by ``_pow2_scaled`` and
        e = e_b + e_c: r = 2^e m exactly, 2^j b and 2^l c give the same m
        and e + j + l, and no Taylor coefficient of m over- or underflows."""
        b, e_b = _pow2_scaled(self.b)
        c, e_c = _pow2_scaled(self.c)
        return Realization(self.A, b, c), e_b + e_c

    @cached_property
    def _value_and_scale(self):
        """r(0), |b| |c| and e, the first two in the units of ``pow2``; a
        scan asks for every block of cells, so they are kept."""
        m, e = self.pow2
        scale = float(np.linalg.norm(m.b) * np.linalg.norm(m.c))
        return m.value_at_zero(), scale, e

    def _mantissa_shift(self, lam):
        """lam 2^-e, in the units of ``pow2``, for one complex lam or an
        array, by ``np.ldexp``: inf where that overflows (under the caller's
        ``np.errstate``)."""
        lam = np.asarray(lam, dtype=complex)
        return np.ldexp(np.atleast_1d(lam).view(float),
                        -self._value_and_scale[2]).view(complex).reshape(
                            lam.shape)

    def vanishes_at_zero(self, shift=0.0):
        """r(0) = shift relative to max(|b| |c|, |shift|), with no floor, in
        the units of ``pow2``, for one shift or an array (a scan asks for a
        block of cells at once), where a shift that overflows there is no
        zero of r."""
        gamma, scale, _ = self._value_and_scale
        with np.errstate(over="ignore"):
            shift = self._mantissa_shift(shift)
        size = np.abs(shift)
        return (np.abs(gamma - shift) <= 1e-14 * np.maximum(scale, size)) \
            & (size < math.inf)

    @cached_property
    def cpmap(self):
        """The ``spectral.CPMap`` of A, shared by every verdict on r."""
        from .spectral import CPMap  # spectral imports this module
        return CPMap(self.A)

    def __repr__(self):
        return f"Realization(d={self.d}, n={self.n})"


def const(value, d):
    """Realization of the constant function."""
    A = np.zeros((d, 1, 1), dtype=complex)
    return Realization(A, np.ones(1), np.array([value], dtype=complex))


def variable(index, d):
    """Realization of z_index, state dimension 2."""
    if not (1 <= index <= d):
        raise DimensionMismatchError(f"variable index {index} out of range 1..{d}")
    A = np.zeros((d, 2, 2), dtype=complex)
    A[index - 1, 0, 1] = 1.0
    b = np.array([1.0, 0.0], dtype=complex)
    c = np.array([0.0, 1.0], dtype=complex)
    return Realization(A, b, c)


def _check_same_d(r1, r2):
    if r1.d != r2.d:
        raise DimensionMismatchError(
            f"realizations over {r1.d} and {r2.d} variables")


def _block_diagonal(X, Y):
    """The stack of diag(X_j, Y_j) of two stacks of square matrices."""
    d, n, m = X.shape[0], X.shape[1], Y.shape[1]
    out = np.zeros((d, n + m, n + m), dtype=complex)
    out[:, :n, :n] = X
    out[:, n:, n:] = Y
    return out


def add(r1, r2):
    """Direct-sum realization of r1 + r2, size n1 + n2."""
    _check_same_d(r1, r2)
    return Realization(_block_diagonal(r1.A, r2.A),
                       np.concatenate([r1.b, r2.b]),
                       np.concatenate([r1.c, r2.c]))


# scale, mul and invert leave an overflow to ``Realization``, silently
@np.errstate(over="ignore", invalid="ignore")
def scale(r, s):
    """Realization of s * r (scales c)."""
    return Realization(r.A, r.b, complex(s) * r.c)


def sub(r1, r2):
    return add(r1, scale(r2, -1.0))


@np.errstate(over="ignore", invalid="ignore")
def mul(r1, r2):
    """Block-triangular coupling realization of the product r1 * r2."""
    _check_same_d(r1, r2)
    d, n1, n2 = r1.d, r1.n, r2.n
    gamma2 = r2.value_at_zero()
    A = _block_diagonal(r1.A, r2.A)
    for j in range(d):
        A[j, :n1, n1:] = np.outer(r1.c, np.conj(r2.b) @ r2.A[j])
    b = np.concatenate([r1.b, np.zeros(n2)])
    c = np.concatenate([gamma2 * r1.c, r2.c])
    return Realization(A, b, c)


@np.errstate(over="ignore", invalid="ignore")
def invert(r):
    """Size-(n+1) realization of the pointwise inverse.

    Requires r(0) = b*c != 0.  A bordered-pencil Schur complement gives the
    construction; the product r * invert(r) is verified to have Taylor
    table {empty word: 1} through length 4.
    """
    if r.vanishes_at_zero():
        raise ZeroAtZeroError("cannot invert: value at zero is zero")
    gamma = r.value_at_zero()
    d, n = r.d, r.n
    bstar = np.conj(r.b)
    E = np.eye(n, dtype=complex) - np.outer(r.c, bstar) / gamma
    A = np.zeros((d, n + 1, n + 1), dtype=complex)
    for j in range(d):
        A[j, :n, :n] = E @ r.A[j]
        A[j, n, :n] = (bstar @ r.A[j]) / gamma
    b = np.zeros(n + 1, dtype=complex)
    b[n] = -1.0
    c = np.concatenate([r.c / gamma, [-1.0 / gamma]])
    out = Realization(A, b, c)
    table = taylor_table(mul(r, out), 4)
    scale_t = 1.0 + max((abs(v) for v in table.coeffs.values()), default=0.0)
    if not table.allclose(NCPolynomial.one(d), tol=1e-6 * scale_t):
        raise NumericalFailureError(
            "inverse construction failed its self-check (r * r^-1 != 1)")
    return out


def conjugate_realization(r):
    """Entrywise conjugate (A, b, c) -> (conj A, conj b, conj c)."""
    return Realization(np.conj(r.A), np.conj(r.b), np.conj(r.c))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _kron(A, B):
    """np.kron of two matrices by one broadcast product, without its
    per-call set-up: the same products, so the same floats."""
    (p, q), (s, t) = A.shape, B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(p * s, q * t)


def pencil(r, X):
    """L_A(X) = I_{nN} - sum_j A_j kron X_j."""
    Z = as_matrix_tuple(X, r.d)
    n = Z.n
    L = np.eye(r.n * n, dtype=complex)
    for j in range(r.d):
        L -= _kron(r.A[j], Z[j])
    return L


@np.errstate(over="ignore", invalid="ignore")
def evaluate(r, X):
    """r(X) = (b* x I) L_A(X)^{-1} (c x I); raises DomainError off-domain
    and NumericalFailureError where the pencil or r(X) overflows."""
    Z = as_matrix_tuple(X, r.d)
    n = Z.n
    L = pencil(r, Z)
    if not np.isfinite(L).all():
        raise NumericalFailureError("the pencil L_A(X) overflows")
    sing = np.linalg.svd(L, compute_uv=False)
    # the pencil is monic, so its natural scale is at least 1
    if sing[-1] / max(sing[0], 1.0) < PENCIL_RCOND:
        raise DomainError("X not in domain: realization pencil is singular")
    eye = np.eye(n, dtype=complex)
    sol = np.linalg.solve(L, _kron(r.c[:, None], eye))
    value = _kron(np.conj(r.b)[None, :], eye) @ sol
    if not np.isfinite(value).all():
        raise NumericalFailureError("the value r(X) overflows")
    return value


# ---------------------------------------------------------------------------
# Taylor coefficients
# ---------------------------------------------------------------------------

def taylor_coeff(r, word):
    """Coefficient b* A_{i1} ... A_{ik} c of the word (i1, ..., ik)."""
    v = r.c
    for letter in reversed(tuple(word)):
        if not (1 <= letter <= r.d):
            raise DimensionMismatchError(f"letter {letter} out of range 1..{r.d}")
        v = r.A[letter - 1] @ v
    return complex(np.vdot(r.b, v))


def taylor_table(r, max_len):
    """NCPolynomial of all coefficients with word length <= max_len."""
    coeffs = {}
    bstar = np.conj(r.b)
    # A^w c = 0 gives the word and its extensions the coefficient 0, as A
    # and b are finite: a polynomial's shift realization visits its tree
    level = {(): r.c}
    for length in range(max_len + 1):
        level = {word: vec for word, vec in level.items() if vec.any()}
        for word, vec in level.items():
            coeffs[word] = complex(bstar @ vec)
        if length == max_len:
            break
        nxt = {}
        for word, vec in level.items():
            for j in range(r.d):
                nxt[(j + 1,) + word] = r.A[j] @ vec
        level = nxt
    return NCPolynomial(r.d, coeffs)


# ---------------------------------------------------------------------------
# Minimization (two-sided Krylov compression)
# ---------------------------------------------------------------------------

def _krylov_basis(A, seed, tol):
    """Orthonormal basis of span{A^w seed} via breadth-first generations.

    Each generation applies every A_j to the previous one, projects out the
    accumulated basis, and orthonormalizes the remainder with a singular
    value cutoff relative to the largest scale seen so far: 1 for the
    normalized seed, the largest singular value of each image after it, so
    that the cutoff does not depend on the scale of the seed, which is first
    scaled by a power of two (``_pow2_scaled``) to a finite nonzero norm; a
    generation that overflows raises NumericalFailureError.  Expanding by
    generations (not re-factoring the whole stack) keeps the graded zero
    structure of polynomial realizations exact, so jointly nilpotent
    functions compress to exactly nilpotent tuples.
    """
    n = A.shape[1]
    seed = _pow2_scaled(seed)[0]
    norm_seed = np.linalg.norm(seed)
    if norm_seed == 0:
        return np.zeros((n, 0), dtype=complex)
    scale = 1.0
    generation = seed[:, None] / norm_seed
    basis = [generation]
    total = 1
    while total < n:
        fresh = np.hstack([A[j] @ generation for j in range(A.shape[0])])
        for block in basis:
            fresh = fresh - block @ (block.conj().T @ fresh)
        if np.count_nonzero(np.isfinite(fresh)) < fresh.size:
            raise NumericalFailureError("a Krylov generation overflows")
        generation, scale = _orth_columns(fresh, tol, scale)
        if generation.shape[1] == 0:
            break
        # second projection pass guards against loss of orthogonality
        for block in basis:
            generation = generation - block @ (block.conj().T @ generation)
        # the columns were orthonormal before this pass, so their singular
        # values are near 1 where the first pass kept them for good reason
        generation = _orth_columns(generation, tol, 1.0)[0]
        if generation.shape[1] == 0:
            break
        basis.append(generation)
        total += generation.shape[1]
    return np.hstack(basis)


def _orth_columns(M, rel, top=0.0):
    """The left singular vectors of M whose singular values exceed rel
    max(top, sigma_1), and that maximum: the one rank cut of every
    subspace of a realization; an empty M gives an empty basis."""
    Q, s, _ = np.linalg.svd(M, full_matrices=False)
    top = max(top, float(s[0]) if s.size else 0.0)
    return Q[:, :int(np.sum(s > rel * top))], top


def _restrict(X, U):
    """U* X_j U for every matrix X_j of the stack X."""
    return U.conj().T @ X @ U


def _compress(r, U):
    return Realization(_restrict(r.A, U), U.conj().T @ r.b, U.conj().T @ r.c)


def minimize(r, tol=DEFAULT_RANK_TOL):
    """Jointly controllable and observable realization of the same function.

    One round suffices: compress to the Krylov space of c under A
    (controllability), then to that of b under A* (observability).  The
    second step keeps controllability, as the complement of the observable
    space is invariant under every A_j (Schutzenberger's reduction; Berstel
    and Reutenauer, Noncommutative Rational Series with Applications, ch. 2).
    Taylor coefficients are kept up to roundoff; an input that the round
    does not shrink comes back unrotated, with its cleaner structural zeros.
    Jointly nilpotent functions (polynomials) come out structurally
    nilpotent: ``_nilpotent_cleanup`` restores, in polynomial time, the
    exact zeros that basis mixing smears at roundoff level.  Raises
    NumericalFailureError when a Krylov generation, the compression or
    r(0) = b* c overflows, ToleranceError for a tol outside [0, 1).
    """
    if not 0.0 <= tol < 1.0:
        raise ToleranceError(f"expected a tolerance in [0, 1), got {tol!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        U = _krylov_basis(r.A, r.c, tol)
        if U.shape[1] == 0:
            return const(0.0, r.d)
        cur = _compress(r, U)
        W = _krylov_basis(np.conj(np.transpose(cur.A, (0, 2, 1))), cur.b, tol)
        if W.shape[1] == 0:
            return const(0.0, r.d)
        cur = _compress(cur, W)
    return _nilpotent_cleanup(r if cur.n == r.n else cur)


def _nilpotent_cleanup(r):
    """Exactly nilpotent rewrite of a realization of a polynomial.

    The tuple decides and the function confirms, both in polynomial time.
    The joint image chain C^n, span{A^w x : |w| = 1}, span{A^w x : |w| = 2},
    ... (rank cutoff 1e-8 of the largest singular value of [A_1 ... A_d])
    must shrink strictly to 0, else r comes back as it is; a joint range
    of full rank, the common case, returns at once.  A chain that reaches 0
    is confirmed on the Taylor tail: the words of lengths n and n + 1 must
    have coefficients that vanish against those of the shorter words, in
    the per-level l2 norms ||b* F_k||, where F_k F_k* = sum over |w| = k of
    A^w c c* A^w* and one QR a level keeps F_k at most n columns wide.
    Every A_j is then strictly block upper triangular in the flag of the
    chain; rotating to it and zeroing the structural entries removes the
    roundoff that would otherwise masquerade as a tiny spectral radius.
    """
    if not np.isfinite(r.value_at_zero()):
        raise NumericalFailureError("r(0) = b* c of the realization overflows")
    n = r.n
    joint = np.hstack(list(r.A))
    sing = np.linalg.svd(joint, compute_uv=False)
    if sing[0] <= 1e-13:
        # the tuple is pure roundoff: over the unit row ball the function
        # moves by a relative 1e-13 at most, so it is the constant b*c
        return Realization(np.zeros_like(r.A), r.b, r.c)
    if np.sum(sing > 1e-8 * sing[0]) == n:
        return r
    flags, image = [np.eye(n, dtype=complex)], joint
    while True:
        span = _orth_columns(image, 1e-8, sing[0])[0]
        if span.shape[1] >= flags[-1].shape[1]:
            return r
        if span.shape[1] == 0:
            break
        flags.append(span)
        image = np.hstack([A_j @ span for A_j in r.A])
    bstar, F, levels = np.conj(r.b), r.c[:, None], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n + 2):
            if k:
                F = np.hstack([A_j @ F for A_j in r.A])
                F = np.linalg.qr(F.conj().T, mode="r").conj().T
            v, e = _pow2_scaled(bstar @ F)
            levels.append(np.ldexp(np.linalg.norm(v), e))
    head, tail = max(levels[:n]), max(levels[n:])
    if not np.isfinite([head, tail]).all():
        raise NumericalFailureError(
            "Taylor coefficients of the realization overflow")
    if tail > _NILPOTENT_COEFF_TOL * max(head, 1e-300):
        return r
    # rotate to the flag, deepest image first; the C^n flag gives the
    # complement of the joint range
    blocks, Q = [], np.zeros((n, 0), dtype=complex)
    for span in reversed(flags):
        fresh = _orth_columns(span - Q @ (Q.conj().T @ span), 1e-8, 1.0)[0]
        if fresh.shape[1]:
            blocks.append(fresh)
            Q = np.hstack([Q, fresh])
    if Q.shape[1] != n:
        return r
    starts = np.cumsum([0] + [blk.shape[1] for blk in blocks])
    A = _restrict(r.A, Q)
    for t in range(len(blocks)):
        A[:, starts[t]:, starts[t]:starts[t + 1]] = 0.0
    return Realization(A, Q.conj().T @ r.b, Q.conj().T @ r.c)


# ---------------------------------------------------------------------------
# Compilation from ASTs and polynomials
# ---------------------------------------------------------------------------

def from_ast(node, d=None):
    """Compile an expression AST into a realization by one ``expr.fold``.

    The expression must be regular at 0: every inverse node's operand has a
    nonzero value at the zero tuple.
    """
    if d is None:
        d = max(ex.max_variable_index(node), 1)

    def inverse(r):
        try:
            return invert(r)
        except ZeroAtZeroError as err:
            raise NotRegularAtZeroError(
                "expression is not regular at 0: an inverted "
                "subexpression vanishes at the zero tuple") from err

    return ex.fold(node, lambda value: const(value, d),
                   lambda index: variable(index, d),
                   lambda terms: reduce(add, terms),
                   lambda factors: reduce(mul, factors),
                   lambda x: scale(x, -1.0), inverse)


def from_expression(text, d):
    return from_ast(ex.parse(text, d), d)


def from_polynomial(p):
    """Shift realization of an NC polynomial on its suffix-closed word set.

    States are indexed by the hereditary (suffix-closed) set of the support;
    the result is controllable by construction and exact, but not always
    observable, so callers wanting minimality should minimize.
    """
    d = p.d
    order = suffix_closure(p.coeffs)
    if not order:
        return const(0.0, d)
    index = {w: k for k, w in enumerate(order)}
    n = len(order)
    A = np.zeros((d, n, n), dtype=complex)
    for word, k in index.items():
        for j in range(1, d + 1):
            longer = (j,) + word
            if longer in index:
                A[j - 1, index[longer], k] = 1.0
    b = np.zeros(n, dtype=complex)
    for word, value in p.coeffs.items():
        b[index[word]] = np.conj(value)
    c = np.zeros(n, dtype=complex)
    c[index[()]] = 1.0
    return Realization(A, b, c)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def _pairs(array):
    array = np.asarray(array, dtype=complex)
    return np.stack([array.real, array.imag], axis=-1).tolist()


def _from_pairs(obj, what):
    """The complex array of a JSON array of finite [re, im] pairs."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise MalformedJSONError(
            f"{what} JSON needs arrays of [re, im] number pairs") from None
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise MalformedJSONError(
            f"{what} JSON needs arrays of [re, im] number pairs")
    if not np.all(np.isfinite(arr)):
        raise MalformedJSONError(f"{what} JSON has non-finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def _json_size(obj, key, what):
    """obj[key], which must be a positive JSON integer."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise MalformedJSONError(
            f"{what} JSON needs a positive integer {key!r}, got {value!r}")
    return value


def realization_to_json(r):
    """Realization as {"d", "n", "A", "b", "c"} with [re, im] entries."""
    return {
        "d": r.d,
        "n": r.n,
        "A": [_pairs(r.A[j]) for j in range(r.d)],
        "b": _pairs(r.b),
        "c": _pairs(r.c),
    }


def _require_keys(obj, keys, what):
    missing = [k for k in keys if not isinstance(obj, dict) or k not in obj]
    if missing:
        raise MalformedJSONError(
            f"{what} JSON lacks the key(s) {', '.join(map(repr, missing))}")


def realization_from_json(obj):
    _require_keys(obj, ("d", "n", "A", "b", "c"), "realization")
    d = _json_size(obj, "d", "realization")
    n = _json_size(obj, "n", "realization")
    A = _from_pairs(obj["A"], "realization")
    if A.shape != (d, n, n):
        raise DimensionMismatchError("realization JSON has inconsistent shapes")
    b = _from_pairs(obj["b"], "realization")
    c = _from_pairs(obj["c"], "realization")
    if b.shape != (n,) or c.shape != (n,):
        raise DimensionMismatchError("realization JSON has inconsistent shapes")
    return Realization(A, b, c)


def matrix_tuple_to_json(Z):
    Z = as_matrix_tuple(Z)
    return {"d": Z.d, "n": Z.n, "X": [_pairs(Z[j]) for j in range(Z.d)]}


def matrix_tuple_from_json(obj):
    _require_keys(obj, ("d", "n", "X"), "matrix tuple")
    d = _json_size(obj, "d", "matrix tuple")
    n = _json_size(obj, "n", "matrix tuple")
    Z = MatrixTuple(_from_pairs(obj["X"], "matrix tuple"))
    if Z.d != d or Z.n != n:
        raise DimensionMismatchError("matrix tuple JSON has inconsistent shapes")
    return Z
