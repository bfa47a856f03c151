"""State-space realizations (A, b, c) of NC rational functions regular at 0.

A realization represents r(X) = (b* ⊗ I) L_A(X)^{-1} (c ⊗ I) with the monic
linear pencil L_A(X) = I - sum_j A_j ⊗ X_j.  The module provides the
compile step from expression ASTs, the realization algebra (sum, scalar
multiple, product, inverse), two-sided Krylov minimization, pencil
evaluation, Taylor coefficients b* A^w c, and the JSON wire format.

Only the spectrum functions minimize their input; the Fock and factorization
certificates take a realization as given, since several pin state dimensions.
"""

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import (
    DimensionMismatchError,
    DomainError,
    MalformedJSONError,
    NotRegularAtZeroError,
    NumericalFailureError,
    ZeroAtZeroError,
)
from .words import NCPolynomial

DEFAULT_RANK_TOL = 1e-10
PENCIL_RCOND = 1e-12


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

    @classmethod
    def from_scalars(cls, values):
        return cls(np.array(values, dtype=complex).reshape(-1, 1, 1))

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

    def is_strict_row_contraction(self, tol=0.0):
        return self.row_norm() < 1.0 - tol

    def conjugate(self):
        return MatrixTuple(np.conj(self.X))

    def scale(self, s):
        return MatrixTuple(s * self.X)

    def direct_sum(self, other):
        if self.d != other.d:
            raise DimensionMismatchError("direct sum needs matching d")
        n, m = self.n, other.n
        out = np.zeros((self.d, n + m, n + m), dtype=complex)
        out[:, :n, :n] = self.X
        out[:, n:, n:] = other.X
        return MatrixTuple(out)

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
    """Triple (A, b, c); A has shape (d, n, n), b and c have shape (n,)."""

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


def add(r1, r2):
    """Direct-sum realization of r1 + r2, size n1 + n2."""
    _check_same_d(r1, r2)
    d, n1, n2 = r1.d, r1.n, r2.n
    A = np.zeros((d, n1 + n2, n1 + n2), dtype=complex)
    A[:, :n1, :n1] = r1.A
    A[:, n1:, n1:] = r2.A
    return Realization(A, np.concatenate([r1.b, r2.b]),
                       np.concatenate([r1.c, r2.c]))


def scale(r, s):
    """Realization of s * r (scales c)."""
    return Realization(r.A, r.b, complex(s) * r.c)


def sub(r1, r2):
    return add(r1, scale(r2, -1.0))


def mul(r1, r2):
    """Block-triangular coupling realization of the product r1 * r2."""
    _check_same_d(r1, r2)
    d, n1, n2 = r1.d, r1.n, r2.n
    gamma2 = r2.value_at_zero()
    A = np.zeros((d, n1 + n2, n1 + n2), dtype=complex)
    A[:, :n1, :n1] = r1.A
    A[:, n1:, n1:] = r2.A
    for j in range(d):
        A[j, :n1, n1:] = np.outer(r1.c, np.conj(r2.b) @ r2.A[j])
    b = np.concatenate([r1.b, np.zeros(n2)])
    c = np.concatenate([gamma2 * r1.c, r2.c])
    return Realization(A, b, c)


def invert(r, check=True):
    """Size-(n+1) realization of the pointwise inverse.

    Requires r(0) = b*c != 0.  A bordered-pencil Schur complement gives the
    construction; when ``check`` is set the product r * invert(r) is verified
    to have Taylor table {empty word: 1} through length 4.
    """
    gamma = r.value_at_zero()
    scale_bc = max(np.linalg.norm(r.b) * np.linalg.norm(r.c), 1.0)
    if abs(gamma) <= 1e-14 * scale_bc:
        raise ZeroAtZeroError("cannot invert: value at zero is zero")
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
    if check:
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


def evaluate(r, X):
    """r(X) = (b* x I) L_A(X)^{-1} (c x I); raises DomainError off-domain."""
    Z = as_matrix_tuple(X, r.d)
    n = Z.n
    L = pencil(r, Z)
    sing = np.linalg.svd(L, compute_uv=False)
    # the pencil is monic, so its natural scale is at least 1
    if sing[-1] / max(sing[0], 1.0) < PENCIL_RCOND:
        raise DomainError("X not in domain: realization pencil is singular")
    eye = np.eye(n, dtype=complex)
    sol = np.linalg.solve(L, _kron(r.c[:, None], eye))
    return _kron(np.conj(r.b)[None, :], eye) @ sol


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
    level = {(): r.c}
    for length in range(max_len + 1):
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
    that the cutoff does not depend on the scale of the seed.  Expanding
    generation by generation (instead of re-factoring the whole stack)
    keeps the graded zero structure of polynomial realizations exact, so
    jointly nilpotent functions compress to exactly nilpotent tuples.
    """
    n = A.shape[1]
    norm_seed = np.linalg.norm(seed)
    if not np.isfinite(norm_seed):
        raise NumericalFailureError("the norm of b or c overflows")
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
        Q, s, _ = np.linalg.svd(fresh, full_matrices=False)
        scale = max(scale, float(s[0]) if s.size else 0.0)
        rank = int(np.sum(s > tol * scale))
        if rank == 0:
            break
        generation = Q[:, :rank]
        # second projection pass guards against loss of orthogonality
        for block in basis:
            generation = generation - block @ (block.conj().T @ generation)
        # the columns were orthonormal before this pass, so s2 is near 1
        # for every column that the first pass kept for good reason
        generation, s2, _ = np.linalg.svd(generation, full_matrices=False)
        rank = int(np.sum(s2 > tol))
        if rank == 0:
            break
        generation = generation[:, :rank]
        basis.append(generation)
        total += rank
    return np.hstack(basis)


def _compress(r, U):
    A = np.stack([U.conj().T @ r.A[j] @ U for j in range(r.d)])
    return Realization(A, U.conj().T @ r.b, U.conj().T @ r.c)


def minimize(r, tol=DEFAULT_RANK_TOL):
    """Jointly controllable and observable realization of the same function.

    Alternates controllability compression (Krylov space of c under A) and
    observability compression (Krylov space of b under A*) until the state
    dimension stabilizes.  Taylor coefficients are preserved exactly up to
    roundoff; already-minimal inputs pass through with unchanged dimension.
    Jointly nilpotent functions (polynomials) come out structurally
    nilpotent: a joint triangularization restores the exact zeros that
    basis mixing smears at roundoff level.
    """
    cur = r
    for _ in range(max(r.n, 1)):
        before = cur
        U = _krylov_basis(cur.A, cur.c, tol)
        if U.shape[1] == 0:
            return const(0.0, r.d)
        cur = _compress(cur, U)
        Astar = np.conj(np.transpose(cur.A, (0, 2, 1)))
        W = _krylov_basis(Astar, cur.b, tol)
        if W.shape[1] == 0:
            return const(0.0, r.d)
        cur = _compress(cur, W)
        if cur.n == before.n:
            # the round only re-rotated an already-minimal system; keep the
            # unrotated version, whose structural zeros are cleaner
            cur = before
            break
    return _nilpotent_cleanup(cur)


def _orth_columns(M, cutoff):
    if M.size == 0:
        return M.reshape(M.shape[0], 0)
    Q, s, _ = np.linalg.svd(M, full_matrices=False)
    return Q[:, : int(np.sum(s > cutoff))]


def _nilpotent_cleanup(r, coeff_tol=1e-12):
    """Exactly nilpotent rewrite of a realization of a polynomial.

    A minimal realization of dimension n is jointly nilpotent iff its Taylor
    coefficients vanish for word lengths >= n.  When the tail does vanish
    (relative to the head), the joint image chain span{A^w : |w| = k} gives
    a flag in which every A_j is strictly block upper triangular; rotating
    to that flag and zeroing the structural entries removes the roundoff
    that would otherwise masquerade as a tiny spectral radius.
    """
    n, d = r.n, r.d
    s1 = float(np.linalg.norm(np.hstack(list(r.A)), 2))
    if s1 <= 1e-13:
        # the tuple is pure roundoff: over the unit row ball the function
        # moves by a relative 1e-13 at most, so it is the constant b*c
        return Realization(np.zeros_like(r.A), r.b, r.c)
    if s1 == 0 or d ** (n + 1) > 200_000:
        return r
    # cheap prefilter: probe a few random tail words; any nonzero
    # coefficient means the function is not a polynomial of degree < n
    head2 = taylor_table(r, min(2, max(n - 1, 0)))
    head_scale = max((abs(v) for v in head2.coeffs.values()), default=0.0)
    if head_scale > 0:
        rng = np.random.default_rng(0)
        for length in (n, n + 1):
            for _ in range(2 * n):
                word = rng.integers(1, d + 1, size=length)
                if abs(taylor_coeff(r, word)) \
                        > coeff_tol * head_scale:
                    return r
    # full confirmation: the whole Taylor tail at lengths n, n+1 vanishes
    head = taylor_table(r, max(n - 1, 0))
    head_max = max((abs(v) for v in head.coeffs.values()), default=0.0)
    tails = [0.0]
    level = {(): r.c}
    for length in range(n + 2):
        if length >= n:
            tails += [abs(complex(np.conj(r.b) @ vec))
                      for vec in level.values()]
        if length == n + 1:
            break
        level = {(j + 1,) + w: r.A[j] @ v
                 for w, v in level.items() for j in range(d)}
    tail_max = max(tails)
    if not np.isfinite([head_max] + tails).all():
        raise NumericalFailureError(
            "Taylor coefficients of the realization overflow")
    if tail_max > coeff_tol * max(head_max, 1e-300):
        return r
    # joint image chain; each step strictly shrinks or the tuple is not
    # nilpotent after all
    cutoff = 1e-8 * s1
    flags = []
    span = _orth_columns(np.hstack(list(r.A)), cutoff)
    while span.shape[1] > 0:
        if len(flags) > n:
            return r
        flags.append(span)
        span = _orth_columns(np.hstack([r.A[j] @ span for j in range(d)]),
                             cutoff)
    blocks = []
    accumulated = np.zeros((n, 0), dtype=complex)
    for k in range(len(flags) - 1, -1, -1):
        fresh = flags[k] - accumulated @ (accumulated.conj().T @ flags[k])
        fresh = _orth_columns(fresh, 1e-8)
        if fresh.shape[1]:
            blocks.append(fresh)
            accumulated = np.hstack([accumulated, fresh])
    complement = np.eye(n, dtype=complex) \
        - accumulated @ accumulated.conj().T
    fresh = _orth_columns(complement, 1e-8)
    if fresh.shape[1]:
        blocks.append(fresh)
    Q = np.hstack(blocks)
    if Q.shape[1] != n:
        return r
    starts = np.cumsum([0] + [blk.shape[1] for blk in blocks])
    A_new = np.stack([Q.conj().T @ r.A[j] @ Q for j in range(d)])
    for t in range(len(blocks)):
        A_new[:, starts[t]:, starts[t]:starts[t + 1]] = 0.0
    return Realization(A_new, Q.conj().T @ r.b, Q.conj().T @ r.c)


# ---------------------------------------------------------------------------
# Compilation from ASTs and polynomials
# ---------------------------------------------------------------------------

def from_ast(node, d=None):
    """Compile an expression AST into a realization by structural recursion.

    The expression must be regular at 0: every inverse node's operand has a
    nonzero value at the zero tuple.
    """
    if d is None:
        d = max(ex.max_variable_index(node), 1)

    def rec(a):
        if isinstance(a, ex.Scalar):
            return const(a.value, d)
        if isinstance(a, ex.Variable):
            if a.index > d:
                raise DimensionMismatchError(
                    f"expression uses z{a.index} but d = {d}")
            return variable(a.index, d)
        if isinstance(a, ex.Sum):
            out = rec(a.terms[0])
            for t in a.terms[1:]:
                out = add(out, rec(t))
            return out
        if isinstance(a, ex.Product):
            out = rec(a.factors[0])
            for f in a.factors[1:]:
                out = mul(out, rec(f))
            return out
        if isinstance(a, ex.Negate):
            return scale(rec(a.operand), -1.0)
        if isinstance(a, ex.Inverse):
            inner = rec(a.operand)
            try:
                return invert(inner)
            except ZeroAtZeroError as err:
                raise NotRegularAtZeroError(
                    "expression is not regular at 0: an inverted "
                    "subexpression vanishes at the zero tuple") from err
        raise TypeError(f"not an AST node: {a!r}")

    return rec(node)


def from_expression(text, d):
    return from_ast(ex.parse(text, d), d)


def from_polynomial(p):
    """Shift realization of an NC polynomial on its suffix-closed word set.

    States are indexed by the hereditary (suffix-closed) set of the support;
    the result is controllable by construction and exact, but not always
    observable, so callers wanting minimality should minimize.
    """
    from .words import suffixes

    d = p.d
    states = set()
    for word in p.coeffs:
        states.update(suffixes(word))
    if not states:
        return const(0.0, d)
    order = sorted(states, key=lambda w: (len(w), w))
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
