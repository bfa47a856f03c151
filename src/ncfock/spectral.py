"""Joint spectral radius, Stein equations, and boundary singular points.

The completely positive map of a tuple A is Ad_{A,A*}(P) = sum_j A_j P A_j*.
Its matrization M = sum_j conj(A_j) kron A_j satisfies vec(Ad(P)) = M vec(P)
under column-stacking vec, and the joint (outer) spectral radius is

    spr(A) = lim_k || Ad^(k)(I) ||^(1/2k) = sqrt(rho(M)).

Ad maps Hermitian matrices to Hermitian matrices, so it is a real-linear map
of the n^2-dimensional real space of Hermitian P.  In the coordinates
Q = Re P + Im P (``hermitian_coords``; the inverse is P = (Q + Q^T)/2 +
i (Q - Q^T)/2), which are an isometry for the Frobenius norm, Ad has the
real matrix R = Re M + (Im M) Pi (``real_form``), Pi the permutation with
vec(Q^T) = Pi vec(Q).  M is the complexification of R, so R has the
spectrum of M with multiplicities and its 2-norm, and R^T is the matrix of
the adjoint map P -> sum_j A_j* P A_j.  Every dense kernel works on R, in
real arithmetic, at a half to a third of the cost of the complex one:

- ``spr`` below MATRIX_FREE_MIN_N takes the eigenvalues of R, guarded
  against spuriously large eigenvalues of near-nilpotent R by a
  repeated-squaring probe.  A ``CPMap`` runs one eigensolve (with vectors)
  per tuple, which ``spr`` and the Perron eigenmatrix of ``CPMap.perron``
  share: a not-in verdict does not solve the same matrix twice.
- ``stein_solve`` solves (I - R) x = q, or (I - R^T) x = q on the left,
  with q the coordinates of the Hermitian part of Q0 and, if Q0 is not
  Hermitian, those of its anti-Hermitian part divided by i as a second
  right-hand side of the same LU.  It refines only when the normwise
  backward error ||q - K x|| / (||K|| ||x|| + ||q||) exceeds 16 eps
  (Higham, Accuracy and Stability of Numerical Algorithms, ch. 12), so a
  well-conditioned solve factors once.  ``similarity_to_contraction``
  solves with R / tau^2 of the same ``CPMap``.

``spr`` has two methods: ``matrized`` (the spectral radius of Ad) and
``iterate`` (scaling-normalized repeated squaring of the complex M, which
evaluates the defining norm limit at K = 2^48 applications and serves as
the independent reference).  The state size n picks the route of
``matrized``: below MATRIX_FREE_MIN_N the dense route above, from it up
implicitly restarted Arnoldi (ARPACK, through scipy.sparse.linalg.eigs) on
Ad itself, at O(d n^3) per product, so no n^2 x n^2 matrix is formed for
spr.  The guard there is matrix-free too: a jointly nilpotent n-tuple has
Ad^n(I) = 0, which n products detect, and spr is then exactly 0; for any
other tuple ||Ad^n(I)||^(1/n) bounds rho(Ad) from above, since a positive
map attains its norm at I.

With the real eigensolve the dense route and the Arnoldi run cost about
the same near n = 10 (random d = 2 tuples, one BLAS thread, best of 15
calls: 3.4 against 4.2 ms at n = 8, 4.6 against 5.1 ms at n = 9, 14
against 5.6 ms at n = 11, 78 against 12 ms at n = 16).  The switch stays
at n = 12, so that membership verdicts of n <= 11 and
factorizations (n <= 4) keep the dense route; the two routes differ by up
to about 4e-15 at n = 9..11.  Spectrum scan cells below the switch do not
call spr at all: ``ncfock.spectrum`` decides each by a Stein certificate,
one or two dense real solves, and calls spr only on the knife edge, where
the certificate cannot tell.  From the switch up the certificate would
cost an O(n^6) solve against an O(d n^3) product per Arnoldi step, so
cells there keep the Arnoldi spr.

One ``CPMap`` holds a tuple's spr, Perron eigenmatrix (same switch), real
form and dense eigensolve, each computed once; ``spr``, ``stein_solve``,
``similarity_to_contraction`` and ``boundary_singularity`` take it in place
of the tuple, so ``boundary_singularity`` reuses the eigensolve or Arnoldi
run of ``spr``.  ``boundary_singularity`` certifies its point by an upper
bound on sigma_min of the n^2 x n^2 pencil, the relative residual of the
pencil's known null vector P^(1/2), at O(d n^3) instead of an O(n^6) SVD.
"""

from functools import cached_property

import numpy as np

from .errors import (
    BoundarySingularityError,
    DimensionMismatchError,
    JointlyNilpotentError,
    NumericalFailureError,
    SpectralRadiusError,
)
from .realization import MatrixTuple, Realization

SPR_BOUNDARY_TOL = 1e-9

# state size from which spr and the Perron eigenmatrix use Arnoldi on the CP
# map instead of a dense eigensolve of the n^2 x n^2 real form of its
# matrization
MATRIX_FREE_MIN_N = 12


# ---------------------------------------------------------------------------
# Vectorization calculus
# ---------------------------------------------------------------------------

def vec(Z):
    """Column-stacking vectorization: vec([[1,2],[3,4]]) = (1, 3, 2, 4)."""
    return np.asarray(Z, dtype=complex).reshape(-1, order="F")


def unvec(z, nrows, ncols=None):
    if ncols is None:
        ncols = nrows
    return np.asarray(z, dtype=complex).reshape((nrows, ncols), order="F")


def matrize(pairs):
    """Matrization of X -> sum_j A_j X B_j, namely sum_j B_j^T kron A_j."""
    pairs = [(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))
             for A, B in pairs]
    A0, B0 = pairs[0]
    out = np.zeros((A0.shape[0] * B0.shape[1], A0.shape[1] * B0.shape[0]),
                   dtype=complex)
    for A, B in pairs:
        out += np.kron(B.T, A)
    return out


def hermitian_coords(P):
    """Real coordinates vec(Re P + Im P) of a Hermitian n x n matrix P."""
    P = np.asarray(P)
    return (P.real + P.imag).reshape(-1, order="F")


def from_hermitian_coords(x, n):
    """The Hermitian P with hermitian_coords(P) = x: with Q the n x n
    matrix of x, P = (Q + Q^T)/2 + i (Q - Q^T)/2."""
    Q = np.asarray(x, dtype=float).reshape((n, n), order="F")
    P = np.empty((n, n), dtype=complex)
    P.real = (Q + Q.T) / 2.0
    P.imag = (Q - Q.T) / 2.0
    return P


def real_form(M):
    """R = Re M + (Im M) Pi of the matrization M of a Hermitian-preserving
    map, Pi the permutation with vec(Q^T) = Pi vec(Q): the map's matrix in
    the coordinates hermitian_coords."""
    n = int(round(np.sqrt(M.shape[0])))
    # column c = a + n b of R takes column b + n a of Im M
    R = M.imag[:, np.arange(n * n).reshape(n, n).ravel(order="F")]
    R += M.real
    return R


def _as_tuple_array(A):
    if isinstance(A, (Realization, CPMap)):
        A = A.A
    elif isinstance(A, MatrixTuple):
        A = A.X
    A = np.asarray(A, dtype=complex)
    if A.ndim == 2:
        A = A[None, :, :]
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise DimensionMismatchError("expected a d x n x n tuple of matrices")
    return A


class CPMap:
    """The CP map Ad_{A,A*} of a tuple A, with the analysis of A: its spr,
    its Perron pair, the real form R of its matrization and, below
    MATRIX_FREE_MIN_N, the one eigensolve of R that spr and the Perron pair
    share.  Each is computed at most once, when first needed."""

    def __init__(self, A):
        self.A = _as_tuple_array(A)
        self.A_star = np.conj(np.swapaxes(self.A, 1, 2))

    @property
    def n(self):
        return self.A.shape[1]

    def __call__(self, P):
        P = np.asarray(P, dtype=complex)
        return ((self.A @ P) @ self.A_star).sum(axis=0)

    def adjoint(self, P):
        """The dual map P -> sum_j A_j* P A_j."""
        P = np.asarray(P, dtype=complex)
        return ((self.A_star @ P) @ self.A).sum(axis=0)

    @property
    def matrization(self):
        """The complex matrization sum_j conj(A_j) kron A_j, built anew on
        each access: only real_matrization and spr(method="iterate") use
        it."""
        return matrize([(Aj, np.conj(Aj).T) for Aj in self.A])

    @cached_property
    def real_matrization(self):
        """R, the matrix of Ad in the coordinates hermitian_coords; R^T is
        that of the adjoint map.  The complex matrization it is built from
        is not kept."""
        R = real_form(self.matrization)
        # the dense kernels start from ||R||_F, which squares the entries
        # of R, themselves products of two entries of A
        if not np.isfinite(np.linalg.norm(R)):
            raise NumericalFailureError("the matrization of A overflows")
        return R

    @cached_property
    def _dense_eig(self):
        return np.linalg.eig(self.real_matrization)

    @cached_property
    def spr(self):
        return spr(self)

    @cached_property
    def perron(self):
        """(rho(Ad), Hermitian Perron eigenmatrix): one Arnoldi run from
        MATRIX_FREE_MIN_N up, None there if ARPACK does not converge; below
        it the eigensolve of R that spr uses."""
        if self.n < MATRIX_FREE_MIN_N:
            return _dense_perron(self)
        from scipy.sparse.linalg import ArpackNoConvergence

        try:
            return _arnoldi_perron(self)
        except ArpackNoConvergence:
            return None


def _cp_map(A):
    return A if isinstance(A, CPMap) else CPMap(A)


# ---------------------------------------------------------------------------
# Joint spectral radius
# ---------------------------------------------------------------------------

def _squared_power_estimate(M, squarings, start, to_matrix):
    """rho(M) estimate from || M^K || at K = 2^squarings, with per-step
    normalization and an accumulated log so nothing over- or underflows.

    Per-step scaling uses the Frobenius norm (any submultiplicative norm
    washes out in the K-th root); the final norm of Ad^(K)(I) is the
    spectral norm of to_matrix(M^K start), faithful to the definition when
    start holds the coordinates of I and to_matrix maps coordinates back
    to a matrix.  Exactly nilpotent powers return 0.
    """
    norm = float(np.linalg.norm(M))
    if norm == 0:
        return 0.0
    B = M / norm
    log_acc = float(np.log(norm))
    for _ in range(squarings):
        B = B @ B
        s = float(np.linalg.norm(B))
        if s == 0:
            return 0.0
        if not np.isfinite(s):
            raise NumericalFailureError("power estimate lost finiteness")
        B /= s
        log_acc = 2.0 * log_acc + float(np.log(s))
    K = float(2 ** squarings)
    wnorm = float(np.linalg.norm(to_matrix(B @ start), 2))
    if wnorm == 0:
        return 0.0
    return float(np.exp((log_acc + np.log(wnorm)) / K))


def _power_bound(cp):
    """||Ad^n(I)||^(1/n) for the CP map of an n-tuple, with per-step
    normalization: an upper bound on rho(Ad), exactly 0 when the tuple is
    jointly nilpotent."""
    P = np.eye(cp.n, dtype=complex)
    log_acc = 0.0
    for _ in range(cp.n):
        P = cp(P)
        s = float(np.linalg.norm(P))
        if s == 0:
            return 0.0
        if not np.isfinite(s):
            raise NumericalFailureError("Ad^k(I) overflows")
        P /= s
        log_acc += float(np.log(s))
    return float(np.exp((log_acc + np.log(np.linalg.norm(P, 2))) / cp.n))


def _arnoldi_eigs(cp, k):
    """The k largest-modulus eigenpairs of the CP map cp by implicitly
    restarted Arnoldi (ARPACK), with unit-norm eigenvectors."""
    from scipy.sparse.linalg import LinearOperator, eigs

    n = cp.n
    op = LinearOperator((n * n, n * n), dtype=complex,
                        matvec=lambda x: vec(cp(unvec(x, n))))
    # a fixed start keeps results deterministic; I is never orthogonal to
    # the Perron eigenvector, since the dual Perron matrix Q >= 0 has tr Q > 0.
    # Random tuples up to n = 30 converge within 200 restarts; a tuple that
    # is nilpotent up to roundoff never does and is given up on.
    w, V = eigs(op, k=k, ncv=20, tol=0, v0=vec(np.eye(n)), maxiter=300)
    return w, V / np.linalg.norm(V, axis=0)


def _arnoldi_perron(cp):
    """rho(Ad) of the CP map cp and its Hermitian Perron eigenmatrix by
    Arnoldi, never forming the matrization.

    A positive definite Perron eigenmatrix P makes Ad/rho similar to a
    unital CP map, which is power bounded, so rho is semisimple and the top
    Ritz value alone is accurate.  A singular P allows a defective rho: it
    comes back as a star of Ritz values around rho, spread by
    roundoff^(1/m) for a Jordan block of size m, whose Ritz vectors are
    almost parallel; the mean of that star is rho to roundoff.
    """
    w, V = _arnoldi_eigs(cp, 1)
    P = _hermitian_eigenmatrix(w, V, cp.n)
    evals = np.linalg.eigvalsh(P)
    if evals[0] > 1e-9 * evals[-1]:
        rho = float(abs(w[0]))
    else:
        w, V = _arnoldi_eigs(cp, 6)
        top = int(np.argmax(np.abs(w)))
        star = np.abs(V.conj().T @ V[:, top]) >= 1.0 - 1e-6
        rho = float(abs(np.mean(w[star])))
        P = _hermitian_eigenmatrix(w, V, cp.n)
    return rho, P


def _dense_perron(cp):
    """rho(Ad) and the Hermitian Perron eigenmatrix from the eigensolve of
    R: the real and imaginary parts of an eigenvector of the real
    eigenvalue rho are eigenvectors themselves; the larger is taken."""
    w, V = cp._dense_eig
    x = V[:, _perron_index(w)]
    P = _perron_matrix((from_hermitian_coords(x.real, cp.n),
                        from_hermitian_coords(x.imag, cp.n)))
    return float(np.max(np.abs(w))), P


def spr(A, method="matrized"):
    """Joint (outer) spectral radius of a matrix tuple.

    method "matrized": sqrt of the classical spectral radius of
    sum_j conj(A_j) kron A_j, dense below MATRIX_FREE_MIN_N and by Arnoldi
    on the CP map from it up.  method "iterate": sqrt of the norm-limit
    estimate from repeated squaring of the complex matrization.  Jointly
    nilpotent tuples return 0.  A may be a CPMap, whose cached Perron pair,
    real form and eigensolve are used.
    """
    cp = _cp_map(A)
    if method == "iterate":
        M = cp.matrization
        if np.linalg.norm(M, 2) == 0:
            return 0.0
        n = cp.n
        return float(np.sqrt(_squared_power_estimate(
            M, 48, vec(np.eye(n)), lambda x: unvec(x, n))))
    if method != "matrized":
        raise ValueError(f"unknown spr method {method!r}")
    if cp.n >= MATRIX_FREE_MIN_N:
        bound = _power_bound(cp)
        if bound == 0:
            return 0.0
        # Arnoldi stalls on a tuple that is nilpotent up to roundoff; the
        # dense route below still gives an answer
        if cp.perron is not None:
            return float(np.sqrt(min(cp.perron[0], bound)))
    R = cp.real_matrization
    norm = np.linalg.norm(R, 2)
    if norm == 0:
        return 0.0
    # probe for (near-)nilpotency first: dense eigenvalues of a nilpotent
    # matrix come back at roundoff^(1/n^2) scale, far above the truth
    probe_squarings = max(int(np.ceil(np.log2(max(R.shape[0], 4)))) + 3, 8)
    rho_probe = _squared_power_estimate(
        R, probe_squarings, hermitian_coords(np.eye(cp.n)),
        lambda x: from_hermitian_coords(x, cp.n))
    if rho_probe < 1e-8 * norm:
        return float(np.sqrt(max(rho_probe, 0.0)))
    rho = float(np.max(np.abs(cp._dense_eig[0])))
    return float(np.sqrt(min(rho, rho_probe) if rho < 0.05 * norm else rho))


# ---------------------------------------------------------------------------
# Stein equations
# ---------------------------------------------------------------------------

def stein_solve(A, Q0, side="right", check_spr=True):
    """Solve the Stein equation of the CP map of A.

    side "right": P with P - sum_j A_j P A_j* = Q0  (P = sum_m Ad^(m)(Q0))
    side "left":  Q with Q - sum_j A_j* Q A_j = Q0

    Solved in the real coordinates of the Hermitian matrices: with R the
    real form of Ad (R^T on the left), (I - R) x = hermitian_coords(H) for
    the Hermitian part H of Q0 and, unless it is 0, for its anti-Hermitian
    part Q0 - H = i H2 as a second right-hand side of the same LU.
    Refinement steps follow only while the normwise backward error is
    above 16 eps, at most two.  A Hermitian Q0 gives an exactly Hermitian
    solution.  Requires spr(A) < 1 - 1e-9.
    """
    cp = _cp_map(A)
    Q0 = np.asarray(Q0, dtype=complex)
    if Q0.shape != (cp.n, cp.n):
        raise DimensionMismatchError("Q0 must be n x n")
    if side not in ("right", "left"):
        raise ValueError(f"unknown side {side!r}")
    if check_spr:
        s = cp.spr
        if s >= 1.0 - SPR_BOUNDARY_TOL:
            raise SpectralRadiusError(
                f"Stein equation needs spr(A) < 1 (got spr = {s:.12g})")
    return _stein_real(cp.real_matrization, Q0, side)


# refinement runs while the normwise backward error of a Stein solve is
# above this; one LU solve of a well-conditioned Stein system reaches 0.3
# to 4.5 eps at n = 2..21
_REFINE_ABOVE = 16 * np.finfo(float).eps


def _stein_real(R, Q0, side="right"):
    """P with P - Ad(P) = Q0 (side "right", or the adjoint on the left),
    where R is the real form of Ad."""
    n = Q0.shape[0]
    K = -(R.T if side == "left" else R)
    K.flat[::n * n + 1] += 1.0
    H = (Q0 + Q0.conj().T) / 2.0
    H2 = (Q0 - Q0.conj().T) / 2.0j
    parts = [H, H2] if np.any(H2) else [H]
    q = np.stack([hermitian_coords(part) for part in parts], axis=1)
    x = np.linalg.solve(K, q)
    K_norm = np.abs(K).sum(axis=1).max()
    for _ in range(2):
        resid = q - K @ x
        scale = K_norm * np.abs(x).max(axis=0) + np.abs(q).max(axis=0)
        if np.all(np.abs(resid).max(axis=0) <= _REFINE_ABOVE * scale):
            break
        x += np.linalg.solve(K, resid)
    P = from_hermitian_coords(x[:, 0], n)
    if len(parts) == 2:
        P += 1j * from_hermitian_coords(x[:, 1], n)
    return P


# ---------------------------------------------------------------------------
# Similarity to a strict row contraction (multi-variable Rota-Strang)
# ---------------------------------------------------------------------------

def row_norm(A):
    A = _as_tuple_array(A)
    return float(np.linalg.norm(np.hstack(list(A)), 2))


def similarity_to_contraction(A, margin):
    """Invertible S and W = S^{-1} A S with row_norm(W) <= spr(A) + margin.

    With tau = spr(A) + margin, the Gram matrix G solving
    G - Ad_{A/tau}(G) = I gives S = G^{1/2}; then
    sum_j W_j W_j* = tau^2 (I - G^{-1}), strictly below tau^2.
    As margin -> 0 the row norm approaches spr(A).
    """
    cp = _cp_map(A)
    s = cp.spr
    if s >= 1.0:
        raise SpectralRadiusError(
            f"similarity to a contraction needs spr(A) < 1 (got {s:.12g})")
    if not (0.0 < margin < 1.0 - s):
        raise ValueError("margin must lie in (0, 1 - spr(A))")
    tau = s + margin
    G = _stein_real(cp.real_matrization / (tau * tau),
                    np.eye(cp.n, dtype=complex))
    w, V = np.linalg.eigh(G)
    w = np.maximum(w, 1e-300)
    S = (V * np.sqrt(w)) @ V.conj().T
    S_inv = (V / np.sqrt(w)) @ V.conj().T
    W = np.stack([S_inv @ Aj @ S for Aj in cp.A])
    return S, MatrixTuple(W)


# ---------------------------------------------------------------------------
# Boundary singular points
# ---------------------------------------------------------------------------

def _perron_index(w):
    """Index of the Perron eigenvalue among eigenvalues w of the CP map that
    include its top ones."""
    rho = np.max(np.abs(w))
    candidates = np.where(np.abs(w) >= (1.0 - 1e-6) * rho)[0]
    return candidates[np.argmax(w[candidates].real)]


def _perron_matrix(parts):
    """The larger of two Hermitian eigenmatrix candidates, sign-normalized
    and scaled to unit Frobenius norm."""
    P = max(parts, key=np.linalg.norm)
    evals = np.linalg.eigvalsh(P)
    if evals[np.argmax(np.abs(evals))] < 0:
        P = -P
    return P / np.linalg.norm(P)


def _hermitian_eigenmatrix(w, V, n):
    """Hermitian Perron eigenmatrix from eigenpairs (w, V) of the CP map on
    vec, that include its top ones."""
    P = unvec(V[:, _perron_index(w)], n)
    return _perron_matrix(((P + P.conj().T) / 2.0, (P - P.conj().T) / 2.0j))


def boundary_singularity(r, tol=1e-8):
    """A point Z with ||Z|| = 1/spr(A) where the minimal pencil is singular.

    Accepts a Realization (only its A-tuple matters) or a raw tuple.  The
    construction finds the Perron fixed point P >= 0 of Ad_{A,A*}/spr^2; if
    P is positive definite, Y = P^{-1/2} (A/spr) P^{1/2} is a row
    co-isometry and Z = conj(Y)/spr kills the pencil.  A singular P is an
    invariant subspace: compress and recurse, padding the recursive point
    with zeros.  The point is certified by |row norm - 1/spr| <= tol and an
    upper bound <= tol on the smallest singular value of the pencil at it
    (see ``_boundary_singularity``).  Jointly nilpotent tuples
    (polynomials) are rejected.
    """
    return _boundary_singularity(_cp_map(r), tol)[0]


def _boundary_singularity(cp, tol):
    """boundary_singularity of the CPMap cp; returns the point and an upper
    bound on sigma_min of the pencil L = I - sum_j A_j kron Z_j at it.

    The bound is ||L(V)|| / ||V|| for the known null vector: on row-major
    vec L is V -> V - sum_j A_j V Z_j^T, which sends V = P^(1/2) to 0, as
    Ad(P) = spr^2 P; in the recursive case V is keep V_inner, padded as Z
    is, since range(P) is invariant under every A_j.  That costs O(d n^3)
    in place of the O(n^6) SVD of the n^2 x n^2 pencil.
    """
    A, rho = cp.A, cp.spr
    scale = max(row_norm(A), 1.0)
    if rho <= 1e-12 * scale:
        raise JointlyNilpotentError(
            "spr(A) = 0: the tuple is jointly nilpotent (a polynomial), "
            "whose pencil is everywhere invertible")

    def build(sub, depth):
        """The point of the tuple of sub and the null vector of its
        pencil."""
        s = sub.spr
        P = (sub.perron or _dense_perron(sub))[1]
        w, V = np.linalg.eigh(P)
        threshold = 1e-9 * max(float(np.trace(P).real), float(w[-1]))
        if w[0] > threshold:
            sqrtP = (V * np.sqrt(w)) @ V.conj().T
            inv_sqrtP = (V / np.sqrt(w)) @ V.conj().T
            Y = np.stack([inv_sqrtP @ (Aj / s) @ sqrtP for Aj in sub.A])
            return np.conj(Y) / s, sqrtP
        keep = V[:, w > threshold]
        if keep.shape[1] == 0:
            keep = V[:, [int(np.argmax(w))]]
        if depth <= 0 or keep.shape[1] >= sub.n:
            raise BoundarySingularityError(
                "boundary singularity recursion failed")
        inner, inner_null = build(
            CPMap(np.stack([keep.conj().T @ Aj @ keep for Aj in sub.A])),
            depth - 1)
        m = inner.shape[1]
        Z = np.zeros(sub.A.shape, dtype=complex)
        Z[:, :m, :m] = inner
        null = np.zeros((sub.n, sub.n), dtype=complex)
        null[:, :m] = keep @ inner_null
        return Z, null

    Z, null = build(cp, A.shape[1])
    point = MatrixTuple(Z)
    image = null - (A @ null @ np.swapaxes(Z, 1, 2)).sum(axis=0)
    sigma_min = float(np.linalg.norm(image) / np.linalg.norm(null))
    if abs(point.row_norm() - 1.0 / rho) > tol or sigma_min > tol:
        raise BoundarySingularityError(
            f"boundary singularity certificate failed at tol {tol:g}: "
            f"row_norm = {point.row_norm():.12g}, 1/spr = {1.0 / rho:.12g}, "
            f"sigma_min(L) = {sigma_min:.3g}")
    return point, sigma_min
