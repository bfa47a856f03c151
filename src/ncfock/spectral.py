"""Joint spectral radius, Stein equations, and boundary singular points.

The completely positive map of a tuple A is Ad_{A,A*}(P) = sum_j A_j P A_j*.
Its matrization M = sum_j conj(A_j) kron A_j satisfies vec(Ad(P)) = M vec(P)
under column-stacking vec, and the joint (outer) spectral radius is

    spr(A) = lim_k || Ad^(k)(I) ||^(1/2k) = sqrt(rho(M)).

Two methods are implemented: ``matrized`` (the spectral radius of Ad) and
``iterate`` (scaling-normalized repeated squaring of M, which evaluates the
defining norm limit at K = 2^48 applications and serves as the independent
reference).  The state size n picks the route of ``matrized``:

- below MATRIX_FREE_MIN_N, dense eigenvalues of the n^2 x n^2 matrization M,
  guarded against spuriously large eigenvalues of near-nilpotent M by a
  repeated-squaring probe;
- from MATRIX_FREE_MIN_N up, implicitly restarted Arnoldi (ARPACK, through
  scipy.sparse.linalg.eigs) on Ad itself, at O(d n^3) per product, so M is
  never formed.  The guard there is matrix-free too: a jointly nilpotent
  n-tuple has Ad^n(I) = 0, which n products detect, and spr is then exactly
  0; for any other tuple ||Ad^n(I)||^(1/n) bounds rho(Ad) from above, since
  a positive map attains its norm at I.

The dense eigensolve costs O(n^6) and overtakes the Arnoldi run near n = 8
(about 7 ms each on 2 cores); at n = 16 it takes 170 ms against 20 ms.  The
switch sits higher, at n = 12, so that the small tuples of spectrum-scan
cells (n <= 9 for the test functions) and of factorizations (n <= 4) keep
the dense route and give the same numbers as before.  One ``CPMap`` holds
a tuple's spr, Perron eigenmatrix (same switch) and matrization, each
computed once; ``spr``, ``stein_solve``, ``similarity_to_contraction`` and
``boundary_singularity`` take it in place of the tuple, so
``boundary_singularity`` reuses the Arnoldi run of ``spr``.
"""

from functools import cached_property

import numpy as np

from .errors import (
    BoundarySingularityError,
    DimensionMismatchError,
    JointlyNilpotentError,
    SpectralRadiusError,
)
from .realization import MatrixTuple, Realization

SPR_BOUNDARY_TOL = 1e-9

# state size from which spr and the Perron eigenmatrix use Arnoldi on the CP
# map instead of a dense eigensolve of its n^2 x n^2 matrization
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
    """The CP map Ad_{A,A*}; caches A's spr, Perron pair and matrization."""

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

    @cached_property
    def matrization(self):
        return matrize([(Aj, np.conj(Aj).T) for Aj in self.A])

    @cached_property
    def adjoint_matrization(self):
        return matrize([(np.conj(Aj).T, Aj) for Aj in self.A])

    @cached_property
    def spr(self):
        return spr(self)

    @cached_property
    def perron(self):
        """(rho(Ad), Hermitian Perron eigenmatrix): one Arnoldi run from
        MATRIX_FREE_MIN_N up, None there if ARPACK does not converge; below
        it a dense eig of the matrization."""
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

def _squared_power_estimate(M, squarings):
    """rho(M) estimate from || M^K || at K = 2^squarings, with per-step
    normalization and an accumulated log so nothing over- or underflows.

    Per-step scaling uses the Frobenius norm (any submultiplicative norm
    washes out in the K-th root); the final norm of Ad^(K)(I) is the
    spectral norm of the unvectorized image, faithful to the definition.
    Exactly nilpotent powers return 0.
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
            raise ArithmeticError("power estimate lost finiteness")
        B /= s
        log_acc = 2.0 * log_acc + float(np.log(s))
    K = float(2 ** squarings)
    n = int(round(np.sqrt(M.shape[0])))
    image = unvec(B @ vec(np.eye(n)), n)
    wnorm = float(np.linalg.norm(image, 2))
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
    w, V = np.linalg.eig(cp.matrization)
    return float(np.max(np.abs(w))), _hermitian_eigenmatrix(w, V, cp.n)


def spr(A, method="matrized"):
    """Joint (outer) spectral radius of a matrix tuple.

    method "matrized": sqrt of the classical spectral radius of
    sum_j conj(A_j) kron A_j, dense below MATRIX_FREE_MIN_N and by Arnoldi
    on the CP map from it up.  method "iterate": sqrt of the norm-limit
    estimate from repeated squaring.  Jointly nilpotent tuples return 0.
    A may be a CPMap, whose cached Perron pair and matrization are used.
    """
    cp = _cp_map(A)
    if method == "matrized" and cp.n >= MATRIX_FREE_MIN_N:
        bound = _power_bound(cp)
        if bound == 0:
            return 0.0
        # Arnoldi stalls on a tuple that is nilpotent up to roundoff; the
        # dense route below still gives an answer
        if cp.perron is not None:
            return float(np.sqrt(min(cp.perron[0], bound)))
    M = cp.matrization
    norm = np.linalg.norm(M, 2)
    if norm == 0:
        return 0.0
    if method == "iterate":
        return float(np.sqrt(_squared_power_estimate(M, 48)))
    if method != "matrized":
        raise ValueError(f"unknown spr method {method!r}")
    # probe for (near-)nilpotency first: dense eigenvalues of a nilpotent
    # matrix come back at roundoff^(1/n^2) scale, far above the truth
    probe_squarings = max(int(np.ceil(np.log2(max(M.shape[0], 4)))) + 3, 8)
    rho_probe = _squared_power_estimate(M, probe_squarings)
    if rho_probe < 1e-8 * norm:
        return float(np.sqrt(max(rho_probe, 0.0)))
    rho = float(np.max(np.abs(np.linalg.eigvals(M))))
    return float(np.sqrt(min(rho, rho_probe) if rho < 0.05 * norm else rho))


# ---------------------------------------------------------------------------
# Stein equations
# ---------------------------------------------------------------------------

def stein_solve(A, Q0, side="right", check_spr=True):
    """Solve the Stein equation of the CP map of A.

    side "right": P with P - sum_j A_j P A_j* = Q0  (P = sum_m Ad^(m)(Q0))
    side "left":  Q with Q - sum_j A_j* Q A_j = Q0

    Solved through the matrized linear system with iterative refinement;
    requires spr(A) < 1 - 1e-9.
    """
    cp = _cp_map(A)
    Q0 = np.asarray(Q0, dtype=complex)
    if Q0.shape != (cp.n, cp.n):
        raise DimensionMismatchError("Q0 must be n x n")
    if check_spr:
        s = cp.spr
        if s >= 1.0 - SPR_BOUNDARY_TOL:
            raise SpectralRadiusError(
                f"Stein equation needs spr(A) < 1 (got spr = {s:.12g})")
    M = cp.matrization if side == "right" else cp.adjoint_matrization
    if side not in ("right", "left"):
        raise ValueError(f"unknown side {side!r}")
    K = np.eye(M.shape[0], dtype=complex) - M
    q = vec(Q0)
    x = np.linalg.solve(K, q)
    for _ in range(2):
        resid = q - K @ x
        if np.linalg.norm(resid) <= 1e-16 * np.linalg.norm(q):
            break
        x = x + np.linalg.solve(K, resid)
    P = unvec(x, cp.n)
    if np.linalg.norm(Q0 - Q0.conj().T) <= 1e-12 * max(np.linalg.norm(Q0), 1e-300):
        P = (P + P.conj().T) / 2.0
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
    G = stein_solve(cp.A / tau, np.eye(cp.n, dtype=complex),
                    side="right", check_spr=False)
    w, V = np.linalg.eigh(G)
    w = np.maximum(w, 1e-300)
    S = (V * np.sqrt(w)) @ V.conj().T
    S_inv = (V / np.sqrt(w)) @ V.conj().T
    W = np.stack([S_inv @ Aj @ S for Aj in cp.A])
    return S, MatrixTuple(W)


# ---------------------------------------------------------------------------
# Boundary singular points
# ---------------------------------------------------------------------------

def _hermitian_eigenmatrix(w, V, n):
    """Hermitian Perron eigenmatrix, sign-normalized, from eigenpairs (w, V)
    of the CP map that include its top ones."""
    rho = np.max(np.abs(w))
    candidates = np.where(np.abs(w) >= (1.0 - 1e-6) * rho)[0]
    idx = candidates[np.argmax(w[candidates].real)]
    P = unvec(V[:, idx], n)
    herm = (P + P.conj().T) / 2.0
    anti = (P - P.conj().T) / 2.0j
    P = herm if np.linalg.norm(herm) >= np.linalg.norm(anti) else anti
    evals = np.linalg.eigvalsh(P)
    if evals[np.argmax(np.abs(evals))] < 0:
        P = -P
    return P / np.linalg.norm(P)


def boundary_singularity(r, tol=1e-8):
    """A point Z with ||Z|| = 1/spr(A) where the minimal pencil is singular.

    Accepts a Realization (only its A-tuple matters) or a raw tuple.  The
    construction finds the Perron fixed point P >= 0 of Ad_{A,A*}/spr^2; if
    P is positive definite, Y = P^{-1/2} (A/spr) P^{1/2} is a row
    co-isometry and Z = conj(Y)/spr kills the pencil.  A singular P is an
    invariant subspace: compress and recurse, padding the recursive point
    with zeros.  Jointly nilpotent tuples (polynomials) are rejected.
    """
    return _boundary_singularity(_cp_map(r), tol)[0]


def _boundary_singularity(cp, tol):
    """boundary_singularity of the CPMap cp; returns the point and
    sigma_min of the pencil at it."""
    A, rho = cp.A, cp.spr
    scale = max(row_norm(A), 1.0)
    if rho <= 1e-12 * scale:
        raise JointlyNilpotentError(
            "spr(A) = 0: the tuple is jointly nilpotent (a polynomial), "
            "whose pencil is everywhere invertible")

    def build(sub, depth):
        s = sub.spr
        P = (sub.perron or _dense_perron(sub))[1]
        w, V = np.linalg.eigh(P)
        threshold = 1e-9 * max(float(np.trace(P).real), float(w[-1]))
        if w[0] > threshold:
            sqrtP = (V * np.sqrt(w)) @ V.conj().T
            inv_sqrtP = (V / np.sqrt(w)) @ V.conj().T
            Y = np.stack([inv_sqrtP @ (Aj / s) @ sqrtP for Aj in sub.A])
            return np.conj(Y) / s
        keep = V[:, w > threshold]
        if keep.shape[1] == 0:
            keep = V[:, [int(np.argmax(w))]]
        if depth <= 0 or keep.shape[1] >= sub.n:
            raise BoundarySingularityError(
                "boundary singularity recursion failed")
        inner = build(CPMap(np.stack([keep.conj().T @ Aj @ keep
                                      for Aj in sub.A])), depth - 1)
        m = inner.shape[1]
        Z = np.zeros(sub.A.shape, dtype=complex)
        Z[:, :m, :m] = inner
        return Z

    Z = build(cp, A.shape[1])
    point = MatrixTuple(Z)
    L = np.eye(A.shape[1] * point.n, dtype=complex)
    for j in range(A.shape[0]):
        L -= np.kron(A[j], point[j])
    sigma_min = float(np.linalg.svd(L, compute_uv=False)[-1])
    if abs(point.row_norm() - 1.0 / rho) > tol or sigma_min > tol:
        raise BoundarySingularityError(
            f"boundary singularity certificate failed at tol {tol:g}: "
            f"row_norm = {point.row_norm():.12g}, 1/spr = {1.0 / rho:.12g}, "
            f"sigma_min(L) = {sigma_min:.3g}")
    return point, sigma_min
