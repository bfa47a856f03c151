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

- ``CPMap.perron`` below MATRIX_FREE_MIN_N takes one eigensolve (with
  vectors) of R, which ``spr`` and the Perron eigenmatrix share: a not-in
  verdict does not solve the same matrix twice.
- ``_stein`` alone picks how a Stein equation is solved, for
  ``stein_solve`` and for the Gram matrix of ``similarity_to_contraction``
  (of Ad / tau^2): a jointly nilpotent tuple, at every state size, takes
  the finite sum of the powers of Ad (or of its adjoint), which needs no
  R; otherwise one LU of I - R (I - R^T on the left) serves a stack of
  right-hand sides Q0, the coordinates of the Hermitian part of each and,
  if Q0 is not Hermitian, of its anti-Hermitian part divided by i.  A Q0
  is refined only when the normwise backward error
  ||q - K x|| / (||K|| ||x|| + ||q||) of its columns exceeds 16 eps
  (Higham, Accuracy and Stability of Numerical Algorithms, ch. 12), so a
  well-conditioned stack factors once.

``spr`` has two methods: ``matrized`` (the spectral radius of Ad) and
``iterate`` (exactly scaled repeated squaring of the complex M, which
evaluates the defining norm limit at K = 2^48 applications and serves as
the independent reference).  ``matrized`` reads rho(Ad) from the one
Perron pair ``CPMap.perron``, whose route the state size n picks: below
MATRIX_FREE_MIN_N the dense eigensolve above, from it up implicitly
restarted Arnoldi (ARPACK, through scipy.sparse.linalg.eigs) on Ad itself
in the same coordinates, the real operator x -> hermitian_coords(Ad(P))
with P = from_hermitian_coords(x), at O(d n^3) per product, so no
n^2 x n^2 matrix is formed for spr; if ARPACK fails, the dense
eigensolve.  Both routes take as the Perron root the eigenvalue of
largest real part (``_perron_matrix``), which for a positive map is
rho(Ad) also where rho times roots of unity share its modulus, as for an
imprimitive tuple, and map its eigenvector to the Perron eigenmatrix
through from_hermitian_coords.  One matrix-free guard serves both routes,
``CPMap.power_bound``: a jointly nilpotent n-tuple has Ad^n(I) = 0, which
n products detect, and spr is then exactly 0, with no Perron pair or R;
for any other tuple ||Ad^n(I)||^(1/n) bounds rho(Ad) from above, since a
positive map attains its norm at I, and spr is the square root of the
smaller of rho and that bound, which caps the spuriously large eigenvalues
of a tuple nilpotent up to roundoff.

The Perron pair of a fresh CPMap costs about the same by both routes
near n = 9 (random d = 2 tuples at spr 0.9, one BLAS thread, 2 shared
cores, best of 15 calls on 3 tuples: 1.7 against 2.5 ms at n = 8, 3.4
against 2.6-3.5 ms at n = 9, 5.7 against 2.6 ms at n = 10, 8.0 against
3.0 ms at n = 11, 38 against 3.9 ms at n = 16).  The switch stays
at n = 12, so that membership verdicts of n <= 11 and
factorizations (n <= 4) keep the dense route; the two routes differ by up
to about 4e-15 at n = 9..11.

Every verdict reads ``CPMap.band``: "below", "edge" or "above" 1 +- 1e-9.
The power bound 0 makes it "below".  Otherwise, below the switch, a
residual-checked Stein certificate decides it (``_stein_bands``, which
takes a whole block of scan cells in stacked calls); ``band(spr)`` decides
where that cannot tell, within roundoff of 1 +- 1e-9, and from the switch
up, where a solve would cost O(n^6) against O(d n^3) per Arnoldi step.
spr is the printed estimate.

One ``CPMap`` (a realization's is ``Realization.cpmap``) holds a tuple's
power bound, spr, band, Perron pair and real form, each computed once on
the mantissa M = 2^-k A of ``_pow2_scaled``.  M and k are the one scale of
every tuple that reaches a Stein solve or a certificate: no Ad^m(I) or R
of M overflows, spr is 2^k that of M, the Stein solves and the band divide
by 4^-k t^2 from ``np.ldexp``, the scan's ``_Resolvent`` compresses M, and
in range every result is bitwise what A gives.  ``spr``, ``stein_solve``,
``similarity_to_contraction`` and ``boundary_singularity`` take a CPMap,
so the last reuses the Perron pair; it certifies its point at O(d n^3) by
the residual of the pencil's null vector P^(1/2), a bound on sigma_min.
"""

import math
from functools import cached_property

import numpy as np

from .errors import (
    BoundarySingularityError,
    DimensionMismatchError,
    JointlyNilpotentError,
    NumericalFailureError,
    SpectralRadiusError,
)
from .realization import MatrixTuple, Realization, _kron, _pow2_scaled

SPR_BOUNDARY_TOL = 1e-9

# state size from which spr and the Perron eigenmatrix use Arnoldi on the CP
# map instead of a dense eigensolve of the n^2 x n^2 real form of its
# matrization
MATRIX_FREE_MIN_N = 12

_BELOW, _EDGE, _ABOVE = "below", "edge", "above"


def band(s):
    """Where the spr s lies against the knife-edge band: "below" if
    s < 1 - 1e-9, "above" if s > 1 + 1e-9, "edge" otherwise."""
    if s < 1.0 - SPR_BOUNDARY_TOL:
        return _BELOW
    if s > 1.0 + SPR_BOUNDARY_TOL:
        return _ABOVE
    return _EDGE


def spr_below(cp, message):
    """SpectralRadiusError(message) unless ``cp.band`` is "below"."""
    if cp.band != _BELOW:
        raise SpectralRadiusError(message.format(s=cp.spr))


# ---------------------------------------------------------------------------
# Vectorization calculus
# ---------------------------------------------------------------------------

def vec(Z):
    """Column-stacking vectorization: vec([[1,2],[3,4]]) = (1, 3, 2, 4)."""
    return np.asarray(Z, dtype=complex).reshape(-1, order="F")


def unvec(z, n):
    return np.asarray(z, dtype=complex).reshape((n, n), order="F")


def matrize(pairs):
    """Matrization of X -> sum_j A_j X B_j, namely sum_j B_j^T kron A_j."""
    pairs = [(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))
             for A, B in pairs]
    A0, B0 = pairs[0]
    out = np.zeros((A0.shape[0] * B0.shape[1], A0.shape[1] * B0.shape[0]),
                   dtype=complex)
    for A, B in pairs:
        out += _kron(B.T, A)
    return out


def hermitian_coords(P):
    """Real coordinates vec(Re P + Im P) of a Hermitian n x n matrix P."""
    P = np.asarray(P)
    return (P.real + P.imag).reshape(-1, order="F")


def from_hermitian_coords(x, n):
    """The Hermitian P with hermitian_coords(P) = x: with Q the n x n
    matrix of x, P = (Q + Q^T)/2 + i (Q - Q^T)/2.  A stack of coordinate
    vectors x[..., :] gives the stack of their P."""
    x = np.asarray(x, dtype=float)
    # column-stacking: the transpose of the row-major matrix of x
    Q = x.reshape(x.shape[:-1] + (n, n)).swapaxes(-1, -2)
    P = np.empty(Q.shape, dtype=complex)
    P.real = (Q + Q.swapaxes(-1, -2)) / 2.0
    P.imag = (Q - Q.swapaxes(-1, -2)) / 2.0
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


class CPMap:
    """The CP map Ad_{A,A*} of a tuple A, with the analysis of A: its power
    bound (0 when A is jointly nilpotent), spr and band, its Perron pair
    (rho(Ad) and its eigenmatrix, the one source of rho that spr reads) and
    the real form R of its matrization.  Each is computed at most once,
    when first needed, on the mantissa 2^-k A."""

    def __init__(self, A):
        # the d x n x n array of a MatrixTuple or array; see ``_cp_map``
        self.A = A.X if isinstance(A, MatrixTuple) else MatrixTuple(A).X
        self.mantissa, self.k = _pow2_scaled(self.A)
        self._mantissa_star = np.conj(np.swapaxes(self.mantissa, 1, 2))

    @property
    def n(self):
        return self.A.shape[1]

    def __call__(self, P):
        return np.ldexp(self._mantissa_ad(P).view(float),
                        2 * self.k).view(complex)

    def _mantissa_ad(self, P, side="right"):
        """Ad of the mantissa at P, or on the left its adjoint
        sum_j M_j* P M_j."""
        if side == "left":
            return ((self._mantissa_star @ P) @ self.mantissa).sum(axis=0)
        return ((self.mantissa @ P) @ self._mantissa_star).sum(axis=0)

    @property
    def matrization(self):
        """The complex matrization sum_j conj(M_j) kron M_j of the mantissa
        M, 4^-k times that of A, built anew on each access: only
        real_matrization and spr(method="iterate") use it."""
        return matrize([(Mj, np.conj(Mj).T) for Mj in self.mantissa])

    @cached_property
    def real_matrization(self):
        """R, the matrix of Ad of the mantissa in the coordinates
        hermitian_coords, 4^-k times that of A; R^T is that of the adjoint
        map.  The complex matrization it is built from is not kept."""
        return real_form(self.matrization)

    @cached_property
    def power_bound(self):
        """||Ad^n(I)||^(1/n) for the CP map of the mantissa of an n-tuple:
        an upper bound on its rho(Ad), exactly 0 when the tuple is jointly
        nilpotent.  Each step takes the power-of-two mantissa of Ad(P), an
        exact scaling whose exponents are summed, so no step over- or
        underflows."""
        P, e = np.eye(self.n, dtype=complex), 0
        for _ in range(self.n):
            P, k = _pow2_scaled(self._mantissa_ad(P))
            if not P.any():
                return 0.0
            e += k
        return (float(np.linalg.norm(P, 2)) ** (1.0 / self.n)
                * 2.0 ** (e / self.n))

    @cached_property
    def spr(self):
        return spr(self)

    @cached_property
    def band(self):
        """The band every verdict reads: "below" where ``power_bound`` is 0,
        with no real form; else ``_stein_bands`` below the switch,
        ``band(spr)`` from MATRIX_FREE_MIN_N up and where that cannot tell."""
        where = _BELOW if self.power_bound == 0.0 else None
        if where is None and self.n < MATRIX_FREE_MIN_N:
            where = _stein_bands(self.real_matrization[None], self.n,
                                 self.k)[0]
        return band(self.spr) if where is None else where

    @cached_property
    def perron(self):
        """(rho(Ad), Hermitian Perron eigenmatrix): one Arnoldi run from
        MATRIX_FREE_MIN_N up; below it, or if ARPACK fails (as it does on
        a tuple nilpotent up to roundoff), one dense eigensolve of R."""
        if self.n >= MATRIX_FREE_MIN_N:
            from scipy.sparse.linalg import ArpackError

            try:
                return _arnoldi_perron(self)
            except ArpackError:
                pass
        return _dense_perron(self)


def _cp_map(A):
    return (A if isinstance(A, CPMap) else A.cpmap
            if isinstance(A, Realization) else CPMap(A))


# ---------------------------------------------------------------------------
# Joint spectral radius
# ---------------------------------------------------------------------------

def _squared_power_estimate(M, squarings, n):
    """rho(M) estimate from || M^K || at K = 2^squarings for the complex
    matrization M of an n-tuple.  Each squaring takes the power-of-two
    mantissa of its product, an exact scaling whose exponents are carried
    along (doubled at each squaring), so nothing over- or underflows.

    The final norm is the spectral norm of Ad^(K)(I) = unvec(M^K vec(I)),
    as in the definition.  Exactly nilpotent powers, M = 0 among them,
    return 0.
    """
    B, e = _pow2_scaled(M)
    for _ in range(squarings):
        B, k = _pow2_scaled(B @ B)
        e = 2 * e + k
    K = 2 ** squarings
    wnorm = float(np.linalg.norm(unvec(B @ vec(np.eye(n)), n), 2))
    if wnorm == 0:
        return 0.0
    return wnorm ** (1.0 / K) * 2.0 ** (e / K)


def _arnoldi_eigs(cp, k, which="LM"):
    """The k eigenpairs of largest modulus (which="LM") or real part ("LR")
    of the CP map of the mantissa of cp, by implicitly restarted Arnoldi
    (ARPACK) on its real form in the coordinates hermitian_coords, without
    forming it; the eigenvectors have unit norm."""
    from scipy.sparse.linalg import LinearOperator, eigs

    n = cp.n
    op = LinearOperator(
        (n * n, n * n), dtype=float,
        matvec=lambda x: hermitian_coords(
            cp._mantissa_ad(from_hermitian_coords(x, n))))
    # a fixed start keeps results deterministic; the coordinates of I are
    # never orthogonal to the dual Perron eigenvector, the coordinates of
    # the Perron eigenmatrix Q >= 0 of the adjoint map (R^T), since their
    # inner product is tr Q > 0.  Random tuples up to n = 30 converge
    # within 200 restarts; a tuple that is nilpotent up to roundoff never
    # does and is given up on.
    w, V = eigs(op, k=k, which=which, ncv=20, tol=0,
                v0=hermitian_coords(np.eye(n)), maxiter=300)
    return w, V / np.linalg.norm(V, axis=0)


def _arnoldi_perron(cp):
    """rho(Ad) of the mantissa of cp and its Hermitian Perron eigenmatrix
    by Arnoldi, never forming the matrization.

    The largest-modulus pass finds rho unless the tuple is imprimitive,
    when rho times roots of unity share its modulus (Evans and
    Hoegh-Krohn, J. London Math. Soc. 17, 1978); if its top Ritz value is
    not real positive, a largest-real-part pass follows.  A positive
    definite Perron eigenmatrix P makes Ad/rho similar to a unital CP map,
    which is power bounded, so rho is semisimple and the top Ritz pair
    alone is accurate.  A singular P allows a defective rho: it comes back
    as a star of Ritz values around rho, spread by roundoff^(1/m) for a
    Jordan block of size m, whose Ritz vectors are almost parallel.  The
    mean of that star is rho to roundoff, and the mean of its vectors,
    each in the phase of the top one, cancels their spread the same way.
    """
    w, V = _arnoldi_eigs(cp, 1)
    if not (w[0].imag == 0 and w[0].real > 0):
        w, V = _arnoldi_eigs(cp, 1, which="LR")
    P = _perron_matrix(V[:, 0], cp.n)
    evals = np.linalg.eigvalsh(P)
    if evals[0] > 1e-9 * evals[-1]:
        return float(abs(w[0])), P
    w, V = _arnoldi_eigs(cp, 6)
    overlap = V.conj().T @ V[:, np.argmax(w.real)]
    star = np.abs(overlap) >= 1.0 - 1e-6
    x = V[:, star] @ (overlap[star] / np.abs(overlap[star]))
    return float(abs(np.mean(w[star]))), _perron_matrix(x, cp.n)


def _dense_perron(cp):
    """rho(Ad) of the mantissa and the Hermitian Perron eigenmatrix from the
    eigensolve of R."""
    w, V = np.linalg.eig(cp.real_matrization)
    return (float(np.max(np.abs(w))),
            _perron_matrix(V[:, np.argmax(w.real)], cp.n))


def _perron_matrix(x, n):
    """The Hermitian Perron eigenmatrix, sign-normalized and of unit
    Frobenius norm, from an eigenvector x of R of rho, the eigenvalue of
    largest real part: R is real, so the real and imaginary parts of x are
    eigenvectors themselves; the larger is taken."""
    P = max((from_hermitian_coords(x.real, n),
             from_hermitian_coords(x.imag, n)), key=np.linalg.norm)
    evals = np.linalg.eigvalsh(P)
    if evals[np.argmax(np.abs(evals))] < 0:
        P = -P
    return P / np.linalg.norm(P)


def spr(A, method="matrized"):
    """Joint (outer) spectral radius of a matrix tuple.

    method "matrized": sqrt of rho(Ad) from the Perron pair
    ``CPMap.perron`` (dense below MATRIX_FREE_MIN_N, by Arnoldi on the CP
    map from it up), capped by the guard ||Ad^n(I)||^(1/n).  method
    "iterate": sqrt of the norm-limit estimate from repeated squaring of
    the complex matrization.  Jointly nilpotent tuples return 0.  A may be
    a CPMap, whose cached Perron pair is used.  Both take 2^k times the spr
    of the mantissa, and fail only where that overflows.
    """
    cp = _cp_map(A)
    if method == "iterate":
        rho = _squared_power_estimate(cp.matrization, 48, cp.n)
    elif method == "matrized":
        rho = min(cp.perron[0], cp.power_bound) if cp.power_bound else 0.0
    else:
        raise ValueError(f"unknown spr method {method!r}")
    try:
        return math.ldexp(float(np.sqrt(rho)), cp.k)
    except OverflowError:
        raise NumericalFailureError("spr(A) overflows") from None


# ---------------------------------------------------------------------------
# Stein equations
# ---------------------------------------------------------------------------

def stein_solve(A, Q0, side="right"):
    """Solve the Stein equation of the CP map of A.

    side "right": P with P - sum_j A_j P A_j* = Q0  (P = sum_m Ad^(m)(Q0))
    side "left":  Q with Q - sum_j A_j* Q A_j = Q0

    Q0 is one n x n matrix or a k x n x n stack, whose solutions come back
    stacked, as ``_stein`` solves them: for a jointly nilpotent tuple
    (power bound exactly 0), at every n, by the finite sum sum_{m<n}
    Ad^m(Q0), with no n^2 x n^2 matrix, else by one real LU for the whole
    stack.  A Hermitian Q0 gives an exactly Hermitian solution.  Requires
    spr(A) < 1 - 1e-9 and a finite I - R / 4^-k or sum.
    """
    cp = _cp_map(A)
    Q0 = np.asarray(Q0, dtype=complex)
    if Q0.shape[-2:] != (cp.n, cp.n) or Q0.ndim not in (2, 3):
        raise DimensionMismatchError("Q0 must be n x n or a stack of them")
    if side not in ("right", "left"):
        raise ValueError(f"unknown side {side!r}")
    spr_below(cp, "Stein equation needs spr(A) < 1 (got spr = {s:.12g})")
    P = _stein(cp, Q0.reshape((-1, cp.n, cp.n)), side, 1.0)
    return P.reshape(Q0.shape)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _stein(cp, Q0, side, t2):
    """The stack of P with P - Ad(P) / t2 = Q0[i], Ad that of cp's tuple
    (its adjoint on the left): the finite sum where ``power_bound`` is 0, at
    every state size, else one LU, both of Ad of the mantissa over 4^-k t2
    from ``np.ldexp``, 0 where that underflows (so the quotients fail)."""
    s = np.ldexp(t2, -2 * cp.k)
    if cp.power_bound == 0.0:
        return _nilpotent_stein(cp, Q0, side, s)
    return _stein_real(cp.real_matrization, Q0, side, s)


def _nilpotent_stein(cp, Q0, side, s):
    """The exact solutions sum_{m<n} Ad^m(Q0[i]) / s^m (the adjoint's on
    the left) for a jointly nilpotent n-tuple, whose Ad^n is 0, at O(d n^4)
    each with no n^2 x n^2 matrix; fails where a sum overflows."""
    P = Q0.copy()
    for Pi in P:
        term = Pi
        for _ in range(cp.n - 1):
            term = cp._mantissa_ad(term, side) / s
            Pi += term
    if not np.isfinite(P).all():
        raise NumericalFailureError("the Stein sum overflows")
    return P


# refinement runs while the normwise backward error of a Stein solve is
# above this; one LU solve of a well-conditioned Stein system reaches 0.3
# to 4.5 eps at n = 2..21
_REFINE_ABOVE = 16 * np.finfo(float).eps


def _stein_real(R, Q0, side, s):
    """The stack of P with P - Ad(P) = Q0[i] (side "right", or the adjoint
    on the left), where R / s is the real form of Ad, by one LU of
    I - R / s; fails where that overflows.  The residual and the
    refinement of each Q0[i] are those of its own one or two columns."""
    n = Q0.shape[-1]
    K = (R.T if side == "left" else R) / -s     # bitwise -(R / s)
    if not np.isfinite(K).all():
        raise NumericalFailureError("the Stein system overflows")
    K.flat[::n * n + 1] += 1.0
    H = (Q0 + Q0.conj().swapaxes(1, 2)) / 2.0
    H2 = (Q0 - Q0.conj().swapaxes(1, 2)) / 2.0j
    q, cols = [], []
    for Hi, H2i in zip(H, H2):
        parts = [Hi, H2i] if np.any(H2i) else [Hi]
        cols.append(np.arange(len(q), len(q) + len(parts)))
        q += [hermitian_coords(part) for part in parts]
    q = np.stack(q, axis=1)
    x = np.linalg.solve(K, q)
    K_norm = np.abs(K).sum(axis=1).max()
    P = np.empty(Q0.shape, dtype=complex)
    for Pi, c in zip(P, cols):
        qc, xc = q[:, c], x[:, c]
        for _ in range(2):
            resid = qc - K @ xc
            scale = K_norm * np.abs(xc).max(axis=0) + np.abs(qc).max(axis=0)
            if np.all(np.abs(resid).max(axis=0) <= _REFINE_ABOVE * scale):
                break
            xc += np.linalg.solve(K, resid)
        Pi[:] = from_hermitian_coords(xc[:, 0], n)
        if len(c) == 2:
            Pi += 1j * from_hermitian_coords(xc[:, 1], n)
    return P


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _stein_bands(R, n, k=0):
    """``band`` of spr(B) for each R[i], the real form of Ad of 2^-k B, in a
    stack, by the Stein certificate (Popescu, J. reine angew. Math. 561,
    2003) at t = 1 - 1e-9, then at t = 1 + 1e-9 on the cells still open;
    None where it cannot tell or K = I - R / (4^-k t^2) overflows.  The
    solve of K x = coords(I) gives P with P - Ad_{B/t}(P) = I + E, E the
    residual in these isometric coordinates; its norm plus the rounding
    bound gamma_{n^2+2} ||K||_F ||x|| (Higham, ch. 3) below 1 makes
    I + E > 0.  Then lambda_min(P) > mu proves spr(B) < t (Ad_{B/t}(P) < P
    with P > 0) and lambda_min(P) < -mu proves spr(B) >= t (for spr(B) < t,
    P = sum_k Ad_{B/t}^k(I + E) > 0), mu = 8 n eps max|lambda(P)| covering
    the error of eigvalsh.  Each t costs one stacked solve and eigvalsh,
    bitwise the per-matrix calls; a LinAlgError or a non-finite solution
    in a stack of more cells sends it back to one certificate per cell."""
    bands = np.full(len(R), None)
    open_ = np.arange(len(R))
    diagonal = np.arange(n * n)
    coords_I = hermitian_coords(np.eye(n))
    eps = np.finfo(float).eps
    u = (n * n + 2) * eps / 2
    # gamma_{n^2+2} ||K||_F at either t
    slack = u / (1.0 - u) * (n + np.sqrt(np.einsum("kij,kij->k", R, R))
                             / np.ldexp((1 - SPR_BOUNDARY_TOL) ** 2, -2 * k))
    for t, below_t in ((1.0 - SPR_BOUNDARY_TOL, _BELOW),
                       (1.0 + SPR_BOUNDARY_TOL, _EDGE)):
        if open_.size == 0:
            return bands.tolist()
        # K bitwise: a 0 - x that keeps +0, then 1 on the diagonal
        K = R[open_]
        K /= np.ldexp(t * t, -2 * k)
        np.subtract(0.0, K, out=K)
        K[:, diagonal, diagonal] += 1.0
        try:
            x = np.linalg.solve(K, coords_I)
            if not np.isfinite(x).all():
                raise np.linalg.LinAlgError("non-finite Stein solution")
            w = np.linalg.eigvalsh(from_hermitian_coords(x, n))
        except np.linalg.LinAlgError:
            if len(R) == 1:
                return bands.tolist()
            return [band for i in range(len(R))
                    for band in _stein_bands(R[i:i + 1], n, k)]
        resid = np.matmul(K, x[:, :, None])[:, :, 0] - coords_I
        positive = (np.sqrt(np.einsum("ki,ki->k", resid, resid))
                    + slack[open_] * np.sqrt(np.einsum("ki,ki->k", x, x))
                    < 1.0)
        low = w[:, 0]
        mu = 8 * n * eps * np.maximum(-low, w[:, -1])
        bands[open_[positive & (low > mu)]] = below_t
        open_ = open_[positive & (low < -mu)]
    bands[open_] = _ABOVE
    return bands.tolist()


# ---------------------------------------------------------------------------
# Similarity to a strict row contraction (multi-variable Rota-Strang)
# ---------------------------------------------------------------------------

def similarity_to_contraction(A, margin):
    """Invertible S and W = S^{-1} A S with row_norm(W) <= spr(A) + margin.

    Requires ``spr_below``, the band "below".  With tau = spr(A) + margin,
    the Gram matrix G solving G - Ad_{A/tau}(G) = I gives S = G^{1/2};
    then sum_j W_j W_j* = tau^2 (I - G^{-1}), strictly below tau^2, with G
    solved by ``_stein``.  As margin -> 0 the row norm approaches spr(A).
    """
    cp = _cp_map(A)
    spr_below(cp, "similarity to a contraction needs spr(A) < 1 (got {s:.12g})")
    s = cp.spr
    if not (0.0 < margin < 1.0 - s):
        raise ValueError("margin must lie in (0, 1 - spr(A))")
    tau = s + margin
    G = _stein(cp, np.eye(cp.n, dtype=complex)[None], "right", tau * tau)[0]
    w, V = np.linalg.eigh(G)
    w = np.maximum(w, 1e-300)
    S = (V * np.sqrt(w)) @ V.conj().T
    S_inv = (V / np.sqrt(w)) @ V.conj().T
    W = np.stack([S_inv @ Aj @ S for Aj in cp.A])
    return S, MatrixTuple(W)


# ---------------------------------------------------------------------------
# Boundary singular points
# ---------------------------------------------------------------------------

def boundary_singularity(r, tol=1e-8):
    """A point Z with ||Z|| = 1/spr(A) where the minimal pencil is singular.

    Accepts a Realization (only its A-tuple matters) or a raw tuple.  The
    construction finds the Perron fixed point P >= 0 of Ad_{A,A*}/spr^2; if
    P is positive definite, Y = P^{-1/2} (A/spr) P^{1/2} is a row
    co-isometry and Z = conj(Y)/spr kills the pencil.  A singular P is an
    invariant subspace: compress and recurse, padding the recursive point
    with zeros.  The point is certified by |row norm * spr - 1| <= tol and an
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
    # the spr routes return exactly 0.0 for a jointly nilpotent tuple
    if rho == 0.0:
        raise JointlyNilpotentError(
            "spr(A) = 0: the tuple is jointly nilpotent (a polynomial), "
            "whose pencil is everywhere invertible")

    def build(sub, depth):
        """The point of the tuple of sub and the null vector of its
        pencil."""
        s = sub.spr
        if s == 0.0:
            raise BoundarySingularityError(
                "boundary singularity recursion reached a jointly nilpotent "
                "block")
        P = sub.perron[1]
        w, V = np.linalg.eigh(P)
        threshold = 1e-9 * max(float(np.trace(P).real), float(w[-1]))
        if w[0] > threshold:
            sqrtP = (V * np.sqrt(w)) @ V.conj().T
            inv_sqrtP = (V / np.sqrt(w)) @ V.conj().T
            # A/s as the mantissa over its spr: bitwise the same in range
            Y = np.stack([inv_sqrtP @ (Mj / math.ldexp(s, -sub.k)) @ sqrtP
                          for Mj in sub.mantissa])
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

    with np.errstate(over="ignore", invalid="ignore"):
        Z, null = build(cp, A.shape[1])
    if not (np.isfinite(Z).all() and np.isfinite(null).all()):
        raise BoundarySingularityError("boundary singularity is not finite")
    point = MatrixTuple(Z)
    image = null - (A @ null @ np.swapaxes(Z, 1, 2)).sum(axis=0)
    sigma_min = float(np.linalg.norm(image) / np.linalg.norm(null))
    if not (abs(point.row_norm() * rho - 1.0) <= tol
            and sigma_min <= tol):
        raise BoundarySingularityError(
            f"boundary singularity certificate failed at tol {tol:g}: "
            f"row_norm = {point.row_norm():.12g}, 1/spr = {1.0 / rho:.12g}, "
            f"sigma_min(L) = {sigma_min:.3g}")
    return point, sigma_min
