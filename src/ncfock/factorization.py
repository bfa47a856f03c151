"""Inner-outer factorization of NC polynomials and the rational certificates.

The outer factor q of a polynomial p is the polynomial with deg q <= deg p,
q(0) > 0 maximal, whose multiplier autocorrelations match those of p
(q(L)* q(L) = p(L)* p(L)).  It is solved on the shift realization
(A, b, c) of p, whose states are the hereditary tree of p: q = (A, x, c),
and the autocorrelation equations are n quadratic forms in x in C^n, whose
matrices are n right Stein solutions of A.  The solver is a multistart
Levenberg-Marquardt on these equations with their exact Jacobian;
correctness is carried by the certificates, not by the solver: every
returned q passes the rational outerness test and the quotient p q^{-1}
passes the isometry (innerness) test.

Outerness of a rational r is decided by the radius of convergence of the
series of r^{-1} at 0: r is outer iff the minimal realization of r^{-1},
the lambda = 0 cell of r's spectrum scan, has joint spectral radius <= 1;
``spectrum._Resolvent.inverse_cpmap`` owns that cell's rule.
Innerness is an exact Gram condition computed through one left Stein solve.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CertificationError,
    NumericalFailureError,
    ZeroPolynomialError,
)
from .lsq import least_squares
from .realization import (
    Realization,
    _krylov_basis,
    _orth_columns,
    from_polynomial,
    invert,
    minimize,
    mul,
    taylor_table,
)
from .spectral import _ABOVE, _EDGE, spr_below, stein_solve
from .spectrum import _Resolvent
from .words import NCPolynomial, _pow2_scaled, suffix_closure

_RESIDUAL_TOL = 1e-8   # autocorrelation residual of an outer_factor root
_INNER_TOL = 1e-7      # is_inner tolerance of its quotient


def autocorrelations(p):
    """gamma -> sum_w conj(p_w) p_{w gamma}, the L^gamma coefficient of
    p(L)* p(L); the empty-word entry is ||p||_2^2."""
    table = {}
    support = list(p.coeffs.items())
    for w, value in support:
        lw = len(w)
        for wg, value_g in support:
            if len(wg) >= lw and wg[:lw] == w:
                gamma = wg[lw:]
                table[gamma] = table.get(gamma, 0.0) + np.conj(value) * value_g
    return {g: complex(v) for g, v in table.items() if v != 0}


def hereditary_tree(p):
    """All suffixes of support words of p; |T_p| bounds the variety level."""
    if p.is_zero():
        raise ZeroPolynomialError("hereditary tree of the zero polynomial")
    return set(suffix_closure(p.coeffs))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass
class OuterResult:
    """Outcome of the rational outerness test.

    outer is True iff the minimal realization of r^{-1} has spr <= 1 + 1e-9
    (the spr of the lambda = 0 cell of r's resolvent tuple); ``indeterminate``
    is set on the knife edge.  A vanishing value at zero short-circuits to
    False (the pair (0, y) then sits in the singularity locus).
    """

    outer: bool
    spr_inverse: float
    indeterminate: bool = False
    value_at_zero: complex = 0.0
    reason: str = ""

    def __bool__(self):
        return self.outer


def is_outer_rational(r):
    """Outerness of the function of r, which need not be minimal."""
    r_min = minimize(r)
    gamma = r_min.value_at_zero()
    cp = _Resolvent(r_min).inverse_cpmap(0.0)
    if cp is None:
        return OuterResult(outer=False, spr_inverse=float("inf"),
                           value_at_zero=gamma, reason="value at zero is zero")
    s, where = cp.spr, cp.band
    return OuterResult(outer=where != _ABOVE, spr_inverse=s,
                       indeterminate=where == _EDGE, value_at_zero=gamma,
                       reason=f"spr of inverse realization = {s:.12g}")


@dataclass
class InnerResult:
    """Outcome of the isometry test for a bounded rational multiplier.

    With Q the left Stein solution Q - sum A_j* Q A_j = b b*, the
    multiplier is inner iff c* Q c = 1 and Q c is orthogonal to
    span{A^g c : |g| >= 1}.  Both defects are reported.
    """

    inner: bool
    unit_defect: float
    orthogonality_defect: float
    tol: float

    def __bool__(self):
        return self.inner


def is_inner(r, tol=1e-7):
    """Solved on the mantissa ``Realization.pow2`` and taken of the mantissa
    of Q c: c* Q c is scaled back, inf where it overflows."""
    spr_below(r.cpmap, "not a bounded multiplier: spr(A) = {s:.12g}")
    m, e = r.pow2
    Q = stein_solve(r.cpmap, np.outer(m.b, np.conj(m.b)), side="left")
    Qc, e_Qc = _pow2_scaled(Q @ m.c)
    gram = np.conj(m.c) @ Qc
    with np.errstate(over="ignore"):
        unit = complex(*np.ldexp([gram.real, gram.imag], 2 * e + e_Qc))
    unit_defect = abs(unit - 1.0)
    # orthonormal basis of span{A^g c : |g| >= 1} = span_j A_j K,
    # K the controllability space
    K = _krylov_basis(r.A, r.c, 1e-12)
    U = _orth_columns(np.hstack([A_j @ K for A_j in r.A]), 1e-12)[0]
    ortho_defect = float(np.linalg.norm(U.conj().T @ Qc)
                         / max(np.linalg.norm(Qc), 1e-300))
    return InnerResult(inner=bool(unit_defect <= tol and ortho_defect <= tol),
                       unit_defect=float(unit_defect),
                       orthogonality_defect=ortho_defect, tol=tol)


# ---------------------------------------------------------------------------
# Outer factor of an NC polynomial
# ---------------------------------------------------------------------------

@dataclass
class FactorizationResult:
    outer: NCPolynomial
    inner: Realization
    residual: float
    q0: float
    outer_certificate: OuterResult
    inner_certificate: InnerResult
    candidates_tried: int = 0
    diagnostics: dict = field(default_factory=dict)


class _SteinSystem:
    """The autocorrelation equations of q = (A, x, c) against those of a
    realization r = (A, b, c) with spr(A) < 1, and their exact Jacobian, in
    the real coordinates (Re x_0, Im x_0, Re x_1, ...) of x in C^n; x may
    carry leading batch axes, one point per start.

    With Q(x) the left Stein solution Q - sum A_j* Q A_j = x x*, the
    autocorrelations of q are c* Q(x) A^g c, so where (A, c) is
    controllable they match those of r iff T(x) = T(b) for
    T_i(x) = c* Q(x) e_i.  By the duality of the left and the right Stein
    equation, T_i(x) = x* H_i x with H_i the right Stein solution of
    H - sum A_j H A_j* = e_i c*: one stacked solve per system.  The rows are
    Re and Im of T_i(x) - T_i(b), state by state, then the phase gauge
    Im(x* c) = Im q(0).  The derivative of T_i in the direction h is
    h* H_i x + x* H_i h.  For r = ``from_polynomial(p)`` the state of a
    word g of the hereditary tree is e_g = A^g c, so T_g(x) is the L^g
    autocorrelation of q; at g outside the tree both tables vanish.
    """

    def __init__(self, r):
        n = r.n
        H = stein_solve(r.cpmap, np.eye(n)[:, :, None] * np.conj(r.c))
        # z @ right is (H_i z)_k at i n + k, conj(z) @ left (z* H_i)_l at
        # i n + l
        self._right = H.reshape(n * n, n).T
        self._left = H.transpose(1, 0, 2).reshape(n, n * n)
        # Im(x* c) is linear in x: x @ gauge_row
        self._gauge_row = (-1j * r.c).view(float)
        self.target = self._autocorrelations(r.b)[0]

    @staticmethod
    def _complex(x):
        return x[..., 0::2] + 1j * x[..., 1::2]

    def _autocorrelations(self, z):
        """T(z) and the vectors H_i z, stacked over i."""
        Hz = (z @ self._right).reshape(z.shape + (-1,))
        return (Hz @ np.conj(z)[..., None])[..., 0], Hz

    def residual(self, x):
        z = self._complex(x)
        T = self._autocorrelations(z)[0] - self.target
        rows = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
        rows[..., :-1:2] = T.real
        rows[..., 1:-1:2] = T.imag
        rows[..., -1] = x @ self._gauge_row
        return rows

    def jacobian(self, x):
        z = self._complex(x)
        Hz = self._autocorrelations(z)[1]
        zH = (np.conj(z) @ self._left).reshape(Hz.shape)
        # dT_i along Re x_k and along Im x_k, as the last axis
        D = np.stack((Hz + zH, 1j * (zH - Hz)), axis=-1)
        J = np.stack((D.real, D.imag), axis=-3)
        J = J.reshape(x.shape[:-1] + (x.shape[-1], x.shape[-1]))
        gauge = np.broadcast_to(self._gauge_row,
                                x.shape[:-1] + (1, x.shape[-1]))
        return np.concatenate((J, gauge), axis=-2)


def autocorrelation_mismatch(p, q):
    """Max absolute difference between the autocorrelation tables."""
    ap, aq = autocorrelations(p), autocorrelations(q)
    return max(
        (abs(ap.get(g, 0.0) - aq.get(g, 0.0)) for g in set(ap) | set(aq)),
        default=0.0)


def outer_factor(p, n_starts=8, seed=0):
    """Spectral factorization p = (inner) * q with q an NC outer polynomial.

    Solves q(L)* q(L) = p(L)* p(L) on the shift realization
    r = (A, b, c) = ``from_polynomial(p)``, whose n states are the words of
    ``hereditary_tree(p)``: the outer factor is q = (A, x, c) for an x in
    C^n, because q = theta(L)* p, theta(L) an isometry, lies in the span of
    the backward shifts L^{w*} p, which is {x* A^v c} (NC Beurling: Arias &
    Popescu, IEOT 23, 1995).  The equations are those of ``_SteinSystem``
    with q(0) real, solved by the Levenberg-Marquardt of ``least_squares``
    with their exact Jacobian, on all starts in one batch: 4 deterministic
    points (x = b, q = p, with q(0) = |p(0)|, and three with mass on the
    empty word: q(0) = ||p||_2 and the other coefficients 0.05, 0.2 and 0.5
    times p's) plus ``n_starts`` randomized ones.  Each solution is read
    off as the Taylor table of (A, x, c) through deg p.  Among
    residual-feasible solutions, candidates are taken in decreasing q(0)
    and the first one certified outer with an isometric quotient wins.

    Everything runs on the mantissa 2^-k p of ``NCPolynomial.pow2``, whose
    largest coefficient modulus lies in [1/2, 1]; the result is 2^k q,
    2^k q(0) and the residual times 2^2k, and the inner factor is that of
    2^-k p.  The scaling is exact, so 2^j p gives bitwise 2^j q.  Raises
    ``ZeroPolynomialError`` for p = 0 and ``NumericalFailureError`` where
    ||p||_2^2, the autocorrelation at the empty word, overflows.
    """
    if p.is_zero():
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    norm_p = p.l2_norm()
    if not math.isfinite(norm_p * norm_p):
        raise NumericalFailureError(
            f"the autocorrelations of p overflow: ||p||_2 = {norm_p:.6g}")
    p, k = p.pow2
    norm_p = p.l2_norm()
    p_real = from_polynomial(p)
    system = _SteinSystem(p_real)

    # state 0 is the empty word: q(0) = conj(x_0)
    b = p_real.b
    rng = np.random.default_rng(seed)
    p0 = abs(b[0])
    starts = [np.r_[p0 if p0 > 0 else norm_p / 2, b[1:]]]
    # outer factors maximize the constant term, so bias deterministic
    # starts toward mass on the empty word
    for frac in (0.05, 0.2, 0.5):
        starts.append(np.r_[norm_p, frac * b[1:]])
    for _ in range(n_starts):
        noise = rng.standard_normal((b.size - 1, 2)) @ [1, -1j]
        starts.append(np.r_[norm_p * rng.uniform(0.3, 1.2),
                            b[1:] + 0.5 * norm_p * noise])
    starts = np.array(starts, dtype=complex)

    fit = least_squares(system.residual, starts.view(float),
                        jac=system.jacobian, max_nfev=4000)
    residuals = np.linalg.norm(system.residual(fit.x), np.inf, axis=-1)
    solutions = []
    for x, res in zip(system._complex(fit.x), residuals.tolist()):
        if res > max(_RESIDUAL_TOL, 1e-10 * norm_p ** 2):
            continue
        q = taylor_table(Realization(p_real.A, x, p_real.c), p.degree)
        if q.coeff(()).real < 0:
            q = q * (-1.0)
        solutions.append((float(q.coeff(()).real), res, q))

    # dedupe near-identical solutions, largest constant term first
    solutions.sort(key=lambda t: -t[0])
    unique = []
    for q0, res, q in solutions:
        if any(q.allclose(other, tol=1e-6) for _, _, other in unique):
            continue
        unique.append((q0, res, q))

    diagnostics = {"solutions": len(unique), "starts": len(starts)}
    for q0, res, q in unique:
        if q0 <= 0:
            continue
        q_real = from_polynomial(q)
        outer_cert = is_outer_rational(q_real)
        if not outer_cert:
            continue
        theta = minimize(mul(p_real, invert(q_real)))
        inner_cert = is_inner(theta, tol=_INNER_TOL)
        if not inner_cert:
            continue
        return FactorizationResult(
            outer=q * 2.0 ** k, inner=theta, residual=math.ldexp(res, 2 * k),
            q0=math.ldexp(q0, k),
            outer_certificate=outer_cert, inner_certificate=inner_cert,
            candidates_tried=len(unique), diagnostics=diagnostics)
    raise CertificationError(
        "no autocorrelation solution passed the outerness and innerness "
        "certificates", diagnostics=diagnostics)


def factor_identity_table(result, p):
    """Taylor table of inner * outer to length deg p + 4, to check p."""
    return taylor_table(
        mul(result.inner, from_polynomial(result.outer)), p.degree + 4)
