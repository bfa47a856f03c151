"""Inner-outer factorization of NC polynomials and the rational certificates.

The outer factor q of a polynomial p is the polynomial with deg q <= deg p,
q(0) > 0 maximal, whose multiplier autocorrelations match those of p
(q(L)* q(L) = p(L)* p(L)).  The solver is a multistart Levenberg-Marquardt
on the autocorrelation equations with their exact Jacobian; correctness is
carried by the certificates, not by the solver: every returned q passes the
rational outerness test and the quotient p q^{-1} passes the isometry
(innerness) test.

Outerness of a rational r is decided by the radius of convergence of the
series of r^{-1} at 0: r is outer iff the minimal realization of r^{-1},
the lambda = 0 cell of r's spectrum scan, has joint spectral radius <= 1.
Innerness is an exact Gram condition computed through one left Stein solve.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError
from .realization import (
    Realization,
    _krylov_basis,
    from_polynomial,
    invert,
    minimize,
    mul,
    taylor_table,
)
from .spectral import _ABOVE, _EDGE, spr_below, stein_solve
from .spectrum import _Resolvent
from .words import NCPolynomial, suffixes, words_up_to

_RESIDUAL_TOL = 1e-8   # autocorrelation residual of an outer_factor root
_INNER_TOL = 1e-7      # is_inner tolerance of its quotient


def least_squares(fun, x0, jac, max_nfev):
    """Levenberg-Marquardt on fun from x0 with the exact Jacobian jac:
    MINPACK lmder through scipy's ``leastsq``, without the set-up of
    ``scipy.optimize.least_squares``, whose method "lm" runs the same lmder
    with the same arguments (no ``diag``), so the same iterates.  Returns
    an ``OptimizeResult`` with the solution x and the count nfev of
    residual evaluations."""
    # lazy: scipy.optimize is most of the cost of import ncfock
    from scipy.optimize import OptimizeResult, leastsq
    x, _, info, _, _ = leastsq(fun, x0, Dfun=jac, full_output=True,
                               xtol=1e-15, ftol=1e-15, gtol=1e-15,
                               maxfev=max_nfev)
    return OptimizeResult(x=x, nfev=info["nfev"])


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
        raise ValueError("hereditary tree of the zero polynomial")
    tree = set()
    for word in p.coeffs:
        tree.update(suffixes(word))
    return tree


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
    if r_min.vanishes_at_zero():
        return OuterResult(outer=False, spr_inverse=float("inf"),
                           value_at_zero=gamma,
                           reason="value at zero is zero")
    cp = _Resolvent(r_min).inverse_cpmap(0.0)
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
    spr_below(r.cpmap, "not a bounded multiplier: spr(A) = {s:.12g}")
    Q = stein_solve(r.cpmap, np.outer(r.b, np.conj(r.b)), side="left")
    Qc = Q @ r.c
    unit = complex(np.conj(r.c) @ Qc)
    unit_defect = abs(unit - 1.0)
    # orthonormal basis of span{A^g c : |g| >= 1} = span_j A_j K,
    # K the controllability space
    K = _krylov_basis(r.A, r.c, 1e-12)
    shifted = np.hstack([r.A[j] @ K for j in range(r.d)]) if K.size else K
    if shifted.size:
        Qbasis, sing, _ = np.linalg.svd(shifted, full_matrices=False)
        rank = int(np.sum(sing > 1e-12 * sing[0])) if sing.size else 0
        U = Qbasis[:, :rank]
        ortho_defect = float(np.linalg.norm(U.conj().T @ Qc)
                             / max(np.linalg.norm(Qc), 1e-300))
    else:
        ortho_defect = 0.0
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


def _pack(words, q0, coeffs):
    x = [q0]
    for w in words:
        x.extend((coeffs[w].real, coeffs[w].imag))
    return np.array(x)


def _unpack(d, words, x):
    table = {(): complex(x[0])}
    for k, w in enumerate(words):
        table[w] = complex(x[1 + 2 * k], x[2 + 2 * k])
    return NCPolynomial(d, table)


def _real_rows(z):
    """Real rows of a complex array indexed by gamma along axis 0: the real
    part at the empty word, then the real and imaginary parts of each
    further gamma in turn."""
    out = np.empty((2 * len(z) - 1,) + z.shape[1:])
    out[0] = z[0].real
    out[1::2] = z[1:].real
    out[2::2] = z[1:].imag
    return out


class _AutocorrelationSystem:
    """autocorrelations(q) - target over the words of length <= deg, and its
    exact Jacobian, in the coordinates x of ``_pack``.

    Words are indexed in ``words_up_to`` order, so q's coefficient vector
    is c = (x[0], x[1] + i x[2], ...).  Each pair of words (w, w gamma)
    with |w gamma| <= deg is stored once as an index triple (iw, iwg, ig);
    the L^gamma autocorrelation is then sum over ig = gamma of
    conj(c[iw]) c[iwg], and its derivatives in Re c_k and Im c_k come from
    the triples with iw = k or iwg = k.
    """

    def __init__(self, d, deg, target):
        words = list(words_up_to(d, deg))
        index = {w: k for k, w in enumerate(words)}
        triples = np.array([(index[w], index[w + g], index[g])
                            for w in words
                            for g in words_up_to(d, deg - len(w))]).T
        self.iw, self.iwg, self.ig = triples
        self.target = np.array([target.get(w, 0.0) for w in words],
                               dtype=complex)
        # Jacobian entries: (ig, iw) from conj(c_w), (ig, iwg) from c_wg
        self._jac_at = (np.concatenate((self.ig, self.ig)),
                        np.concatenate((self.iw, self.iwg)))

    def coefficients(self, x):
        c = np.empty(len(self.target), dtype=complex)
        c[0] = x[0]
        c[1:] = x[1::2] + 1j * x[2::2]
        return c

    def residual(self, x):
        c = self.coefficients(x)
        auto = np.zeros_like(self.target)
        np.add.at(auto, self.ig, np.conj(c[self.iw]) * c[self.iwg])
        return _real_rows(auto - self.target)

    def jacobian(self, x):
        c = self.coefficients(x)
        n = len(c)
        left, right = c[self.iwg], np.conj(c[self.iw])
        d_re = np.zeros((n, n), dtype=complex)
        np.add.at(d_re, self._jac_at, np.concatenate((left, right)))
        d_im = np.zeros((n, n), dtype=complex)
        np.add.at(d_im, self._jac_at, 1j * np.concatenate((-left, right)))
        J = np.empty((n, len(x)), dtype=complex)
        J[:, 0] = d_re[:, 0]              # q(0) = x[0] is real
        J[:, 1::2] = d_re[:, 1:]
        J[:, 2::2] = d_im[:, 1:]
        return _real_rows(J)


def autocorrelation_mismatch(p, q):
    """Max absolute difference between the autocorrelation tables."""
    ap, aq = autocorrelations(p), autocorrelations(q)
    return max(
        (abs(ap.get(g, 0.0) - aq.get(g, 0.0)) for g in set(ap) | set(aq)),
        default=0.0)


def outer_factor(p, n_starts=8, seed=0):
    """Spectral factorization p = (inner) * q with q an NC outer polynomial.

    Solves autocorrelations(q) = autocorrelations(p) over the full support
    of words of length <= deg p with q(0) real, by Levenberg-Marquardt
    (MINPACK lmder, ``least_squares``) with the exact Jacobian of
    ``_AutocorrelationSystem``.  It starts from 4 deterministic points
    (q = p with q(0) = |p(0)|, and three with mass on the empty word:
    q(0) = ||p||_2 and the other coefficients 0.05, 0.2 and 0.5 times p's)
    plus ``n_starts`` randomized ones.  Among residual-
    feasible solutions, candidates are taken in decreasing q(0) and the
    first one certified outer with an isometric quotient wins.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    d, deg = p.d, p.degree
    words = [w for w in words_up_to(d, deg) if w != ()]
    norm_p = p.l2_norm()
    system = _AutocorrelationSystem(d, deg, autocorrelations(p))

    rng = np.random.default_rng(seed)
    p0 = abs(p.coeff(()))
    starts = [_pack(words, p0 if p0 > 0 else norm_p / 2,
                    {w: p.coeff(w) for w in words})]
    # outer factors maximize the constant term, so bias deterministic
    # starts toward mass on the empty word
    for frac in (0.05, 0.2, 0.5):
        starts.append(_pack(words, norm_p,
                            {w: frac * p.coeff(w) for w in words}))
    for _ in range(n_starts):
        jitter = {w: p.coeff(w)
                  + norm_p * 0.5 * (rng.standard_normal()
                                    + 1j * rng.standard_normal())
                  for w in words}
        starts.append(_pack(words, norm_p * rng.uniform(0.3, 1.2), jitter))

    solutions = []
    for x0 in starts:
        fit = least_squares(system.residual, x0, jac=system.jacobian,
                            max_nfev=4000)
        res = float(np.linalg.norm(system.residual(fit.x), np.inf))
        if res > max(_RESIDUAL_TOL, 1e-10 * norm_p ** 2):
            continue
        q = _unpack(d, words, fit.x)
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

    p_real = from_polynomial(p)
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
            outer=q, inner=theta, residual=res, q0=q0,
            outer_certificate=outer_cert, inner_certificate=inner_cert,
            candidates_tried=len(unique), diagnostics=diagnostics)
    raise CertificationError(
        "no autocorrelation solution passed the outerness and innerness "
        "certificates", diagnostics=diagnostics)


def factor_identity_table(result, p):
    """Taylor table of inner * outer to length deg p + 4, to check p."""
    return taylor_table(
        mul(result.inner, from_polynomial(result.outer)), p.degree + 4)
