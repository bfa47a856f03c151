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
    """Solved on the mantissa ``Realization.pow2``: c* Q c is scaled back by
    a power of two, inf where it overflows; the other defect is scale-free."""
    spr_below(r.cpmap, "not a bounded multiplier: spr(A) = {s:.12g}")
    m, e = r.pow2
    Q = stein_solve(r.cpmap, np.outer(m.b, np.conj(m.b)), side="left")
    Qc = Q @ m.c
    gram = np.conj(m.c) @ Qc
    with np.errstate(over="ignore"):
        unit = complex(*np.ldexp([gram.real, gram.imag], 2 * e))
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


def _sum_into(slots, values, size):
    """Sums of values[..., t] into slot slots[t] of a last axis of length
    size, by one bincount over the leading (batch) axes."""
    lead = values.shape[:-1]
    count = math.prod(lead)
    flat = (np.arange(count)[:, None] * size + slots).ravel()
    return np.bincount(flat, values.ravel(),
                       count * size).reshape(lead + (size,))


def _real_coords(j):
    """(real coordinate, weight) pairs of complex coefficients j in the
    coordinates of ``_pack``: c_0 = x_0 and c_j = x_{2j-1} + i x_{2j}; the
    imaginary coordinate of c_0 gets weight 0."""
    return ((np.where(j == 0, 0, 2 * j - 1), np.ones(j.shape)),
            (2 * j, np.where(j == 0, 0, 1j)))


class _AutocorrelationSystem:
    """autocorrelations(q) - target over the words of length <= deg, and its
    exact Jacobian, in the coordinates x of ``_pack``; x may carry leading
    batch axes, one point per start.

    Each pair of words (w, w gamma) with |w gamma| <= deg adds
    conj(c_w) c_{w gamma} to the L^gamma autocorrelation.  Split into the
    real coordinates of c_w and c_{w gamma}, and into the real rows of
    gamma (the real part at the empty word, then the real and imaginary
    parts of each further gamma in turn), the system is the real quadratic
    form f_r(x) = sum W[r, a, b] x_a x_b - t_r, stored as its nonzero
    entries (r, a, b, W).  The residual and the Jacobian
    df_r/dx_a = sum_b (W[r, a, b] + W[r, b, a]) x_b are then one
    ``np.bincount`` each over the whole batch.
    """

    def __init__(self, d, deg, target):
        words = list(words_up_to(d, deg))
        index = {w: k for k, w in enumerate(words)}
        iw, iwg, ig = np.array([(index[w], index[w + g], index[g])
                                for w in words
                                for g in words_up_to(d, deg - len(w))]).T
        rows, left, right, weights = [], [], [], []
        for a, wa in _real_coords(iw):
            for b, wb in _real_coords(iwg):
                weight = np.conj(wa) * wb
                for row, part in ((np.where(ig == 0, 0, 2 * ig - 1),
                                   weight.real),
                                  (2 * ig, np.where(ig == 0, 0, weight.imag))):
                    rows.append(row)
                    left.append(a)
                    right.append(b)
                    weights.append(part)
        rows, left, right, weights = map(np.concatenate,
                                         (rows, left, right, weights))
        keep = weights != 0
        self.rows, self.left, self.right, self.weights = (
            rows[keep], left[keep], right[keep], weights[keep])
        self.size = 2 * len(words) - 1          # rows and unknowns
        target = np.array([target.get(w, 0.0) for w in words], dtype=complex)
        self.target = np.empty(self.size)
        self.target[0] = target[0].real
        self.target[1::2] = target[1:].real
        self.target[2::2] = target[1:].imag
        # Jacobian entries, flat in (r, a): W x_b at (r, a), W x_a at (r, b)
        self._jac_at = np.concatenate((self.rows * self.size + self.left,
                                       self.rows * self.size + self.right))
        self._jac_by = np.concatenate((self.right, self.left))
        self._jac_weights = np.concatenate((self.weights, self.weights))

    def residual(self, x):
        products = self.weights * x[..., self.left] * x[..., self.right]
        return _sum_into(self.rows, products, self.size) - self.target

    def jacobian(self, x):
        J = _sum_into(self._jac_at, self._jac_weights * x[..., self._jac_by],
                      self.size * self.size)
        return J.reshape(x.shape[:-1] + (self.size, self.size))


def autocorrelation_mismatch(p, q):
    """Max absolute difference between the autocorrelation tables."""
    ap, aq = autocorrelations(p), autocorrelations(q)
    return max(
        (abs(ap.get(g, 0.0) - aq.get(g, 0.0)) for g in set(ap) | set(aq)),
        default=0.0)


def outer_factor(p, n_starts=8, seed=0):
    """Spectral factorization p = (inner) * q with q an NC outer polynomial.

    Solves autocorrelations(q) = autocorrelations(p) over the full support
    of words of length <= deg p with q(0) real, by the Levenberg-Marquardt
    of ``least_squares`` with the exact Jacobian of
    ``_AutocorrelationSystem``, on all starts in one batch: 4 deterministic
    points (q = p with q(0) = |p(0)|, and three with mass on the empty
    word: q(0) = ||p||_2 and the other coefficients 0.05, 0.2 and 0.5 times
    p's) plus ``n_starts`` randomized ones.  Among residual-feasible
    solutions, candidates are taken in decreasing q(0) and the first one
    certified outer with an isometric quotient wins.

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

    fit = least_squares(system.residual, np.array(starts),
                        jac=system.jacobian, max_nfev=4000)
    residuals = np.linalg.norm(system.residual(fit.x), np.inf, axis=-1)
    solutions = []
    for x, res in zip(fit.x, residuals.tolist()):
        if res > max(_RESIDUAL_TOL, 1e-10 * norm_p ** 2):
            continue
        q = _unpack(d, words, x)
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
