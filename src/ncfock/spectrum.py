"""Spectra of bounded rational multipliers: membership, scans, sampling,
variety witnesses, and the spectral-continuity probe.

lambda lies in the spectrum of r(L) iff the minimal realization of
(r - lambda)^{-1} has joint spectral radius >= 1 (with r(0) = lambda an
immediate zero-level singularity).  For minimal r = (A, b, c) that spr is
the spr of B(lambda)_j = A_j - c b* A_j / (b* c - lambda) compressed to
O = span{A*^w b : |w| >= 1} (see ``grid_scan``).  A scan cell needs only
the band of that spr against 1 +- 1e-9, which the Stein certificate of
``spectral._stein_bands`` gives for a block of cells (_STEIN_BLOCK entries
of real form) in stacked calls.  ``_Resolvent.inverse_cpmap`` owns the rule
of one lambda: ``contains_lambda``, an undecided cell and the lambda = 0
cell, the outerness of r (``factorization.is_outer_rational``), read it.
Random finite-level eigenvalue sampling provides the complementary lower
bound, and sigma_0 / sigma_pm classification of spectrum cells follows the
outerness of r - lambda.

For rational multipliers the spectrum coincides with the essential
spectrum and is connected, so no separate essential-spectrum computation
exists here; the index dichotomy is the sigma_0 / sigma_pm split.  r - lambda
is outer iff the same spr is <= 1, so decisive and zero-level spectrum cells
are sigma_pm; true sigma_0 points sit exactly on the spr = 1 knife edge and
surface as ``indeterminate`` cells.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NCFockError,
    NumericalFailureError,
    ScanGridError,
)
from .lsq import least_squares
from .realization import (
    DEFAULT_RANK_TOL,
    MatrixTuple,
    Realization,
    _kron,
    _nilpotent_cleanup,
    _orth_columns,
    _restrict,
    add,
    as_matrix_tuple,
    evaluate,
    from_polynomial,
    minimize,
    pencil,
)
from .spectral import (
    _ABOVE,
    _BELOW,
    _EDGE,
    MATRIX_FREE_MIN_N,
    _stein_bands,
    boundary_singularity,
    matrize,
    real_form,
    spr_below,
)
from .words import NCPolynomial, _pow2_scaled, words_up_to

CLASS_RESOLVENT = "resolvent"
CLASS_SIGMAPM = "sigma_pm"
CLASS_INDET = "indeterminate"
CLASS_SPECTRUM = "spectrum"          # member tag of an unclassified scan
_PROBE_DEGREE = 3    # continuity_probe perturbs the words up to this length


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

@dataclass
class SpectrumMembership:
    verdict: str                      # "spectrum" or "resolvent"
    spr_value: float = None           # spr of the minimal inverse realization
    indeterminate: bool = False       # |spr - 1| within the knife-edge band
    zero_level: bool = False          # decided by r(0) = lambda
    witness: MatrixTuple = None       # pencil-singular point, spectrum side

    def __bool__(self):
        return self.verdict == "spectrum"


def _bounded(r_min):
    """r_min, which ``spr_below`` shows a bounded multiplier."""
    spr_below(r_min.cpmap, "not a bounded multiplier: spr(A) = {s:.12g}")
    return r_min


class _Resolvent:
    """B(lambda) of a minimal r, compressed to O with orthonormal basis U:
    U* A_j U - U* c b* A_j U / (b* c - lambda), from products made once.
    As r is observable, O is the joint range of the A_j*.  A, b and c enter
    as the mantissas 2^-k A of ``r.cpmap`` and of ``Realization.pow2``,
    lambda (in the caller's units) as lambda 2^-e; ``_stein_bands`` takes k,
    and ``at`` and ``inverse_cpmap`` scale back by 2^k: bitwise the same in
    range, and no overflow at any scale."""

    def __init__(self, r):
        U = _orth_columns(np.hstack(r.cpmap._mantissa_star),
                          DEFAULT_RANK_TOL)[0]
        self.r, self.k = r, r.cpmap.k
        self.gamma = r.value_at_zero()
        self.A = _restrict(r.cpmap.mantissa, U)
        self.c = U.conj().T @ r.pow2[0].c
        self.b_A = np.conj(r.pow2[0].b) @ r.cpmap.mantissa @ U  # b'* M_j U
        self.cb = self.c[:, None] * self.b_A[:, None, :]

    @property
    def n(self):
        return self.A.shape[1]

    def _gap(self, lam):
        """(r(0) - lambda) 2^-e, in the units of the mantissa, for an array
        of lambdas, or for one as a Python complex (the scalar arithmetic of
        a cell); a real inf where lambda 2^-e overflows, so that 1/gap is
        exactly 0, the limit B(lambda) -> A."""
        shift = self.r._mantissa_shift(lam)
        gap = np.where(np.isinf(shift), np.inf,
                       self.r._value_and_scale[0] - shift)
        return gap if shift.ndim else complex(gap)

    def at(self, lam):
        B = self.A - self.cb / self._gap(lam)
        return np.ldexp(B.view(float), self.k).view(complex)

    def inverse_cpmap(self, lam):
        """None where r(0) = lambda, else the ``CPMap`` of a realization of
        1/(r - lambda) with the spr of the minimal inverse: B(lambda)
        bordered by the rows b* A_j U, as r - lambda = gamma - lambda + b*
        L_A^-1 (sum z_j A_j) c.  As in minimize, a polynomial 1/(r - lambda)
        comes out structurally nilpotent, so its spr is exactly 0."""
        if self.r.vanishes_at_zero(lam):
            return None
        n = self.n
        A = np.zeros((self.r.d, n + 1, n + 1), dtype=complex)
        # an entry that overflows is left to ``Realization``
        with np.errstate(over="ignore", invalid="ignore"):
            g = 1.0 / self._gap(lam)
            A[:, 0, 1:] = np.ldexp(self.b_A.view(float), self.k).view(complex)
            A[:, 1:, 1:] = self.at(lam)
            c = np.append(g, -g * g * self.c)
        return _nilpotent_cleanup(Realization(A, np.eye(n + 1)[0], c)).cpmap

    @cached_property
    def _real_terms(self):
        """R0, Y1, Y2, R3: with C = cb and alpha = 1/(gamma - lambda) =
        a + ib, the matrization of B(lambda) is M0 - alpha X1 -
        conj(alpha) X2 + |alpha|^2 X3, where M0, X1, X2, X3 are the sums
        over j of conj(A_j) kron A_j, conj(A_j) kron C_j, conj(C_j) kron A_j
        and conj(C_j) kron C_j.  Its real form is R0 - a Y1 - b Y2 +
        |alpha|^2 R3, with R0, Y1, Y2, R3 the real forms of M0, X1 + X2,
        i (X1 - X2) and X3, each Hermitian-preserving."""
        A, C = self.A, self.cb
        A_star = np.conj(np.swapaxes(A, 1, 2))
        C_star = np.conj(np.swapaxes(C, 1, 2))
        X1, X2 = matrize(zip(C, A_star)), matrize(zip(A, C_star))
        terms = [matrize(zip(A, A_star)), X1 + X2, 1j * (X1 - X2),
                 matrize(zip(C, C_star))]
        return [real_form(T) for T in terms]

    def bands(self, lams):
        """The band of spr(B(lambda)) for each lambda: "above" if r(0) =
        lambda, as 1/(r - lambda) is not regular at 0; else by the stacked
        ``spectral._stein_bands``, None where it cannot tell and from
        MATRIX_FREE_MIN_N up.  The real forms are formed elementwise, so
        their bits do not depend on which cells share a stack."""
        lams = np.array(lams, dtype=complex)
        bands = [_ABOVE if zero else None
                 for zero in self.r.vanishes_at_zero(lams)]
        if self.n >= MATRIX_FREE_MIN_N:
            return bands
        cells = [k for k, where in enumerate(bands) if where is None]
        with np.errstate(over="ignore", invalid="ignore"):
            alpha = 1.0 / self._gap(lams[cells])
        a, b, s = (v[:, None, None] for v in
                   (alpha.real, alpha.imag, np.abs(alpha) ** 2))
        R0, Y1, Y2, R3 = self._real_terms
        R = R0 - a * Y1 - b * Y2 + s * R3
        for k, where in zip(cells, _stein_bands(R, self.n, self.k)):
            bands[k] = where
        return bands


def contains_lambda(r, lam, want_witness=False):
    """Decide lambda in sigma(r(L)) for a bounded realization.

    Returns "spectrum" immediately when r(0) = lambda; otherwise returns
    "resolvent" iff the minimal realization of (r - lambda)^{-1} has the
    ``CPMap.band`` "below", both read from ``_Resolvent.inverse_cpmap``;
    "edge" keeps the spectrum verdict but sets ``indeterminate``.
    """
    r_min = _bounded(minimize(r))
    cp = _Resolvent(r_min).inverse_cpmap(complex(lam))
    if cp is None:
        return SpectrumMembership(verdict="spectrum", zero_level=True,
                                  witness=MatrixTuple.zeros(r_min.d, 1)
                                  if want_witness else None)
    s, where = cp.spr, cp.band
    if where == _BELOW:
        return SpectrumMembership(verdict="resolvent", spr_value=s)
    witness = None
    if want_witness:
        try:
            witness = boundary_singularity(cp, 1e-6)
        except (NCFockError, ArithmeticError):
            witness = None
    return SpectrumMembership(verdict="spectrum", spr_value=s,
                              indeterminate=where == _EDGE, witness=witness)


# ---------------------------------------------------------------------------
# Grid scan
# ---------------------------------------------------------------------------

@dataclass
class SpectrumScan:
    """Grid-membership result; row 0 is the top of the rectangle (max Im)."""

    rect: tuple                       # (re_min, re_max, im_min, im_max)
    resolution: float
    centers_re: np.ndarray            # increasing, length = columns
    centers_im: np.ndarray            # decreasing, length = rows
    member: np.ndarray                # bool, rows x columns
    classes: np.ndarray               # object array of class tags

    def member_points(self):
        """Complex centers of the cells marked spectrum."""
        rows, cols = np.nonzero(self.member)
        return self.centers_re[cols] + 1j * self.centers_im[rows]

    def center(self, row, col):
        return complex(self.centers_re[col], self.centers_im[row])


# the largest scan grid: one of more cells would run for an hour or more,
# so it is refused before anything is allocated
_MAX_CELLS = 10 ** 7

# entries of real form in one stack of Stein certificates (256 KB): a scan
# of n-state cells certifies them in blocks of 2**15 // n**4
_STEIN_BLOCK = 2 ** 15


def _cell_decision(resolvent, lam, classify, where):
    """A cell's (member, class) from the band ``where`` of its lambda, or
    where that is None from ``inverse_cpmap``, as ``contains_lambda`` reads."""
    if where is None:
        try:
            cp = resolvent.inverse_cpmap(lam)
            where = _ABOVE if cp is None else cp.band
        except NCFockError:
            return False, CLASS_INDET
    if where == _BELOW:
        return False, CLASS_RESOLVENT
    if where == _EDGE:
        return True, CLASS_INDET
    return True, (CLASS_SIGMAPM if classify else CLASS_SPECTRUM)


def grid_scan(r, rect, resolution, classify=True):
    """Scan a rectangle of the complex plane for spectrum membership.

    Each cell center is decided by the spr of B(lambda) compressed to O: it
    equals that of the minimal inverse, as invert(r - lambda) is block
    triangular with blocks B(lambda) and 0, every B(lambda)_j* maps O into
    itself and minimality makes A_j vanish off O.  The cell asks only for
    the band of that spr.  Below MATRIX_FREE_MIN_N the Stein certificate
    answers (``_Resolvent.bands``, whose four real terms are built once per
    scan) for row-major blocks of 2**15 // n**4 cells, 256 KB of real form,
    in stacked solves; a cell it leaves open (every cell from the switch
    up) reads the ``CPMap.band`` of its inverse, as ``contains_lambda``
    does.  Spectrum cells are tagged sigma_pm (spectrum if unclassified):
    r - lambda is outer iff that spr is <= 1, which a decisive cell (spr >
    1 + 1e-9) or a zero-level one (r(0) = lambda) never meets.  Cell errors
    and knife-edge values are tagged indeterminate.  A constant multiplier
    (spectrum = one point) marks exactly the cell containing its value.  A
    non-finite, empty or over-large grid (over 1e7 cells) raises ScanGridError.
    """
    return _grid_scan(minimize(r), rect, resolution, classify)


def _grid_scan(r_min, rect, resolution, classify):
    """``grid_scan`` of a minimal realization."""
    re_min, re_max, im_min, im_max = map(float, rect)
    if not np.all(np.isfinite([re_min, re_max, im_min, im_max,
                               resolution])):
        raise ScanGridError("scan rectangle and resolution must be finite")
    if re_max <= re_min or im_max <= im_min or resolution <= 0:
        raise ScanGridError("empty scan rectangle: needs re_min < re_max, "
                            "im_min < im_max and resolution > 0")
    cols = (re_max - re_min) / resolution
    rows = (im_max - im_min) / resolution
    if not max(cols, rows, cols * rows) <= _MAX_CELLS:
        raise ScanGridError(f"a scan grid of {cols:.3g} x {rows:.3g} cells "
                            f"exceeds the limit of {_MAX_CELLS} cells")
    cols, rows = int(round(cols)), int(round(rows))
    if cols == 0 or rows == 0:
        raise ScanGridError(f"empty scan grid: the rectangle rounds to "
                            f"{rows} x {cols} cells")
    centers_re = re_min + (np.arange(cols) + 0.5) * resolution
    centers_im = im_max - (np.arange(rows) + 0.5) * resolution
    member = np.zeros((rows, cols), dtype=bool)
    classes = np.full((rows, cols), CLASS_RESOLVENT, dtype=object)

    _bounded(r_min)
    if r_min.n == 1 and float(np.max(np.abs(r_min.A))) <= 1e-12:
        mu = r_min.value_at_zero()
        col = int(np.floor((mu.real - re_min) / resolution))
        row = int(np.floor((im_max - mu.imag) / resolution))
        if 0 <= row < rows and 0 <= col < cols:
            member[row, col] = True
            classes[row, col] = CLASS_SIGMAPM if classify else CLASS_SPECTRUM
    else:
        resolvent = _Resolvent(r_min)
        lams = [complex(x, y) for y in centers_im for x in centers_re]
        step = max(_STEIN_BLOCK // resolvent.n ** 4, 1)
        for start in range(0, len(lams), step):
            bands = resolvent.bands(lams[start:start + step])
            for k, where in enumerate(bands, start):
                member.flat[k], classes.flat[k] = _cell_decision(
                    resolvent, lams[k], classify, where)
    return SpectrumScan(rect=(re_min, re_max, im_min, im_max),
                        resolution=resolution, centers_re=centers_re,
                        centers_im=centers_im, member=member, classes=classes)


# ---------------------------------------------------------------------------
# Finite-level eigenvalue sampling
# ---------------------------------------------------------------------------

def _haar_unitary(rng, n):
    gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(gauss)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_row_contraction(rng, d, n, kind="gaussian"):
    """Random point of the closed row ball.

    kind "co-isometry": an exact row co-isometry (slice of a Haar unitary),
    row norm exactly 1.  kind "unitary": Haar unitaries times a random
    row-contractive diagonal scaling with a boundary-biased radius; their
    eigenvalues sit on circles, which covers the boundary of spectra well.
    kind "single": one scaled Haar unitary component, the rest zero.
    kind "gaussian": a uniform random direction with boundary-biased radius.
    """
    if kind == "co-isometry":
        gauss = rng.standard_normal((n * d, n * d)) \
            + 1j * rng.standard_normal((n * d, n * d))
        Q, _ = np.linalg.qr(gauss)
        block = Q[:n, :]
        return MatrixTuple(np.stack(
            [block[:, j * n:(j + 1) * n] for j in range(d)]))
    radius = rng.random() ** (1.0 / (2.0 * d * n * n))
    if kind == "unitary":
        weights = rng.random(d)
        scales = radius * np.sqrt(weights / weights.sum())
        return MatrixTuple(np.stack(
            [scales[j] * _haar_unitary(rng, n) for j in range(d)]))
    if kind == "single":
        j_star = int(rng.integers(d))
        X = np.zeros((d, n, n), dtype=complex)
        X[j_star] = radius * _haar_unitary(rng, n)
        return MatrixTuple(X)
    X = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    return MatrixTuple(X * (radius / MatrixTuple(X).row_norm()))


_SAMPLE_KINDS = ("co-isometry", "single", "unitary", "gaussian")


def finite_spectrum_sample(r, level_max=None, samples=1000, seed=0):
    """Eigenvalues of r(Z) over random closed-ball points of levels
    1..level_max (default: minimal size + 2).  Returns (eigenvalues, levels).

    Draws cycle through exact-boundary co-isometries, scaled Haar unitaries
    (single component and joint), and scaled Gaussian directions.
    """
    r_min = _bounded(minimize(r))
    if level_max is None:
        level_max = r_min.n + 2
    rng = np.random.default_rng(seed)
    per_level = max(samples // level_max, 1)
    eigs, levels = [], []
    for n in range(1, level_max + 1):
        for k in range(per_level):
            kind = _SAMPLE_KINDS[k % len(_SAMPLE_KINDS)]
            Z = random_row_contraction(rng, r_min.d, n, kind=kind)
            value = evaluate(r_min, Z)
            for eig in np.linalg.eigvals(value):
                eigs.append(complex(eig))
                levels.append(n)
    return np.array(eigs, dtype=complex), np.array(levels, dtype=int)


# ---------------------------------------------------------------------------
# Variety witnesses
# ---------------------------------------------------------------------------

@dataclass
class VarietyWitness:
    Z: MatrixTuple
    y: np.ndarray
    residual: float
    level: int


def _eval_any(f, Z):
    if isinstance(f, NCPolynomial):
        return f.evaluate(Z)
    return evaluate(f, Z)


def witness_residual(f, Z, y):
    """||y* f(Z)|| for y scaled to unit norm (ValueError if y is 0 or not
    finite), inf where it overflows.  Both norms are taken of mantissas,
    2^-e y by ``_pow2_scaled`` and 2^-k f of ``f.pow2`` (scaled back by
    2^k), so neither over- nor underflows on the way."""
    Z = as_matrix_tuple(Z)
    y = _pow2_scaled(np.asarray(y, dtype=complex).reshape(-1))[0]
    norm = np.linalg.norm(y)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"witness vector y has norm {norm:.6g}")
    y = y / norm
    g, k = f.pow2
    try:
        return math.ldexp(float(np.linalg.norm(np.conj(y) @ _eval_any(g, Z))),
                          k)
    except OverflowError:
        return math.inf


def certify_witness(f, Z, y, tol=1e-8):
    """Validate a singularity-locus pair (Z, y); raises on failure."""
    Z = as_matrix_tuple(Z)
    row_norm = Z.row_norm() if np.isfinite(Z.X).all() else math.nan
    if not row_norm <= 1.0 + 1e-9:
        raise ValueError(f"witness row norm {row_norm:.6g} exceeds 1")
    res = witness_residual(f, Z, y)
    if not res <= tol:
        raise ValueError(f"witness residual {res:.3g} exceeds {tol:g}")
    return VarietyWitness(Z=Z, y=np.asarray(y, dtype=complex),
                          residual=res, level=Z.n)


def _project_ball(X):
    if not np.isfinite(X).all():
        # a guard: ``least_squares`` stops a start rather than take a
        # non-finite step
        raise NumericalFailureError("the witness search lost finiteness")
    norm = MatrixTuple(X).row_norm()
    return X if norm <= 1.0 else X / norm


def variety_witness_search(f, level, attempts=8, seed=0, tol=1e-8):
    """Best-effort search for (Z, y) with y* f(Z) = 0 at a fixed level.

    The search runs on the mantissa g = 2^-k f of ``f.pow2``, which has
    the zero set of f, so 2^j f gives bitwise the Z and y of f.  Each
    attempt draws a random point of the closed row ball and polishes (Z, y)
    jointly by least squares on [y* g(Z), |y|^2 - 1] (``_polish_witness``),
    keeping Z in the ball; the search stops at the first attempt with
    sigma_min(g(Z)) <= tol and otherwise returns None.  The residual
    returned is that of f, ||y* f(Z)||.  Failure to find a witness is not a
    proof of emptiness; the certified negative route is the outerness test.
    """
    g = f.pow2[0]
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(attempts, 1)):
        start = random_row_contraction(rng, g.d, level).X
        Z, value = _polish_witness(g, start)
        if best is None or value < best[1]:
            best = (Z, value)
        if value <= tol:
            break
    Z, value = best
    if not value <= tol:
        return None
    point = MatrixTuple(Z)
    _, _, Vh = np.linalg.svd(_eval_any(g, point).conj().T)
    y = np.conj(Vh[-1])
    return VarietyWitness(Z=point, y=y, residual=witness_residual(f, point, y),
                          level=level)


# evaluation budget of one least-squares polish
_POLISH_STEPS = 60


def _row_derivative(f, W, y):
    """f(W) and G[j, a, b, beta], the derivative of (y* f(W))_beta in
    (W_j)_ab, which is holomorphic in W.

    For a polynomial, G = sum_w f_w sum_{i: w_i = j} (y* W^{w[:i]})_a
    (W^{w[i+1:]})_{b beta}, from cached prefix rows and suffix matrices.
    For a realization, with L = I - sum_k A_k kron W_k, ell = y* (b* kron I)
    L^{-1} as an m x n array and R = L^{-1} (c kron I) as an m x n x n one,
    G = sum_{p, q} ell[p, a] A_j[p, q] R[q, b, beta].
    """
    d, n = W.shape[0], W.shape[1]
    if isinstance(f, NCPolynomial):
        rows = {(): np.conj(y)}                 # y* W^u, u a prefix
        mats = {(): np.eye(n, dtype=complex)}   # W^s, s a suffix

        def row(u):
            if u not in rows:
                rows[u] = row(u[:-1]) @ W[u[-1] - 1]
            return rows[u]

        def mat(s):
            if s not in mats:
                mats[s] = W[s[0] - 1] @ mat(s[1:])
            return mats[s]

        F = np.zeros((n, n), dtype=complex)
        G = np.zeros((d, n, n, n), dtype=complex)
        for w, coeff in f.coeffs.items():
            F += coeff * mat(w)
            for i, letter in enumerate(w):
                G[letter - 1] += coeff * np.multiply.outer(row(w[:i]),
                                                           mat(w[i + 1:]))
        return F, G
    m = f.n
    L = pencil(f, W)
    R = np.linalg.solve(L, _kron(f.c[:, None], np.eye(n))).reshape(m, n, n)
    ell = np.linalg.solve(L.T, np.outer(np.conj(f.b), np.conj(y)).ravel())
    F = np.tensordot(np.conj(f.b), R, 1)
    G = np.einsum("pa,jpq,qbc->jabc", ell.reshape(m, n), f.A, R)
    return F, G


class _WitnessSystem:
    """The polish residual [Re, Im of y* f(W), |y|^2 - 1] with W =
    ``_project_ball(Z)``, and its exact Jacobian, in the coordinates
    x = (Re Z, Im Z, Re y, Im y).

    G of ``_row_derivative`` is holomorphic in W, so inside the ball (W = Z)
    the Re Z columns are G and the Im Z ones iG.  Outside it W = Z / sigma,
    sigma the top singular value of M = [Z_1 ... Z_d] with singular vectors
    u and v, and the chain rule gives dW = (dZ - W dsigma) / sigma with
    dsigma = Re(u* dM v).  The y columns are F[a, :] for Re y_a and
    -i F[a, :] for Im y_a.
    """

    def __init__(self, f, shape):
        self.f = f
        self.shape = shape
        self.n = shape[1]
        self.nz = int(np.prod(shape))

    def split(self, x):
        nz, n = self.nz, self.n
        Z = (x[:nz] + 1j * x[nz:2 * nz]).reshape(self.shape)
        y = x[2 * nz:2 * nz + n] + 1j * x[2 * nz + n:]
        return Z, y

    @staticmethod
    def join(Z, y):
        return np.concatenate([Z.ravel().real, Z.ravel().imag,
                               y.real, y.imag])

    def residual(self, x):
        Z, y = self.split(x)
        row = np.conj(y) @ _eval_any(self.f, MatrixTuple(_project_ball(Z)))
        return np.concatenate([row.real, row.imag,
                               [np.vdot(y, y).real - 1.0]])

    def jacobian(self, x):
        Z, y = self.split(x)
        W = _project_ball(Z)
        F, G = _row_derivative(self.f, W, y)
        G = G.reshape(self.nz, -1).T           # rows beta, columns (j, a, b)
        d_re, d_im = G, 1j * G
        if W is not Z:
            d, n = self.shape[0], self.n
            U, s, Vh = np.linalg.svd(np.hstack(list(Z)))
            # dsigma = Re(g . dZ), g[j, a, b] = conj(u_a) v_{j n + b}
            g = (np.conj(U[:, 0])[None, :, None]
                 * np.conj(Vh[0]).reshape(d, 1, n)).ravel()
            t = G @ W.ravel()
            d_re = (G - np.outer(t, g.real)) / s[0]
            d_im = (1j * G + np.outer(t, g.imag)) / s[0]
        top = np.hstack([d_re, d_im, F.T, -1j * F.T])
        norm_row = np.concatenate([np.zeros(2 * self.nz),
                                   2.0 * y.real, 2.0 * y.imag])
        return np.vstack([top.real, top.imag, norm_row])


def _polish_witness(f, Z):
    """Least-squares polish of (Z, y) jointly on the residual
    [y* f(Z), |y|^2 - 1], keeping Z inside the closed ball.

    The Levenberg-Marquardt of ``least_squares`` with the exact Jacobian of
    ``_WitnessSystem``, at most ``_POLISH_STEPS`` residual evaluations.  The
    system has 2n + 1 rows against 2 d n^2 + 2n unknowns, so each step is
    the minimum-norm one, from a (2n + 1)-square solve.  Returns the
    polished point and sigma_min(f(Z)) there."""
    system = _WitnessSystem(f, Z.shape)
    F0 = _eval_any(f, MatrixTuple(Z))
    _, _, Vh = np.linalg.svd(F0.conj().T)
    y0 = np.conj(Vh[-1])
    fit = least_squares(system.residual, system.join(Z, y0),
                        jac=system.jacobian, max_nfev=_POLISH_STEPS)
    Zp, _ = system.split(fit.x)
    Zp = _project_ball(Zp)
    return Zp, float(np.linalg.svd(_eval_any(f, MatrixTuple(Zp)),
                                   compute_uv=False)[-1])


# ---------------------------------------------------------------------------
# Continuity probe (Theorem-B diagnostic)
# ---------------------------------------------------------------------------

# side of the square blocks of the distance matrix in hausdorff_distance:
# 1 MB of complex differences at a time, which also ran fastest of the
# sides 256 to 2048 on criterion 5's 1,264 x 25,000 call
_HAUSDORFF_BLOCK = 256


def hausdorff_distance(points_a, points_b):
    """Hausdorff distance between two finite sets of complex points.

    The |a| x |b| distance matrix is walked in fixed-size blocks, keeping
    the running row and column minima, so memory does not grow with the
    product of the sizes; min and max are exact, so the value is that of
    the full matrix."""
    a = np.asarray(points_a, dtype=complex).ravel()
    b = np.asarray(points_b, dtype=complex).ravel()
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return float("inf")
    row_min = np.full(a.size, np.inf)
    col_min = np.full(b.size, np.inf)
    step = _HAUSDORFF_BLOCK
    for i in range(0, a.size, step):
        for j in range(0, b.size, step):
            dist = np.abs(a[i:i + step, None] - b[None, j:j + step])
            np.minimum(row_min[i:i + step], dist.min(axis=1),
                       out=row_min[i:i + step])
            np.minimum(col_min[j:j + step], dist.min(axis=0),
                       out=col_min[j:j + step])
    return float(max(row_min.max(), col_min.max()))


@dataclass
class ContinuityProbe:
    scales: tuple
    distances: list
    rect: tuple
    resolution: float


def continuity_probe(r, rect, resolution, scales=(1e-1, 1e-2, 1e-3), seed=0):
    """Hausdorff distance between the scan of r and scans of perturbed
    copies, one per noise scale.

    Each perturbation adds independent uniform complex noise of modulus
    <= eps to every Taylor coefficient of word length <= 3, then
    re-realizes; ``grid_scan`` minimizes each copy.  r is minimized once,
    for its own scan and for the copies.  Distances are reported as a
    diagnostic table; spectral continuity predicts decay but no rate.
    """
    r_min = minimize(r)
    base = _grid_scan(r_min, rect, resolution, classify=False)
    base_points = base.member_points()
    rng = np.random.default_rng(seed)
    words = list(words_up_to(r_min.d, _PROBE_DEGREE))
    distances = []
    for eps in scales:
        noise = {}
        for w in words:
            radius = eps * np.sqrt(rng.random())
            phase = 2.0 * np.pi * rng.random()
            noise[w] = radius * np.exp(1j * phase)
        perturbed = add(r_min, from_polynomial(NCPolynomial(r_min.d, noise)))
        scan = grid_scan(perturbed, rect, resolution, classify=False)
        distances.append(hausdorff_distance(base_points,
                                            scan.member_points()))
    return ContinuityProbe(scales=tuple(scales), distances=distances,
                           rect=tuple(map(float, rect)),
                           resolution=float(resolution))


# ---------------------------------------------------------------------------
# Artifact formats: CSV and PGM
# ---------------------------------------------------------------------------

def _fmt15(x):
    return f"{x:.15g}"


def scan_to_csv(scan):
    """Rows ``re, im, member, class`` in row-major top-left order."""
    lines = ["re,im,member,class"]
    rows, cols = scan.member.shape
    for i in range(rows):
        for j in range(cols):
            lines.append(",".join([
                _fmt15(scan.centers_re[j]), _fmt15(scan.centers_im[i]),
                "1" if scan.member[i, j] else "0", str(scan.classes[i, j]),
            ]))
    return "\n".join(lines) + "\n"


def scan_to_pgm(scan):
    """Binary 8-bit PGM: spectrum 0, resolvent 255, indeterminate 128."""
    rows, cols = scan.member.shape
    img = np.full((rows, cols), 255, dtype=np.uint8)
    img[scan.member] = 0
    img[scan.classes == CLASS_INDET] = 128
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    return header + img.tobytes()


def samples_to_csv(eigs, levels):
    lines = ["re,im,level"]
    for eig, level in zip(eigs, levels):
        lines.append(",".join([_fmt15(eig.real), _fmt15(eig.imag),
                               str(int(level))]))
    return "\n".join(lines) + "\n"
