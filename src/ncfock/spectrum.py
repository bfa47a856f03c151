"""Spectra of bounded rational multipliers: membership, scans, sampling,
variety witnesses, and the spectral-continuity probe.

lambda lies in the spectrum of r(L) iff the minimal realization of
(r - lambda)^{-1} has joint spectral radius >= 1 (with r(0) = lambda an
immediate zero-level singularity).  For minimal r = (A, b, c) that spr is
the spr of B(lambda)_j = A_j - c b* A_j / (b* c - lambda) compressed to
O = span{A*^w b : |w| >= 1} (see ``grid_scan``).  A scan cell needs only
the side of 1 +- 1e-9 on which it lies, which a Stein certificate on the
real form of the matrization of B(lambda) gives without eigenvalues; spr
itself runs only on the knife edge.  Random finite-level eigenvalue
sampling provides the complementary lower bound, and sigma_0 / sigma_pm
classification of spectrum cells follows the outerness of r - lambda.

For rational multipliers the spectrum coincides with the essential
spectrum and is connected, so no separate essential-spectrum computation
exists here; the index dichotomy is the sigma_0 / sigma_pm split.  r - lambda
is outer iff the same spr is <= 1, so decisive and zero-level spectrum cells
are sigma_pm; true sigma_0 points sit exactly on the spr = 1 knife edge and
surface as ``indeterminate`` cells.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    NCFockError,
    NumericalFailureError,
    ScanGridError,
    SpectralRadiusError,
)
from .realization import (
    DEFAULT_RANK_TOL,
    MatrixTuple,
    add,
    as_matrix_tuple,
    evaluate,
    from_polynomial,
    minimize,
)
from .spectral import (
    MATRIX_FREE_MIN_N,
    SPR_BOUNDARY_TOL,
    CPMap,
    boundary_singularity,
    from_hermitian_coords,
    matrize,
    real_form,
    row_norm,
)
from .words import NCPolynomial, words_up_to

CLASS_RESOLVENT = "resolvent"
CLASS_SIGMAPM = "sigma_pm"
CLASS_INDET = "indeterminate"
CLASS_SPECTRUM = "spectrum"          # member tag of an unclassified scan


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


def _minimal_bounded(r):
    """The minimal realization of r, which must be a bounded multiplier."""
    return _bounded(minimize(r))


def _bounded(r_min):
    """r_min, which must be a bounded multiplier: spr(A) < 1 - 1e-9, shown
    by the Stein certificate below MATRIX_FREE_MIN_N and else by spr."""
    cp = CPMap(r_min.A)
    if cp.n < MATRIX_FREE_MIN_N and _stein_below(
            cp.real_matrization, cp.n, 1.0 - SPR_BOUNDARY_TOL):
        return r_min
    s = cp.spr
    if s >= 1.0 - SPR_BOUNDARY_TOL:
        raise SpectralRadiusError(
            f"not a bounded multiplier: spr(A) = {s:.12g}")
    return r_min


def _is_constant(r_min):
    return r_min.n == 1 and float(np.max(np.abs(r_min.A))) <= 1e-12


# The Stein certificate (Popescu, J. reine angew. Math. 561, 2003): for
# t > 0 the solution P of P - Ad_{B/t}(P) = I is >= I when spr(B) < t, and
# is not positive definite when spr(B) > t, since a positive definite P
# gives Ad_{B/t}(P) = P - I <= (1 - 1/||P||) P.  The computed P carries a
# roundoff of about n ||P|| 1e-16, so lambda_min(P) >= 1 - _STEIN_DELTA
# certifies spr < t and lambda_min(P) < -_STEIN_DELTA ||P|| certifies
# spr >= t.  ||P|| grows like 1/|1 - spr^2/t^2| near the knife edge; above
# _STEIN_CAP the answer is left to spr (|spr - t| below 5e-8 on 1 x 1
# tuples, below up to about 1e-6 on some random 6 x 6 ones).
_STEIN_DELTA = 1e-6
_STEIN_CAP = 1e7


def _stein_below(R, n, t):
    """True when the Stein certificate shows spr(B) < t, False when it shows
    spr(B) >= t, None when it cannot tell; R is the real n^2 x n^2 form of
    Ad_B (``spectral.real_form``)."""
    try:
        # np.eye(n).ravel() is hermitian_coords(I)
        P = from_hermitian_coords(np.linalg.solve(
            np.eye(n * n) - R / (t * t), np.eye(n).ravel()), n)
        w = np.linalg.eigvalsh(P)
    except np.linalg.LinAlgError:
        return None
    norm = max(-w[0], w[-1])
    if not norm <= _STEIN_CAP:
        return None
    if w[0] >= 1.0 - _STEIN_DELTA:
        return True
    if w[0] < -_STEIN_DELTA * norm:
        return False
    return None


_BELOW, _EDGE, _ABOVE = "below", "edge", "above"


class _Resolvent:
    """B(lambda) of a minimal r, compressed to O with orthonormal basis U:
    U* A_j U - U* c b* A_j U / (b* c - lambda), from products made once.
    As r is observable, O is the joint range of the A_j*."""

    def __init__(self, r):
        Q, s, _ = np.linalg.svd(np.hstack(np.conj(np.swapaxes(r.A, 1, 2))),
                                full_matrices=False)
        U = Q[:, s > DEFAULT_RANK_TOL * s[0]]
        self.d = r.d
        self.gamma = r.value_at_zero()
        self.A = U.conj().T @ r.A @ U
        self.cb = (U.conj().T @ r.c)[:, None] \
            * (np.conj(r.b) @ r.A @ U)[:, None, :]

    @property
    def n(self):
        return self.A.shape[1]

    def at(self, lam):
        return self.A - self.cb / (self.gamma - lam)

    def is_zero_level(self, lam):
        return abs(self.gamma - lam) <= 1e-12 * max(1.0, abs(lam))

    @cached_property
    def _real_terms(self):
        """R0, Y1, Y2, R3 as rows: with C = cb and alpha = 1/(gamma -
        lambda) = a + ib, the matrization of B(lambda) is M0 - alpha X1 -
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
        return np.stack([real_form(T) for T in terms]).reshape(4, -1)

    def band(self, lam):
        """_BELOW, _EDGE or _ABOVE: where spr(B(lambda)) lies against the band
        1 +- 1e-9, by the Stein certificate at t = 1 -+ 1e-9; None when the
        certificate cannot tell, at a zero-level lambda, and from
        MATRIX_FREE_MIN_N up."""
        n = self.n
        if n >= MATRIX_FREE_MIN_N or self.is_zero_level(lam):
            return None
        alpha = 1.0 / (self.gamma - lam)
        coeffs = np.array([1.0, -alpha.real, -alpha.imag, abs(alpha) ** 2])
        R = (coeffs @ self._real_terms).reshape(n * n, n * n)
        below = _stein_below(R, n, 1.0 - SPR_BOUNDARY_TOL)
        if below is None:
            return None
        if below:
            return _BELOW
        below = _stein_below(R, n, 1.0 + SPR_BOUNDARY_TOL)
        if below is None:
            return None
        return _EDGE if below else _ABOVE


def contains_lambda(r, lam, want_witness=False):
    """Decide lambda in sigma(r(L)) for a bounded realization.

    Returns "spectrum" immediately when r(0) = lambda; otherwise returns
    "resolvent" iff the minimal realization of (r - lambda)^{-1} has joint
    spectral radius < 1 - 1e-9, computed as in ``grid_scan``.  Values within
    1e-9 of 1 keep the spectrum verdict but set ``indeterminate``.
    """
    return _membership(_Resolvent(_minimal_bounded(r)), lam, want_witness)


def _membership(resolvent, lam, want_witness=False):
    lam = complex(lam)
    if resolvent.is_zero_level(lam):
        return SpectrumMembership(verdict="spectrum", zero_level=True,
                                  witness=MatrixTuple.zeros(resolvent.d, 1)
                                  if want_witness else None)
    cp = CPMap(resolvent.at(lam))
    s = cp.spr
    if s < 1.0 - SPR_BOUNDARY_TOL:
        return SpectrumMembership(verdict="resolvent", spr_value=s)
    witness = None
    if want_witness:
        try:
            witness = boundary_singularity(cp, 1e-6)
        except (NCFockError, ArithmeticError):
            witness = None
    return SpectrumMembership(verdict="spectrum", spr_value=s,
                              indeterminate=bool(abs(s - 1.0)
                                                 <= SPR_BOUNDARY_TOL),
                              witness=witness)


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
    classified: bool = False

    def member_points(self):
        """Complex centers of the cells marked spectrum."""
        rows, cols = np.nonzero(self.member)
        return self.centers_re[cols] + 1j * self.centers_im[rows]

    def center(self, row, col):
        return complex(self.centers_re[col], self.centers_im[row])


# the largest scan grid: one of more cells would run for an hour or more,
# so it is refused before anything is allocated
_MAX_CELLS = 10 ** 7


def _cell_decision(resolvent, lam, classify):
    band = resolvent.band(lam)
    if band is None:
        try:
            membership = _membership(resolvent, lam)
        except NCFockError:
            return False, CLASS_INDET
        band = (_BELOW if not membership
                else _EDGE if membership.indeterminate else _ABOVE)
    if band == _BELOW:
        return False, CLASS_RESOLVENT
    if band == _EDGE:
        return True, CLASS_INDET
    return True, (CLASS_SIGMAPM if classify else CLASS_SPECTRUM)


def grid_scan(r, rect, resolution, classify=True):
    """Scan a rectangle of the complex plane for spectrum membership.

    Each cell center is decided by the spr of B(lambda) compressed to O: it
    equals that of the minimal inverse, as invert(r - lambda) is block
    triangular with blocks B(lambda) and 0, every B(lambda)_j* maps O into
    itself and minimality makes A_j vanish off O.  The cell asks only where
    that spr lies against 1 +- 1e-9.  Below MATRIX_FREE_MIN_N the Stein
    certificate answers with a linear solve at t = 1 - 1e-9 and, off the
    resolvent side, a second at t = 1 + 1e-9, on the real form of M(lambda)
    = M0 - alpha X1 - conj(alpha) X2 + |alpha|^2 X3 (alpha = 1/(r(0) -
    lambda)), whose four real terms are built once per scan.  Only where it
    cannot tell (spr within 5e-8 to about 1e-6 of t, or a singular solve)
    does the cell compute spr, as ``contains_lambda`` does, and from the
    switch up every cell does, by Arnoldi.  Spectrum cells are tagged
    sigma_pm (spectrum if unclassified): r - lambda is outer iff that spr
    is <= 1, which a decisive cell (spr > 1 + 1e-9) or a zero-level one
    (r(0) = lambda) never meets.  Cell errors and knife-edge values are tagged
    indeterminate.  A constant multiplier (spectrum = one point) marks
    exactly the cell containing its value.  A non-finite, empty or
    over-large grid (more than 1e7 cells) raises ScanGridError.
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
    centers_re = re_min + (np.arange(cols) + 0.5) * resolution
    centers_im = im_max - (np.arange(rows) + 0.5) * resolution
    member = np.zeros((rows, cols), dtype=bool)
    classes = np.full((rows, cols), CLASS_RESOLVENT, dtype=object)

    _bounded(r_min)
    if _is_constant(r_min):
        mu = r_min.value_at_zero()
        col = int(np.floor((mu.real - re_min) / resolution))
        row = int(np.floor((im_max - mu.imag) / resolution))
        if 0 <= row < rows and 0 <= col < cols:
            member[row, col] = True
            classes[row, col] = CLASS_SIGMAPM if classify else CLASS_SPECTRUM
    else:
        resolvent = _Resolvent(r_min)
        for i in range(rows):
            for j in range(cols):
                lam = complex(centers_re[j], centers_im[i])
                member[i, j], classes[i, j] = _cell_decision(
                    resolvent, lam, classify)
    return SpectrumScan(rect=(re_min, re_max, im_min, im_max),
                        resolution=resolution, centers_re=centers_re,
                        centers_im=centers_im, member=member, classes=classes,
                        classified=classify)


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
    return MatrixTuple(X * (radius / row_norm(X)))


_SAMPLE_KINDS = ("co-isometry", "single", "unitary", "gaussian")


def finite_spectrum_sample(r, level_max=None, samples=1000, seed=0):
    """Eigenvalues of r(Z) over random closed-ball points of levels
    1..level_max (default: minimal size + 2).  Returns (eigenvalues, levels).

    Draws cycle through exact-boundary co-isometries, scaled Haar unitaries
    (single component and joint), and scaled Gaussian directions.
    """
    r_min = _minimal_bounded(r)
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
    """||y* f(Z)|| for a unit-normalized left vector y."""
    Z = as_matrix_tuple(Z)
    y = np.asarray(y, dtype=complex).reshape(-1)
    y = y / np.linalg.norm(y)
    return float(np.linalg.norm(np.conj(y) @ _eval_any(f, Z)))


def certify_witness(f, Z, y, tol=1e-8):
    """Validate a singularity-locus pair (Z, y); raises on failure."""
    Z = as_matrix_tuple(Z)
    if Z.row_norm() > 1.0 + 1e-9:
        raise ValueError(f"witness point outside the closed ball "
                         f"(row norm {Z.row_norm():.6g})")
    res = witness_residual(f, Z, y)
    if res > tol:
        raise ValueError(f"witness residual {res:.3g} exceeds {tol:g}")
    return VarietyWitness(Z=Z, y=np.asarray(y, dtype=complex),
                          residual=res, level=Z.n)


def _project_ball(X):
    if not np.isfinite(X).all():
        # the least-squares polish of a function with huge values can step
        # to a non-finite point
        raise NumericalFailureError("the witness search lost finiteness")
    norm = row_norm(X)
    return X if norm <= 1.0 else X / norm


def _sigma_min(f, X):
    return float(np.linalg.svd(_eval_any(f, MatrixTuple(X)),
                               compute_uv=False)[-1])


def variety_witness_search(f, level, attempts=8, seed=0, iters=50,
                           tol=1e-8):
    """Best-effort search for (Z, y) with y* f(Z) = 0 at a fixed level.

    Projected gradient descent on sigma_min(f(Z)) over the closed row ball
    (finite-difference gradient, backtracking line search), followed by a
    Gauss-Newton polish of (Z, y) jointly.  Failure to find a witness is not
    a proof of emptiness; the certified negative route is the outerness test.
    """
    d = f.d
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(attempts, 1)):
        Z = random_row_contraction(rng, d, level).X
        # -- projected gradient phase
        step = 0.2
        value = _sigma_min(f, Z)
        for _ in range(iters):
            grad = np.zeros_like(Z)
            h = 1e-6 * max(1.0, np.linalg.norm(Z.ravel(), np.inf))
            for idx in np.ndindex(*Z.shape):
                for part, delta in ((1.0, h), (1.0j, h)):
                    Zp = Z.copy()
                    Zp[idx] += part * delta
                    diff = (_sigma_min(f, Zp) - value) / delta
                    if part == 1.0:
                        grad[idx] += diff
                    else:
                        grad[idx] += 1j * diff
            gnorm = np.linalg.norm(grad.ravel())
            if gnorm < 1e-14 or value <= tol * 0.1:
                break
            improved = False
            t = step
            for _ in range(20):
                cand = _project_ball(Z - t * grad / gnorm)
                cand_value = _sigma_min(f, cand)
                if cand_value < value - 1e-4 * t * gnorm:
                    Z, value, improved = cand, cand_value, True
                    step = min(t * 2.0, 0.5)
                    break
                t /= 2.0
            if not improved:
                break
        # -- Gauss-Newton polish on (Z, y)
        Z, value = _polish_witness(f, Z, tol)
        if best is None or value < best[1]:
            best = (Z, value)
        if value <= tol:
            break
    Z, value = best
    if value > tol:
        return None
    point = MatrixTuple(Z)
    F = _eval_any(f, point)
    _, _, Vh = np.linalg.svd(F.conj().T)
    y = np.conj(Vh[-1])
    return VarietyWitness(Z=point, y=y, residual=witness_residual(f, point, y),
                          level=level)


def _polish_witness(f, Z, tol, steps=60):
    """Least-squares polish of (Z, y) jointly on the residual
    [y* f(Z), |y|^2 - 1], keeping Z inside the closed ball."""
    from scipy.optimize import least_squares

    shape = Z.shape
    n = shape[1]
    nz = Z.size

    F0 = _eval_any(f, MatrixTuple(Z))
    _, _, Vh = np.linalg.svd(F0.conj().T)
    y0 = np.conj(Vh[-1])

    def split(x):
        Zc = (x[:nz] + 1j * x[nz:2 * nz]).reshape(shape)
        y = x[2 * nz:2 * nz + n] + 1j * x[2 * nz + n:]
        return Zc, y

    def join(Zc, y):
        return np.concatenate([Zc.ravel().real, Zc.ravel().imag,
                               y.real, y.imag])

    def residual(x):
        Zc, y = split(x)
        Zc = _project_ball(Zc)
        row = np.conj(y) @ _eval_any(f, MatrixTuple(Zc))
        return np.concatenate([row.real, row.imag,
                               [np.vdot(y, y).real - 1.0]])

    fit = least_squares(residual, join(Z, y0), method="trf", xtol=1e-15,
                        ftol=1e-15, gtol=1e-15, max_nfev=steps)
    Zp, _ = split(fit.x)
    Zp = _project_ball(Zp)
    return Zp, _sigma_min(f, Zp)


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
    details: dict = field(default_factory=dict)


def continuity_probe(r, rect, resolution, scales=(1e-1, 1e-2, 1e-3),
                     degree=3, seed=0, classify=False):
    """Hausdorff distance between the scan of r and scans of perturbed
    copies, one per noise scale.

    Each perturbation adds independent uniform complex noise of modulus
    <= eps to every Taylor coefficient of word length <= degree, then
    re-realizes; ``grid_scan`` minimizes each copy.  r is minimized once,
    for its own scan and for the copies.  Distances are reported as a
    diagnostic table; spectral continuity predicts decay but no rate.
    """
    r_min = minimize(r)
    base = _grid_scan(r_min, rect, resolution, classify)
    base_points = base.member_points()
    rng = np.random.default_rng(seed)
    words = list(words_up_to(r_min.d, degree))
    distances = []
    for eps in scales:
        noise = {}
        for w in words:
            radius = eps * np.sqrt(rng.random())
            phase = 2.0 * np.pi * rng.random()
            noise[w] = radius * np.exp(1j * phase)
        if eps == 0:
            noise = {w: 0.0 for w in words}
        perturbed = add(r_min, from_polynomial(NCPolynomial(r_min.d, noise)))
        scan = grid_scan(perturbed, rect, resolution, classify=classify)
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
