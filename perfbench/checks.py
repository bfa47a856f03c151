"""Correctness checks made apart from ncfock.

Every check recomputes what it needs with plain numpy (or from a property
the method must have) and raises ``CheckError`` on a mismatch.  None of
them compares against a stored copy of an earlier output.  ``selftest.py``
feeds each check a deliberately wrong answer to show that it rejects it.
"""

from collections import deque
from itertools import product

import numpy as np

FIXTURE_SPR = 2.0 ** -0.25          # spr of the paper fixture tuple
FIXTURE_H2 = 2.0 ** 0.5             # H^2 norm of inv(1 - (z1 z2 + z2 z1)/2)


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


def close(value, reference, rel, what):
    """|value - reference| <= rel * max(|reference|, 1e-300)."""
    err = abs(value - reference)
    require(err <= rel * max(abs(reference), 1e-300),
            f"{what}: {value!r} vs {reference!r} (error {err:.3g}, "
            f"allowed {rel:g} relative)")


# ---------------------------------------------------------------------------
# Words, coefficients and evaluation
# ---------------------------------------------------------------------------

def words(d, max_len):
    for length in range(max_len + 1):
        yield from product(range(1, d + 1), repeat=length)


def word_matrix(X, word):
    """X_{a1} X_{a2} ... X_{ak} for the word (a1, ..., ak)."""
    out = np.eye(X.shape[1], dtype=complex)
    for letter in word:
        out = out @ X[letter - 1]
    return out


def taylor_coefficients(A, b, c, max_len):
    """{word: b* A^w c} through max_len, straight from the definition."""
    return {w: complex(np.vdot(b, word_matrix(A, w) @ c))
            for w in words(A.shape[0], max_len)}


def kernel_coefficients(Z, y, v, max_len):
    """{word: <Z^w v, y>} through max_len for a kernel datum {Z, y, v}."""
    return {w: complex(np.vdot(word_matrix(Z, w) @ v, y))
            for w in words(Z.shape[0], max_len)}


def polynomial_at(coeffs, X):
    """sum_w p_w X^w for a {word: coefficient} table."""
    out = np.zeros(X.shape[1:], dtype=complex)
    for w, value in coeffs.items():
        out += value * word_matrix(X, w)
    return out


def row_norm(X):
    return float(np.linalg.norm(np.hstack(list(X)), 2))


def pencil(A, Z):
    """I - sum_j A_j (x) Z_j."""
    L = np.eye(A.shape[1] * Z.shape[1], dtype=complex)
    for Aj, Zj in zip(A, Z):
        L -= np.kron(Aj, Zj)
    return L


def pencil_sigma_min(A, Z):
    return float(np.linalg.svd(pencil(A, Z), compute_uv=False)[-1])


def realization_at(A, b, c, Z):
    """(b* (x) I) (I - sum_j A_j (x) Z_j)^-1 (c (x) I)."""
    m = Z.shape[1]
    return (np.kron(np.conj(b)[None, :], np.eye(m))
            @ np.linalg.solve(pencil(A, Z), np.kron(c[:, None], np.eye(m))))


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def h2_partial_sum(Z, y, v, length):
    """sum over |w| <= length of |<Z^w v, y>|^2, level by level through the
    completely positive map P -> sum_j Z_j P Z_j*, with the tail bound
    ||y||^2 ||v||^2 t^(2(length+1)) / (1 - t^2), t the row norm of Z."""
    P = np.outer(v, np.conj(v))
    partial = 0.0
    for _ in range(length + 1):
        partial += float(np.real(np.conj(y) @ P @ y))
        P = sum(Zj @ P @ Zj.conj().T for Zj in Z)
    t = row_norm(Z)
    tail = (np.linalg.norm(y) ** 2 * np.linalg.norm(v) ** 2
            * t ** (2 * (length + 1)) / (1.0 - t ** 2))
    return partial, float(tail)


def check_h2_norm(h2, Z, y, v, length=80):
    partial, tail = h2_partial_sum(Z, y, v, length)
    slack = 1e-9 * max(partial, 1.0)
    require(partial - slack <= h2 ** 2 <= partial + tail + slack,
            f"||r||^2 = {h2 ** 2!r} outside [{partial!r}, "
            f"{partial + tail!r}] from the truncated kernel sum")


def check_coefficients(got, want, what, rel=1e-8):
    scale = max(max((abs(v) for v in want.values()), default=0.0), 1.0)
    worst = max(abs(got[w] - want[w]) for w in want)
    require(worst <= rel * scale,
            f"{what}: coefficients differ by {worst:.3g} (scale {scale:.3g})")


def check_witness_point(A, Z, spr_value, tol_norm=1e-6, tol_sigma=1e-8):
    """A boundary witness has row norm 1/spr and a singular pencil."""
    close(row_norm(Z), 1.0 / spr_value, tol_norm, "witness row norm vs 1/spr")
    sigma = pencil_sigma_min(A, Z)
    require(sigma <= tol_sigma,
            f"pencil sigma_min at the witness is {sigma:.3g} > {tol_sigma:g}")


# ---------------------------------------------------------------------------
# Spectrum scans
# ---------------------------------------------------------------------------

def cell_centers(rect, resolution):
    re_min, re_max, im_min, im_max = rect
    cols = int(round((re_max - re_min) / resolution))
    rows = int(round((im_max - im_min) / resolution))
    centers_re = re_min + (np.arange(cols) + 0.5) * resolution
    centers_im = im_max - (np.arange(rows) + 0.5) * resolution
    return centers_re[None, :] + 1j * centers_im[:, None]


def check_disk(member, centers, center, radius, band=0.02):
    """Cells deeper than ``band`` inside the closed disk are members, cells
    further than ``band`` outside are not."""
    dist = np.abs(centers - center)
    inside = dist <= radius - band
    outside = dist > radius + band
    missing = np.argwhere(inside & ~member)
    extra = np.argwhere(outside & member)
    require(missing.size == 0,
            f"{len(missing)} cells inside the disk |l - {center}| <= "
            f"{radius:.6g} not marked, first at {missing[:1].tolist()}")
    require(extra.size == 0,
            f"{len(extra)} cells outside the disk marked, first at "
            f"{extra[:1].tolist()}")


def check_connected(member):
    """The marked cells form one 8-connected set."""
    cells = {tuple(c) for c in np.argwhere(member)}
    require(cells, "no member cell")
    start = next(iter(cells))
    seen, queue = {start}, deque([start])
    while queue:
        i, j = queue.popleft()
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                nb = (i + di, j + dj)
                if nb in cells and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
    require(len(seen) == len(cells),
            f"member set has {len(cells) - len(seen)} cells outside the "
            f"component of {start}")


def cell_of(point, rect, resolution, shape):
    re_min, _, _, im_max = rect
    col = int(np.floor((point.real - re_min) / resolution))
    row = int(np.floor((im_max - point.imag) / resolution))
    if 0 <= row < shape[0] and 0 <= col < shape[1]:
        return row, col
    return None


def check_value_cell(member, rect, resolution, value):
    cell = cell_of(complex(value), rect, resolution, member.shape)
    require(cell is not None, f"r(0) = {value} outside the scan window")
    require(bool(member[cell]), f"the cell {cell} holding r(0) = {value} "
            "is not marked")


def check_eigenvalues_covered(member, rect, resolution, eigenvalues):
    """Every sampled eigenvalue of r(Z) lies in a marked cell or next to
    one; eigenvalues outside the window must not exist."""
    rows, cols = member.shape
    for lam in eigenvalues:
        cell = cell_of(complex(lam), rect, resolution, member.shape)
        require(cell is not None, f"eigenvalue {lam} outside the window")
        i, j = cell
        block = member[max(i - 1, 0):min(i + 2, rows),
                       max(j - 1, 0):min(j + 2, cols)]
        require(bool(block.any()),
                f"eigenvalue {lam} of r(Z) is not in or next to a marked "
                f"cell ({i}, {j})")


def hausdorff(member_a, member_b, centers):
    """Hausdorff distance between the centers of the marked cells of two
    scans of one grid."""
    a, b = centers[member_a], centers[member_b]
    if a.size == 0 or b.size == 0:
        return 0.0 if a.size == b.size else np.inf
    dist = np.abs(a[:, None] - b[None, :])
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def check_probe_distances(distances, base_member, copy_members, centers,
                          tol=1e-12):
    """The probe's distances are those between the base scan and the scan
    of each perturbed copy, one per scale."""
    want = [hausdorff(base_member, m, centers) for m in copy_members]
    require(len(distances) == len(want)
            and all(abs(x - y) <= tol for x, y in zip(distances, want)),
            f"continuity probe distances {list(distances)} vs {want} "
            "recomputed from the scans")


# ---------------------------------------------------------------------------
# Factorization and variety witnesses
# ---------------------------------------------------------------------------

def autocorrelations(coeffs):
    """gamma -> sum_w conj(p_w) p_{w gamma} for a {word: coefficient} table."""
    table = {}
    for w, pw in coeffs.items():
        for wg, pwg in coeffs.items():
            if wg[:len(w)] == w:
                gamma = wg[len(w):]
                table[gamma] = table.get(gamma, 0.0) + np.conj(pw) * pwg
    return table


def check_autocorrelations(q, p, tol=1e-7):
    aq, ap = autocorrelations(q), autocorrelations(p)
    worst = max(abs(aq.get(g, 0.0) - ap.get(g, 0.0))
                for g in set(aq) | set(ap))
    require(worst <= tol, f"autocorrelations of q and p differ by {worst:.3g}")


def check_inner_times_outer(A, b, c, q, p, tol=1e-6):
    """Taylor coefficients of theta * q, theta = (A, b, c), equal those of p
    through two letters past deg p."""
    d = A.shape[0]
    deg = max(len(w) for w in p)
    theta = taylor_coefficients(A, b, c, deg + 2)
    worst = 0.0
    for w in words(d, deg + 2):
        value = sum(theta[w[:k]] * q.get(w[k:], 0.0)
                    for k in range(len(w) + 1))
        worst = max(worst, abs(value - p.get(w, 0.0)))
    require(worst <= tol, f"inner * outer differs from p by {worst:.3g}")


def blaschke_flip(coeffs):
    """Outer factor of a one-variable polynomial sum_k coeffs[k] z^k: roots
    inside the disk are reflected to 1/conj(root), the modulus on the circle
    is kept, and the result is normalized to q(0) > 0."""
    coeffs = np.asarray(coeffs, dtype=complex)
    roots = np.roots(coeffs[::-1])
    lead = coeffs[-1]
    flipped = []
    for root in roots:
        if abs(root) < 1.0:
            flipped.append(1.0 / np.conj(root))
            lead = lead * (-np.conj(root))
        else:
            flipped.append(root)
    q = np.poly(flipped)[::-1] * lead if flipped else np.array([lead])
    return q * (abs(q[0]) / q[0])


def bisection_root(lo=1.0 + 1e-9, hi=2.0, steps=200):
    """Real root of t^3 - 2 t^2 + t - 1, which is q0^2 for 1 + z1 + z1 z2."""
    def g(t):
        return t ** 3 - 2 * t ** 2 + t - 1
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_variety_witness(coeffs, Z, y, tol=1e-8):
    """||y* f(Z)|| <= tol with y a unit vector, and Z in the closed ball."""
    y = np.asarray(y, dtype=complex) / np.linalg.norm(y)
    residual = float(np.linalg.norm(np.conj(y) @ polynomial_at(coeffs, Z)))
    require(residual <= tol, f"witness residual ||y* f(Z)|| = {residual:.3g}")
    require(row_norm(Z) <= 1.0 + 1e-9,
            f"witness row norm {row_norm(Z):.12g} > 1")
