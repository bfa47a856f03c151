import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import ncfock as nf
from conftest import count_calls, padded
from ncfock import spectral
from ncfock.spectral import (
    MATRIX_FREE_MIN_N,
    from_hermitian_coords,
    hermitian_coords,
    real_form,
    row_norm,
)


def test_vec_column_stacking():
    assert np.array_equal(nf.vec(np.array([[1, 2], [3, 4]])),
                          np.array([1, 3, 2, 4], dtype=complex))


def test_matrize_identity_and_random():
    assert np.allclose(nf.matrize([(np.eye(3), np.eye(3))]), np.eye(9))
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    M = nf.matrize([(A, B)])
    assert np.allclose(M @ nf.vec(X), nf.vec(A @ X @ B), atol=1e-12)


def test_cpmap_matrization_consistency():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    cp = nf.CPMap(A)
    P = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(cp.matrization @ nf.vec(P), nf.vec(cp(P)), atol=1e-12)
    # R^T, the transpose of the real form, is the adjoint map on Hermitian P
    H = P + P.conj().T
    assert np.allclose(cp.real_matrization.T @ hermitian_coords(H),
                       hermitian_coords(cp.adjoint(H)), atol=1e-12)
    # complete positivity on a PSD input
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    psd = G @ G.conj().T
    evals = np.linalg.eigvalsh(cp(psd))
    assert evals.min() >= -1e-12 * max(evals.max(), 1.0)


def test_spr_nilpotent_and_scalar():
    assert nf.spr(np.array([[[0.0, 1.0], [0.0, 0.0]]])) == 0.0
    assert nf.spr(np.array([[[0.5]]])) == pytest.approx(0.5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 3, MATRIX_FREE_MIN_N])
def test_spr_of_an_overflowing_matrization_is_a_numerical_failure(n):
    # ||R||_F of entries 1e77 overflows; the power estimate once turned that
    # into spr = 0, and an in-verdict
    A = 1e77 * (1 + 1j) * np.ones((1, n, n))
    with pytest.raises(nf.NumericalFailureError):
        nf.spr(A)
    with pytest.raises(nf.NumericalFailureError):
        nf.is_in_fock(nf.Realization(A, np.ones(n), np.ones(n)))


def test_spr_fixture(fixture_tuple):
    assert nf.spr(fixture_tuple) == pytest.approx(2 ** -0.25, abs=1e-12)
    assert nf.spr(fixture_tuple, method="iterate") == pytest.approx(
        2 ** -0.25, abs=1e-9)


def test_spr_two_methods_agree():
    rng = np.random.default_rng(42)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
        s1 = nf.spr(A, method="matrized")
        s2 = nf.spr(A, method="iterate")
        assert abs(s1 - s2) <= 1e-9 * max(s1, 1e-300)


def test_spr_scaling_conjugation_d1_oracle():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((1, n, n)) + 1j * rng.standard_normal((1, n, n))
        classical = float(np.max(np.abs(np.linalg.eigvals(A[0]))))
        assert nf.spr(A) == pytest.approx(classical, rel=1e-9)
        s = complex(rng.standard_normal(), rng.standard_normal())
        assert nf.spr(s * A) == pytest.approx(abs(s) * nf.spr(A), rel=1e-12)
        assert nf.spr(np.conj(A)) == pytest.approx(nf.spr(A), rel=1e-12)


@pytest.mark.parametrize("n", [20, 21, 30])
def test_spr_matrix_free_padded_fixture(fixture_tuple, n):
    # the Perron root has peripheral companions of equal modulus, which
    # stalled the power iteration this route replaced
    assert n >= MATRIX_FREE_MIN_N
    assert nf.spr(padded(fixture_tuple, n, seed=n)) == pytest.approx(
        2 ** -0.25, rel=1e-12)


def test_spr_matrix_free_defective_perron_root():
    # a Jordan block makes the Perron root of Ad defective
    A = padded([[[0.5, 1.0], [0.0, 0.5]]], 21)
    assert abs(nf.spr(A) - 0.5) <= 1e-7


def test_spr_matrix_free_nilpotent_shift():
    A = np.zeros((2, 25, 25), dtype=complex)
    A[0] = np.diag(np.ones(24), 1)
    A[1] = 0.5 * np.diag(np.ones(23), 2)
    assert nf.spr(A) == 0.0
    with pytest.raises(nf.JointlyNilpotentError):
        nf.boundary_singularity(A)


def test_spr_roundoff_nilpotent_takes_dense_route(monkeypatch):
    # a shift conjugated by S is nilpotent only up to roundoff, and Arnoldi
    # does not converge on it: spr must fall back to the dense route
    A = np.zeros((1, 13, 13), dtype=complex)
    A[0] = np.diag(np.ones(12), 1)
    A = padded(A, 13, seed=13)
    value = nf.spr(A)
    monkeypatch.setattr("ncfock.spectral.MATRIX_FREE_MIN_N", 10 ** 9)
    assert nf.spr(A) == value


@pytest.mark.parametrize("n", [3, MATRIX_FREE_MIN_N + 1])
def test_cpmap_gives_the_results_of_its_tuple(n):
    # on both sides of the dense/Arnoldi switch, one CPMap shared by all
    # four functions gives bitwise what each computes from the raw tuple
    rng = np.random.default_rng(n)
    A0 = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    A = 0.8 / nf.spr(A0) * A0
    cp = nf.CPMap(A)
    assert nf.spr(cp) == nf.spr(A) == cp.spr
    Q0 = np.diag(np.arange(1.0, n + 1))
    for side in ("right", "left"):
        assert np.array_equal(nf.stein_solve(cp, Q0, side=side),
                              nf.stein_solve(A, Q0, side=side))
    S_cp, W_cp = nf.similarity_to_contraction(cp, 0.1)
    S, W = nf.similarity_to_contraction(A, 0.1)
    assert np.array_equal(S_cp, S) and np.array_equal(W_cp.X, W.X)
    assert np.array_equal(nf.boundary_singularity(cp).X,
                          nf.boundary_singularity(A).X)


def test_stein_examples(fixture_tuple):
    P = nf.stein_solve(np.array([[[0.5]]]), np.array([[1.0]]))
    assert P[0, 0].real == pytest.approx(4.0 / 3.0, abs=1e-12)
    Q0 = np.eye(3, dtype=complex)
    assert np.allclose(nf.stein_solve(np.zeros((2, 3, 3)), Q0), Q0)
    # fixture: e1* P e1 is the squared Fock norm of the inverse function,
    # which telescopes to sum 2^{-k} = 2 exactly
    cc = np.zeros((3, 3), dtype=complex)
    cc[0, 0] = 1.0
    P = nf.stein_solve(fixture_tuple, cc, side="right")
    series = 0.0
    term = cc.copy()
    cp = nf.CPMap(fixture_tuple)
    for _ in range(120):
        series += term[0, 0].real
        term = cp(term)
    assert P[0, 0].real == pytest.approx(series, abs=1e-8)
    assert P[0, 0].real == pytest.approx(2.0, abs=1e-10)


def test_stein_residual_and_positivity():
    rng = np.random.default_rng(44)
    for _ in range(10):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        A = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
        A *= rng.uniform(0.2, 0.85) / nf.spr(A)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q0 = G @ G.conj().T
        cp = nf.CPMap(A)
        for side in ("right", "left"):
            sol = nf.stein_solve(A, Q0, side=side)
            image = cp(sol) if side == "right" else cp.adjoint(sol)
            residual = np.linalg.norm(sol - image - Q0)
            assert residual <= 1e-10 * np.linalg.norm(Q0)
            evals = np.linalg.eigvalsh(sol)
            assert evals.min() >= -1e-10 * max(evals.max(), 1.0)


def test_stein_rejects_large_spr():
    with pytest.raises(nf.SpectralRadiusError):
        nf.stein_solve(np.array([[[1.0]]]), np.array([[1.0]]))


def test_similarity_already_contractive_normal_tuple():
    # row co-isometry scaled by 0.7: row norm equals spr exactly
    V = np.array([[0, 1.0], [1.0, 0]], dtype=complex) / np.sqrt(2)
    A = 0.7 * np.stack([V, V @ np.diag([1.0, -1.0])])
    assert row_norm(A) == pytest.approx(0.7)
    S, W = nf.similarity_to_contraction(A, 1e-7)
    assert W.row_norm() == pytest.approx(0.7, abs=1e-6)
    # reconstruct: W = S^-1 A S
    for j in range(2):
        assert np.allclose(S @ W[j] @ np.linalg.inv(S), A[j], atol=1e-8)


def test_similarity_fixture(fixture_tuple, fixture_W):
    D = np.diag([1.0, 2 ** 0.25, 2 ** 0.25])
    for j in range(2):
        assert np.allclose(D @ fixture_tuple[j] @ np.linalg.inv(D),
                           fixture_W[j], atol=1e-14)
    assert fixture_W.row_norm() == pytest.approx(2 ** -0.25, abs=1e-14)
    S, W = nf.similarity_to_contraction(fixture_tuple, 1e-6)
    assert W.row_norm() <= 2 ** -0.25 + 1e-6
    assert W.row_norm() >= 2 ** -0.25 - 1e-6


def test_similarity_nilpotent_pair():
    A = np.zeros((2, 3, 3), dtype=complex)
    A[0, 0, 1] = 1.0
    A[1, 1, 2] = -2.0
    margin = 0.01
    S, W = nf.similarity_to_contraction(A, margin)
    assert W.row_norm() <= margin


def test_similarity_margin_validation(fixture_tuple):
    with pytest.raises(ValueError):
        nf.similarity_to_contraction(fixture_tuple, 0.0)
    with pytest.raises(nf.SpectralRadiusError):
        nf.similarity_to_contraction(np.array([[[1.5]]]), 0.1)


def test_boundary_singularity_scalar_pole():
    r = nf.minimize(nf.from_expression("inv(1 - 0.5*z1)", 1))
    Z = nf.boundary_singularity(r, tol=1e-10)
    assert np.allclose(Z.X, [[[2.0]]])


def test_boundary_singularity_fixture(fixture_realization):
    Z = nf.boundary_singularity(fixture_realization, tol=1e-8)
    assert Z.row_norm() == pytest.approx(2 ** 0.25, abs=1e-8)
    L = nf.pencil(fixture_realization, Z)
    assert np.linalg.svd(L, compute_uv=False)[-1] <= 1e-8


def test_boundary_singularity_random_pairs():
    rng = np.random.default_rng(45)
    for _ in range(10):
        A = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        A *= rng.uniform(0.3, 0.9) / nf.spr(A)
        s = nf.spr(A)
        Z = nf.boundary_singularity(A, tol=1e-6)
        assert abs(Z.row_norm() - 1.0 / s) <= 1e-6
        L = np.eye(4, dtype=complex) - sum(
            np.kron(A[j], Z[j]) for j in range(2))
        assert np.linalg.svd(L, compute_uv=False)[-1] <= 1e-6


def test_boundary_singularity_reducible_tuple():
    # upper-triangular single matrix: Perron fixed point is singular, the
    # construction must recurse into the invariant subspace
    A = np.array([[[0.5, 1.0], [0.0, 0.5]]], dtype=complex)
    Z = nf.boundary_singularity(A, tol=1e-7)
    assert Z.row_norm() == pytest.approx(2.0, abs=1e-7)
    L = np.eye(4, dtype=complex) - np.kron(A[0], Z[0])
    assert np.linalg.svd(L, compute_uv=False)[-1] <= 1e-7


def test_boundary_singularity_rejects_nilpotent():
    with pytest.raises(nf.JointlyNilpotentError):
        nf.boundary_singularity(np.array([[[0.0, 1.0], [0.0, 0.0]]]))


# ---------------------------------------------------------------------------
# Real Hermitian coordinates
# ---------------------------------------------------------------------------

def complex_stein_reference(A, Q0, side):
    """The complex route: (I - M) vec(P) = vec(Q0), with M the matrization
    of Ad (side "right") or of its adjoint (side "left")."""
    if side == "right":
        M = nf.matrize([(Aj, Aj.conj().T) for Aj in A])
    else:
        M = nf.matrize([(Aj.conj().T, Aj) for Aj in A])
    n = A.shape[1]
    return nf.unvec(np.linalg.solve(np.eye(n * n) - M, nf.vec(Q0)), n)


@st.composite
def random_tuples(draw, max_d=3, max_n=9):
    """A random complex d x n x n tuple, d <= max_d and n <= max_n, and the
    generator that made it."""
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.standard_normal((d, n, n)) \
        + 1j * rng.standard_normal((d, n, n)), rng


def _hermitian(rng, n):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    P = G + G.conj().T
    return P / np.linalg.norm(P)


def test_hermitian_coords_round_trip_and_isometry():
    rng = np.random.default_rng(5)
    P = _hermitian(rng, 4)
    x = hermitian_coords(P)
    assert x.dtype == float and x.shape == (16,)
    assert np.allclose(from_hermitian_coords(x, 4), P, atol=1e-15)
    assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(P), rel=1e-15)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_tuples())
def test_real_form_is_ad_in_hermitian_coordinates(case):
    A, rng = case
    cp = nf.CPMap(A)
    R = cp.real_matrization
    scale = sum(np.linalg.norm(Aj, 2) ** 2 for Aj in A)
    P = _hermitian(rng, cp.n)
    assert np.linalg.norm(R @ hermitian_coords(P)
                          - hermitian_coords(cp(P))) <= 1e-13 * scale
    # R^T is the real form of the adjoint map
    adjoint = real_form(nf.matrize([(Aj.conj().T, Aj) for Aj in A]))
    assert np.max(np.abs(R.T - adjoint)) <= 1e-13 * scale
    # R and the complex matrization have one spectrum, with multiplicities
    M = cp.matrization
    w_real, w_complex = np.linalg.eigvals(R), np.linalg.eigvals(M)
    gaps = np.abs(w_real[:, None] - w_complex[None, :])
    rows, cols = linear_sum_assignment(gaps)
    assert np.max(gaps[rows, cols]) <= 1e-9 * np.linalg.norm(M, 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_tuples())
def test_stein_solve_matches_the_complex_route(case):
    A, rng = case
    A = A * rng.uniform(0.1, 0.9) / nf.spr(A)
    n = A.shape[1]
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for Q0 in (_hermitian(rng, n), G):
        for side in ("right", "left"):
            P = nf.stein_solve(A, Q0, side=side)
            ref = complex_stein_reference(A, Q0, side)
            assert np.linalg.norm(P - ref) <= 1e-12 * np.linalg.norm(ref)
            if Q0 is not G:
                assert np.array_equal(P, P.conj().T)


def _mp_spr(A):
    """spr(A) from a 50-digit eigensolve of the complex matrization."""
    M = nf.matrize([(Aj, Aj.conj().T) for Aj in A])
    with mpmath.workdps(50):
        w = mpmath.eig(mpmath.matrix(M.tolist()), left=False, right=False)
        return mpmath.sqrt(max(abs(x) for x in w))


@pytest.mark.parametrize("n, d", [(2, 3), (3, 2), (4, 2)])
@pytest.mark.parametrize("offset", [-1e-8, 1e-8])
def test_dense_spr_against_mpmath_at_the_knife_edge(n, d, offset):
    rng = np.random.default_rng(100 * n + d)
    A0 = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    A = (1.0 + offset) / nf.spr(A0) * A0
    reference = _mp_spr(A)
    value = nf.spr(A)
    assert abs(value - reference) <= 1e-13 * reference
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    verdict = nf.is_in_fock(nf.Realization(A, b, c)).verdict
    tol = spectral.SPR_BOUNDARY_TOL
    assert verdict == ("in" if reference < 1 - tol
                       else "not_in" if reference > 1 + tol else "boundary")


def _pencil_sigma_min(A, Z):
    L = np.eye(A.shape[1] * Z.shape[1], dtype=complex)
    for Aj, Zj in zip(A, Z):
        L -= np.kron(Aj, Zj)
    sigma = np.linalg.svd(L, compute_uv=False)
    return sigma[-1], sigma[0]


def _reducible(n, seed):
    """A unitarily hidden block-triangular tuple [[B, C], [0, D]] with
    spr(B) = 1.2 > spr(D) = 0.5: its Perron matrix is singular."""
    rng = np.random.default_rng(seed)
    k = n // 2
    B = rng.standard_normal((2, k, k)) + 1j * rng.standard_normal((2, k, k))
    D = rng.standard_normal((2, n - k, n - k)) \
        + 1j * rng.standard_normal((2, n - k, n - k))
    A = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    A[:, :k, :k] = 1.2 / nf.spr(B) * B
    A[:, k:, k:] = 0.5 / nf.spr(D) * D
    A[:, k:, :k] = 0.0
    U, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return U.conj().T @ A @ U


@pytest.mark.parametrize("n", [4, 9, MATRIX_FREE_MIN_N, 16])
@pytest.mark.parametrize("kind", ["definite", "recursive"])
def test_null_vector_bound_certifies_sigma_min(n, kind):
    # on both sides of the switch sigma_min is the relative residual of the
    # pencil's null vector P^(1/2), an upper bound on the SVD value; the SVD
    # value itself is exact only to about eps ||L||
    if kind == "definite":
        rng = np.random.default_rng(n)
        A0 = rng.standard_normal((2, n, n)) \
            + 1j * rng.standard_normal((2, n, n))
        A = 1.2 / nf.spr(A0) * A0
    else:
        A = _reducible(n, seed=n)
    cp = nf.CPMap(A)
    if kind == "recursive":
        evals = np.linalg.eigvalsh(cp.perron[1])
        assert evals[0] <= 1e-9 * evals[-1]
    Z, bound = spectral._boundary_singularity(cp, 1e-8)
    assert Z.row_norm() == pytest.approx(1.0 / 1.2, rel=1e-9)
    svd_min, svd_max = _pencil_sigma_min(A, Z.X)
    assert svd_min <= bound + 4 * np.finfo(float).eps * svd_max
    assert bound <= 1e-8
