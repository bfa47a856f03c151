import math
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import ncfock as nf
from conftest import DEGREE9_POLY, count_calls, padded
from ncfock import spectral
from ncfock.spectral import (
    MATRIX_FREE_MIN_N,
    from_hermitian_coords,
    hermitian_coords,
    real_form,
)
from ncfock.spectrum import _cell_decision, _Resolvent


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
    # the matrization and the real form are those of the mantissa 2^-k A,
    # 4^-k times those of A
    assert np.allclose(cp.matrization @ nf.vec(P) * 4.0 ** cp.k,
                       nf.vec(cp(P)), atol=1e-12)
    # R^T, the transpose of the real form, is the adjoint map on Hermitian P,
    # the CP map of the tuple of the A_j*
    H = P + P.conj().T
    adjoint = nf.CPMap(np.conj(np.swapaxes(A, 1, 2)))
    assert np.allclose(cp.real_matrization.T @ hermitian_coords(H)
                       * 4.0 ** cp.k, hermitian_coords(adjoint(H)),
                       atol=1e-12)
    # complete positivity on a PSD input
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    psd = G @ G.conj().T
    evals = np.linalg.eigvalsh(cp(psd))
    assert evals.min() >= -1e-12 * max(evals.max(), 1.0)


def test_spr_nilpotent_and_scalar():
    assert nf.spr(np.array([[[0.0, 1.0], [0.0, 0.0]]])) == 0.0
    assert nf.spr(np.array([[[0.5]]])) == pytest.approx(0.5)


@pytest.mark.parametrize("n", [1, 3, MATRIX_FREE_MIN_N])
def test_spr_of_a_matrization_near_overflow(n):
    # entries 1e77 make ||R||_F overflow, but neither R nor any Ad^k(I):
    # the guard scales by the largest entry, so spr is answered;
    # A = c 1 1^T has the single nonzero eigenvalue n c
    A = 1e77 * (1 + 1j) * np.ones((1, n, n))
    expected = np.sqrt(2.0) * 1e77 * n
    assert nf.spr(A) == pytest.approx(expected, rel=1e-12)
    out = nf.is_in_fock(nf.Realization(A, np.ones(n), np.ones(n)))
    assert out.verdict == "not_in"
    assert out.radius == pytest.approx(1.0 / expected, rel=1e-12)


@pytest.mark.parametrize("n", [1, 3, MATRIX_FREE_MIN_N])
def test_spr_of_an_overflowing_matrization_is_its_exact_rescaling(n):
    # entries 1e160 overflow Ad(I) itself, but not spr: both methods run on
    # the mantissa 2^-k A, so spr(A) is bitwise 2^k spr(2^-k A), on the
    # dense route and on Arnoldi (n = 12), with no warning on the way
    A = 1e160 * (1 + 1j) * np.ones((1, n, n))
    k = math.frexp(1e160)[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in ("iterate", "matrized"):
            s = nf.spr(A, method=method)
            assert s == math.ldexp(nf.spr(A * 2.0 ** -k, method=method), k)
            assert s == pytest.approx(np.sqrt(2.0) * 1e160 * n, rel=1e-9)
        out = nf.is_in_fock(nf.Realization(A, np.ones(n), np.ones(n)))
    assert out.verdict == "not_in" and out.spr == s
    assert out.witness_sigma_min <= 1e-8


@pytest.mark.parametrize("c", [1e100, 1e150, 1e154])
def test_iterate_agrees_with_matrized_where_ad_of_the_mantissa_is_tiny(c):
    # the minimal tuple of inv(1 - c*z1*z1) has a mantissa of spr about
    # 1/sqrt(c): Ad of it has entries down to about 1/c^2, subnormal at
    # c = 1e154, and its squares underflow in a Frobenius norm from
    # c = 1e100 on; the exact power-of-two steps keep both methods at sqrt(c)
    A = nf.minimize(nf.from_expression(f"inv(1 - {c!r}*z1*z1)", 1)).A
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = nf.spr(A, method="matrized")
        assert s == pytest.approx(math.sqrt(c), rel=1e-12)
        assert nf.spr(A, method="iterate") == pytest.approx(s, rel=1e-9)


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


def test_a_roundoff_nilpotent_polynomial_gets_a_verdict():
    # its compressed tuple is nilpotent only up to roundoff; minimize makes
    # it exactly nilpotent, so the spr is exactly 0 on the Arnoldi side too
    r = nf.minimize(nf.from_expression(DEGREE9_POLY, 2))
    assert r.n >= MATRIX_FREE_MIN_N
    out = nf.is_in_fock(r)
    assert out.verdict == "in" and out.spr == 0.0


def test_perron_fallback_serves_spr_and_the_boundary_point(monkeypatch,
                                                            fixture_tuple):
    # the one fallback of CPMap.perron: spr and boundary_singularity read
    # the dense pair when Arnoldi fails
    from scipy.sparse.linalg import ArpackError

    A = padded(fixture_tuple, MATRIX_FREE_MIN_N + 1, seed=13)
    failed = []

    def fails(cp):
        failed.append(cp)
        raise ArpackError(3)

    monkeypatch.setattr(spectral, "_arnoldi_perron", fails)
    cp = nf.CPMap(A)
    Z = nf.boundary_singularity(cp, tol=1e-8)
    assert failed == [cp]
    monkeypatch.setattr(spectral, "MATRIX_FREE_MIN_N", 10 ** 9)
    assert cp.spr == nf.spr(A)
    assert cp.spr == pytest.approx(2 ** -0.25, rel=1e-12)
    assert Z.row_norm() == pytest.approx(2 ** 0.25, rel=1e-8)


def _perron_cross_check_cases():
    """Random tuples at spr 0.9 and 1.2 on the Arnoldi side of the switch,
    and the defective tuple of the test above."""
    cases = []
    for n in (MATRIX_FREE_MIN_N, 16, 21):
        for d in (2, 3):
            for s in (0.9, 1.2):
                rng = np.random.default_rng(100 * n + d)
                A = rng.standard_normal((d, n, n)) \
                    + 1j * rng.standard_normal((d, n, n))
                cases.append(pytest.param(s / nf.spr(A) * A,
                                          id=f"n{n}-d{d}-spr{s}"))
    cases.append(pytest.param(padded([[[0.5, 1.0], [0.0, 0.5]]], 21),
                              id="defective"))
    return cases


@pytest.mark.parametrize("A", _perron_cross_check_cases())
def test_arnoldi_and_dense_perron_pairs_agree(A):
    # the two routes of CPMap.perron on one CPMap: the same rho and the
    # same unit, sign-fixed Perron eigenmatrix
    cp = nf.CPMap(A)
    rho, P = spectral._arnoldi_perron(cp)
    rho_dense, P_dense = spectral._dense_perron(cp)
    assert rho == pytest.approx(rho_dense, rel=1e-13)
    assert np.linalg.norm(P - P_dense) <= 1e-8


def _cyclic_word_functions():
    """inv(1 - c w) for c = 0.5 and 2 and words w of L letters: z1^L and a
    seeded word over 2 and over 3 letters.  The minimal tuple is
    imprimitive, its peripheral spectrum spr^2 times the L-th roots of
    unity."""
    cases = []
    for L in (12, 13, 16, 20):
        rng = np.random.default_rng(L)
        words = [(1, [1] * L)] + [(d, rng.integers(1, d + 1, L).tolist())
                                  for d in (2, 3)]
        for d, word in words:
            w = "*".join(f"z{i}" for i in word)
            for c in (0.5, 2.0):
                cases.append((f"inv(1 - {c}*{w})", d, c, L))
    return cases


@pytest.mark.parametrize("text, d, c, L", _cyclic_word_functions())
def test_imprimitive_tuples_get_a_boundary_point(text, d, c, L):
    r = nf.minimize(nf.from_expression(text, d))
    assert r.n == L >= MATRIX_FREE_MIN_N
    assert r.cpmap.spr == pytest.approx(c ** (1.0 / L), rel=1e-12)
    _, sigma_min = spectral._boundary_singularity(r.cpmap, 1e-8)
    assert sigma_min <= 1e-8
    if c > 1:
        out = nf.is_in_fock(r)
        assert out.verdict == "not_in" and out.witness is not None


@pytest.mark.parametrize("n", [MATRIX_FREE_MIN_N, 16, 21, 30])
def test_padded_fixture_gets_a_boundary_point(fixture_tuple, n):
    cp = nf.CPMap(padded(fixture_tuple, n, seed=n))
    Z, sigma_min = spectral._boundary_singularity(cp, 1e-8)
    assert sigma_min <= 1e-8
    assert Z.row_norm() == pytest.approx(2 ** 0.25, rel=1e-8)


@st.composite
def _similar_tuples(draw):
    """A random tuple on either side of the dense/Arnoldi switch, a
    well-conditioned S (cond <= 3) and a d x d unitary U."""
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from([1, 2, 4, 7, MATRIX_FREE_MIN_N,
                              MATRIX_FREE_MIN_N + 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S = np.eye(n) + 0.5 * G / np.linalg.norm(G, 2)
    U, _ = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    return A, S, U


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_similar_tuples())
def test_spr_is_invariant_under_similarity_and_unitary_mixing(case):
    A, S, U = case
    s = nf.spr(A)
    assert nf.spr(np.linalg.solve(S, A) @ S) == pytest.approx(s, rel=1e-9)
    # sum_j B_j P B_j* = sum_k A_k P A_k* for B_j = sum_k u_jk A_k
    assert nf.spr(np.einsum("jk,kab->jab", U, A)) == pytest.approx(
        s, rel=1e-9)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 6),
       st.integers(MATRIX_FREE_MIN_N, MATRIX_FREE_MIN_N + 4),
       st.integers(0, 2 ** 32 - 1))
def test_zero_states_keep_spr_across_the_switch(d, m, n, seed):
    # the m-state tuple takes the dense route and its padded copy Arnoldi
    rng = np.random.default_rng(seed)
    A0 = rng.standard_normal((d, m, m)) + 1j * rng.standard_normal((d, m, m))
    A = rng.uniform(0.2, 1.8) / nf.spr(A0) * A0
    s, s_padded = nf.spr(A), nf.spr(padded(A, n))
    assert s_padded == pytest.approx(s, rel=1e-12)
    assert spectral.band(s_padded) == spectral.band(s)


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
        adjoint = nf.CPMap(np.conj(np.swapaxes(A, 1, 2)))
        for side in ("right", "left"):
            sol = nf.stein_solve(A, Q0, side=side)
            image = cp(sol) if side == "right" else adjoint(sol)
            residual = np.linalg.norm(sol - image - Q0)
            assert residual <= 1e-10 * np.linalg.norm(Q0)
            evals = np.linalg.eigvalsh(sol)
            assert evals.min() >= -1e-10 * max(evals.max(), 1.0)


@pytest.mark.parametrize("side", ["right", "left"])
def test_stein_solve_of_a_nilpotent_tuple_is_its_finite_sum(monkeypatch,
                                                            side):
    # from the switch up, spr 0 takes sum_{m<n} Ad^m(Q0) and forms no
    # matrization: its residual is at roundoff, and the complex route, whose
    # LU solve is less accurate here, agrees
    rng = np.random.default_rng(7)
    n = MATRIX_FREE_MIN_N + 1
    A = np.triu(rng.standard_normal((2, n, n))
                + 1j * rng.standard_normal((2, n, n)), 1)
    Q0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    reference = complex_stein_reference(A, Q0, side)
    calls = count_calls(monkeypatch, spectral, "matrize")
    P = nf.stein_solve(A, Q0, side=side)
    assert calls == []
    B = A if side == "right" else A.conj().swapaxes(1, 2)
    resid = P - (B @ P @ B.conj().swapaxes(1, 2)).sum(axis=0) - Q0
    assert np.linalg.norm(resid) <= 1e-14 * np.linalg.norm(P)
    assert np.linalg.norm(P - reference) <= 1e-8 * np.linalg.norm(reference)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("n, nilpotent", [(3, False), (8, False),
                                          (16, False), (16, True)])
def test_stacked_stein_solve_is_the_per_matrix_solves(n, nilpotent, side):
    # below the switch, or at spr > 0, one LU serves the stack; a
    # non-Hermitian Q0 takes two columns of it, as alone, and gets the same
    # bits.  A Hermitian Q0 alone is one column, which OpenBLAS solves with
    # its matrix-vector kernel, so the stack matches it to roundoff.  The
    # finite sum of a nilpotent tuple loops over the stack.
    rng = np.random.default_rng(n)
    A = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    A = np.triu(A, 1) if nilpotent else 0.7 / nf.spr(A) * A
    cp = nf.CPMap(A)
    G = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    Q0 = np.concatenate([G + G.conj().swapaxes(1, 2), G])
    P = nf.stein_solve(cp, Q0, side=side)
    assert P.shape == Q0.shape
    for k, (Pk, Qk) in enumerate(zip(P, Q0)):
        alone = nf.stein_solve(cp, Qk, side=side)
        if nilpotent or k >= 3:
            assert np.array_equal(Pk, alone)
        else:
            assert np.array_equal(Pk, Pk.conj().T)
            assert np.linalg.norm(Pk - alone) <= 1e-14 * np.linalg.norm(alone)


def test_stein_rejects_large_spr():
    with pytest.raises(nf.SpectralRadiusError):
        nf.stein_solve(np.array([[[1.0]]]), np.array([[1.0]]))


def test_similarity_already_contractive_normal_tuple():
    # row co-isometry scaled by 0.7: row norm equals spr exactly
    V = np.array([[0, 1.0], [1.0, 0]], dtype=complex) / np.sqrt(2)
    A = 0.7 * np.stack([V, V @ np.diag([1.0, -1.0])])
    assert nf.MatrixTuple(A).row_norm() == pytest.approx(0.7)
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


def test_boundary_singularity_at_a_tiny_spr(fixture_tuple):
    """A tuple scaled by 1e-13 is not nilpotent: its point has row norm
    1/spr, certified relative to that scale."""
    r = nf.minimize(nf.from_expression("inv(1 - 1e-13*z1)", 1))
    Z = nf.boundary_singularity(r, tol=1e-10)
    assert Z.X[0, 0, 0] == pytest.approx(1e13, rel=1e-12)
    A = 1e-13 * fixture_tuple
    Z = nf.boundary_singularity(A, tol=1e-8)
    assert Z.row_norm() == pytest.approx(2 ** 0.25 * 1e13, rel=1e-8)
    L = np.eye(9, dtype=complex) - sum(np.kron(A[j], Z[j]) for j in range(2))
    assert np.linalg.svd(L, compute_uv=False)[-1] <= 1e-8


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
    R = real_form(nf.matrize([(Aj, Aj.conj().T) for Aj in A]))
    # the cached real form is that of the mantissa 2^-k A: 4^-k R, bitwise
    assert np.array_equal(cp.real_matrization, R * 4.0 ** -cp.k)
    scale = sum(np.linalg.norm(Aj, 2) ** 2 for Aj in A)
    P = _hermitian(rng, cp.n)
    assert np.linalg.norm(R @ hermitian_coords(P)
                          - hermitian_coords(cp(P))) <= 1e-13 * scale
    # R^T is the real form of the adjoint map
    adjoint = real_form(nf.matrize([(Aj.conj().T, Aj) for Aj in A]))
    assert np.max(np.abs(R.T - adjoint)) <= 1e-13 * scale
    # R and the complex matrization have one spectrum, with multiplicities;
    # both of the mantissa here
    M = cp.matrization
    w_real = np.linalg.eigvals(cp.real_matrization)
    w_complex = np.linalg.eigvals(M)
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


def test_a_nan_tolerance_certifies_no_boundary_point(fixture_tuple):
    with pytest.raises(nf.BoundarySingularityError):
        spectral._boundary_singularity(nf.CPMap(fixture_tuple), np.nan)


def test_a_non_perron_eigenmatrix_is_a_boundary_singularity_error(
        monkeypatch):
    # a wrong eigenmatrix compresses to a nilpotent block, spr 0, and a
    # tiny spr makes the point overflow: coded errors, never a LinAlgError
    A = np.zeros((1, 3, 3), dtype=complex)
    A[0, 0, 0], A[0, 1, 2] = 0.5, 1.0
    dense_perron = spectral._dense_perron

    def nilpotent_part(cp):
        if cp.n == 3:
            return 0.25, np.diag([0.0, 1.0, 1.0]).astype(complex) / 2 ** 0.5
        return dense_perron(cp)

    monkeypatch.setattr(spectral, "_dense_perron", nilpotent_part)
    with pytest.raises(nf.BoundarySingularityError, match="nilpotent"):
        spectral._boundary_singularity(nf.CPMap(A), 1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nf.BoundarySingularityError, match="not finite"):
            nf.boundary_singularity(np.array([[[1e-310]]]))


# the doubles fl(1 -+ 1e-9) and their neighbours one ulp away, with the
# side of the knife-edge band each lies on
_BAND_ULP_CASES = [
    (np.nextafter(1.0 - 1e-9, 0.0), "below"),
    (1.0 - 1e-9, "edge"),
    (1.0 - 5e-10, "edge"),
    (np.nextafter(1.0 - 1e-9, 2.0), "edge"),
    (np.nextafter(1.0 + 1e-9, 0.0), "edge"),
    (1.0 + 1e-9, "edge"),
    (np.nextafter(1.0 + 1e-9, 2.0), "above"),
]


@pytest.mark.parametrize("s, where", _BAND_ULP_CASES)
def test_knife_edge_is_one_decision(s, where):
    """Membership, a spectrum cell, outerness and the gate of the similarity
    to a contraction place an spr of exactly s on the same side of the
    band."""
    assert spectral.band(s) == where
    A = np.array([[[s]]])
    assert nf.spr(A) == s
    verdict = nf.is_in_fock(nf.Realization(A, [1.0], [1.0])).verdict
    assert verdict == {"below": "in", "edge": "boundary",
                       "above": "not_in"}[where]
    # r = 1 - s z1, minimal: its lambda = 0 cell tuple is exactly [[s]],
    # and 1/r = 1/(1 - s z1) has spr s
    r = nf.Realization(np.array([[[0.0, 1.0], [0.0, 0.0]]]), [1.0, 0.0],
                       [1.0, -s])
    resolvent = _Resolvent(r)
    cp = resolvent.inverse_cpmap(0.0)
    assert cp.spr == s and cp.band == where
    # the fallback of a scan cell that the stacked certificate left open
    assert _cell_decision(resolvent, 0.0, True, None) == {
        "below": (False, "resolvent"), "edge": (True, "indeterminate"),
        "above": (True, "sigma_pm")}[where]
    if where == "below":
        _, W = nf.similarity_to_contraction(A, (1.0 - s) / 2)
        assert W.row_norm() < 1.0
    else:
        with pytest.raises(nf.SpectralRadiusError):
            nf.similarity_to_contraction(A, 1e-12)
    outer = nf.is_outer_rational(r)
    assert outer.spr_inverse == s
    assert outer.outer == (where != "above")
    assert outer.indeterminate == (where == "edge")


def test_only_spectral_reads_the_band_tolerance():
    # every other module asks spectral.band, so the band means one thing
    source = Path(spectral.__file__).parent
    readers = [path.name for path in sorted(source.glob("*.py"))
               if "SPR_BOUNDARY_TOL" in path.read_text()]
    assert readers == ["spectral.py"]


def test_one_owner_of_the_zero_level_and_of_the_spr_gate():
    # outerness reads the zero level from _Resolvent.inverse_cpmap, and
    # every spr < 1 gate raises through spectral.spr_below
    source = Path(spectral.__file__).parent
    assert "vanishes_at_zero" not in (source / "factorization.py").read_text()
    raisers = []
    for path in sorted(source.glob("*.py")):
        defs = []
        for line in path.read_text().splitlines():
            defs += re.findall(r"^\s*def (\w+)", line)
            if "raise SpectralRadiusError" in line:
                raisers.append((path.name, defs[-1]))
    assert raisers == [("spectral.py", "spr_below")]
