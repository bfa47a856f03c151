import numpy as np
import pytest

import ncfock as nf
from conftest import count_calls, padded, random_kernel, random_polynomial
from ncfock.spectral import MATRIX_FREE_MIN_N


def geometric_half():
    return nf.minimize(nf.from_expression("inv(1 - 0.5*z1)", 1))


def test_kernel_coefficients_geometric():
    k = nf.KernelVector(nf.MatrixTuple(np.array([[[0.5]]])),
                        np.array([1.0]), np.array([1.0]))
    table = nf.kernel_coefficients(k, 6)
    for j in range(7):
        assert table.coeff((1,) * j) == pytest.approx(0.5 ** j)


def test_kernel_zero_point_constant():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    k = nf.KernelVector(nf.MatrixTuple.zeros(2, 3), y, v)
    table = nf.kernel_coefficients(k, 2)
    assert table.coeff(()) == pytest.approx(complex(np.vdot(v, y)))
    assert all(w == () for w in table.coeffs)


def test_kernel_requires_strict_contraction():
    with pytest.raises(ValueError):
        nf.KernelVector(nf.MatrixTuple(np.array([[[1.0]]])),
                        np.array([1.0]), np.array([1.0]))


def test_kernel_from_realization_geometric():
    k = nf.kernel_from_realization(geometric_half())
    table = nf.kernel_coefficients(k, 8)
    for j in range(9):
        assert table.coeff((1,) * j) == pytest.approx(0.5 ** j, abs=1e-10)


def test_kernel_from_realization_fixture(fixture_realization):
    k = nf.kernel_from_realization(fixture_realization)
    assert k.Z.is_strict_row_contraction()
    assert nf.kernel_coefficients(k, 5).allclose(
        nf.taylor_table(fixture_realization, 5), tol=1e-9)


def test_kernel_of_polynomial_is_jointly_nilpotent(poly_p5):
    r = nf.minimize(nf.from_polynomial(poly_p5))
    k = nf.kernel_from_realization(r)
    Z = k.Z
    assert nf.spr(Z.X) == 0.0
    for a in range(2):
        for b in range(2):
            for c in range(2):
                assert np.linalg.norm(Z[a] @ Z[b] @ Z[c]) == 0.0
    assert nf.kernel_coefficients(k, 3).allclose(poly_p5, tol=1e-9)


def test_kernel_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(10):
        k = random_kernel(rng, 2, 3)
        r = nf.kernel_to_realization(k)
        k2 = nf.kernel_from_realization(nf.minimize(r))
        assert nf.kernel_coefficients(k2, 4).allclose(
            nf.kernel_coefficients(k, 4), tol=1e-9)


def test_kernel_from_realization_rejects_boundary():
    geo = nf.minimize(nf.from_expression("inv(1 - z1)", 1))
    with pytest.raises(nf.SpectralRadiusError):
        nf.kernel_from_realization(geo)


def test_h2_norm_examples(poly_p5, fixture_realization):
    assert nf.h2_norm(nf.minimize(nf.from_polynomial(poly_p5))) == \
        pytest.approx(np.sqrt(3.0), abs=1e-10)
    assert nf.h2_norm(geometric_half()) == pytest.approx(
        np.sqrt(4.0 / 3.0), abs=1e-12)
    assert nf.h2_norm(fixture_realization) == pytest.approx(
        np.sqrt(2.0), abs=1e-10)


def test_h2_norm_kernel_bound():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = random_kernel(rng, 2, int(rng.integers(1, 4)))
        norm = nf.h2_norm(nf.minimize(nf.kernel_to_realization(k)))
        from ncfock.fock import kernel_norm_bound
        assert norm ** 2 <= kernel_norm_bound(k) * (1 + 1e-9)


def test_h2_norm_stein_vs_truncation_tail():
    """Stein value lies within the m = 20 truncation plus its tail bound."""
    rng = np.random.default_rng(4)
    m = 20
    for _ in range(3):
        k = random_kernel(rng, 2, 2, norm_cap=0.8)
        t = k.Z.row_norm()
        stein_sq = nf.h2_norm(nf.minimize(nf.kernel_to_realization(k))) ** 2
        partial = 0.0
        level = k.v[:, None]
        for length in range(m + 1):
            partial += float(np.sum(np.abs(k.y.conj() @ level) ** 2))
            if length < m:
                level = np.hstack([k.Z[j] @ level for j in range(k.d)])
        tail = (np.linalg.norm(k.y) ** 2 * np.linalg.norm(k.v) ** 2
                * t ** (2 * (m + 1)) / (1 - t ** 2))
        assert partial - 1e-8 <= stein_sq <= partial + tail + 1e-8


def test_is_in_fock_trichotomy(poly_p5, fixture_realization):
    member = nf.is_in_fock(nf.minimize(nf.from_polynomial(poly_p5)))
    assert member.verdict == "in" and member.in_h2
    assert member.spr < 1e-12 and member.radius == np.inf

    geo = nf.minimize(nf.from_expression("inv(1 - z1)", 1))
    out = nf.is_in_fock(geo)
    assert not out.in_h2
    assert out.spr == pytest.approx(1.0, abs=1e-10)
    assert out.witness_row_norm == pytest.approx(1.0, abs=1e-8)
    assert out.witness_sigma_min <= 1e-8

    big = nf.minimize(nf.from_expression("inv(1 - 2*z1)", 1))
    assert nf.is_in_fock(big).verdict == "not_in"

    fix = nf.is_in_fock(fixture_realization)
    assert fix.verdict == "in"
    assert fix.radius == pytest.approx(2 ** 0.25, abs=1e-6)


def test_membership_consistency_negative_side():
    geo = nf.minimize(nf.from_expression("inv(1 - z1 - z2)", 2))
    out = nf.is_in_fock(geo)
    assert not out.in_h2
    assert out.witness_row_norm <= 1.0 + 1e-8
    assert out.witness_sigma_min <= 1e-8


def test_reproduce_examples():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    k = nf.KernelVector(nf.MatrixTuple.zeros(2, 2), y, v)
    assert nf.reproduce(k, nf.NCPolynomial.one(2)) == pytest.approx(
        complex(np.vdot(y, v)))
    khalf = nf.KernelVector(nf.MatrixTuple(np.array([[[0.5]]])),
                            np.array([1.0]), np.array([1.0]))
    assert nf.reproduce(khalf, nf.NCPolynomial.variable(1, 1)) == \
        pytest.approx(0.5)


def test_reproduce_random_pairs():
    rng = np.random.default_rng(6)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        k = random_kernel(rng, d, int(rng.integers(1, 4)))
        f = random_polynomial(rng, d, 3)
        nf.reproduce(k, f)  # internal 1e-10 cross-check raises on failure


def test_conjugation_isometric_involution():
    rng = np.random.default_rng(7)
    f = random_polynomial(rng, 2, 3)
    g = nf.conjugate_series(f)
    assert g.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-14)
    assert nf.conjugate_series(g).allclose(f, tol=0)
    h = nf.NCPolynomial(2, {(1,): 1j})
    assert nf.conjugate_series(h).allclose(
        nf.NCPolynomial(2, {(1,): -1j}), tol=0)


def test_kernel_conjugation_identity():
    rng = np.random.default_rng(8)
    for _ in range(10):
        k = random_kernel(rng, 2, 2)
        conj = nf.conjugate_kernel(k)
        table = nf.kernel_coefficients(k, 4)
        assert nf.kernel_coefficients(conj, 4).allclose(
            table.conjugate(), tol=1e-12)


def test_conjugate_realization_preserves_h2_norm():
    rng = np.random.default_rng(9)
    k = random_kernel(rng, 2, 3)
    r = nf.minimize(nf.kernel_to_realization(k))
    assert nf.h2_norm(nf.conjugate_realization(r)) == pytest.approx(
        nf.h2_norm(r), rel=1e-9)


def test_toeplitz_identity_and_structure(poly_p5):
    T = nf.toeplitz(nf.NCPolynomial.one(2), 3)
    size = (2 ** 4 - 1) // (2 - 1)
    assert T.matrix.shape == (size, size)
    assert np.array_equal(T.matrix, np.eye(size))
    Tp = nf.toeplitz(poly_p5, 3)
    for i, wi in enumerate(Tp.words):
        for j, wj in enumerate(Tp.words):
            if Tp.matrix[i, j] != 0:
                assert len(wi) >= len(wj)
    # multiplication by 1 (the empty-word column) reproduces the coefficients
    col = Tp.matrix[:, Tp.index(())]
    for i, w in enumerate(Tp.words):
        assert col[i] == pytest.approx(poly_p5.coeff(w))


def test_is_in_fock_boundary_at_large_n():
    geo = nf.minimize(nf.from_expression("inv(1 - z1)", 2))
    A = padded(geo.A, 21, seed=3)
    e1 = np.eye(21)[0]
    assert nf.is_in_fock(nf.Realization(A, e1, e1)).verdict == "boundary"


@pytest.mark.parametrize("n", [16, 21])
def test_is_in_fock_large_n_against_iterate(n):
    # one reference spr per size: spr is positively homogeneous, so the
    # scaled copies below have spr 0.7 and 1.2 exactly
    rng = np.random.default_rng(n)
    A0 = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    ref = nf.spr(A0, method="iterate")
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    inside = nf.is_in_fock(nf.Realization(0.7 / ref * A0, b, c))
    assert inside.verdict == "in"
    assert inside.spr == pytest.approx(0.7, rel=1e-9)
    outside = nf.is_in_fock(nf.Realization(1.2 / ref * A0, b, c))
    assert outside.verdict == "not_in"
    assert outside.spr == pytest.approx(1.2, rel=1e-9)
    assert outside.witness_row_norm == pytest.approx(1 / 1.2, abs=1e-6)
    assert outside.witness_sigma_min <= 1e-8


def _count_spr_calls(monkeypatch):
    """Route spectral.spr, through which every spr of a verdict goes (a
    CPMap computes its spr by calling it), through a counter."""
    from ncfock import spectral

    return count_calls(monkeypatch, spectral, "spr")


def test_verdict_computes_spr_once(monkeypatch, fixture_realization):
    calls = _count_spr_calls(monkeypatch)
    assert nf.is_in_fock(fixture_realization).verdict == "in"
    assert len(calls) == 1
    del calls[:]
    nf.kernel_from_realization(fixture_realization)
    assert len(calls) == 1
    del calls[:]
    # the fixture tuple scaled past the ball: its Perron matrix is positive
    # definite, so the witness needs no recursion into a subspace
    big = nf.Realization(1.5 * fixture_realization.A, fixture_realization.b,
                         fixture_realization.c)
    out = nf.is_in_fock(big)
    assert out.verdict == "not_in" and out.witness is not None
    assert len(calls) == 1


def _scaled(n, target, seed):
    """A random d = 2 realization of state size n whose spr is target."""
    rng = np.random.default_rng(seed)
    A0 = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return nf.Realization(target / nf.spr(A0) * A0, b, c)


@pytest.mark.parametrize("n", [16, 21])
def test_not_in_verdict_runs_arnoldi_once(monkeypatch, n):
    # spr and the Perron eigenmatrix of the witness share one Arnoldi run
    from ncfock import spectral

    r = _scaled(n, 1.2, seed=n)
    calls = count_calls(monkeypatch, spectral, "_arnoldi_eigs")
    out = nf.is_in_fock(r)
    assert out.verdict == "not_in" and out.witness is not None
    assert len(calls) == 1


def test_verdicts_build_each_matrization_once(monkeypatch,
                                              fixture_realization):
    from ncfock import spectral

    big = nf.Realization(1.5 * fixture_realization.A, fixture_realization.b,
                         fixture_realization.c)
    r = _scaled(8, 0.7, seed=8)
    calls = count_calls(monkeypatch, spectral, "matrize")
    assert nf.is_in_fock(big).verdict == "not_in"
    assert len(calls) == 1
    del calls[:]
    # spr and the H^2 Stein solve share one; the kernel's spr makes one
    # more, and its Stein solve on A/tau scales that one's real form
    assert nf.is_in_fock(r).verdict == "in"
    nf.kernel_from_realization(r)
    assert len(calls) == 2


def test_dense_not_in_verdict_runs_one_eigensolve(monkeypatch):
    # spr and the Perron eigenmatrix of the witness share one eig of R
    r = _scaled(8, 1.2, seed=8)
    eig = count_calls(monkeypatch, np.linalg, "eig")
    eigvals = count_calls(monkeypatch, np.linalg, "eigvals")
    out = nf.is_in_fock(r)
    assert out.verdict == "not_in" and out.witness is not None
    assert len(eig) == 1 and len(eigvals) == 0


@pytest.mark.parametrize("n", [3, 8, 16])
def test_well_conditioned_stein_solve_factors_once(monkeypatch, n):
    cp = nf.CPMap(_scaled(n, 0.7, seed=n).A)
    calls = count_calls(monkeypatch, np.linalg, "solve")
    nf.stein_solve(cp, np.eye(n), check_spr=False)
    assert len(calls) == 1


def test_stein_solve_refines_a_poor_solve(monkeypatch):
    # a first solve with a backward error far above 16 eps is refined
    cp = nf.CPMap(_scaled(8, 0.7, seed=8).A)
    exact = nf.stein_solve(cp, np.eye(8))
    original = np.linalg.solve
    calls = []

    def poor_first(K, q):
        x = original(K, q)
        if not calls:
            x = x * (1.0 + 1e-9)
        calls.append(K)
        return x

    monkeypatch.setattr(np.linalg, "solve", poor_first)
    refined = nf.stein_solve(cp, np.eye(8))
    assert len(calls) == 2
    assert np.linalg.norm(refined - exact) <= 1e-14 * np.linalg.norm(exact)


@pytest.mark.parametrize("n", [5, 8, MATRIX_FREE_MIN_N, 16])
def test_not_in_verdict_takes_no_matrization_svd(monkeypatch, n):
    r = _scaled(n, 1.2, seed=n)
    calls = count_calls(monkeypatch, np.linalg, "svd")
    out = nf.is_in_fock(r)
    assert out.verdict == "not_in"
    assert out.witness_sigma_min <= 1e-8
    assert all(max(np.shape(args[0])) < n * n for args in calls)


_LAPACK = ("eig", "eigvals", "eigh", "eigvalsh", "solve", "svd", "qr", "inv",
           "lstsq")


@pytest.mark.parametrize("n, target", [(8, 0.7), (8, 1.2), (16, 0.7),
                                       (16, 1.2)])
def test_repeated_verdicts_cost_the_same(monkeypatch, n, target):
    # nothing computed for r outlives the call: minimize hands a minimal r
    # back as the same object, and a second verdict on it redoes every solve
    r = _scaled(n, target, seed=n)
    counters = {name: count_calls(monkeypatch, np.linalg, name)
                for name in _LAPACK}

    def verdict():
        for calls in counters.values():
            del calls[:]
        m = nf.minimize(r)
        assert m is r
        if nf.is_in_fock(m).in_h2:
            nf.kernel_from_realization(m)
        return {name: len(calls) for name, calls in counters.items()}

    first = verdict()
    assert sum(first.values()) > 0
    assert verdict() == first
