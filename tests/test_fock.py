import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("where", ["Z", "y", "v"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_kernel_data_are_finite_by_construction(where, bad):
    data = {"Z": np.array([[[0.5]]]), "y": np.array([1.0]),
            "v": np.array([1.0])}
    data[where] = data[where] * bad
    with pytest.raises(ValueError, match="finite"):
        nf.KernelVector(nf.MatrixTuple(data["Z"]), data["y"], data["v"])


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


def _power_sum(length):
    """z1 + z1^2 + ... + z1^length."""
    return " + ".join("*".join(["z1"] * k) for k in range(1, length + 1))


def test_kernel_of_an_ill_conditioned_similarity_is_a_numerical_failure():
    """For z1 + ... + z1^40 the Gram matrix of the similarity at
    tau = 0.1 has condition about 0.1^-80, and its W has row norm 1e169:
    a coded error, not a KernelVector's ValueError."""
    r = nf.minimize(nf.from_expression(_power_sum(40), 1))
    with pytest.raises(nf.NumericalFailureError, match="row norm"):
        nf.kernel_from_realization(r)


@pytest.mark.xfail(strict=True, reason="tau = spr + 0.1 leaves the Gram "
                   "matrix of a spr-0 tuple at condition 0.1^-2(n-1)")
def test_kernel_row_norm_meets_its_bound_on_a_long_power_sum():
    """The documented bound row norm <= spr + min((1 - spr)/2, 0.1), here
    0.1 at n = 31; the similarity returns 0.1112."""
    r = nf.minimize(nf.from_expression(_power_sum(30), 1))
    k = nf.kernel_from_realization(r)
    assert k.Z.row_norm() <= r.cpmap.spr + 0.1


def test_h2_norm_examples(poly_p5, fixture_realization):
    assert nf.h2_norm(nf.minimize(nf.from_polynomial(poly_p5))) == \
        pytest.approx(np.sqrt(3.0), abs=1e-10)
    assert nf.h2_norm(geometric_half()) == pytest.approx(
        np.sqrt(4.0 / 3.0), abs=1e-12)
    assert nf.h2_norm(fixture_realization) == pytest.approx(
        np.sqrt(2.0), abs=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), d=st.integers(1, 2),
       k=st.integers(-560, 560), m=st.integers(-560, 560),
       seed=st.integers(0, 2 ** 32 - 1))
def test_h2_norm_scales_exactly_with_b_and_c(n, d, k, m, seed):
    """(A, 2^k b, 2^-m c) has h2_norm 2^(k - m) times that of (A, b, c), to
    the bit, before and after minimize; a norm past the largest double is a
    numerical failure."""
    # below 2^-1000 the Taylor coefficients themselves leave the normal range
    assume(k - m >= -1000)
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    A = gaussian(d, n, n)
    A *= rng.uniform(0.2, 0.9) / np.linalg.norm(np.hstack(list(A)), 2)
    b, c = gaussian(n), gaussian(n)
    r = nf.Realization(A, b, c)
    scaled = nf.Realization(A, b * 2.0 ** k, c * 2.0 ** -m)
    for norm, get in ((nf.h2_norm(r), lambda: nf.h2_norm(scaled)),
                      (nf.h2_norm(nf.minimize(r)),
                       lambda: nf.h2_norm(nf.minimize(scaled)))):
        try:
            want = math.ldexp(norm, k - m)
        except OverflowError:
            with pytest.raises(nf.NumericalFailureError):
                get()
        else:
            assert get() == want


@pytest.mark.parametrize("b, c, want", [(1.0, 1e-170, 1.1547005383792515e-170),
                                        (1e160, 1.0, 1.1547005383792515e160)])
def test_membership_of_a_scaled_realization(b, c, want):
    # 1/(1 - z/2) scaled through b or c: the Krylov seed and c c* once
    # underflowed to 0, and |b|^2 overflowed
    r = nf.minimize(nf.Realization(np.array([[[0.5]]]), [b], [c]))
    assert r.n == 1 and r.A[0, 0, 0] == 0.5
    out = nf.is_in_fock(r)
    assert (out.verdict, out.spr, out.radius) == ("in", 0.5, 2.0)
    assert out.h2_norm == pytest.approx(want, rel=1e-15)


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


def test_is_in_fock_radius_at_a_tiny_spr():
    # spr 1e-13 is not zero: the radius of convergence is 1e13, not inf
    member = nf.is_in_fock(nf.minimize(
        nf.from_expression("inv(1 - 1e-13*z1)", 1)))
    assert member.verdict == "in"
    assert member.spr == pytest.approx(1e-13, rel=1e-12)
    assert member.radius == pytest.approx(1e13, rel=1e-12)


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
    # a fresh realization: the session fixture's own CPMap may already hold
    # its spr.  The kernel and the norm read the CPMap of the verdict.
    r = nf.Realization(fixture_realization.A, fixture_realization.b,
                       fixture_realization.c)
    calls = _count_spr_calls(monkeypatch)
    assert nf.is_in_fock(r).verdict == "in"
    assert len(calls) == 1
    nf.kernel_from_realization(r)
    nf.h2_norm(r)
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


@pytest.mark.parametrize("n", [3, 8, MATRIX_FREE_MIN_N - 1])
def test_gates_below_the_switch_compute_no_spr(monkeypatch, n):
    # below the switch the Stein certificate of CPMap.band passes the gate
    from ncfock import spectral

    calls = count_calls(monkeypatch, spectral, "spr")
    nf.h2_norm(_scaled(n, 0.7, seed=n))
    nf.stein_solve(_scaled(n, 0.7, seed=n).A, np.eye(n))
    nf.is_inner(_scaled(n, 0.7, seed=n))
    assert calls == []


def test_a_long_polynomial_is_solved_without_the_matrization(monkeypatch):
    # z1 + z1^2 + ... + z1^depth has depth + 1 states and a jointly
    # nilpotent tuple, below the switch (n = 6) and above it (n = 61): its
    # band needs no certificate, and the Stein solves, the Gram matrix of
    # the kernel's similarity among them, are finite sums, with no
    # n^2 x n^2 matrix
    from ncfock import spectral

    calls = count_calls(monkeypatch, spectral, "matrize")
    for depth in (5, 60):
        r = nf.minimize(nf.from_expression(
            "z1*(1 + " * (depth - 1) + "z1" + ")" * (depth - 1), 1))
        assert r.n == depth + 1
        assert nf.is_in_fock(r).verdict == "in"
        assert nf.h2_norm(r) == pytest.approx(math.sqrt(depth), rel=1e-13)
        assert (nf.is_inner(r).unit_defect
                == pytest.approx(depth - 1, rel=1e-13))
        assert nf.kernel_from_realization(r).Z.is_strict_row_contraction()
    assert calls == []


@pytest.mark.parametrize("n", [16, 21])
def test_not_in_verdict_runs_arnoldi_once(monkeypatch, n):
    # spr and the Perron eigenmatrix of the witness share one Arnoldi run
    from ncfock import spectral

    r = _scaled(n, 1.2, seed=n)
    calls = count_calls(monkeypatch, spectral, "_arnoldi_eigs")
    out = nf.is_in_fock(r)
    assert out.verdict == "not_in" and out.witness is not None
    assert len(calls) == 1


def test_entry_points_reuse_the_verdicts_perron_pair(monkeypatch):
    # spr and boundary_singularity of a realization read its cpmap, whose
    # Perron pair the not-in verdict computed
    from ncfock import spectral

    r = _scaled(8, 1.2, seed=8)
    calls = count_calls(monkeypatch, spectral, "_dense_perron")
    assert nf.is_in_fock(r).verdict == "not_in"
    assert len(calls) == 1
    nf.spr(r)
    nf.boundary_singularity(r)
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
    # spr, the H^2 Stein solve and the kernel share the one of r.cpmap; the
    # kernel's Stein solve on A/tau scales its real form
    assert nf.is_in_fock(r).verdict == "in"
    nf.kernel_from_realization(r)
    assert len(calls) == 1


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
    # the certificate solve of the spr gate is not the Stein solve counted
    assert cp.band == "below"
    calls = count_calls(monkeypatch, np.linalg, "solve")
    nf.stein_solve(cp, np.eye(n))
    assert len(calls) == 1
    # a stack of right-hand sides shares the one LU
    rng = np.random.default_rng(n)
    nf.stein_solve(cp, rng.standard_normal((5, n, n)))
    assert len(calls) == 2


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
def test_repeated_verdicts_reuse_the_analysis(monkeypatch, n, target):
    # minimize hands a minimal r back as the same object, whose CPMap keeps
    # the analysis of A: a second verdict on it computes no spr, eigensolve,
    # Arnoldi run or matrization, and redoes only the Stein solves and the
    # witness.  An equal but distinct realization shares nothing.
    from ncfock import spectral

    r = _scaled(n, target, seed=n)
    counters = {name: count_calls(monkeypatch, np.linalg, name)
                for name in _LAPACK}
    for name in ("spr", "_arnoldi_eigs", "matrize"):
        counters[name] = count_calls(monkeypatch, spectral, name)

    def verdict(r):
        for calls in counters.values():
            del calls[:]
        m = nf.minimize(r)
        assert m is r
        if nf.is_in_fock(m).in_h2:
            nf.kernel_from_realization(m)
        return {name: len(calls) for name, calls in counters.items()}

    first = verdict(r)
    assert first["spr"] == 1
    second = verdict(r)
    assert all(second[name] == 0
               for name in ("spr", "_arnoldi_eigs", "matrize", "eig"))
    assert all(second[name] <= first[name] for name in first)
    assert sum(second.values()) < sum(first.values())
    assert verdict(nf.Realization(r.A, r.b, r.c)) == first
