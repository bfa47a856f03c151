import numpy as np
import pytest

import ncfock as nf
from ncfock import realization as rz
from conftest import random_ast, random_point


def test_scalar_and_variable_base_cases():
    r = nf.const(3.5 - 1j, 2)
    assert r.n == 1 and r.value_at_zero() == pytest.approx(3.5 - 1j)
    v = nf.variable(2, 2)
    assert nf.taylor_coeff(v, (2,)) == pytest.approx(1.0)
    assert nf.taylor_coeff(v, (1,)) == pytest.approx(0.0)
    assert v.value_at_zero() == pytest.approx(0.0)


def test_add_scale_taylor():
    r = nf.add(nf.const(1.0, 1), nf.variable(1, 1))
    table = nf.taylor_table(r, 2)
    assert table.allclose(nf.NCPolynomial(1, {(): 1.0, (1,): 1.0}), tol=1e-14)
    assert nf.taylor_table(nf.scale(r, 2j), 1).allclose(
        nf.NCPolynomial(1, {(): 2j, (1,): 2j}), tol=1e-14)


def test_invert_geometric_series():
    one_minus_z = nf.sub(nf.const(1.0, 1), nf.variable(1, 1))
    r = nf.minimize(nf.invert(one_minus_z))
    assert r.n == 1
    table = nf.taylor_table(r, 6)
    assert table.allclose(
        nf.NCPolynomial(1, {(1,) * k: 1.0 for k in range(7)}), tol=1e-10)


def test_invert_requires_nonzero_at_zero():
    with pytest.raises(nf.ZeroAtZeroError):
        nf.invert(nf.variable(1, 2))
    with pytest.raises(nf.NotRegularAtZeroError):
        nf.from_ast(nf.parse("inv(z1)", 1), 1)


def test_fixture_inverse_realization(fixture_realization):
    raw = nf.from_expression("inv(1 - 0.5*z1*z2 - 0.5*z2*z1)", 2)
    r = nf.minimize(raw)
    assert r.n == 3
    assert nf.taylor_table(r, 6).allclose(
        nf.taylor_table(fixture_realization, 6), tol=1e-10)
    assert nf.taylor_coeff(r, ()) == pytest.approx(1.0)
    assert nf.taylor_coeff(r, (1, 2)) == pytest.approx(0.5)
    assert nf.taylor_coeff(r, (1, 2, 1, 2)) == pytest.approx(0.25)


def test_minimize_is_idempotent_and_preserves_fixture(fixture_realization):
    m1 = nf.minimize(fixture_realization)
    assert m1.n == 3
    assert nf.taylor_table(m1, 5).allclose(
        nf.taylor_table(fixture_realization, 5), tol=1e-12)
    assert nf.minimize(m1).n == 3


def test_minimize_removes_unreachable_block(fixture_realization):
    junk = nf.Realization(np.ones((2, 2, 2)) * 0.3,
                          np.array([1.0, 2.0]), np.zeros(2))
    padded = nf.add(fixture_realization, junk)
    assert padded.n == 5
    assert nf.minimize(padded).n == 3


def test_minimize_preserves_taylor_random():
    rng = np.random.default_rng(17)
    for _ in range(12):
        a = random_ast(rng, 2, 2)
        r = nf.from_ast(a, 2)
        m = nf.minimize(r)
        assert m.n <= r.n
        length = min(r.n + m.n, 8)
        assert nf.taylor_table(m, length).allclose(
            nf.taylor_table(r, length), tol=1e-9)


def test_minimize_output_is_controllable_and_observable():
    rng = np.random.default_rng(19)
    for _ in range(8):
        a = random_ast(rng, 2, 2)
        m = nf.minimize(nf.from_ast(a, 2))
        ctrl = rz._krylov_basis(m.A, m.c, 1e-10)
        Astar = np.conj(np.transpose(m.A, (0, 2, 1)))
        obs = rz._krylov_basis(Astar, m.b, 1e-10)
        assert ctrl.shape[1] == m.n
        assert obs.shape[1] == m.n


def test_pointwise_algebra_matches_ast_evaluation():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(50):
        a = random_ast(rng, 2, 3)
        r = nf.from_ast(a, 2)
        for _ in range(10):
            X = random_point(rng, 2, int(rng.integers(1, 4)))
            want = nf.eval_ast(a, X)
            got = nf.evaluate(r, X)
            assert np.allclose(got, want,
                               atol=1e-9 * (1 + np.linalg.norm(want)))
            checked += 1
    assert checked == 500


def test_algebra_contracts_pointwise():
    rng = np.random.default_rng(29)
    a1 = random_ast(rng, 2, 2)
    a2 = random_ast(rng, 2, 2)
    r1, r2 = nf.from_ast(a1, 2), nf.from_ast(a2, 2)
    for _ in range(6):
        X = random_point(rng, 2, 2)
        v1, v2 = nf.evaluate(r1, X), nf.evaluate(r2, X)
        assert np.allclose(nf.evaluate(nf.add(r1, r2), X), v1 + v2, atol=1e-9)
        assert np.allclose(nf.evaluate(nf.mul(r1, r2), X), v1 @ v2, atol=1e-9)
        assert np.allclose(nf.evaluate(nf.scale(r1, 2 - 1j), X),
                           (2 - 1j) * v1, atol=1e-9)
    inv = nf.invert(nf.add(nf.const(1.0, 2), nf.scale(r1, 0.25)))
    for _ in range(4):
        X = random_point(rng, 2, 2)
        base = np.eye(2) + 0.25 * nf.evaluate(r1, X)
        assert np.allclose(nf.evaluate(inv, X), np.linalg.inv(base),
                           atol=1e-8)


def test_invert_involution_on_taylor():
    rng = np.random.default_rng(31)
    a = random_ast(rng, 2, 2)
    r = nf.minimize(nf.from_ast(a, 2))
    if abs(r.value_at_zero()) < 1e-6:
        r = nf.add(r, nf.const(1.0, 2))
    rr = nf.invert(nf.invert(r))
    length = min(2 * r.n + 4, 8)
    assert nf.taylor_table(rr, length).allclose(
        nf.taylor_table(r, length), tol=1e-8)


def test_similarity_invariance(fixture_realization):
    rng = np.random.default_rng(37)
    r = fixture_realization
    S = np.eye(3) + 0.4 * (rng.standard_normal((3, 3))
                           + 1j * rng.standard_normal((3, 3)))
    Sinv = np.linalg.inv(S)
    sim = nf.Realization(np.stack([Sinv @ r.A[j] @ S for j in range(2)]),
                         S.conj().T @ r.b, Sinv @ r.c)
    assert nf.taylor_table(sim, 5).allclose(nf.taylor_table(r, 5), tol=1e-9)
    X = random_point(rng, 2, 2, scale=0.3)
    assert np.allclose(nf.evaluate(sim, X), nf.evaluate(r, X), atol=1e-9)


def test_evaluate_direct_sum_axiom(fixture_realization):
    rng = np.random.default_rng(41)
    X = random_point(rng, 2, 2, scale=0.4)
    Y = random_point(rng, 2, 3, scale=0.4)
    both = X.direct_sum(Y)
    got = nf.evaluate(fixture_realization, both)
    assert np.allclose(got[:2, :2], nf.evaluate(fixture_realization, X),
                       atol=1e-10)
    assert np.allclose(got[2:, 2:], nf.evaluate(fixture_realization, Y),
                       atol=1e-10)
    assert np.allclose(got[:2, 2:], 0, atol=1e-10)


def test_evaluate_at_zero_and_domain(fixture_realization):
    val = nf.evaluate(fixture_realization, nf.MatrixTuple.zeros(2, 2))
    assert np.allclose(val, np.eye(2))
    pole = nf.minimize(nf.from_expression("inv(1 - 0.5*z1)", 1))
    with pytest.raises(nf.DomainError):
        nf.evaluate(pole, nf.MatrixTuple(np.array([[[2.0]]])))


def test_conjugate_realization(fixture_realization):
    r = nf.scale(fixture_realization, 1j)
    conj = nf.conjugate_realization(r)
    assert conj.value_at_zero() == pytest.approx(-1j)
    table = nf.taylor_table(r, 4)
    assert nf.taylor_table(conj, 4).allclose(table.conjugate(), tol=1e-12)
    real = nf.conjugate_realization(fixture_realization)
    assert np.allclose(real.A, fixture_realization.A)


def test_from_polynomial_exact(poly_p5, poly_P6):
    r = nf.from_polynomial(poly_p5)
    assert nf.taylor_table(r, 3).allclose(poly_p5, tol=0)
    m = nf.minimize(nf.from_polynomial(poly_P6))
    assert m.n == 4
    assert nf.spr(m.A) == 0.0


def test_json_round_trip(fixture_realization):
    r = nf.scale(fixture_realization, 0.5 + 0.25j)
    obj = nf.realization_to_json(r)
    back = nf.realization_from_json(obj)
    assert np.array_equal(back.A, r.A)
    assert np.array_equal(back.b, r.b)
    assert np.array_equal(back.c, r.c)


def test_matrix_tuple_row_norm_and_json():
    Z = nf.MatrixTuple(np.array([[[0.6, 0], [0, 0]], [[0, 0.8], [0, 0]]]))
    assert Z.row_norm() == pytest.approx(1.0)
    assert not Z.is_strict_row_contraction()
    back = nf.matrix_tuple_from_json(nf.matrix_tuple_to_json(Z))
    assert np.array_equal(back.X, Z.X)


def kron_pencil(r, Z):
    """The np.kron pencil and evaluation that the broadcast products
    replace."""
    n = Z.shape[1]
    L = np.eye(r.n * n, dtype=complex)
    for j in range(r.d):
        L -= np.kron(r.A[j], Z[j])
    rhs = np.kron(r.c[:, None], np.eye(n, dtype=complex))
    left = np.kron(np.conj(r.b)[None, :], np.eye(n, dtype=complex))
    return L, left @ np.linalg.solve(L, rhs)


def test_pencil_and_evaluate_match_np_kron_bitwise():
    rng = np.random.default_rng(61)
    for _ in range(30):
        d, m, n = (int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                   int(rng.integers(1, 4)))
        r = nf.Realization(
            rng.standard_normal((d, m, m)) + 1j * rng.standard_normal((d, m, m)),
            rng.standard_normal(m) + 1j * rng.standard_normal(m),
            rng.standard_normal(m) + 1j * rng.standard_normal(m))
        Z = random_point(rng, d, n, scale=0.3).X
        L, value = kron_pencil(r, Z)
        assert np.array_equal(rz.pencil(r, Z), L)
        assert np.array_equal(rz.evaluate(r, Z), value)


def test_minimize_keeps_a_small_tuple_against_large_b_and_c():
    # r = 1e14 / (1 - a z) with |a| = 0.14 is no constant, however large
    # b* c is against the tuple
    a = 0.1 + 0.1j
    r = nf.Realization(np.array([[[a]]]), np.array([1e7 + 0j]),
                       np.array([1e7 + 0j]))
    m = nf.minimize(r)
    assert m.n == 1 and m.A[0, 0, 0] == a
    assert nf.h2_norm(m) == pytest.approx(1e14 / np.sqrt(1 - abs(a) ** 2),
                                          rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("A, bc", [(1e308 * (1 + 1j), 1e308),
                                   (1e200 * (1 + 1j), 1e200),
                                   (0.5, 1e300)])
def test_minimize_reports_overflow(A, bc):
    # each of these used to come back as the zero function or as A = 0
    r = nf.Realization(np.array([[[A]]]), np.array([bc + 0j]),
                       np.array([bc + 0j]))
    with pytest.raises(nf.NumericalFailureError) as info:
        nf.minimize(r)
    assert info.value.code == "numerical-failure"
    assert isinstance(info.value, ArithmeticError)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_inverse_self_check_is_coded():
    with pytest.raises(nf.NumericalFailureError):
        nf.from_expression("inv(1 - 1e200*z1)", 1)


@pytest.mark.parametrize("scale_A, scale_c", [(1e10, 1.0), (1e20, 1.0),
                                              (1e-4, 1e7)])
def test_minimize_rank_cutoffs_do_not_depend_on_scale(scale_A, scale_c):
    # a generic d = 2, n = 3 realization is minimal at any scale of A and c
    rng = np.random.default_rng(3)
    A = scale_A * (rng.standard_normal((2, 3, 3))
                   + 1j * rng.standard_normal((2, 3, 3)))
    b = rng.standard_normal(3) + 0j
    c = scale_c * rng.standard_normal(3) + 0j
    r = nf.Realization(A, b, c)
    m = nf.minimize(r)
    assert m.n == 3
    for word in [(), (1,), (2, 1), (1, 2, 2)]:
        assert nf.taylor_coeff(m, word) == pytest.approx(
            nf.taylor_coeff(r, word), rel=1e-10)
