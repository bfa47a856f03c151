import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ncfock as nf
from ncfock import expr as ex
from ncfock import realization as rz
from conftest import DEGREE9_POLY, random_ast, random_point


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
    assert nf.minimize(m1) is m1


@pytest.mark.parametrize("text", ["1 + z1 + z1*z2", DEGREE9_POLY])
def test_minimize_of_a_polynomial_is_a_fixed_point(text):
    # a second round would rotate the polynomial's flag to new bits
    r = nf.from_expression(text, 2)
    m = nf.minimize(r)
    assert nf.minimize(m) is m
    again = nf.minimize(m, tol=1e-8)
    assert again is not m and again.n == m.n
    length = min(m.n + 1, 10)
    assert nf.taylor_table(again, length).allclose(
        nf.taylor_table(m, length), tol=1e-12)
    assert nf.minimize(again, tol=1e-8) is again


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


@pytest.mark.parametrize("tol", [np.nan, np.inf, 1.0, -1e-10])
def test_minimize_rejects_a_tolerance_outside_0_1(tol):
    # each of these kept no singular value: the zero function came back
    r = nf.from_expression("z1*inv(1-0.5*z2)", 2)
    with pytest.raises(nf.ToleranceError) as info:
        nf.minimize(r, tol=tol)
    assert info.value.code == "invalid-tolerance"
    assert isinstance(info.value, ValueError)


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


def test_minimize_runs_one_round(monkeypatch, fixture_realization):
    # one controllability and one observability compression make a
    # non-minimal realization minimal; no second round checks it
    calls = []
    original = rz._krylov_basis

    def counted(A, seed, tol):
        calls.append(seed)
        return original(A, seed, tol)

    monkeypatch.setattr(rz, "_krylov_basis", counted)
    junk = nf.Realization(np.ones((2, 2, 2)) * 0.3,
                          np.array([1.0, 2.0]), np.zeros(2))
    m = nf.minimize(nf.add(fixture_realization, junk))
    assert m.n == 3 and len(calls) == 2


@st.composite
def combined_realizations(draw):
    """Random d <= 2, n <= 4 realizations with standard-normal entries,
    combined by add, mul and invert; the second operand of add or mul is
    a fresh realization or the result so far."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 2))

    def leaf():
        n = int(rng.integers(1, 5))
        return nf.Realization(rng.standard_normal((d, n, n)),
                              rng.standard_normal(n), rng.standard_normal(n))

    r = leaf()
    for op in draw(st.lists(st.sampled_from(["add", "mul", "invert"]),
                            min_size=1, max_size=3)):
        if op == "invert":
            r = nf.invert(r)
        else:
            other = r if draw(st.booleans()) else leaf()
            r = (nf.add if op == "add" else nf.mul)(r, other)
    return r


def _same_table(m, r):
    """The Taylor tables of m and r agree to length 5."""
    table = nf.taylor_table(r, 5)
    scale = max((abs(v) for v in table.coeffs.values()), default=0.0)
    return nf.taylor_table(m, 5).allclose(table, tol=1e-8 * scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(combined_realizations())
def test_minimize_properties(r):
    m = nf.minimize(r)
    assert m.n <= r.n and _same_table(m, r)
    Astar = np.conj(np.transpose(m.A, (0, 2, 1)))
    assert rz._krylov_basis(m.A, m.c, rz.DEFAULT_RANK_TOL).shape[1] == m.n
    assert rz._krylov_basis(Astar, m.b, rz.DEFAULT_RANK_TOL).shape[1] == m.n
    assert nf.minimize(m) is m
    # the mark returns m at once; the algorithm itself keeps a minimal m
    again = rz._minimal(m, rz.DEFAULT_RANK_TOL)
    assert again.n == m.n and _same_table(again, m)


@pytest.mark.xfail(strict=True, reason="minimize changes the function of a "
                   "scaled product s * (1 + z1): mul(const(s), .) puts s in "
                   "the coupling block and c (FOUND line in CHANGES.md)")
def test_minimize_keeps_a_scaled_product():
    r = nf.from_expression("1e8*(1 + z1)", 1)
    assert _same_table(nf.minimize(r), r)


@pytest.mark.parametrize("where", ["A", "b", "c"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_realization_is_finite_by_construction(where, bad):
    data = {"A": np.array([[[0.5]]]), "b": np.array([1.0]),
            "c": np.array([1.0])}
    data[where] = data[where] * bad
    with pytest.raises(nf.NumericalFailureError,
                       match="the entries of the realization overflow"):
        nf.Realization(data["A"], data["b"], data["c"])


def test_the_algebra_reports_an_overflow_as_its_type_does():
    """A scaling, a product or an inverse whose entries overflow is refused
    by the Realization it would build, without a RuntimeWarning."""
    big = nf.Realization(np.array([[[0.5]]]), np.array([1.0]),
                         np.array([1e200]))
    tiny = nf.Realization(np.array([[[0.5]]]), np.array([1.0]),
                          np.array([1e-320]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: nf.scale(big, 1e200), lambda: nf.mul(big, big),
                      lambda: nf.invert(tiny)):
            with pytest.raises(nf.NumericalFailureError, match="overflow"):
                build()


def test_taylor_coefficients_report_an_overflow():
    """b* A^w c of A = 1e200 overflows at the word z1^2: a coded error from
    the table and from the single coefficient, without a RuntimeWarning,
    while the shorter words keep their values."""
    r = nf.Realization(np.array([[[1e200]]]), np.ones(1), np.ones(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for coefficients in (lambda: nf.taylor_table(r, 3),
                             lambda: nf.taylor_coeff(r, (1, 1))):
            with pytest.raises(nf.NumericalFailureError,
                               match=r"word \(1, 1\) overflows"):
                coefficients()
        assert nf.taylor_table(r, 1).coeffs == {(): 1, (1,): 1e200}
        assert nf.taylor_coeff(r, (1,)) == 1e200


def test_evaluate_reports_an_overflow():
    """r(X) of finite b = 1e308 overflows at X = 1/2; the pencil of A =
    1e10 overflows at X = 1e300: coded errors, without a RuntimeWarning."""
    r = nf.Realization(np.array([[[0.3, 0.5], [0.1, 0.2]]]),
                       np.array([1e308, 1e307]), np.array([1.0, 2.0]))
    small = nf.Realization(np.array([[[1e10]]]), np.ones(1), np.ones(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nf.NumericalFailureError, match="r\\(X\\)"):
            nf.evaluate(r, [[[0.5]]])
        with pytest.raises(nf.NumericalFailureError, match="pencil"):
            nf.evaluate(small, [[[1e300]]])
        assert nf.evaluate(small, [[[1e-11]]])[0, 0] == pytest.approx(
            1 / (1 - 0.1), rel=1e-14)


def test_from_ast_of_an_overflowing_product_is_a_numerical_failure():
    """1e200*1e200*z1 compiles to an infinite entry, which is refused
    without a RuntimeWarning; 1e200*z1*1e200*z1 keeps its entries finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nf.NumericalFailureError, match="overflow"):
            nf.from_expression("1e200*1e200*z1", 1)
        r = nf.from_expression("1e200*z1*1e200*z1", 1)
    assert all(np.isfinite(M).all() for M in (r.A, r.b, r.c))
    assert r.value_at_zero() == 0.0


def _polynomial_asts(max_exponent):
    """Raw polynomial ASTs over z1, z2 with constants +-m 2^k, m in
    [1/2, 1] and |k| <= max_exponent, so products of constants span many
    orders of magnitude."""
    scalars = st.builds(
        lambda sign, m, k: ex.Scalar(complex(sign * math.ldexp(m, k))),
        st.sampled_from((1, -1)), st.floats(0.5, 1.0),
        st.integers(-max_exponent, max_exponent))
    return st.recursive(
        st.builds(ex.Variable, st.integers(1, 2)) | scalars,
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=3).map(
                lambda terms: ex.Sum(tuple(terms))),
            st.lists(children, min_size=2, max_size=3).map(
                lambda factors: ex.Product(tuple(factors))),
            children.map(ex.Negate)),
        max_leaves=8)


_POLYNOMIAL_ASTS = _polynomial_asts(40)


def _modulus_ast(a):
    """a with every constant replaced by its modulus and no negation: its
    expansion bounds the roundoff of each coefficient of a."""
    return ex.fold(a, lambda value: ex.Scalar(complex(abs(value))),
                   ex.Variable, lambda terms: ex.Sum(tuple(terms)),
                   lambda factors: ex.Product(tuple(factors)),
                   lambda x: x, ex.Inverse)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_POLYNOMIAL_ASTS)
def test_compiled_and_expanded_folds_agree(a):
    """The Taylor table of from_ast(a) (not minimized) is the expansion
    as_polynomial(a), coefficient by coefficient, up to 1e-13 of the
    expansion of the modulus AST."""
    bound = nf.as_polynomial(_modulus_ast(a), 2)
    want = nf.as_polynomial(a, 2)
    got = nf.taylor_table(nf.from_ast(a, 2), bound.degree)
    for word in set(got.coeffs) | set(want.coeffs) | set(bound.coeffs):
        assert abs(got.coeff(word) - want.coeff(word)) \
            <= 1e-13 * abs(bound.coeff(word)), word


@pytest.mark.xfail(strict=True, reason="minimize drops or rescales a "
                   "state of a diagonally unbalanced tuple: h2_norm is 0.0 "
                   "for each example (FOUND lines in CHANGES.md)")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(_polynomial_asts(300))
@example(ex.parse("1e12*z1*z1", 2))
@example(ex.parse("z1*1e8*z2", 2))
@example(ex.parse("1e-170*z2", 2))
def test_minimized_polynomial_ast_keeps_its_h2_norm(a):
    """h2_norm(minimize(from_ast(a))) is the l2 norm of the expansion of a
    to 1e-8 relative, at every scale of the constants."""
    want = nf.as_polynomial(a, 2).l2_norm()
    assume(0.0 < want < math.inf)
    got = nf.h2_norm(nf.minimize(nf.from_ast(a, 2)))
    assert got == pytest.approx(want, rel=1e-8)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_POLYNOMIAL_ASTS)
def test_minimize_of_a_polynomial_ast_is_a_fixed_point(a):
    m = nf.minimize(nf.from_ast(a, 2))
    assert nf.minimize(m) is m
    again = nf.minimize(m, tol=1e-8)
    assert nf.minimize(again, tol=1e-8) is again
    # the algorithm itself, run on the unmarked m at the same tol, keeps it
    redone = rz._minimal(m, rz.DEFAULT_RANK_TOL)
    assert redone.n == m.n and _same_table(redone, m)


# longest word of a random polynomial in d variables
_MAX_WORD = {1: 9, 2: 5, 3: 5, 4: 4}


@st.composite
def _polynomials(draw):
    """Random NC polynomials: d = 1 to 4, up to 5 terms, words up to
    9, 5, 5 and 4 letters."""
    d = draw(st.integers(1, 4))
    words = st.lists(st.integers(1, d), max_size=_MAX_WORD[d]).map(tuple)
    coeffs = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0)
    return nf.NCPolynomial(d, draw(st.dictionaries(words, coeffs,
                                                   min_size=1, max_size=5)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_polynomials())
@example(nf.NCPolynomial(3, {(): 1.0, (3, 1, 3, 3): 1.7, (2, 1): 1.5,
                             (1, 1, 3, 1, 2): 0.7, (2, 2, 1): 0.4}))
def test_minimize_makes_a_polynomial_nilpotent(p):
    # Schutzenberger's reduction of a polynomial gives an exactly nilpotent
    # tuple: spr exactly 0, radius inf and no boundary singularity
    m = nf.minimize(nf.from_polynomial(p))
    scale = max(abs(v) for v in p.coeffs.values())
    assert nf.spr(m.A) == 0.0
    assert nf.taylor_table(m, p.degree + 1).allclose(p, tol=1e-12 * scale)
    assert nf.is_in_fock(m).radius == np.inf
    with pytest.raises(nf.JointlyNilpotentError):
        nf.boundary_singularity(m)
