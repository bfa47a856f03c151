import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncfock as nf
from conftest import count_calls, src_env
from ncfock import factorization
from ncfock.factorization import (
    _SteinSystem,
    autocorrelation_mismatch,
    factor_identity_table,
)
from ncfock.lsq import LeastSquaresResult, least_squares
from ncfock.words import suffix_closure, words_up_to


def _polynomial(d, words, x):
    """The polynomial q with q_w = conj(x_w) on the given words, x in the
    real coordinates (Re x_0, Im x_0, Re x_1, ...) of ``_SteinSystem``."""
    z = x[0::2] + 1j * x[1::2]
    return nf.NCPolynomial(d, dict(zip(words, np.conj(z))))


def _autocorr_residual(q, target, gammas):
    """Reference rows of ``_SteinSystem`` from the autocorrelation tables:
    the real and imaginary parts of each gamma, then the gauge Im q(0)."""
    auto = nf.autocorrelations(q)
    diffs = [auto.get(g, 0.0) - target.get(g, 0.0) for g in gammas]
    return np.array([part for v in diffs for part in (v.real, v.imag)]
                    + [q.coeff(()).imag])


def test_autocorrelations_examples(poly_p5, poly_P6):
    assert nf.autocorrelations(nf.NCPolynomial.one(2)) == {(): 1.0}
    auto = nf.autocorrelations(poly_p5)
    assert auto == {(): 3.0, (1,): 1.0, (2,): 1.0, (1, 2): 1.0}
    autoP = nf.autocorrelations(poly_P6)
    assert autoP == {(): 3.0, (1, 2): -1.0, (2, 1): -1.0}


def test_autocorrelations_match_toeplitz_column(poly_p5):
    T = nf.toeplitz(poly_p5, 3)
    gram = T.matrix.conj().T @ T.matrix
    col = gram[:, T.index(())]
    auto = nf.autocorrelations(poly_p5)
    for i, w in enumerate(T.words):
        if len(w) <= 1:  # truncation-exact rows
            assert col[i] == pytest.approx(auto.get(w, 0.0))


def test_hereditary_tree(poly_p5, poly_P6):
    assert nf.hereditary_tree(poly_p5) == {(), (1,), (2,), (1, 2)}
    assert nf.hereditary_tree(nf.NCPolynomial.one(2)) == {()}
    assert nf.hereditary_tree(poly_P6) == {(), (1,), (2,), (1, 2), (2, 1)}
    assert len(nf.hereditary_tree(poly_P6)) == 5


def test_outer_factor_p5(poly_p5, t0_root):
    res = nf.outer_factor(poly_p5, seed=0)
    q = res.outer
    a = np.sqrt(t0_root)
    assert res.q0 ** 2 == pytest.approx(t0_root, abs=1e-10)
    assert q.coeff((1,)) == pytest.approx(1 / a, abs=1e-8)
    assert q.coeff((1, 2)) == pytest.approx(1 / a, abs=1e-8)
    assert q.coeff((2,)) == pytest.approx((1 / a) * (1 - 1 / t0_root),
                                          abs=1e-8)
    assert res.residual <= 1e-8
    assert res.outer_certificate and res.inner_certificate
    assert autocorrelation_mismatch(poly_p5, q) <= 1e-8
    # Parseval: the factor preserves the Fock norm
    assert q.l2_norm() ** 2 == pytest.approx(3.0, abs=1e-10)


def test_outer_factor_P6(poly_P6):
    res = nf.outer_factor(poly_P6, seed=0)
    q = res.outer
    root2 = np.sqrt(2.0)
    assert res.q0 == pytest.approx(root2, abs=1e-8)
    assert q.coeff((1, 2)) == pytest.approx(-1 / root2, abs=1e-8)
    assert q.coeff((2, 1)) == pytest.approx(-1 / root2, abs=1e-8)
    stray = {w: v for w, v in q.coeffs.items()
             if w not in [(), (1, 2), (2, 1)]}
    assert all(abs(v) <= 1e-8 for v in stray.values())
    assert q.l2_norm() ** 2 == pytest.approx(3.0, abs=1e-10)


def test_outer_factor_already_outer():
    p = nf.NCPolynomial(1, {(): 1.0, (1,): -0.5})
    res = nf.outer_factor(p, seed=0)
    assert res.outer.allclose(p, tol=1e-10)


def test_outer_factor_without_an_inner_quotient_is_a_certification_error(
        monkeypatch, capsys, poly_p5):
    """Where no root's quotient is inner, outer_factor raises
    CertificationError with its diagnostics, and CLI factor answers with
    the code certification-failed."""
    def never_inner(r, tol):
        return factorization.InnerResult(inner=False, unit_defect=1.0,
                                         orthogonality_defect=1.0, tol=tol)

    monkeypatch.setattr(factorization, "is_inner", never_inner)
    with pytest.raises(nf.CertificationError) as info:
        nf.outer_factor(poly_p5, seed=0)
    assert set(info.value.diagnostics) == {"solutions", "starts"}
    assert info.value.diagnostics["solutions"] >= 1
    from ncfock.cli import main
    assert main(["factor", "-d", "2", "1 + z1 + z1*z2"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "certification-failed"


def test_outer_factor_goes_on_past_a_root_that_fails_outerness(monkeypatch,
                                                               poly_p5):
    """A root whose outerness certificate fails is skipped for the next
    one; whatever outer_factor then returns passes the real certificates."""
    real_is_outer = factorization.is_outer_rational
    calls = []

    def first_fails(r):
        calls.append(r)
        if len(calls) == 1:
            return factorization.OuterResult(outer=False,
                                             spr_inverse=math.inf)
        return real_is_outer(r)

    monkeypatch.setattr(factorization, "is_outer_rational", first_fails)
    try:
        res = nf.outer_factor(poly_p5, seed=0)
    except nf.CertificationError as err:
        assert err.diagnostics["solutions"] == len(calls)
    else:
        assert real_is_outer(nf.from_polynomial(res.outer))
        assert nf.is_inner(res.inner, tol=1e-7)
    assert len(calls) >= 2


def test_factor_identity(poly_p5):
    res = nf.outer_factor(poly_p5, seed=0)
    table = factor_identity_table(res, poly_p5)
    assert table.allclose(poly_p5, tol=1e-7)


def test_is_outer_examples(poly_p5, t0_root):
    p_real = nf.minimize(nf.from_polynomial(poly_p5))
    assert not nf.is_outer_rational(p_real)
    res = nf.outer_factor(poly_p5, seed=0)
    q_real = nf.minimize(nf.from_polynomial(res.outer))
    assert nf.is_outer_rational(q_real)
    small = nf.minimize(nf.from_expression("1 - 0.5*z1", 1))
    cert = nf.is_outer_rational(small)
    assert cert and cert.spr_inverse == pytest.approx(0.5, abs=1e-10)


def test_is_outer_zero_at_zero():
    cert = nf.is_outer_rational(nf.minimize(nf.variable(1, 2)))
    assert not cert and cert.reason == "value at zero is zero"


@pytest.mark.parametrize("text", ["inv(1 + z1 + z1*z2)",
                                  "inv(2 - z1*z2*z1 + 0.3*z2*z2)"])
def test_polynomial_inverse_has_spr_zero(text):
    # 1/r is a polynomial: its tuple is nilpotent, and exactly so, as the
    # minimal realization of 1/r is
    r = nf.from_expression(text, 2)
    assert nf.spr(nf.minimize(nf.invert(nf.minimize(r))).A) == 0.0
    cert = nf.is_outer_rational(r)
    assert cert.outer and cert.spr_inverse == 0.0


def test_outerness_minimizes_once_and_inverts_nothing(monkeypatch, capsys):
    from ncfock import cli, realization

    counters = {name: [count_calls(monkeypatch, module, name)
                       for module in (realization, factorization)]
                for name in ("invert", "minimize")}

    def calls(name):
        total = sum(len(c) for c in counters[name])
        for c in counters[name]:
            del c[:]
        return total

    cert = nf.is_outer_rational(nf.from_expression("1 + z1 + z1*z2", 2))
    assert not cert.outer
    assert (calls("invert"), calls("minimize")) == (0, 1)
    assert cli.main(["outer-test", "-d", "2", "1 + z1 + z1*z2"]) == 0
    assert json.loads(capsys.readouterr().out)["outer"] is False
    assert (calls("invert"), calls("minimize")) == (0, 1)


def test_is_inner_examples():
    assert nf.is_inner(nf.minimize(nf.variable(1, 2)))
    # (z1 + z2)/sqrt(2) is a row-isometry column
    iso = nf.minimize(nf.scale(
        nf.add(nf.variable(1, 2), nf.variable(2, 2)), 2 ** -0.5))
    assert nf.is_inner(iso)
    assert not nf.is_inner(nf.minimize(nf.scale(nf.variable(1, 2), 2.0)))
    assert not nf.is_inner(nf.minimize(
        nf.from_expression("1 + z1", 2)))


@pytest.mark.parametrize("k", [-600, -40, 0, 40, 600])
def test_is_inner_on_the_mantissa(k):
    """Scaling b of an inner function by 2^k scales c* Q c by 4^k, to inf
    where that overflows, and leaves the orthogonality defect to the bit;
    no RuntimeWarning on the way."""
    r = nf.minimize(nf.scale(
        nf.add(nf.variable(1, 2), nf.variable(2, 2)), 2 ** -0.5))
    scaled = nf.Realization(r.A, math.ldexp(1.0, k) * r.b, r.c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base, cert = nf.is_inner(r), nf.is_inner(scaled)
    assert cert.orthogonality_defect == base.orthogonality_defect <= 1e-12
    assert bool(cert) is (k == 0)
    want = {-600: 1.0, 600: math.inf}[k] if abs(k) == 600 \
        else abs(4.0 ** k - 1.0)
    assert cert.unit_defect == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_is_inner_rejects_unbounded():
    geo = nf.minimize(nf.from_expression("inv(1 - z1)", 1))
    with pytest.raises(nf.SpectralRadiusError):
        nf.is_inner(geo)


def test_quotient_is_inner(poly_p5):
    res = nf.outer_factor(poly_p5, seed=0)
    cert = nf.is_inner(res.inner, tol=1e-7)
    assert cert
    assert cert.unit_defect <= 1e-7
    assert cert.orthogonality_defect <= 1e-7
    # cross-validation: Toeplitz columns of the inner factor are near
    # isometric at degree 8 (the truncated tail accounts for the defect)
    theta_table = nf.taylor_table(res.inner, 8)
    T = nf.toeplitz(theta_table, 8).matrix
    col_norm = np.linalg.norm(T[:, 0])
    assert 0.97 <= col_norm <= 1.0 + 1e-9


def test_blaschke_flip_cross_check():
    """d = 1: outer factor equals the classical inside-root reflection."""
    rng = np.random.default_rng(77)
    for _ in range(8):
        deg = int(rng.integers(1, 5))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        if abs(coeffs[0]) < 0.2:
            coeffs[0] += 0.5
        p = nf.NCPolynomial(1, {(1,) * k: complex(coeffs[k])
                                for k in range(deg + 1)})
        res = nf.outer_factor(p, seed=1)
        expected = _blaschke_flip(coeffs)
        got = np.array([res.outer.coeff((1,) * k) for k in range(deg + 1)])
        assert np.max(np.abs(got - expected[:deg + 1])) <= 1e-6


def _blaschke_flip(coeffs):
    roots = np.polynomial.polynomial.Polynomial(coeffs).roots()
    const = coeffs[-1]
    flipped = []
    for root in roots:
        if abs(root) < 1:
            flipped.append(1 / np.conj(root))
            const = const * (-np.conj(root))
        else:
            flipped.append(root)
    q = np.polynomial.polynomial.polyfromroots(flipped) * const \
        if flipped else np.array([const])
    return q / (q[0] / abs(q[0]))


def test_maximality_probe(poly_p5):
    """Feasible-direction perturbations cannot push the constant term up,
    over every word of length <= deg p, not only the hereditary tree."""
    res = nf.outer_factor(poly_p5, seed=0)
    q = res.outer
    d, deg = 2, 2
    words = list(words_up_to(d, deg))
    target = nf.autocorrelations(poly_p5)
    x_star = np.conj([q.coeff(w) for w in words]).view(float)

    def residual(x):
        return _autocorr_residual(_polynomial(d, words, x), target, words)

    # tangent directions of the constraint manifold via the Jacobian
    h = 1e-7
    base = residual(x_star)
    J = np.empty((base.size, x_star.size))
    for k in range(x_star.size):
        xp = x_star.copy()
        xp[k] += h
        J[:, k] = (residual(xp) - base) / h
    _, s, Vh = np.linalg.svd(J)
    null = Vh[s.size:] if Vh.shape[0] > s.size else Vh[np.sum(s > 1e-6):]
    rng = np.random.default_rng(123)
    bumped = 0
    for _ in range(200):
        if null.shape[0] == 0:
            break
        direction = null.T @ rng.standard_normal(null.shape[0])
        norm = np.linalg.norm(direction)
        if norm == 0:
            continue
        x_pert = x_star + 1e-4 * direction / norm
        if np.linalg.norm(residual(x_pert), np.inf) <= 1e-6:
            bumped = max(bumped, x_pert[0] - x_star[0])
    assert bumped <= 1e-5


@st.composite
def _system_and_point(draw):
    """A random polynomial p (d <= 3, deg <= 3), the Stein system of its
    shift realization, the reference residual of the autocorrelation
    equations of p on its hereditary tree and a random point x."""
    d = draw(st.integers(1, 3))
    deg = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gammas = list(words_up_to(d, deg))
    support = rng.random(len(gammas)) < 0.6
    support[-1] = True
    p = nf.NCPolynomial(d, {w: complex(*rng.standard_normal(2))
                            for w, keep in zip(gammas, support) if keep})
    target = nf.autocorrelations(p)
    tree = suffix_closure(p.coeffs)
    x = draw(st.floats(0.1, 3.0)) * rng.standard_normal(2 * len(tree))

    def reference(x):
        return _autocorr_residual(_polynomial(d, tree, x), target, tree)

    return _SteinSystem(nf.from_polynomial(p)), reference, x


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_system_and_point())
def test_index_triple_residual_matches_reference(case):
    """The Stein system's residual is the autocorrelation difference on the
    hereditary tree, and a batch of starts gives each start's rows."""
    system, reference, x = case
    got, want = system.residual(x), reference(x)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * (1 + x @ x)
    # a batch of starts gives each start's rows, to the bit
    batch = np.stack([x, -0.5 * x, x[::-1]])
    for name in ("residual", "jacobian"):
        method = getattr(system, name)
        assert np.array_equal(method(batch),
                              np.stack([method(row) for row in batch]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_system_and_point())
def test_analytic_jacobian_matches_central_differences(case):
    system, reference, x = case
    J = system.jacobian(x)
    h = 1e-5 * max(1.0, float(np.max(np.abs(x))))
    fd = np.column_stack([(reference(x + h * e) - reference(x - h * e))
                          / (2 * h) for e in np.eye(x.size)])
    assert J.shape == fd.shape
    assert np.max(np.abs(J - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_stein_system_solves_one_stack(monkeypatch, fixture_realization):
    # a shift realization is jointly nilpotent: its Stein solutions H_i are
    # finite sums, with no LU
    shift = nf.from_polynomial(
        nf.NCPolynomial(2, {(): 1.0, (1,): 1.0, (1, 2): 1.0}))
    assert shift.n == 4
    calls = count_calls(monkeypatch, np.linalg, "solve")
    _SteinSystem(shift)
    assert calls == []
    # at spr > 0 the n right Stein solutions share one LU; the certificate
    # solve of the spr gate is not the Stein solve counted
    r = fixture_realization
    assert r.cpmap.spr > 0 and r.cpmap.band == "below"
    del calls[:]
    system = _SteinSystem(r)
    assert len(calls) == 1
    H = np.stack([nf.stein_solve(r.cpmap, np.outer(e, np.conj(r.c)))
                  for e in np.eye(r.n)])
    assert np.array_equal(system._right, H.reshape(r.n * r.n, r.n).T)


def _record_calls(monkeypatch, module, name):
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_outer_factor_uses_exact_jacobian(monkeypatch, poly_p5, poly_P6):
    """All starts go to the least-squares helper in one batched call with
    the analytic Jacobian, one point of 2n real coordinates per start, n
    the size of the hereditary tree; no autocorrelation table is built."""
    auto_calls = _record_calls(monkeypatch, factorization, "autocorrelations")
    lsq_calls = _record_calls(monkeypatch, factorization, "least_squares")
    for p in (poly_p5, poly_P6):
        del auto_calls[:], lsq_calls[:]
        res = nf.outer_factor(p, seed=0)
        assert res.outer_certificate and res.inner_certificate
        assert auto_calls == []
        [((_, x0), kwargs)] = lsq_calls
        assert x0.shape == (res.diagnostics["starts"],
                            2 * len(nf.hereditary_tree(p)))
        assert callable(kwargs.get("jac"))


def _scipy_lm(fun, x0, jac, max_nfev):
    """scipy's MINPACK least_squares(method="lm") on each start in turn: a
    test-only reference with the call signature of the helper."""
    from scipy.optimize import least_squares as reference

    fits = [reference(fun, x, jac=jac, method="lm", xtol=1e-15, ftol=1e-15,
                      gtol=1e-15, max_nfev=max_nfev) for x in x0]
    return LeastSquaresResult(x=np.array([fit.x for fit in fits]),
                              nfev=sum(int(fit.nfev) for fit in fits))


def test_lm_helper_converges_wherever_scipy_lm_does(monkeypatch, poly_p5,
                                                    poly_P6):
    """On every start of three polynomials the helper reaches the residual
    tolerance of outer_factor wherever MINPACK's Levenberg-Marquardt does,
    and the certified q0 of the two agree to 1e-13 relative."""
    p3 = nf.NCPolynomial(2, {(): 2.0, (1, 2): 1.0, (2, 1, 1): 3.0})
    for p in (poly_p5, poly_P6, p3):
        calls = _record_calls(monkeypatch, factorization, "least_squares")
        q0 = nf.outer_factor(p, seed=0).q0
        monkeypatch.undo()
        [((fun, x0), kwargs)] = calls
        converged = [
            np.linalg.norm(fun(fit.x), np.inf, axis=-1) <= 1e-8
            for fit in (least_squares(fun, x0, **kwargs),
                        _scipy_lm(fun, x0, **kwargs))]
        assert converged[1].any()
        assert np.all(converged[0] | ~converged[1])
        monkeypatch.setattr(factorization, "least_squares", _scipy_lm)
        assert nf.outer_factor(p, seed=0).q0 == pytest.approx(q0, rel=1e-13)
        monkeypatch.undo()


def test_certification_error_diagnostics():
    with pytest.raises(ValueError):
        nf.outer_factor(nf.NCPolynomial.zero(2))


def test_zero_polynomial_is_a_coded_error():
    for call in (nf.outer_factor, nf.hereditary_tree):
        with pytest.raises(nf.ZeroPolynomialError) as info:
            call(nf.NCPolynomial.zero(2))
        assert isinstance(info.value, nf.NCFockError)
        assert info.value.code == "zero-polynomial"


@settings(max_examples=20, deadline=None, derandomize=True)
@given(j=st.integers(-400, 400))
def test_outer_factor_is_invariant_under_powers_of_two(j, poly_p5):
    """outer_factor runs on 2^-k p, so 2^j p gives bitwise 2^j (q, q0), the
    residual times 4^j and the same inner factor."""
    p3 = nf.NCPolynomial(2, {(): 2.0, (1, 2): 1.0, (2, 1, 1): 3.0})
    for p in (poly_p5, p3):
        want = nf.outer_factor(p, seed=0)
        got = nf.outer_factor(p * 2.0 ** j, seed=0)
        assert got.outer.coeffs == (want.outer * 2.0 ** j).coeffs
        assert got.q0 == math.ldexp(want.q0, j)
        assert got.residual == math.ldexp(want.residual, 2 * j)
        for name in "Abc":
            assert np.array_equal(getattr(got.inner, name),
                                  getattr(want.inner, name))


def test_outer_factor_at_extreme_scales():
    # ||p||_2^2, the empty-word autocorrelation, overflows at 1e170
    with pytest.raises(nf.NumericalFailureError):
        nf.outer_factor(nf.NCPolynomial(1, {(): 1e170, (1,): 1e170}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1e-200, 1e-150, 1e150):
            res = nf.outer_factor(nf.NCPolynomial(1, {(): 2 * s, (1,): s}))
            assert res.q0 == pytest.approx(2 * s, rel=1e-12)
            assert res.outer_certificate and res.inner_certificate


def test_outer_factor_of_a_long_chain():
    """1 + (z1 + z1 z2 + ... + z1 z2^9) / 2 has 2047 words of length <= 10
    but a hereditary tree of 20: it certifies at the q0 of the Stein
    system."""
    p = nf.NCPolynomial(2, {(): 1.0, **{(1,) + (2,) * k: 0.5
                                        for k in range(10)}})
    res = nf.outer_factor(p, seed=0)
    assert res.outer_certificate and res.inner_certificate
    assert res.q0 == pytest.approx(1.14581884908474, rel=1e-10)
    assert set(res.outer.coeffs) <= nf.hereditary_tree(p)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(1, 3), deg=st.integers(0, 3), size=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_outer_factor_certifies_sparse_polynomials(d, deg, size, seed):
    """A sparse polynomial factors with both certificates, and its outer
    factor, which lives on the hereditary tree, matches all of p's
    autocorrelations."""
    rng = np.random.default_rng(seed)
    words = list(words_up_to(d, deg))
    support = rng.choice(len(words), min(size, len(words)), replace=False)
    p = nf.NCPolynomial(d, {words[k]: complex(*rng.standard_normal(2))
                            for k in support})
    res = nf.outer_factor(p, seed=0)
    assert res.outer_certificate and res.inner_certificate
    assert (autocorrelation_mismatch(p, res.outer)
            <= 1e-10 * max(1.0, p.l2_norm() ** 2))


def test_import_leaves_scipy_optimize_unloaded():
    """Neither importing ncfock nor a factor or variety-search run loads
    scipy.optimize."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ncfock; print('scipy.optimize' in sys.modules)"],
        env=src_env(), capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         "from ncfock.cli import main\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         "    main(['factor', '-d', '2', '1 + z1 + z1*z2'])\n"
         "    main(['variety-search', '-d', '2', '1 - z1*z2 - z2*z1',\n"
         "          '--level', '2'])\n"
         "print('scipy.optimize' in sys.modules)"],
        env=src_env(), capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
