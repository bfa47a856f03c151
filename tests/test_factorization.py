import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncfock as nf
from conftest import src_env
from ncfock import factorization
from ncfock.factorization import (
    _AutocorrelationSystem,
    autocorrelation_mismatch,
    factor_identity_table,
    _pack,
    _unpack,
)
from ncfock.words import words_up_to


def _autocorr_residual(q, target, gammas):
    """Reference residual from the autocorrelation tables: the real part at
    the empty word, then real and imaginary parts of each further gamma."""
    auto = nf.autocorrelations(q)
    out = []
    for g in gammas:
        diff = auto.get(g, 0.0) - target.get(g, 0.0)
        if g == ():
            out.append(diff.real)
        else:
            out.extend((diff.real, diff.imag))
    return np.array(out)


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


def test_is_inner_examples():
    assert nf.is_inner(nf.minimize(nf.variable(1, 2)))
    # (z1 + z2)/sqrt(2) is a row-isometry column
    iso = nf.minimize(nf.scale(
        nf.add(nf.variable(1, 2), nf.variable(2, 2)), 2 ** -0.5))
    assert nf.is_inner(iso)
    assert not nf.is_inner(nf.minimize(nf.scale(nf.variable(1, 2), 2.0)))
    assert not nf.is_inner(nf.minimize(
        nf.from_expression("1 + z1", 2)))


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
    """Feasible-direction perturbations cannot push the constant term up."""
    res = nf.outer_factor(poly_p5, seed=0)
    q = res.outer
    d, deg = 2, 2
    words = [w for w in words_up_to(d, deg) if w != ()]
    gammas = list(words_up_to(d, deg))
    target = nf.autocorrelations(poly_p5)
    x_star = _pack(words, q.coeff(()).real, {w: q.coeff(w) for w in words})

    def residual(x):
        return _autocorr_residual(_unpack(d, words, x), target, gammas)

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
    """A random polynomial p (d <= 3, deg <= 3), the reference residual of
    the autocorrelation equations of p, its index-triple system and a
    random point x."""
    d = draw(st.integers(1, 3))
    deg = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gammas = list(words_up_to(d, deg))
    words = gammas[1:]
    support = rng.random(len(gammas)) < 0.6
    support[-1] = True
    p = nf.NCPolynomial(d, {w: complex(*rng.standard_normal(2))
                            for w, keep in zip(gammas, support) if keep})
    target = nf.autocorrelations(p)
    x = draw(st.floats(0.1, 3.0)) * rng.standard_normal(1 + 2 * len(words))

    def reference(x):
        return _autocorr_residual(_unpack(d, words, x), target, gammas)

    return _AutocorrelationSystem(d, deg, target), reference, x


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_system_and_point())
def test_index_triple_residual_matches_reference(case):
    system, reference, x = case
    got, want = system.residual(x), reference(x)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * (1 + x @ x)


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


def _record_calls(monkeypatch, module, name):
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_outer_factor_uses_exact_jacobian(monkeypatch, poly_p5, poly_P6):
    """Every least-squares solve gets the analytic Jacobian, and the only
    autocorrelation table built is the target's."""
    auto_calls = _record_calls(monkeypatch, factorization, "autocorrelations")
    lsq_calls = _record_calls(monkeypatch, factorization, "least_squares")
    for p in (poly_p5, poly_P6):
        del auto_calls[:], lsq_calls[:]
        res = nf.outer_factor(p, seed=0)
        assert res.outer_certificate and res.inner_certificate
        assert [args for args, _ in auto_calls] == [(p,)]
        assert len(lsq_calls) == res.diagnostics["starts"]
        assert all(callable(kwargs.get("jac")) for _, kwargs in lsq_calls)


def test_certification_error_diagnostics():
    with pytest.raises(ValueError):
        nf.outer_factor(nf.NCPolynomial.zero(2))


def test_import_leaves_scipy_optimize_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ncfock; print('scipy.optimize' in sys.modules)"],
        env=src_env(), capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
