import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncfock as nf
from conftest import count_calls, random_polynomial, src_env
from ncfock import spectrum
from ncfock.spectral import SPR_BOUNDARY_TOL, band, real_form
from ncfock.spectrum import (
    _ABOVE,
    _BELOW,
    _EDGE,
    CLASS_INDET,
    CLASS_RESOLVENT,
    CLASS_SIGMAPM,
    CLASS_SPECTRUM,
    _cell_decision,
    _Resolvent,
    _WitnessSystem,
)


@pytest.fixture(scope="module")
def z1():
    return nf.minimize(nf.from_expression("z1", 2))


def test_contains_lambda_examples(z1):
    res = nf.contains_lambda(z1, 1.5)
    assert res.verdict == "resolvent"
    assert res.spr_value == pytest.approx(2.0 / 3.0, abs=1e-9)

    on_boundary = nf.contains_lambda(z1, 1.0)
    assert on_boundary.verdict == "spectrum"
    assert on_boundary.spr_value == pytest.approx(1.0, abs=1e-9)
    assert on_boundary.indeterminate

    zero = nf.contains_lambda(z1, 0.0)
    assert zero.verdict == "spectrum" and zero.zero_level


def test_polynomial_inverse_cell_has_spr_zero():
    # 1/(r - 0) is the polynomial 1 + 0.3 z1 + 0.3 z1 z2: the cell reads
    # the spr of the cleaned, exactly nilpotent inverse, as outerness does
    r = nf.minimize(nf.from_expression("inv(1 + 0.3*z1 + 0.3*z1*z2)", 2))
    cell = nf.contains_lambda(r, 0.0)
    assert cell.verdict == "resolvent"
    assert cell.spr_value == 0.0
    assert cell.spr_value == nf.is_outer_rational(r).spr_inverse


def test_contains_lambda_witness(z1):
    res = nf.contains_lambda(z1, 0.5, want_witness=True)
    assert res.verdict == "spectrum"
    assert res.witness is not None
    assert res.witness.row_norm() <= 1.0 + 1e-6


def test_contains_lambda_requires_bounded():
    geo = nf.minimize(nf.from_expression("inv(1 - z1)", 1))
    with pytest.raises(nf.SpectralRadiusError):
        nf.contains_lambda(geo, 0.3)


def test_grid_scan_disk_coarse(z1):
    scan = nf.grid_scan(z1, (-1.4, 1.4, -1.4, 1.4), 0.2)
    for i in range(scan.member.shape[0]):
        for j in range(scan.member.shape[1]):
            lam = scan.center(i, j)
            if abs(lam) <= 0.98:
                assert scan.member[i, j], lam
            if abs(lam) >= 1.02:
                assert not scan.member[i, j], lam
    # interior spectrum cells of the shift carry an inner factor
    assert scan.classes[7, 7] == CLASS_SIGMAPM


def test_grid_scan_constant_marks_single_cell():
    c = nf.minimize(nf.const(0.3 + 0.2j, 2))
    scan = nf.grid_scan(c, (-1.0, 1.0, -1.0, 1.0), 0.5)
    assert scan.member.sum() == 1
    marked = scan.member_points()[0]
    assert abs(marked - (0.25 + 0.25j)) < 1e-12


def test_grid_scan_conjugation_symmetry():
    r = nf.minimize(nf.from_expression("(0+1i)*z1 + 0.2*z2*z1", 2))
    rect = (-1.4, 1.4, -1.4, 1.4)
    scan = nf.grid_scan(r, rect, 0.35, classify=False)
    conj_scan = nf.grid_scan(nf.conjugate_realization(r), rect, 0.35,
                             classify=False)
    assert np.array_equal(conj_scan.member, scan.member[::-1, :])


def test_grid_scan_constant_unclassified_tag():
    c = nf.minimize(nf.const(0.3 + 0.2j, 2))
    rect = (-1.0, 1.0, -1.0, 1.0)
    plain = nf.grid_scan(c, rect, 0.5, classify=False)
    classified = nf.grid_scan(c, rect, 0.5)
    assert plain.classes[plain.member].tolist() == [CLASS_SPECTRUM]
    assert classified.classes[classified.member].tolist() == [CLASS_SIGMAPM]


def test_grid_scan_serial_deterministic(z1):
    rect = (-1.2, 1.2, -1.2, 1.2)
    first = nf.grid_scan(z1, rect, 0.3)
    second = nf.grid_scan(z1, rect, 0.3)
    assert np.array_equal(first.member, second.member)
    assert np.array_equal(first.classes, second.classes)


# ---------------------------------------------------------------------------
# The resolvent tuple against the add -> invert -> minimize -> spr chain
# ---------------------------------------------------------------------------

def _reference_inverse(r_min, lam):
    """Minimal realization of (r - lam)^{-1}, built the long way."""
    shifted = nf.add(r_min, nf.const(-lam, r_min.d))
    return nf.minimize(nf.invert(shifted))


def _long_way_outer_spr(r):
    """spr of the minimal realization of 1/r, built by invert and
    minimize: the outerness test without ``is_outer_rational``."""
    return nf.spr(nf.minimize(nf.invert(r)).A)


def _reference_cell(r_min, lam, classify):
    """A scan cell decided by the spr of the minimal inverse realization,
    classified by the outerness of r - lam, decided the long way: r - lam
    is outer iff it is nonzero at 0 and that spr is <= 1 + 1e-9."""
    lam = complex(lam)
    shifted = nf.add(r_min, nf.const(-lam, r_min.d))
    zero_level = abs(r_min.value_at_zero() - lam) <= 1e-12 * max(1.0,
                                                                 abs(lam))
    if not zero_level:
        s = nf.spr(_reference_inverse(r_min, lam).A)
        if s < 1.0 - SPR_BOUNDARY_TOL:
            return False, CLASS_RESOLVENT
        if abs(s - 1.0) <= SPR_BOUNDARY_TOL:
            return True, CLASS_INDET
    if not classify:
        return True, CLASS_SPECTRUM
    if zero_level:
        return True, CLASS_SIGMAPM
    s = _long_way_outer_spr(shifted)
    if abs(s - 1.0) <= SPR_BOUNDARY_TOL:
        return True, CLASS_INDET
    return True, ("sigma_0" if s <= 1.0 + SPR_BOUNDARY_TOL
                  else CLASS_SIGMAPM)


def _perturbed_fixture(fixture_realization, eps=1e-2, seed=3):
    rng = np.random.default_rng(seed)
    noise = {w: eps * rng.random() * np.exp(2j * np.pi * rng.random())
             for w in nf.words_up_to(2, 3)}
    return nf.minimize(nf.add(fixture_realization, nf.from_polynomial(
        nf.NCPolynomial(2, noise))))


def _differential_cases(fixture_realization):
    d3 = nf.minimize(nf.from_expression(
        "inv(1 - 0.3*z1*z2 - 0.2*z3 + 0.1*z2*z3*z1)", 3))
    return [
        ("z1", nf.minimize(nf.from_expression("z1", 2)),
         (-1.3, 1.3, -1.3, 1.3), 0.2),
        ("fixture", nf.minimize(fixture_realization),
         (0.3, 3.8, -1.75, 1.75), 0.35),
        ("perturbed", _perturbed_fixture(fixture_realization),
         (0.3, 3.9, -1.8, 1.8), 0.45),
        ("d3", d3, (-0.4, 2.6, -1.5, 1.5), 0.3),
        # complex coefficients: no mirror symmetry about the real axis
        ("complex", nf.minimize(nf.from_expression(
            "(0.5+0.5i)*z1 + 0.3i*z2*z1 + 0.2*z2 + 0.25*z1*z1", 2)),
         (-1.2, 1.2, -1.2, 1.2), 0.2),
    ]


def test_grid_scan_matches_minimized_inverse(fixture_realization):
    cases = _differential_cases(fixture_realization)
    assert cases[2][1].n == 9
    for name, r, rect, res in cases:
        scan = nf.grid_scan(r, rect, res)
        for i in range(scan.member.shape[0]):
            for j in range(scan.member.shape[1]):
                want = _reference_cell(r, scan.center(i, j), True)
                got = (bool(scan.member[i, j]), scan.classes[i, j])
                assert got == want, (name, scan.center(i, j))
        assert scan.member.any() and not scan.member.all(), name


def test_classified_scan_is_relabelled_unclassified(fixture_realization):
    for name, r, rect, res in _differential_cases(fixture_realization):
        classified = nf.grid_scan(r, rect, res)
        plain = nf.grid_scan(r, rect, res, classify=False)
        assert np.array_equal(classified.member, plain.member), name
        relabelled = np.where(plain.classes == CLASS_SPECTRUM,
                              CLASS_SIGMAPM, plain.classes)
        assert np.array_equal(classified.classes, relabelled), name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), d=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_resolvent_tuple_spr_matches_minimized_inverse(n, d, seed):
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    A = gaussian(d, n, n)
    A *= rng.uniform(0.2, 0.9) / np.linalg.norm(np.hstack(list(A)), 2)
    r = nf.minimize(nf.Realization(A, gaussian(n), gaussian(n)))
    lam = r.value_at_zero() + rng.uniform(0.05, 3.0) \
        * np.exp(2j * np.pi * rng.random())
    got = nf.spr(_Resolvent(r).at(lam))
    want = nf.spr(_reference_inverse(r, lam).A)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


@st.composite
def _non_minimal_realizations(draw):
    """A realization that is not minimal, nonzero at 0: the shift
    realization of a random polynomial with constant term 1 (controllable,
    not always observable), or a random rational one plus the zero function
    (a direct sum with an unreachable state)."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        p = random_polynomial(rng, d, degree=3, terms=5)
        return nf.from_polynomial(p + nf.NCPolynomial(d, {(): 1.0}))
    n = draw(st.integers(1, 6))
    A = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    A *= rng.uniform(0.2, 0.9) / np.linalg.norm(np.hstack(list(A)), 2)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c += (1.0 - np.vdot(b, c)) * b / np.vdot(b, b)      # r(0) = 1
    return nf.add(nf.Realization(A, b, c), nf.const(0.0, d))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_non_minimal_realizations())
def test_outerness_matches_minimized_inverse(r):
    got = nf.is_outer_rational(r).spr_inverse
    assert got == pytest.approx(_long_way_outer_spr(r), rel=1e-12,
                                abs=1e-300)


def test_outerness_of_a_constant():
    r = nf.const(0.3 - 0.4j, 2)
    assert _long_way_outer_spr(r) == 0.0
    cert = nf.is_outer_rational(r)
    assert cert.outer and not cert.indeterminate
    assert cert.spr_inverse == 0.0


# ---------------------------------------------------------------------------
# The Stein certificate of a cell against the band of its spr
# ---------------------------------------------------------------------------

def _spr_band(cp):
    """Where the printed spr of a cell's ``inverse_cpmap`` lies against
    1 +- 1e-9 (a zero-level cell, None, counts as above); its
    ``CPMap.band``, which the verdicts read, must say the same."""
    if cp is None:
        return _ABOVE
    where = band(cp.spr)
    assert cp.band == where
    return where


def _spr_cell(band, classify):
    """A scan cell decided by the spr band of its tuple alone."""
    if band == _BELOW:
        return False, CLASS_RESOLVENT
    if band == _EDGE:
        return True, CLASS_INDET
    return True, (CLASS_SIGMAPM if classify else CLASS_SPECTRUM)


def _check_certificate(resolvent, lam):
    """The certificate agrees with the spr band or defers, and defers only
    where spr is within 1e-6 of 1.  Returns the spr band."""
    cp = resolvent.inverse_cpmap(lam)
    want = _spr_band(cp)
    where = resolvent.bands([lam])[0]
    if where is not None:
        assert where == want, lam
    elif cp is not None:
        assert abs(cp.spr - 1.0) <= 1e-6, lam
    return want


def test_stein_certificate_agrees_with_spr_band(fixture_realization):
    for _, r, rect, res in _differential_cases(fixture_realization):
        resolvent = _Resolvent(r)
        scan = nf.grid_scan(r, rect, res, classify=False)
        for i in range(scan.member.shape[0]):
            for j in range(scan.member.shape[1]):
                _check_certificate(resolvent, scan.center(i, j))


def test_criterion5_grid_matches_spr_cells():
    z1 = nf.minimize(nf.from_expression("z1", 2))
    resolvent = _Resolvent(z1)
    rect = (-1.5, 1.5, -1.5, 1.5)
    scans = {classify: nf.grid_scan(z1, rect, 0.05, classify=classify)
             for classify in (True, False)}
    assert scans[True].member.shape == (60, 60)
    for i in range(60):
        for j in range(60):
            lam = scans[True].center(i, j)
            band = _check_certificate(resolvent, lam)
            for classify, scan in scans.items():
                assert (bool(scan.member[i, j]), scan.classes[i, j]) == \
                    _spr_cell(band, classify), (lam, classify)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 9), d=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stein_certificate_at_the_knife_edge(n, d, seed):
    """lambda on a ray from r(0), placed so that spr(B(lambda)) is 1 +- 1e-6,
    1 +- 1e-8 and 1 +- 1e-10: the certificate agrees with the spr band or
    defers."""
    from scipy.optimize import brentq

    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    A = gaussian(d, n, n)
    A *= rng.uniform(0.2, 0.9) / np.linalg.norm(np.hstack(list(A)), 2)
    r = nf.minimize(nf.Realization(A, gaussian(n), gaussian(n)))
    resolvent = _Resolvent(r)
    direction = np.exp(2j * np.pi * rng.random())

    def spr_at(rho):
        # plain eigenvalues of the matrization, cheaper than the guarded
        # spr, place lambda; the band is then read from spr itself
        lam = resolvent.gamma + rho * direction
        M = nf.matrize([(Bj, Bj.conj().T) for Bj in resolvent.at(lam)])
        return float(np.sqrt(np.max(np.abs(np.linalg.eigvals(M)))))

    lo = hi = 1.0
    for _ in range(60):
        if spr_at(lo) > 1.5:
            break
        lo /= 2.0
    for _ in range(60):
        if spr_at(hi) < 0.95:
            break
        hi *= 2.0
    assert spr_at(lo) > 1.5 and spr_at(hi) < 0.95
    for offset, band in ((1e-6, _ABOVE), (1e-8, _ABOVE), (1e-10, _EDGE),
                         (-1e-10, _EDGE), (-1e-8, _BELOW), (-1e-6, _BELOW)):
        rho = brentq(lambda x: spr_at(x) - (1.0 + offset), lo, hi,
                     xtol=1e-300, rtol=1e-15, maxiter=500)
        lam = resolvent.gamma + rho * direction
        assert _spr_band(resolvent.inverse_cpmap(lam)) == band, offset
        assert resolvent.bands([lam])[0] in (None, band), offset


def test_scan_of_perturbed_copy_calls_no_spr(monkeypatch,
                                             fixture_realization):
    from ncfock import spectral

    r = _perturbed_fixture(fixture_realization)
    calls = count_calls(monkeypatch, spectral, "spr")
    scan = nf.grid_scan(r, (0.3, 3.9, -1.8, 1.8), 0.45)
    assert scan.member.any() and not scan.member.all()
    assert calls == []


def test_knife_edge_cells_are_certified_on_the_edge(monkeypatch, z1):
    from ncfock import spectral

    resolvent = _Resolvent(z1)
    calls = count_calls(monkeypatch, spectral, "spr")
    inverses = count_calls(monkeypatch, resolvent, "inverse_cpmap")
    for lam in (1.0, 1j, 1.0 + 1e-10, 1.0 - 1e-10):
        assert resolvent.bands([lam])[0] == _EDGE, lam
        assert calls == [] and inverses == [], lam
        # a cell left undecided reads the band of its inverse's CPMap
        assert _cell_decision(resolvent, lam, True, None) == \
            (True, CLASS_INDET)
        assert inverses.pop() == (lam,)
    assert calls == []


def test_cell_decision_runs_once_per_cell(monkeypatch, z1):
    from ncfock import spectrum

    calls = count_calls(monkeypatch, spectrum, "_cell_decision")
    scan = nf.grid_scan(z1, (-1.3, 1.3, -1.3, 1.3), 0.2)
    assert len(calls) == scan.member.size == 169
    assert len({complex(call[1]) for call in calls}) == 169


def _knife_edge_real_form(rng, d, n, offset):
    """The real form of the CP map of a random d-tuple of n x n matrices
    scaled to spr 1 + offset."""
    B = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    B *= (1.0 + offset) / nf.spr(B)
    return real_form(nf.matrize([(Bj, Bj.conj().T) for Bj in B]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), d=st.integers(1, 3),
       offsets=st.lists(st.sampled_from([-0.3, -1e-6, -1e-8, -1e-10, 1e-10,
                                         1e-8, 1e-6, 0.3]),
                        min_size=2, max_size=5),
       bad=st.sampled_from([None, "singular", "nan"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_stein_bands_equal_single_ones(n, d, offsets, bad, seed):
    """A stack of real forms with spr near and away from the knife edge gets
    the band of each one alone; an exactly singular I - R/t^2 or a NaN in R
    gives None for that entry alone."""
    from ncfock.spectral import _stein_bands

    rng = np.random.default_rng(seed)
    R = np.stack([_knife_edge_real_form(rng, d, n, offset)
                  for offset in offsets])
    k = int(rng.integers(len(R)))
    if bad is not None:
        R[k] = 0.0
        t = 1.0 - SPR_BOUNDARY_TOL
        # row 0 of I - R/t^2 is exactly 0 at the first t; a NaN is not finite
        R[k, 0, 0] = t * t if bad == "singular" else np.nan
    stacked = _stein_bands(R, n)
    assert stacked == [_stein_bands(R[k:k + 1], n)[0] for k in range(len(R))]
    if bad is not None:
        assert stacked[k] is None
    for j, offset in enumerate(offsets):
        if abs(offset) == 0.3 and not (bad and j == k):
            assert stacked[j] == (_BELOW if offset < 0 else _ABOVE), offset


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), d=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stein_bands_decide_within_roundoff_of_the_band(n, d, seed):
    """A tuple scaled to spr t (1 + delta) at either end t of the band gets
    exactly the band of that spr for |delta| down to 1e-11, and that band
    or None at 1e-13, never another."""
    from ncfock.spectral import _stein_bands

    rng = np.random.default_rng(seed)
    B = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    B /= nf.spr(B, method="iterate")
    for t in (1.0 - SPR_BOUNDARY_TOL, 1.0 + SPR_BOUNDARY_TOL):
        for delta in (1e-9, 1e-11, 1e-13):
            for s in (t * (1.0 + delta), t * (1.0 - delta)):
                # the R of the mantissa 2^-k sB and k, as CPMap.band
                # passes them
                cp = nf.CPMap(s * B)
                where = _stein_bands(cp.real_matrization[None], n, cp.k)[0]
                want = band(s)
                if delta == 1e-13:
                    assert where in (want, None), (t, s)
                else:
                    assert where == want, (t, s)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), d=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_scan_does_not_depend_on_the_block(n, d, seed):
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    A = gaussian(d, n, n)
    A *= rng.uniform(0.2, 0.9) / np.linalg.norm(np.hstack(list(A)), 2)
    r = nf.minimize(nf.Realization(A, gaussian(n), gaussian(n)))
    mu = r.value_at_zero()
    radius = 2.0 * float(np.abs(nf.evaluate(r, nf.MatrixTuple.zeros(d, 1)))
                         .max()) + 1.0
    rect = (mu.real - radius, mu.real + radius, mu.imag - radius,
            mu.imag + radius)
    whole = nf.grid_scan(r, rect, radius / 3.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "_STEIN_BLOCK", 1)
        single = nf.grid_scan(r, rect, radius / 3.0)
    assert np.array_equal(whole.member, single.member)
    assert np.array_equal(whole.classes, single.classes)


def test_stacked_certificates_stay_within_the_block(monkeypatch,
                                                     fixture_realization):
    r = _perturbed_fixture(fixture_realization)
    assert _Resolvent(r).n == 8
    calls = count_calls(monkeypatch, np.linalg, "solve")
    scan = nf.grid_scan(r, (0.4, 3.6, -1.6, 1.6), 0.4)
    assert scan.member.size == 64
    stacks = [args[0].shape for args in calls if args[0].ndim == 3]
    # 2**15 // 8**4 = 8 cells a block: 8 blocks, each solved at the first t
    assert max(shape[0] for shape in stacks) == 8
    assert len(stacks) >= 8
    assert all(np.prod(shape) <= spectrum._STEIN_BLOCK for shape in stacks)


def test_scan_from_the_switch_up_matches_the_forced_certificate():
    """A random minimal d = 2 realization whose resolvent has 12 states
    scans 16 cells, each at least 0.01 from the edge, by one Arnoldi band a
    cell; the stacked Stein certificate, forced by raising the switch,
    marks and classes the same cells."""
    rng = np.random.default_rng(12)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    A = gaussian(2, 12, 12)
    A *= 0.6 / np.linalg.norm(np.hstack(list(A)), 2)
    r = nf.minimize(nf.Realization(A, gaussian(12), gaussian(12)))
    assert _Resolvent(r).n >= spectrum.MATRIX_FREE_MIN_N
    g = r.value_at_zero()
    rect = (g.real - 2.0, g.real + 2.0, g.imag - 2.0, g.imag + 2.0)
    scan = nf.grid_scan(r, rect, 1.0)
    assert set(scan.classes.ravel()) == {CLASS_RESOLVENT, CLASS_SIGMAPM}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "MATRIX_FREE_MIN_N", 10 ** 9)
        forced = nf.grid_scan(r, rect, 1.0)
    assert np.array_equal(scan.member, forced.member)
    assert np.array_equal(scan.classes, forced.classes)


def test_contains_lambda_witness_kills_minimized_inverse(
        z1, fixture_realization):
    for r, lam in ((z1, 0.5), (z1, 0.2 - 0.6j),
                   (nf.minimize(fixture_realization), 2.3 + 0.4j),
                   (_perturbed_fixture(fixture_realization), 2.0)):
        res = nf.contains_lambda(r, lam, want_witness=True)
        assert res.verdict == "spectrum" and not res.indeterminate
        assert res.witness is not None
        inverse = _reference_inverse(nf.minimize(r), lam)
        sigma = np.linalg.svd(nf.pencil(inverse, res.witness),
                              compute_uv=False)
        assert sigma[-1] <= 1e-6, (lam, sigma[-1])


def test_finite_spectrum_sample_levels(z1):
    eigs, levels = nf.finite_spectrum_sample(z1, samples=400, seed=0)
    assert set(levels) == {1, 2, 3, 4}
    assert np.abs(eigs).max() <= 1.0 + 1e-9


def test_finite_spectrum_sample_constant():
    c = nf.minimize(nf.const(0.7 - 0.1j, 2))
    eigs, _ = nf.finite_spectrum_sample(c, samples=50, seed=0)
    assert np.allclose(eigs, 0.7 - 0.1j)


def test_sample_membership_consistency(z1):
    eigs, _ = nf.finite_spectrum_sample(z1, samples=200, seed=1)
    rng = np.random.default_rng(2)
    for idx in rng.choice(len(eigs), size=25, replace=False):
        res = nf.contains_lambda(z1, eigs[idx])
        ok = res.verdict == "spectrum" or (
            res.spr_value is not None and res.spr_value >= 1 - 1e-6)
        assert ok, (eigs[idx], res)


def test_scalar_level_containment(z1):
    scan = nf.grid_scan(z1, (-1.3, 1.3, -1.3, 1.3), 0.1, classify=False)
    pts = scan.member_points()
    rng = np.random.default_rng(3)
    for _ in range(60):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z *= rng.random() / np.linalg.norm(z)
        value = nf.evaluate(z1, nf.MatrixTuple(z.reshape(2, 1, 1)))
        eig = value[0, 0]
        assert np.min(np.abs(pts - eig)) <= 0.15


def test_variety_witness_paper_point(poly_P6, fixture_W):
    e1 = np.array([1.0, 0.0, 0.0])
    res = nf.witness_residual(poly_P6, fixture_W, e1)
    assert res <= 1e-12
    witness = nf.certify_witness(poly_P6, fixture_W, e1, tol=1e-12)
    assert witness.level == 3
    # a zero or nan y (residual nan) and a nan Z (row norm nan) certify
    # nothing
    f = nf.NCPolynomial(1, {(): 1.0, (1,): -1.0})
    for Z, y in (([[[0.3]]], [0.0]), ([[[0.3]]], [np.nan]),
                 ([[[np.nan]]], [1.0])):
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            nf.certify_witness(f, Z, y)


def test_witness_residual_rejects_a_zero_or_non_finite_y():
    f = nf.NCPolynomial(1, {(): 1.0, (1,): -1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in ([0.0], [np.nan], [np.inf], [complex(0.0, np.nan)]):
            with pytest.raises(ValueError, match="witness vector y"):
                nf.witness_residual(f, [[[0.3]]], y)
    assert nf.witness_residual(f, [[[0.3]]], [2.0]) == pytest.approx(0.7)


def test_witness_residual_of_a_y_whose_norm_overflows():
    # y = [1e308, 1e308] names the direction of [1, 1] though its 2-norm
    # overflows: its power-of-two mantissa gives the same unit vector
    f = nf.NCPolynomial(1, {(): 1.0, (1,): -1.0})
    Z = [[[0.3, 0.1], [-0.2, 0.4]]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nf.witness_residual(f, Z, [1e308, 1e308]) == \
            nf.witness_residual(f, Z, [1.0, 1.0])


def test_variety_search_finds_P6(poly_P6):
    witness = nf.variety_witness_search(poly_P6, level=3, attempts=8, seed=0)
    assert witness is not None
    assert witness.residual <= 1e-8
    assert witness.Z.row_norm() <= 1.0 + 1e-9
    nf.certify_witness(poly_P6, witness.Z, witness.y, 1e-8)


def test_variety_search_inside_the_ball():
    # with coefficients below 1 the variety still meets the closed ball at
    # level 2
    f = nf.NCPolynomial(2, {(): 1.0, (1, 2): -0.9, (2, 1): -0.9})
    witness = nf.variety_witness_search(f, level=2, seed=0)
    assert witness is not None and witness.level == 2
    nf.certify_witness(f, witness.Z, witness.y, 1e-8)


def test_a_nan_tolerance_finds_no_witness():
    # 1 + z1 z2 has no witness in the level-1 ball; nan must not accept one
    f = nf.NCPolynomial(2, {(): 1.0, (1, 2): 1.0})
    assert nf.variety_witness_search(f, level=1, attempts=1, seed=0,
                                     tol=np.nan) is None


def test_variety_search_constant_and_outer(poly_p5):
    assert nf.variety_witness_search(nf.NCPolynomial.one(2), level=2,
                                     attempts=2, seed=0) is None
    q = nf.outer_factor(poly_p5, seed=0).outer
    for level in (1, 2, 3, 4, 5):
        found = nf.variety_witness_search(q, level=level, attempts=2, seed=0)
        assert found is None, (level, found.residual)


def _witness_case(kind, d, level, inside, seed):
    """A polynomial or a realization f, and a point x = (Z, y) of the
    polish coordinates with Z inside the row ball or outside it."""
    rng = np.random.default_rng(seed)
    if kind == "polynomial":
        f = random_polynomial(rng, d, 3)
    else:
        m = int(rng.integers(1, 4))
        A = rng.standard_normal((d, m, m)) + 1j * rng.standard_normal(
            (d, m, m))
        # sum_j ||A_j|| = 0.5 keeps the pencil invertible on the ball
        A *= 0.5 / sum(np.linalg.norm(Aj, 2) for Aj in A)
        b, c = (rng.standard_normal(m) + 1j * rng.standard_normal(m)
                for _ in range(2))
        f = nf.Realization(A, b, c)
    Z = rng.standard_normal((d, level, level)) + 1j * rng.standard_normal(
        (d, level, level))
    norm = rng.uniform(0.3, 0.9) if inside else rng.uniform(1.1, 2.0)
    Z *= norm / nf.MatrixTuple(Z).row_norm()
    y = rng.standard_normal(level) + 1j * rng.standard_normal(level)
    return f, _WitnessSystem.join(Z, y)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["polynomial", "realization"]),
       d=st.integers(1, 3), level=st.integers(1, 3), inside=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_witness_jacobian_matches_central_differences(kind, d, level,
                                                      inside, seed):
    f, x = _witness_case(kind, d, level, inside, seed)
    system = _WitnessSystem(f, (d, level, level))
    J = system.jacobian(x)
    h = 1e-6
    fd = np.column_stack([(system.residual(x + h * e)
                           - system.residual(x - h * e)) / (2 * h)
                          for e in np.eye(x.size)])
    assert J.shape == fd.shape == (2 * level + 1, x.size)
    assert np.max(np.abs(J - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_polish_takes_the_exact_jacobian(monkeypatch, poly_P6,
                                         fixture_realization):
    """The least-squares helper gets a callable jac, so no polish evaluates
    its residual more than _POLISH_STEPS times (a finite-difference
    Jacobian alone costs 2 d n^2 + 2n evaluations a step)."""
    original = spectrum.least_squares
    polishes = []

    def recorded(fun, x0, jac, max_nfev):
        calls = []
        polishes.append((calls, jac))

        def counted(x):
            calls.append(None)
            return fun(x)

        return original(counted, x0, jac=jac, max_nfev=max_nfev)

    monkeypatch.setattr(spectrum, "least_squares", recorded)
    f = nf.sub(fixture_realization, nf.const(2.0, 2))
    for g, level in ((poly_P6, 3), (f, 2)):
        del polishes[:]
        nf.variety_witness_search(g, level, attempts=3, seed=1)
        assert polishes
        assert all(callable(jac) for _, jac in polishes)
        assert max(len(calls) for calls, _ in polishes) \
            <= spectrum._POLISH_STEPS


@settings(max_examples=25, deadline=None, derandomize=True)
@given(j=st.integers(-600, 600))
def test_witness_search_is_invariant_under_powers_of_two(j):
    """2^j f has the zero set of f, and the search runs on one and the same
    normalized function for both: the same Z and y to the bit."""
    p = nf.NCPolynomial(2, {(): 1.0, (1, 2): -1.1, (2, 1): -1.2})
    r = nf.minimize(nf.from_expression("inv(1 - 0.5*z1*z2 - 0.5*z2*z1) - 2",
                                       2))
    for f, scaled, level in ((p, p * 2.0 ** j, 2),
                             (r, nf.scale(r, 2.0 ** j), 1)):
        want = nf.variety_witness_search(f, level, seed=1)
        got = nf.variety_witness_search(scaled, level, seed=1)
        assert want is not None
        assert np.array_equal(got.Z.X, want.Z.X)
        assert np.array_equal(got.y, want.y)


def test_witness_search_of_a_huge_polynomial():
    """1e200 (1 - z1) has the witness Z = 1, which the search finds on
    2^-k f, with no overflow on the way; its residual, that of f, is
    roundoff relative to 1e200."""
    f = nf.NCPolynomial(1, {(): 1e200, (1,): -1e200})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = nf.variety_witness_search(f, 1)
    assert w is not None
    assert abs(w.Z.X[0, 0, 0] - 1.0) <= 1e-12
    assert 0 <= w.residual <= 1e-14 * 1e200


def test_sigma0_on_boundary_of_shift_spectrum(z1):
    # lambda on the unit circle: z1 - lambda is outer (no interior zero);
    # the knife-edge spr of the inverse sits at 1, reported indeterminate
    res = nf.is_outer_rational(nf.sub(z1, nf.const(1.5, 2)))
    assert res.outer  # resolvent points are outer too
    interior = nf.is_outer_rational(nf.sub(z1, nf.const(0.5, 2)))
    assert not interior.outer


def test_sigma_pm_cells_admit_witnesses(z1):
    # classification coherence: interior spectrum points of the shift give
    # level-1 singularities of z1 - lambda (best-effort spot check)
    rng = np.random.default_rng(10)
    hits = 0
    lams = [0.3 + 0.2j, -0.4 + 0.1j, 0.1 - 0.5j, 0.6, -0.2 - 0.2j]
    for lam in lams:
        shifted = nf.sub(z1, nf.const(lam, 2))
        witness = nf.variety_witness_search(shifted, level=1, attempts=4,
                                            seed=int(rng.integers(1000)))
        if witness is not None:
            nf.certify_witness(shifted, witness.Z, witness.y, 1e-8)
            hits += 1
    assert hits >= 0.9 * len(lams)


def test_fixture_scan_matches_moebius_disk(fixture_realization):
    """The fixture is (1 - V/sqrt(2))^{-1} for an isometric quadratic V, so
    by spectral mapping its multiplier spectrum is the image of the closed
    unit disk: the disk of center 2 and radius sqrt(2)."""
    scan = nf.grid_scan(fixture_realization, (0.3, 3.8, -1.75, 1.75), 0.25,
                        classify=False)
    center, radius = 2.0, np.sqrt(2.0)
    for i in range(scan.member.shape[0]):
        for j in range(scan.member.shape[1]):
            dist = abs(scan.center(i, j) - center)
            if scan.member[i, j]:
                assert dist <= radius + 1e-6
            elif dist <= radius - 1e-6:
                raise AssertionError(f"unmarked {scan.center(i, j)}")
    # sampled eigenvalues sit inside the marked region (fs within sigma)
    eigs, _ = nf.finite_spectrum_sample(fixture_realization, samples=2000,
                                        seed=0)
    assert np.abs(eigs - center).max() <= radius + 1e-6
    pts = scan.member_points()
    sample_to_scan = np.abs(eigs[:, None] - pts[None, :]).min(axis=1)
    assert sample_to_scan.max() <= 2 * 0.25


def test_hausdorff_distance_basics():
    a = np.array([0.0, 1.0])
    b = np.array([0.0, 1.0 + 0.5j])
    assert nf.hausdorff_distance(a, a) == 0.0
    assert nf.hausdorff_distance(a, b) == pytest.approx(0.5)
    assert nf.hausdorff_distance([], []) == 0.0
    assert nf.hausdorff_distance(a, []) == np.inf


def full_matrix_hausdorff(a, b):
    """The reference: min and max over the whole |a| x |b| distance
    matrix."""
    dist = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


@pytest.mark.parametrize("block", [7, 256])
def test_hausdorff_distance_equals_the_full_matrix(monkeypatch, block):
    # blocks that do not divide either size, and a single block
    monkeypatch.setattr(spectrum, "_HAUSDORFF_BLOCK", block)
    rng = np.random.default_rng(block)
    for size_a, size_b in ((1, 1), (50, 130), (131, 3)):
        a = rng.standard_normal(size_a) + 1j * rng.standard_normal(size_a)
        b = rng.standard_normal(size_b) + 1j * rng.standard_normal(size_b)
        assert nf.hausdorff_distance(a, b) == full_matrix_hausdorff(a, b)


def test_hausdorff_distance_memory_stays_bounded():
    # the full 2,000 x 50,000 distance matrix would take 1.6 GB of complex
    # differences; the blocked walk raises the peak RSS by under 16 MB
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from ncfock.spectrum import hausdorff_distance\n"
        "rng = np.random.default_rng(0)\n"
        "a = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)\n"
        "b = rng.standard_normal(50000) + 1j * rng.standard_normal(50000)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "hausdorff_distance(a, b)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print((after - before) / 1024)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 16.0


def test_continuity_probe_zero_scale(z1):
    probe = nf.continuity_probe(z1, (-1.3, 1.3, -1.3, 1.3), 0.26,
                                scales=(0.0,), seed=0)
    assert probe.distances == [0.0]


def test_continuity_probe_smoke(fixture_realization):
    probe = nf.continuity_probe(fixture_realization, (1.2, 3.0, -0.9, 0.9),
                                0.3, scales=(1e-1, 1e-3), seed=0)
    assert len(probe.distances) == 2
    assert all(d < np.inf for d in probe.distances)


def _count_minimize(monkeypatch):
    from ncfock import realization, spectrum

    original = realization.minimize
    calls = []

    def counted(r, *args, **kwargs):
        calls.append(r.n)
        return original(r, *args, **kwargs)

    for module in (realization, spectrum):
        monkeypatch.setattr(module, "minimize", counted)
    return calls


def test_spectrum_pipelines_minimize_once(monkeypatch, tmp_path, capsys,
                                          fixture_realization):
    # the probe minimizes r once, for its own scan and its copies, and
    # grid_scan minimizes each perturbed copy once
    calls = _count_minimize(monkeypatch)
    nf.continuity_probe(fixture_realization, (1.2, 3.0, -0.9, 0.9), 0.6,
                        scales=(1e-1, 1e-3), seed=0)
    assert len(calls) == 3
    del calls[:]
    from ncfock.cli import main

    assert main(["spectrum-scan", "-d", "1", "z1", "--rect=-1,1,-1,1",
                 "--res", "0.5", "--out", str(tmp_path / "scan")]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_scan_csv_and_pgm_formats(z1):
    scan = nf.grid_scan(z1, (-1.2, 1.2, -1.2, 1.2), 0.4)
    csv = nf.scan_to_csv(scan)
    lines = csv.strip().split("\n")
    assert lines[0] == "re,im,member,class"
    assert len(lines) == 1 + 36
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(-1.0)
    assert float(first[1]) == pytest.approx(1.0)
    pgm = nf.scan_to_pgm(scan)
    assert pgm.startswith(b"P5\n6 6\n255\n")
    assert len(pgm) == len(b"P5\n6 6\n255\n") + 36
    body = np.frombuffer(pgm[len(b"P5\n6 6\n255\n"):], dtype=np.uint8)
    assert set(body.tolist()) <= {0, 128, 255}
    # determinism
    again = nf.grid_scan(z1, (-1.2, 1.2, -1.2, 1.2), 0.4)
    assert nf.scan_to_csv(again) == csv
    assert nf.scan_to_pgm(again) == pgm


def test_samples_csv(z1):
    eigs, levels = nf.finite_spectrum_sample(z1, samples=20, seed=5)
    text = nf.samples_to_csv(eigs, levels)
    assert text.splitlines()[0] == "re,im,level"
    assert len(text.splitlines()) == len(eigs) + 1


@pytest.mark.parametrize("s", [1.0, 1e-13])
def test_value_at_zero_test_does_not_depend_on_scale(s):
    # 1 + z1 scaled by s, scanned on its own scaled grid, marks the same
    # 4 cells at every scale, and its outer test sits on the knife edge
    r = nf.scale(nf.minimize(nf.from_expression("1 + z1", 2)), s)
    scan = nf.grid_scan(r, (-4 * s, 6 * s, -5 * s, 5 * s), s)
    assert np.argwhere(scan.member).tolist() == [[4, 4], [4, 5], [5, 4],
                                                 [5, 5]]
    outer = nf.is_outer_rational(r)
    assert outer.indeterminate and outer.spr_inverse == pytest.approx(1.0)


def test_a_lambda_beyond_the_scale_of_r_warns_nothing():
    """1/(1 - z/2) scaled through c to 1e-170: lambda 2^-e overflows from
    about 1e139, where lambda is no zero of r.  vanishes_at_zero, the gaps,
    contains_lambda and a scan take such a lambda with no RuntimeWarning;
    in range a gap is r(0) - lambda 2^-e to the bit, and the zero test and
    the gaps of an array are those of each lambda."""
    r = nf.minimize(nf.Realization(np.array([[[0.5]]]), np.ones(1),
                                   np.array([1e-170])))
    e = r.pow2[1]
    gamma = r.pow2[0].value_at_zero()
    lams = [complex(3e-171, 1e-171), complex(1e300, 0),
            complex(-1e300, 1e300)]
    resolvent = _Resolvent(r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [r.vanishes_at_zero(lam) for lam in lams] == [False] * 3
        assert r.vanishes_at_zero(1e-170)
        assert r.vanishes_at_zero(np.array(lams + [1e-170])).tolist() == \
            [False, False, False, True]
        assert resolvent._gap(lams[0]) == gamma - lams[0] * 2.0 ** -e
        assert nf.contains_lambda(r, 1e300).verdict == "resolvent"
        nf.grid_scan(r, (-1e300, 1e300, -1e300, 1e300), 5e299)
        with np.errstate(over="ignore"):
            gaps = resolvent._gap(np.array(lams))
            assert [resolvent._gap(lam) for lam in lams] == gaps.tolist()


def test_a_lambda_whose_both_parts_overflow_is_in_the_resolvent():
    """1/(1 - z/2) scaled through c to 1e-170: at lambda = 1e300 (1 + i)
    both parts of lambda 2^-e overflow, and the gap is a real inf, so that
    B(lambda) -> A; the cells of the +-1e300 square lie in the resolvent."""
    r = nf.minimize(nf.Realization(np.array([[[0.5]]]), np.ones(1),
                                   np.array([1e-170])))
    member = nf.contains_lambda(r, complex(1e300, 1e300))
    assert member.verdict == "resolvent"
    assert member.spr_value == pytest.approx(0.5)
    scan = nf.grid_scan(r, (-1e300, 1e300, -1e300, 1e300), 5e299)
    assert scan.classes.shape == (4, 4)
    assert (scan.classes == "resolvent").all()


@pytest.mark.parametrize("rect, res", [((0, 0.1, 0, 0.1), 1.0),
                                       ((0, 2, 0, 0.1), 1.0),
                                       ((0, 0.1, 0, 2), 1.0)])
def test_a_grid_of_no_cells_is_refused(rect, res):
    """A rectangle that rounds to zero rows or columns is an empty grid."""
    r = nf.from_expression("z1", 1)
    with pytest.raises(nf.ScanGridError, match="empty scan grid"):
        nf.grid_scan(r, rect, res)
    with pytest.raises(nf.ScanGridError, match="empty scan grid"):
        nf.continuity_probe(r, rect, res, scales=(0.1,))


@st.composite
def _scaled_minimal_realizations(draw):
    """A random minimal realization r with spr(A) < 1 (n <= 6, entries in
    the normal range) and exponents k, m, p in [-900, 900]."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    A = gaussian(d, n, n)
    A *= rng.uniform(0.2, 0.9) / np.linalg.norm(np.hstack(list(A)), 2)
    r = nf.minimize(nf.Realization(A, gaussian(n), gaussian(n)))
    # the ends of the range, where r(0) = b* c leaves the doubles, as often
    # as the rest
    exponents = st.sampled_from([-900, 900]) | st.integers(-900, 900)
    k, m, p = (draw(exponents) for _ in range(3))
    return r, k, m, p


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_scaled_minimal_realizations())
def test_verdicts_are_bitwise_scale_equivariant(case):
    """spr(2^k A) is 2^k spr(A) by both methods; (A, 2^m b, 2^p c) has
    h2_norm 2^(m + p) h2_norm(r) and the outerness of r, and its scan over
    the rectangle scaled by 2^(m + p) marks the cells of r's scan, all to
    the bit.  A numerical failure is allowed only where the answer or the
    scaled r(0) overflows."""
    r, k, m, p = case
    j = m + p
    for method in ("matrized", "iterate"):
        assert nf.spr(r.A * 2.0 ** k, method=method) == \
            math.ldexp(nf.spr(r.A, method=method), k)
    scaled = nf.Realization(r.A, r.b * 2.0 ** m, r.c * 2.0 ** p)
    try:
        want_norm = math.ldexp(nf.h2_norm(r), j)
    except OverflowError:
        with pytest.raises(nf.NumericalFailureError):
            nf.h2_norm(scaled)
    else:
        assert nf.h2_norm(scaled) == want_norm
    if not np.isfinite(np.vdot(scaled.b, scaled.c)):
        # minimize refuses a realization whose r(0) overflows
        with pytest.raises(nf.NumericalFailureError):
            nf.is_outer_rational(scaled)
        return
    want, got = nf.is_outer_rational(r), nf.is_outer_rational(scaled)
    assert (got.outer, got.indeterminate, got.spr_inverse) == \
        (want.outer, want.indeterminate, want.spr_inverse)
    if abs(j) <= 1000:
        g = r.value_at_zero()
        rect = (g.real - 2.0, g.real + 2.0, g.imag - 2.0, g.imag + 2.0)
        base = nf.grid_scan(r, rect, 0.5)
        rescaled = nf.grid_scan(scaled, [x * 2.0 ** j for x in rect],
                                0.5 * 2.0 ** j)
        assert np.array_equal(rescaled.member, base.member)
        assert np.array_equal(rescaled.classes, base.classes)
