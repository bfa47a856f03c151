import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncfock as nf
from conftest import count_calls, src_env
from ncfock import spectrum
from ncfock.spectral import SPR_BOUNDARY_TOL
from ncfock.spectrum import (
    _ABOVE,
    _BELOW,
    _EDGE,
    CLASS_INDET,
    CLASS_RESOLVENT,
    CLASS_SIGMAPM,
    CLASS_SPECTRUM,
    _cell_decision,
    _membership,
    _Resolvent,
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
    return nf.minimize(nf.invert(shifted, check=False))


def _reference_cell(r_min, lam, classify):
    """A scan cell decided by the spr of the minimal inverse realization,
    classified by the outerness test of r - lam."""
    lam = complex(lam)
    shifted = nf.add(r_min, nf.const(-lam, r_min.d))
    if abs(r_min.value_at_zero() - lam) > 1e-12 * max(1.0, abs(lam)):
        s = nf.spr(_reference_inverse(r_min, lam).A)
        if s < 1.0 - SPR_BOUNDARY_TOL:
            return False, CLASS_RESOLVENT
        if abs(s - 1.0) <= SPR_BOUNDARY_TOL:
            return True, CLASS_INDET
    if not classify:
        return True, CLASS_SPECTRUM
    outer = nf.is_outer_rational(shifted)
    if outer.indeterminate:
        return True, CLASS_INDET
    return True, ("sigma_0" if outer.outer else CLASS_SIGMAPM)


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


# ---------------------------------------------------------------------------
# The Stein certificate of a cell against the band of its spr
# ---------------------------------------------------------------------------

def _spr_band(membership):
    """Where the spr of a cell tuple lies against 1 +- 1e-9 (a zero-level
    cell counts as above)."""
    if not membership:
        return _BELOW
    return _EDGE if membership.indeterminate else _ABOVE


def _spr_cell(band, classify):
    """A scan cell decided by the spr band of its tuple alone."""
    if band == _BELOW:
        return False, CLASS_RESOLVENT
    if band == _EDGE:
        return True, CLASS_INDET
    return True, (CLASS_SIGMAPM if classify else CLASS_SPECTRUM)


def _check_certificate(resolvent, lam):
    """The certificate agrees with the spr band or defers, and defers only
    at a zero-level cell or where spr is within 1e-6 of 1.  Returns the spr
    band."""
    membership = _membership(resolvent, lam)
    want = _spr_band(membership)
    band = resolvent.band(lam)
    if band is not None:
        assert band == want, lam
    elif not membership.zero_level:
        assert abs(membership.spr_value - 1.0) <= 1e-6, lam
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
        M = nf.CPMap(resolvent.at(lam)).matrization
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
        assert _spr_band(_membership(resolvent, lam)) == band, offset
        assert resolvent.band(lam) in (None, band), offset


def test_scan_of_perturbed_copy_calls_no_spr(monkeypatch,
                                             fixture_realization):
    from ncfock import spectral

    r = _perturbed_fixture(fixture_realization)
    calls = count_calls(monkeypatch, spectral, "spr")
    scan = nf.grid_scan(r, (0.3, 3.9, -1.8, 1.8), 0.45)
    assert scan.member.any() and not scan.member.all()
    assert calls == []


def test_knife_edge_cells_defer_to_one_spr(monkeypatch, z1):
    from ncfock import spectral

    resolvent = _Resolvent(z1)
    calls = count_calls(monkeypatch, spectral, "spr")
    for lam in (1.0, 1j, 1.0 + 1e-10, 1.0 - 1e-10):
        del calls[:]
        assert resolvent.band(lam) is None, lam
        assert _cell_decision(resolvent, lam, True) == (True, CLASS_INDET)
        assert len(calls) == 1, lam


def test_cell_decision_runs_once_per_cell(monkeypatch, z1):
    from ncfock import spectrum

    calls = count_calls(monkeypatch, spectrum, "_cell_decision")
    scan = nf.grid_scan(z1, (-1.3, 1.3, -1.3, 1.3), 0.2)
    assert len(calls) == scan.member.size == 169
    assert len({complex(call[1]) for call in calls}) == 169


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


def test_variety_search_finds_P6(poly_P6):
    witness = nf.variety_witness_search(poly_P6, level=3, attempts=8, seed=0)
    assert witness is not None
    assert witness.residual <= 1e-8
    assert witness.Z.row_norm() <= 1.0 + 1e-9


def test_variety_search_constant_and_outer(poly_p5):
    assert nf.variety_witness_search(nf.NCPolynomial.one(2), level=2,
                                     attempts=2, seed=0) is None
    q = nf.outer_factor(poly_p5, seed=0).outer
    for level in (1, 2, 3, 4, 5):
        found = nf.variety_witness_search(q, level=level, attempts=2,
                                          seed=0, iters=30)
        assert found is None, (level, found.residual)


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
        if witness is not None and witness.residual <= 1e-8:
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
