"""Self-test of the benchmark's checks: each one accepts a right answer and
rejects a deliberately wrong one.

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks as ck  # noqa: E402
import ncfock as nf  # noqa: E402
import workloads as wl  # noqa: E402

RESULTS = []


def expect(name, check, right, wrong):
    """``check(*right)`` must pass and ``check(*wrong)`` must raise."""
    try:
        check(*right)
        accepted = True
    except ck.CheckError as err:
        accepted = False
        print(f"FAIL {name}: rejected the right answer: {err}")
    try:
        check(*wrong)
        rejected = False
        print(f"FAIL {name}: accepted the wrong answer")
    except ck.CheckError:
        rejected = True
    RESULTS.append(accepted and rejected)
    if accepted and rejected:
        print(f"ok   {name}")


def spr_cases():
    fixture = wl.padded_fixture(n=3, seed=0)
    value = nf.spr(fixture.A)
    expect("spr off by 1e-6 relative", ck.close,
           (value, ck.FIXTURE_SPR, 1e-9, "spr"),
           (value * (1 + 1e-6), ck.FIXTURE_SPR, 1e-9, "spr"))
    flagged = wl.MemberWorkload.spr_fault
    RESULTS.append(not flagged(value) and flagged(value * (1 + 1e-6)))
    print(("ok  " if RESULTS[-1] else "FAIL")
          + " n=21 fault detector flags an spr off by 1e-6")


def membership_cases():
    rng = np.random.default_rng(3)
    f = wl.inside_function(rng, 2, 4)
    Z, y, v = f.kernel
    h2 = nf.h2_norm(f.r)
    expect("H^2 norm off by 1e-6 relative", ck.check_h2_norm,
           (h2, Z, y, v), (h2 * (1 + 1e-6), Z, y, v))
    k = nf.kernel_from_realization(f.r)
    want = ck.taylor_coefficients(f.r.A, f.r.b, f.r.c, 4)
    got = ck.kernel_coefficients(k.Z.X, k.y, k.v, 4)
    bad = dict(got)
    bad[(1, 2)] += 1e-6
    expect("kernel coefficient off by 1e-6", ck.check_coefficients,
           (got, want, "kernel"), (bad, want, "kernel"))
    g = wl.outside_function(rng, 2, 4)
    m = nf.is_in_fock(g.r)
    W = m.witness.X
    expect("boundary witness moved by 1e-4", ck.check_witness_point,
           (g.r.A, W, g.spr), (g.r.A, W + 1e-4, g.spr))


def scan_cases():
    z1 = nf.minimize(nf.from_expression("z1", 2))
    rect, res = (-1.5, 1.5, -1.5, 1.5), 0.3
    scan = nf.grid_scan(z1, rect, res, classify=False)
    centers = ck.cell_centers(rect, res)
    flipped = scan.member.copy()
    i, j = np.unravel_index(np.argmin(np.abs(centers)), centers.shape)
    flipped[i, j] = False
    expect("z1 scan with one interior cell flipped", ck.check_disk,
           (scan.member, centers, 0.0, 1.0), (flipped, centers, 0.0, 1.0))
    island = scan.member.copy()
    island[0, 0] = True
    expect("member set with an isolated cell", ck.check_connected,
           (scan.member,), (island,))
    eigs = np.array([0.5 + 0.2j, -0.3j])
    expect("eigenvalue far from every member cell",
           ck.check_eigenvalues_covered,
           (scan.member, rect, res, eigs),
           (scan.member, rect, res, np.r_[eigs, 1.4 + 1.4j]))
    grown = scan.member.copy()
    grown[i, -1] = True
    right = [0.0, ck.hausdorff(scan.member, grown, centers)]
    expect("continuity probe distance off by one cell",
           ck.check_probe_distances,
           (right, scan.member, [scan.member, grown], centers),
           ([0.0, right[1] + res], scan.member, [scan.member, grown],
            centers))


def factor_cases():
    p = {(): 1.0, (1,): 1.0, (1, 2): 1.0}
    res = nf.outer_factor(nf.NCPolynomial(2, p))
    q = dict(res.outer.coeffs)
    bad = dict(q)
    bad[(1,)] += 1e-4
    expect("outer factor with a perturbed coefficient (autocorrelations)",
           ck.check_autocorrelations, (q, p), (bad, p))
    inner = res.inner
    expect("outer factor with a perturbed coefficient (inner * outer)",
           ck.check_inner_times_outer,
           (inner.A, inner.b, inner.c, q, p),
           (inner.A, inner.b, inner.c, bad, p))
    expect("q0^2 off the bisection root by 1e-6", ck.close,
           (res.q0 ** 2, ck.bisection_root(), 1e-8, "q0^2"),
           (res.q0 ** 2 + 1e-6, ck.bisection_root(), 1e-8, "q0^2"))
    coeffs = np.array([0.3, -1.1 + 0.2j, 1.0])
    one = nf.outer_factor(nf.NCPolynomial(1, {(1,) * k: complex(c)
                                              for k, c in enumerate(coeffs)}))
    got = np.array([one.outer.coeff((1,) * k) for k in range(3)])

    def flip_matches(values):
        err = float(np.max(np.abs(values - ck.blaschke_flip(coeffs))))
        ck.require(err <= 1e-6, f"off the Blaschke flip by {err:.3g}")

    expect("d=1 outer factor with a perturbed coefficient", flip_matches,
           (got,), (got + np.array([0, 1e-4, 0]),))


def witness_cases():
    f = {(): 1.0, (1, 2): -1.0, (2, 1): -1.0}
    W = -np.array([[[0, 0, 2 ** -0.75], [2 ** -0.25, 0, 0], [0, 0, 0]],
                   [[0, 2 ** -0.75, 0], [0, 0, 0], [2 ** -0.25, 0, 0]]],
                  dtype=complex)
    y = np.array([1.0, 0.0, 0.0])
    expect("variety witness moved off the variety by 1e-4",
           ck.check_variety_witness, (f, W, y), (f, W + 1e-4, y))


def main():
    for cases in (spr_cases, membership_cases, scan_cases, factor_cases,
                  witness_cases):
        cases()
    print(f"selftest: {sum(RESULTS)} of {len(RESULTS)} checks behave")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
