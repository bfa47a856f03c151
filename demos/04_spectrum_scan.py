"""Spectra of rational multipliers: grid scans, sampling, and classification.

The spectrum of r(L) is decided cell by cell through the joint spectral
radius of the minimal realization of (r - lambda)^{-1}; random finite-level
eigenvalue sampling gives the matching lower bound.  Spectrum cells split
into sigma_0 (lambda - r outer, index 0) and sigma_pm (inner factor
present); sigma_0 points sit on the spr = 1 knife edge, so decisive cells
are sigma_pm and sigma_0 points show as indeterminate.  For multipliers
the spectrum coincides with the essential spectrum, so no separate
essential computation is made.

Writes spectrum_scan.csv and spectrum_scan.pgm next to the script.
"""

from pathlib import Path

import numpy as np

import ncfock as nf

z1 = nf.minimize(nf.from_expression("z1", 2))

# coarse scan of the closed unit disk (use --res 0.05 for the full picture)
scan = nf.grid_scan(z1, (-1.5, 1.5, -1.5, 1.5), 0.1)
print(f"scan: {scan.member.shape[0]}x{scan.member.shape[1]} cells, "
      f"{int(scan.member.sum())} in the spectrum")

inside = scan.member_points()
print("largest |lambda| marked:", np.abs(inside).max())

# single membership queries with certificates
for lam in (1.5, 1.0, 0.25 + 0.5j):
    res = nf.contains_lambda(z1, lam)
    print(f"lambda = {lam}: {res.verdict} "
          f"(spr of inverse realization: {res.spr_value})")

# sampling lower bound
eigs, levels = nf.finite_spectrum_sample(z1, samples=4000, seed=0)
print(f"\nsampled {len(eigs)} eigenvalues over levels 1..{levels.max()}")
print("Hausdorff distance scan vs samples:",
      round(nf.hausdorff_distance(inside, eigs), 4))

# classification: interior shift spectrum carries an inner factor
tags = {str(tag) for tag in scan.classes[scan.member]}
print("classes on spectrum cells:", tags)

# artifacts
out = Path(__file__).resolve().parent
(out / "spectrum_scan.csv").write_text(nf.scan_to_csv(scan))
(out / "spectrum_scan.pgm").write_bytes(nf.scan_to_pgm(scan))
print("wrote", out / "spectrum_scan.csv", "and", out / "spectrum_scan.pgm")

# variety witness for the non-outer symmetric polynomial
P = nf.NCPolynomial(2, {(): 1.0, (1, 2): -1.0, (2, 1): -1.0})
witness = nf.variety_witness_search(P, level=3, attempts=6, seed=0)
print(f"\nSing_3 witness for 1 - z1*z2 - z2*z1: residual "
      f"{witness.residual:.2e} at row norm {witness.Z.row_norm():.4f}")
