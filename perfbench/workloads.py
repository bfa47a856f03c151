"""The benchmark's workloads: inputs made from the seed, the operations of
one round, and the checks of their outputs.

Every round runs the same operations on the same inputs, so each run
attempts whole rounds and the share of failed operations never depends on
the run length.  ``outputs`` passed to ``check`` are those of round 0;
``fingerprint`` lets the runner confirm that later rounds repeat them.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import ncfock as nf
from ncfock import expr as ex
from ncfock.cli import _ast_json

import checks as ck

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_TEXT = "inv(1 - 0.5*z1*z2 - 0.5*z2*z1)"


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    units: int = 1                       # cells for a scan, else 1
    # returns True when the output shows the known, named fault
    fault: Callable[[object], bool] = None
    figure: str = None                   # the workload figure it feeds


class Workload:
    name = None
    traced = False            # set by the runner in a traced run
    in_child = False          # whether the operations run in a child process

    def fingerprint(self, op, output):
        return None

    def child_spans(self):
        """Spans recorded by child processes since the last call."""
        return []

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def figures(self, typical):
        """The workload's own figures, printed before the result line:
        for each figure, the median of its operations' typical times, in
        ms (in s for the figures whose names end in _s)."""
        groups = {}
        for op, dt in zip(self.ops, typical):
            if op.figure:
                groups.setdefault(op.figure, []).append(dt)
        return {name: (statistics.median(times), "s") if name.endswith("_s")
                else (1000.0 * statistics.median(times), "ms")
                for name, times in groups.items()}


def _jitter(rect, shift):
    re_min, re_max, im_min, im_max = rect
    return (re_min + shift[0], re_max + shift[0],
            im_min + shift[1], im_max + shift[1])


def _scan_print(scan):
    return scan.member.tobytes() + "|".join(scan.classes.ravel()).encode()


# ---------------------------------------------------------------------------
# scan: grid_scan / continuity_probe, the per-cell add -> invert ->
# minimize -> spr chain
# ---------------------------------------------------------------------------

class ScanWorkload(Workload):
    name = "scan"
    # small grids keep each scan under half a second, so that a run holds
    # enough rounds for the median of each scan to be steady
    Z1_RECT, Z1_RES = (-1.5, 1.5, -1.5, 1.5), 0.25          # 12 x 12 cells
    FX_RECT, FX_RES = (0.4, 3.6, -1.6, 1.6), 0.4            # 8 x 8 cells
    # the probe's window holds the spectra of the perturbed copies too,
    # which reach past the fixture's disk (Re 0.42 against 0.586)
    PROBE_RECT, PROBE_RES = (-0.4, 4.4, -2.4, 2.4), 0.6      # 3 x 8 x 8 cells
    PROBE_SCALES = (1e-1, 1e-2)

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng([seed, 101])
        shifts = rng.uniform(-0.5, 0.5, size=(3, 2))
        self.seed = seed
        self.z1 = nf.minimize(nf.from_expression("z1", 2))
        self.fixture = nf.minimize(nf.from_expression(FIXTURE_TEXT, 2))
        self.z1_rect = _jitter(self.Z1_RECT, shifts[0] * self.Z1_RES)
        self.fx_rect = _jitter(self.FX_RECT, shifts[1] * self.FX_RES)
        self.probe_rect = _jitter(self.PROBE_RECT,
                                  shifts[2] * self.PROBE_RES)
        self.probe_seed = int(rng.integers(2 ** 31))
        cells = ck.cell_centers(self.probe_rect, self.PROBE_RES).size
        self.ops = [
            Op("z1 classified scan",
               lambda: nf.grid_scan(self.z1, self.z1_rect, self.Z1_RES),
               ck.cell_centers(self.z1_rect, self.Z1_RES).size),
            Op("fixture classified scan",
               lambda: nf.grid_scan(self.fixture, self.fx_rect, self.FX_RES),
               ck.cell_centers(self.fx_rect, self.FX_RES).size),
            Op("fixture continuity probe",
               lambda: nf.continuity_probe(
                   self.fixture, self.probe_rect, self.PROBE_RES,
                   scales=self.PROBE_SCALES, seed=self.probe_seed),
               cells * (1 + len(self.PROBE_SCALES))),
        ]

    def figures(self, typical):
        cells = sum(op.units for op in self.ops)
        return {"scan_cells_per_s": (cells / sum(typical), "cells/s")}

    def fingerprint(self, op, output):
        if isinstance(output, nf.ContinuityProbe):
            return tuple(output.distances)
        return _scan_print(output)

    def probe_copies(self):
        """The minimized fixture and the continuity probe's own perturbed
        copies, built as the probe builds them: one generator seeded with
        the probe's seed, and for each scale in turn, noise of modulus
        <= scale (radius drawn, then phase) on every word of length <= 3 in
        length-then-lex order."""
        base = nf.minimize(self.fixture)
        rng = np.random.default_rng(self.probe_seed)
        copies = []
        for eps in self.PROBE_SCALES:
            noise = {}
            for w in ck.words(2, 3):
                radius = eps * np.sqrt(rng.random())
                phase = 2.0 * np.pi * rng.random()
                noise[w] = radius * np.exp(1j * phase)
            copies.append(nf.minimize(nf.add(base, nf.from_polynomial(
                nf.NCPolynomial(2, noise)))))
        return base, copies

    def _check_scan(self, scan, rect, res):
        got = scan.centers_re[None, :] + 1j * scan.centers_im[:, None]
        want = ck.cell_centers(rect, res)
        ck.require(got.shape == want.shape
                   and np.allclose(got, want, atol=1e-12),
                   "scan cell centers do not match the requested grid")
        return want

    def check(self, outputs):
        z1_scan, fx_scan, probe = outputs
        # z1: sigma(L1) on the Fock space is the closed unit disk, and
        # z1 - lambda vanishes at the scalar point (lambda, 0), so every
        # decisive spectrum cell is sigma_pm
        centers = self._check_scan(z1_scan, self.z1_rect, self.Z1_RES)
        ck.check_disk(z1_scan.member, centers, 0.0, 1.0)
        tags = set(z1_scan.classes[z1_scan.member]) - {"indeterminate"}
        ck.require(tags <= {"sigma_pm"}, f"z1 spectrum cells tagged {tags}")
        plain = nf.grid_scan(self.z1, self.z1_rect, self.Z1_RES,
                             classify=False)
        ck.require(np.array_equal(plain.member, z1_scan.member),
                   "classified and unclassified z1 scans differ")

        # fixture: r = (1 - q)^-1 with q(L) = (L1 L2 + L2 L1)/2 = V/sqrt(2),
        # V a pure isometry, so sigma(q(L)) is the disk of radius 1/sqrt(2)
        # and sigma(r(L)) its image, the disk |lambda - 2| <= sqrt(2)
        centers = self._check_scan(fx_scan, self.fx_rect, self.FX_RES)
        ck.check_disk(fx_scan.member, centers, 2.0, 2.0 ** 0.5)
        ck.check_connected(fx_scan.member)
        ck.check_value_cell(fx_scan.member, self.fx_rect, self.FX_RES,
                            self.fixture.value_at_zero())
        eigs, _ = nf.finite_spectrum_sample(self.fixture, level_max=4,
                                            samples=400, seed=self.seed)
        ck.check_eigenvalues_covered(fx_scan.member, self.fx_rect,
                                     self.FX_RES, eigs)
        plain = nf.grid_scan(self.fixture, self.fx_rect, self.FX_RES,
                             classify=False)
        ck.require(np.array_equal(plain.member, fx_scan.member),
                   "classified and unclassified fixture scans differ")

        # the probe: its base scan is the same disk on the coarser grid;
        # each of its perturbed copies, scanned here, has a connected
        # spectrum holding r(0) and the sampled eigenvalues; and its
        # distances are the Hausdorff distances of those scans
        base, copies = self.probe_copies()
        rect, res = self.probe_rect, self.PROBE_RES
        base_scan = nf.grid_scan(base, rect, res, classify=False)
        centers = self._check_scan(base_scan, rect, res)
        ck.check_disk(base_scan.member, centers, 2.0, 2.0 ** 0.5)
        copy_members = []
        for copy in copies:
            scan = nf.grid_scan(copy, rect, res, classify=False)
            ck.check_connected(scan.member)
            ck.check_value_cell(scan.member, rect, res, copy.value_at_zero())
            eigs, _ = nf.finite_spectrum_sample(copy, level_max=3,
                                                samples=300, seed=self.seed)
            ck.check_eigenvalues_covered(scan.member, rect, res, eigs)
            copy_members.append(scan.member)
        ck.check_probe_distances(probe.distances, base_scan.member,
                                 copy_members, centers)


# ---------------------------------------------------------------------------
# membership: is_in_fock (+ h2_norm or boundary_singularity) and
# kernel_from_realization at state sizes 8, 16 and 21
# ---------------------------------------------------------------------------

def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@dataclass
class Function:
    kind: str                  # "in" or "not_in"
    r: nf.Realization
    kernel: tuple = None       # (Z, y, v) the function was built from
    spr: float = None          # exact spr, for "not_in"


def inside_function(rng, d, n):
    """r = K{Z, y, v} with Z a random strict row contraction (row norm in
    [0.5, 0.7]), realized as (conj Z, conj y, conj v)."""
    Z = _gaussian(rng, d, n, n)
    Z *= rng.uniform(0.5, 0.7) / ck.row_norm(Z)
    y, v = _gaussian(rng, n), _gaussian(rng, n)
    return Function("in", nf.Realization(np.conj(Z), np.conj(y), np.conj(v)),
                    kernel=(Z, y, v))


def outside_function(rng, d, n):
    """A = rho S^-1 W S with W a row co-isometry (sum W_j W_j* = I, so
    spr(W) = 1) and S well conditioned: spr(A) = rho exactly."""
    Q, _ = np.linalg.qr(_gaussian(rng, n * d, n * d))
    W = np.stack([Q[:n, j * n:(j + 1) * n] for j in range(d)])
    rho = rng.uniform(1.1, 1.3)
    G = _gaussian(rng, n, n)
    S = np.eye(n) + 0.3 * G / np.linalg.norm(G, 2)
    S_inv = np.linalg.inv(S)
    A = np.stack([rho * S_inv @ Wj @ S for Wj in W])
    return Function("not_in", nf.Realization(A, _gaussian(rng, n),
                                             _gaussian(rng, n)), spr=rho)


def padded_fixture(n=21, seed=21):
    """The fixture tuple padded with zeros to size n and conjugated by a
    fixed invertible S, with b and c moved along (H^2 norm stays sqrt 2).
    Its spr is exactly 2^-1/4.  The seed is fixed: this input does not
    depend on --seed."""
    s = 2.0 ** -0.5
    A = np.zeros((2, n, n), dtype=complex)
    A[0, :3, :3] = -s * np.array([[0, 0, 1], [1, 0, 0], [0, 0, 0]])
    A[1, :3, :3] = -s * np.array([[0, 1, 0], [0, 0, 0], [1, 0, 0]])
    G = _gaussian(np.random.default_rng(seed), n, n)
    S = np.eye(n) + 0.5 * G / np.linalg.norm(G, 2)
    S_inv = np.linalg.inv(S)
    e1 = np.eye(n)[0]
    return nf.Realization(np.stack([S_inv @ Aj @ S for Aj in A]),
                          S.conj().T @ e1, S_inv @ e1)


def verdict(r):
    """One full membership verdict, plus the kernel when r is in H^2, on
    the minimized realization as the CLI computes it."""
    r = nf.minimize(r)
    m = nf.is_in_fock(r)
    k = nf.kernel_from_realization(r) if m.in_h2 else None
    return m, k, r.n


class MemberWorkload(Workload):
    name = "membership"
    # (n, kind, d) of the functions of one round: n = 8 is small dense spr,
    # n = 16 the dense-eigenvalue path of spr (n^2 <= 400), n = 21 its
    # power-iteration path (n^2 > 400)
    PLAN = ([(8, "in", 2), (8, "in", 3)] * 4
            + [(8, "not_in", 2), (8, "not_in", 3)] * 2
            + [(16, "in", 2), (16, "not_in", 3),
               (21, "in", 3), (21, "not_in", 2)])

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng([seed, 11])
        make = {"in": inside_function, "not_in": outside_function}
        self.functions = [make[kind](rng, d, n) for n, kind, d in self.PLAN]
        self.ops = [Op(f"{f.kind} d={f.r.d} n={f.r.n}",
                       lambda r=f.r: verdict(r), figure=f"verdict_n{f.r.n}_ms")
                    for f in self.functions]
        # the power-iteration fault of spr for n^2 > 400: counted as a
        # failed operation in every round until it is mended
        self.fault_tuple = padded_fixture().A
        self.ops.append(Op("spr of the padded fixture, n=21",
                           lambda: nf.spr(self.fault_tuple),
                           fault=self.spr_fault))

    @staticmethod
    def spr_fault(value):
        return abs(value - ck.FIXTURE_SPR) > 1e-9 * ck.FIXTURE_SPR

    def fingerprint(self, op, output):
        if op.fault:
            return output
        m, _, _ = output
        return (m.verdict, m.spr, m.h2_norm, m.witness_row_norm)

    def check(self, outputs):
        for f, out in zip(self.functions, outputs):
            if out is None:
                continue
            m, k, n_min = out
            r = f.r
            ck.require(n_min == r.n, f"input of size {r.n} minimizes to "
                       f"{n_min}: it was built to be minimal")
            ck.close(m.spr, nf.spr(r.A, method="iterate"), 1e-9,
                     "matrized spr vs method='iterate'")
            if f.kind == "in":
                Z, y, v = f.kernel
                ck.require(m.verdict == "in" and k is not None,
                           f"verdict {m.verdict} for a kernel function")
                ck.require(m.spr <= ck.row_norm(Z) + 1e-12,
                           f"spr {m.spr} above the row norm of Z")
                ck.check_h2_norm(m.h2_norm, Z, y, v)
                ck.check_coefficients(
                    ck.kernel_coefficients(k.Z.X, k.y, k.v, 4),
                    ck.taylor_coefficients(r.A, r.b, r.c, 4),
                    "kernel_from_realization coefficients")
            else:
                ck.require(m.verdict == "not_in" and m.witness is not None,
                           f"verdict {m.verdict} / no witness for spr "
                           f"{f.spr}")
                ck.close(m.spr, f.spr, 1e-9, "spr vs the exact rho")
                ck.check_witness_point(r.A, m.witness.X, f.spr)


# ---------------------------------------------------------------------------
# factor: outer_factor and variety_witness_search on small polynomials
# ---------------------------------------------------------------------------

def _poly(d, table):
    return nf.NCPolynomial(d, {tuple(w): complex(c) for w, c in table.items()})


class FactorWorkload(Workload):
    name = "factor"
    RANDOM_D2, RANDOM_D1, RANDOM_VARIETIES = 5, 6, 2
    # the seed of the program's own random starts is fixed: --seed varies
    # the polynomials, and the starts, which move a call's cost by up to
    # 1.5x on one polynomial, would only add to that spread
    PROGRAM_SEED = 0

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng([seed, 5])
        # the cost of a factorization or a search moves with its input by
        # up to 3x, so a round holds many inputs to keep its mean steady
        # from seed to seed
        self.factors = [_poly(2, {(): 1, (1,): 1, (1, 2): 1})]
        for _ in range(self.RANDOM_D2):
            a, b = rng.uniform(0.6, 1.4, 2)
            self.factors.append(_poly(2, {(): 1, (1,): a, (1, 2): b}))
        for _ in range(self.RANDOM_D1):
            inside = rng.uniform(0.3, 0.7, 2) * np.exp(2j * np.pi
                                                       * rng.random(2))
            outside = rng.uniform(1.5, 2.5) * np.exp(2j * np.pi
                                                     * rng.random())
            coeffs = np.poly(np.r_[inside, outside])[::-1]
            self.factors.append(_poly(1, {(1,) * k: c
                                          for k, c in enumerate(coeffs)}))
        self.varieties = []
        for level in (2, 3):
            self.varieties.append(
                (_poly(2, {(): 1, (1, 2): -1, (2, 1): -1}), level))
            # with a = b = t >= 1 the fixture's level-3 witness scaled by
            # 1/sqrt(t) lies in the ball; with a, b < 1 the level-3 search
            # often finds no witness at all
            for _ in range(self.RANDOM_VARIETIES):
                a, b = rng.uniform(1.0, 1.3, 2)
                self.varieties.append(
                    (_poly(2, {(): 1, (1, 2): -a, (2, 1): -b}), level))
        self.ops = [Op(f"outer_factor d={p.d}",
                       lambda p=p: nf.outer_factor(p, seed=self.PROGRAM_SEED),
                       figure="factor_p50_ms")
                    for p in self.factors]
        self.ops += [Op(f"variety_witness_search level={level}",
                        lambda f=f, level=level: nf.variety_witness_search(
                            f, level, seed=self.PROGRAM_SEED),
                        figure="witness_p50_ms")
                     for f, level in self.varieties]

    def fingerprint(self, op, output):
        if output is None:
            return None
        if isinstance(output, nf.VarietyWitness):
            return output.Z.X.tobytes()
        return (output.q0, tuple(sorted(output.outer.coeffs.items())))

    def check(self, outputs):
        n_factors = len(self.factors)
        for p, res in zip(self.factors, outputs[:n_factors]):
            if res is None:
                continue
            ck.require(bool(res.outer_certificate)
                       and bool(res.inner_certificate),
                       "factor returned without both certificates")
            q = dict(res.outer.coeffs)
            pc = dict(p.coeffs)
            if p.d == 1:
                want = ck.blaschke_flip([p.coeff((1,) * k)
                                         for k in range(p.degree + 1)])
                got = np.array([q.get((1,) * k, 0.0)
                                for k in range(len(want))])
                err = float(np.max(np.abs(got - want)))
                ck.require(err <= 1e-6,
                           f"d=1 outer factor off the Blaschke flip by "
                           f"{err:.3g}")
            if pc == {(): 1, (1,): 1, (1, 2): 1}:
                ck.close(res.q0 ** 2, ck.bisection_root(), 1e-8,
                         "q0^2 of 1 + z1 + z1*z2 vs the bisection root")
            ck.check_autocorrelations(q, pc)
            inner = res.inner
            ck.check_inner_times_outer(inner.A, inner.b, inner.c, q, pc)
        for (f, level), w in zip(self.varieties, outputs[n_factors:]):
            if w is None:
                continue
            ck.require(w.level == level, f"witness level {w.level}")
            ck.check_variety_witness(dict(f.coeffs), w.Z.X, w.y)


# ---------------------------------------------------------------------------
# cli: one fresh `python -m ncfock` process per command
# ---------------------------------------------------------------------------

def _number(rng):
    return f"{rng.uniform(0.1, 2.0):.3f}"


def _monomial(rng, d, length):
    return "*".join(f"z{int(k)}" for k in rng.integers(1, d + 1, length))


def parse_expression(rng, d):
    """An expression text of fixed shape with seeded letters and numbers:
    a complex literal, a power, a nested inverse and a product of sums."""
    m = lambda length: _monomial(rng, d, length)  # noqa: E731
    n = lambda: _number(rng)  # noqa: E731
    power = f"(z{int(rng.integers(1, d + 1))})^3"
    return (f"{n()}*{m(2)} - {n()}i*{m(3)} + {power}"
            f" + inv(1 + {n()}*{m(2)}*({n()}*{m(1)} - {n()}*{m(2)}))"
            f" - ({n()} + {m(1)})*({m(2)} - {n()}i)")


def regular_expression(rng, d):
    """A rational expression text of fixed shape, regular at 0: every
    inverse is of 1 plus a term that vanishes at 0."""
    m = lambda length: _monomial(rng, d, length)  # noqa: E731
    n = lambda: _number(rng)  # noqa: E731
    return (f"{n()}*{m(2)}*inv(1 + 0.3*{m(2)}*({n()}*{m(1)} - {n()}*{m(2)}))"
            f" - {n()}*inv(1 + 0.3*{m(1)}*({n()}*{m(3)}"
            f" + {n()}*inv(1 - 0.3*{m(2)})))")


def same_tree(a, b, rel=1e-13):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_tree(a[k], b[k], rel)
                                            for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_tree(x, y, rel)
                                        for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
    return a == b


def cli_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def wait_for(proc, timeout):
    """(exit code, resource usage) of ``proc``, killed after ``timeout``
    seconds.  The wait blocks until the child exits: a wait with a timeout
    polls, and its sleeps would round a timing up by as much as 50 ms."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    return os.waitstatus_to_exitcode(status), usage


@dataclass
class Process:
    returncode: int
    stdout: bytes
    stderr: bytes


class CliWorkload(Workload):
    name = "cli"
    in_child = True
    SCAN_RES = 0.3
    TIMEOUT_S = 120

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng([seed, 7])
        self.dir = Path(out_dir) / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.span_files = []
        self.max_rss_kb = 0
        self.env = cli_env()
        shift = rng.uniform(-0.5, 0.5, 2) * self.SCAN_RES
        self.scan_rect = _jitter((-1.5, 1.5, -1.5, 1.5), shift)
        rect = ",".join(repr(float(x)) for x in self.scan_rect)
        self.scan_prefix = str(self.dir / "scan")
        self.parse_input = parse_expression(rng, 3)
        self.realize_input = regular_expression(rng, 2)
        commands = [
            ("parse", ["parse", "-d", "3", self.parse_input]),
            ("realize", ["realize", "-d", "2", self.realize_input,
                         "--minimize"]),
            ("spr", ["spr", "-d", "2", FIXTURE_TEXT]),
            ("member", ["member", "-d", "2", FIXTURE_TEXT]),
            ("member", ["member", "-d", "1", "inv(1 - z1)"]),
            ("factor", ["factor", "-d", "2", "1 + z1 + z1*z2",
                        "--seed", str(int(rng.integers(1000)))]),
            ("spectrum-scan", ["spectrum-scan", "-d", "2", "z1",
                               f"--rect={rect}", "--res", str(self.SCAN_RES),
                               "--out", self.scan_prefix]),
        ]
        self.ops = [Op(label, lambda args=args, k=k: self.run(k, args))
                    for k, (label, args) in enumerate(commands)]

    def figures(self, typical):
        return {"cli_p50_s": (statistics.median(typical), "s"),
                "cli_parse_s": (typical[0], "s")}

    def run(self, k, args):
        if self.traced:
            spans = self.dir / f"spans-{len(self.span_files)}.json"
            self.span_files.append(spans)
            argv = [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
                    str(spans)] + args
        else:
            argv = [sys.executable, "-m", "ncfock"] + args
        out_path, err_path = self.dir / f"op{k}.out", self.dir / f"op{k}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            returncode, usage = wait_for(subprocess.Popen(
                argv, stdout=out, stderr=err, env=self.env, cwd=ROOT),
                self.TIMEOUT_S)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        result = Process(returncode, out_path.read_bytes(),
                         err_path.read_bytes())
        if result.returncode != 0:
            raise RuntimeError(f"ncfock {' '.join(args)} exited "
                               f"{result.returncode}: "
                               f"{result.stderr.decode()[-400:]}")
        return result

    def peak_rss_mb(self):
        return self.max_rss_kb / 1024.0

    def child_spans(self):
        out = [json.loads(path.read_text())["spans"]
               for path in self.span_files]
        self.span_files.clear()
        return out

    def fingerprint(self, op, output):
        return output.stdout

    def check(self, outputs):
        docs = [json.loads(o.stdout) if o is not None else None
                for o in outputs]
        (parsed, realized, spr_doc, member_fx, member_geo, factor_doc,
         scan_doc) = docs
        if parsed is not None:
            again = ex.parse(parsed["formatted"], 3)
            ck.require(same_tree(_ast_json(again), parsed["ast"]),
                       f"parse output of {self.parse_input!r} does not "
                       "re-parse to the same AST")
            ck.require(ex.format_expr(again) == parsed["formatted"],
                       f"formatting of {parsed['formatted']!r} is not stable")
        if realized is not None:
            self._check_realization(realized)
        if spr_doc is not None:
            ck.close(spr_doc["spr"], ck.FIXTURE_SPR, 1e-9, "CLI spr")
        if member_fx is not None:
            ck.require(member_fx["verdict"] == "in_H2",
                       f"fixture verdict {member_fx['verdict']}")
            ck.require(abs(member_fx["h2_norm"] - ck.FIXTURE_H2) <= 1e-12,
                       f"fixture h2_norm {member_fx['h2_norm']!r}")
        if member_geo is not None:
            ck.require(member_geo["verdict"] == "boundary_indeterminate",
                       f"inv(1 - z1) verdict {member_geo['verdict']}")
        if factor_doc is not None:
            ck.require(factor_doc["outer_certified"]
                       and factor_doc["inner_certified"],
                       "CLI factor not certified")
            ck.close(factor_doc["q0_squared"], ck.bisection_root(), 1e-8,
                     "CLI q0^2 vs the bisection root")
        if scan_doc is not None:
            self._check_scan_csv(scan_doc)

    def _check_realization(self, doc):
        def arr(pairs):
            a = np.asarray(pairs, dtype=float)
            return a[..., 0] + 1j * a[..., 1]
        X = _gaussian(np.random.default_rng(0), 2, 2, 2)
        X *= 0.05 / ck.row_norm(X)
        value = ck.realization_at(arr(doc["A"]), arr(doc["b"]),
                                  arr(doc["c"]), X)
        want = nf.eval_ast(ex.parse(self.realize_input, 2), X)
        err = float(np.linalg.norm(value - want))
        ck.require(err <= 1e-9 * max(1.0, float(np.linalg.norm(want))),
                   f"realized function differs from the expression by "
                   f"{err:.3g} at a point")

    def _check_scan_csv(self, doc):
        lines = Path(doc["csv"]).read_text().splitlines()
        ck.require(lines[0] == "re,im,member,class", "scan CSV header")
        rows = [line.split(",") for line in lines[1:]]
        centers = ck.cell_centers(self.scan_rect, self.SCAN_RES)
        ck.require(len(rows) == centers.size == doc["cells"],
                   f"scan CSV has {len(rows)} cells, expected {centers.size}")
        got = np.array([complex(float(r[0]), float(r[1])) for r in rows])
        ck.require(np.allclose(got, centers.ravel(), atol=1e-12),
                   "scan CSV cell centers do not match the grid")
        member = np.array([r[2] == "1" for r in rows]).reshape(centers.shape)
        ck.check_disk(member, centers, 0.0, 1.0)


WORKLOADS = {
    "scan": ScanWorkload,
    "membership": MemberWorkload,
    "factor": FactorWorkload,
    "cli": CliWorkload,
}
