"""Shared fixtures: paper-derived matrices, random generators, and the
acceptance-criteria report printed at the end of the run."""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import ncfock as nf
from ncfock import expr as ex

# ---------------------------------------------------------------------------
# Acceptance reporting: one pass/fail line per criterion, printed in the
# terminal summary
# ---------------------------------------------------------------------------

ACCEPTANCE_RESULTS = []


@contextmanager
def criterion(number, description):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        ACCEPTANCE_RESULTS.append(
            (number, description, False, time.monotonic() - t0))
        raise
    ACCEPTANCE_RESULTS.append(
        (number, description, True, time.monotonic() - t0))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, description, passed, elapsed in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"criterion {number}: {status} ({elapsed:.1f}s) {description}")


# ---------------------------------------------------------------------------
# Paper fixture data
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def fixture_tuple():
    """The 3x3 pair realizing (1 - (z1 z2 + z2 z1)/2)^{-1} with b = c = e1."""
    s = 2.0 ** -0.5
    A1 = -s * np.array([[0, 0, 1], [1, 0, 0], [0, 0, 0]], dtype=complex)
    A2 = -s * np.array([[0, 1, 0], [0, 0, 0], [1, 0, 0]], dtype=complex)
    return np.stack([A1, A2])


@pytest.fixture(scope="session")
def fixture_realization(fixture_tuple):
    e1 = np.array([1.0, 0.0, 0.0])
    return nf.Realization(fixture_tuple, e1, e1)


@pytest.fixture(scope="session")
def fixture_W():
    """Strict row contraction jointly similar to the fixture tuple."""
    W1 = -np.array([[0, 0, 2 ** -0.75], [2 ** -0.25, 0, 0], [0, 0, 0]],
                   dtype=complex)
    W2 = -np.array([[0, 2 ** -0.75, 0], [0, 0, 0], [2 ** -0.25, 0, 0]],
                   dtype=complex)
    return nf.MatrixTuple(np.stack([W1, W2]))


@pytest.fixture(scope="session")
def poly_p5():
    """1 + z1 + z1 z2, the worked factorization example."""
    return nf.NCPolynomial(2, {(): 1.0, (1,): 1.0, (1, 2): 1.0})


@pytest.fixture(scope="session")
def poly_P6():
    """1 - z1 z2 - z2 z1, the non-outer symmetric polynomial."""
    return nf.NCPolynomial(2, {(): 1.0, (1, 2): -1.0, (2, 1): -1.0})


# a degree-9 polynomial with a minimal realization of 17 states: the
# compressions leave its tuple nilpotent only up to roundoff, and minimize
# must make it exactly nilpotent, or spr and ARPACK read the roundoff
DEGREE9_POLY = (
    "1.0 + (-0.2155971630897659-2.019986129147251i)*z1*z1*z1*z1*z2*z2*z2*z1*z1"
    " + (-0.3526307943415954-0.28128741815135039i)*z1*z2*z2*z1*z1*z1*z1"
    " + (0.9577587029597641-0.19980212906657999i)*z2*z1*z2*z2*z2*z2*z1*z1"
    " + (-0.1828389745977349+0.5405251317548021i)*z2*z1*z1*z2*z2*z1*z1*z1")


def cubic_root_bisection(lo=1.0 + 1e-9, hi=2.0, steps=200):
    """Real root of t^3 - 2 t^2 + t - 1 by bisection (independent oracle)."""
    def g(t):
        return t ** 3 - 2 * t ** 2 + t - 1
    assert g(lo) < 0 < g(hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="session")
def t0_root():
    return cubic_root_bisection()


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def random_ast(rng, d, depth=3):
    """Random expression AST, regular at 0 and evaluable on small points.

    Inverse nodes always wrap (constant + 0.3 * subtree) with |constant| = 1
    so inverses stay nonsingular near the origin.
    """
    if depth == 0:
        kind = rng.integers(0, 2)
        if kind == 0:
            return ex.scalar(complex(rng.standard_normal(),
                                     rng.standard_normal()))
        return ex.Variable(int(rng.integers(1, d + 1)))
    kind = rng.integers(0, 5)
    if kind == 0:
        return ex.scalar(complex(rng.standard_normal(),
                                 rng.standard_normal()))
    if kind == 1:
        return ex.Variable(int(rng.integers(1, d + 1)))
    if kind == 2:
        k = int(rng.integers(2, 4))
        return ex.make_sum([random_ast(rng, d, depth - 1) for _ in range(k)])
    if kind == 3:
        k = int(rng.integers(2, 4))
        return ex.make_product(
            [random_ast(rng, d, depth - 1) for _ in range(k)])
    phase = np.exp(2j * np.pi * rng.random())
    inner = ex.make_sum([
        ex.scalar(phase),
        ex.make_product([ex.scalar(0.3),
                         random_ast(rng, d, depth - 1)]),
    ])
    return ex.make_inverse(inner)


def random_point(rng, d, n, scale=0.05):
    X = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    return nf.MatrixTuple(scale * X / max(np.linalg.norm(np.hstack(list(X)), 2), 1.0))


def random_kernel(rng, d, n, norm_cap=0.85):
    Z = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    Z *= rng.uniform(0.3, norm_cap) / np.linalg.norm(np.hstack(list(Z)), 2)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return nf.KernelVector(nf.MatrixTuple(Z), y, v)


def random_polynomial(rng, d, degree, terms=6):
    from ncfock.words import words_up_to
    words = list(words_up_to(d, degree))
    chosen = rng.choice(len(words), size=min(terms, len(words)),
                        replace=False)
    return nf.NCPolynomial(d, {
        words[i]: complex(rng.standard_normal(), rng.standard_normal())
        for i in chosen})


def padded(A, n, seed=None):
    """A d x m x m tuple padded with zeros to n x n; with a seed, also
    conjugated by a well-conditioned S = I + G/(2||G||), which keeps spr."""
    A = np.asarray(A, dtype=complex)
    out = np.zeros((A.shape[0], n, n), dtype=complex)
    out[:, :A.shape[1], :A.shape[1]] = A
    if seed is None:
        return out
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S = np.eye(n) + 0.5 * G / np.linalg.norm(G, 2)
    return np.linalg.solve(S, out) @ S


# ---------------------------------------------------------------------------
# Call counters
# ---------------------------------------------------------------------------

def count_calls(monkeypatch, module, name):
    """Route module.name through a counter; returns the list of the
    positional arguments of each call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def src_env():
    """Environment of a child python that imports ncfock from src/, also
    under a bare ``pytest``, which puts src/ on its own path only."""
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=str(src))
