"""Span tracing of ncfock's public functions, from outside the program.

``Tracer.install`` replaces each traced function at every module name
through which the layers call each other (``ncfock.spectrum.minimize``,
``ncfock.fock.spr``, ``ncfock.factorization.least_squares``, ...) with a
wrapper that records one span: name, start, end, parent span, round, and
the state size n of its first argument.  Spans stay in memory until the
run ends.  Only the traced run installs the tracer; the untraced run calls
the program unchanged.
"""

import importlib
import json
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# (layer, attribute) pairs; the layer is the module under src/ncfock.
TARGETS = (
    ("expr", "parse"),
    ("realization", "from_ast"),
    ("realization", "minimize"),
    ("realization", "invert"),
    ("realization", "evaluate"),
    ("spectral", "spr"),
    ("spectral", "stein_solve"),
    ("spectral", "boundary_singularity"),
    ("spectral", "similarity_to_contraction"),
    ("fock", "is_in_fock"),
    ("fock", "h2_norm"),
    ("fock", "kernel_from_realization"),
    ("factorization", "outer_factor"),
    ("factorization", "autocorrelations"),
    ("factorization", "is_outer_rational"),
    ("factorization", "is_inner"),
    ("factorization", "least_squares"),
    ("spectrum", "grid_scan"),
    ("spectrum", "continuity_probe"),
    ("spectrum", "variety_witness_search"),
    ("spectrum", "_cell_decision"),
    ("words", "NCPolynomial.evaluate"),
)

MODULES = ("cli", "expr", "realization", "spectral", "fock", "factorization",
           "spectrum", "words")

# span fields
NAME, START, END, PARENT, ROUND, SIZE, EXTRA = range(7)


def _state_size(args):
    if not args:
        return None
    first = args[0]
    for attr in ("A", "X"):
        first = getattr(first, attr, first)
    if isinstance(first, np.ndarray) and first.ndim >= 2:
        return int(first.shape[-1])
    return None


class Tracer:
    """Records spans while ``round`` is set; does nothing otherwise."""

    def __init__(self):
        self.spans = []
        self.round = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.round is None:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), None,
                    stack[-1] if stack else -1, self.round,
                    _state_size(args), None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[EXTRA] = "raised"
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if name == "factorization.least_squares":
                span[EXTRA] = int(result.nfev)
            elif name == "factorization.is_outer_rational":
                span[EXTRA] = bool(result.outer)
            return result

        return traced

    def install(self):
        import ncfock

        modules = [ncfock] + [importlib.import_module(f"ncfock.{m}")
                              for m in MODULES]
        for layer, attr in TARGETS:
            name = f"{layer}.{attr}"
            owner = importlib.import_module(f"ncfock.{layer}")
            if "." in attr:                       # a method on a class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{layer}.{meth}", original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def extend(self, spans, round_id):
        """Append spans recorded by another process, re-indexing parents."""
        offset = len(self.spans)
        for span in spans:
            span = list(span)
            if span[PARENT] >= 0:
                span[PARENT] += offset
            span[ROUND] = round_id
            self.spans.append(span)

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "round",
                                  "n", "extra"], "spans": self.spans},
                      handle)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit; every traced run prints all of them, 0 where the workload
# does not reach the layer.
PER_LAYER_UNITS = {
    "cli.import.s": "s",
    "cli.import.scipy_optimize.s": "s",
    "expr.parse.ms": "ms",
    "realization.minimize.calls": "count",
    "realization.minimize.ms": "ms",
    "realization.invert.calls": "count",
    "realization.invert.ms": "ms",
    "realization.evaluate.calls": "count",
    "realization.evaluate.ms": "ms",
    "spectral.spr.calls": "count",
    "spectral.spr.small.ms": "ms",
    "spectral.spr.n16.ms": "ms",
    "spectral.stein_solve.n16.ms": "ms",
    "spectral.spr.n21.ms": "ms",
    "spectral.stein_solve.n21.ms": "ms",
    "spectral.spr.n21.bytes_computed": "B/verdict",
    "spectral.boundary_singularity.ms": "ms",
    "fock.is_in_fock.ms": "ms",
    "fock.kernel_from_realization.ms": "ms",
    "fock.spr_calls_per_verdict": "calls/verdict",
    "factorization.outer_factor.ms": "ms",
    "factorization.lsq.nfev": "evals/factor",
    "factorization.autocorrelations.calls": "count",
    "factorization.certified_per_start": "ratio",
    "factorization.is_outer_rational.calls": "count",
    "spectrum.cells": "count",
    "spectrum.cell.ms": "ms",
    "spectrum.spr_calls_per_cell": "calls/cell",
    "spectrum.minimize_calls_per_cell": "calls/cell",
    "spectrum.witness.evals": "evals/search",
}


def _median_ms(spans):
    return 1000.0 * statistics.median(s[END] - s[START] for s in spans) \
        if spans else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, import_times):
    """Per-layer metrics from the spans of a traced run.

    Counts come from round 0 (every round runs the same operations, so
    they repeat exactly); times are medians over all rounds.
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def all_of(name, test=None):
        out = by_name.get(name, [])
        if test is not None:
            out = [s for s in out if s[SIZE] is not None and test(s[SIZE])]
        return out

    def first_round(name):
        return [s for s in by_name.get(name, []) if s[ROUND] == 0]

    def under(span, names):
        parent = span[PARENT]
        while parent >= 0:
            if spans[parent][NAME] in names:
                return spans[parent]
            parent = spans[parent][PARENT]
        return None

    def count_under(name, names):
        return sum(1 for s in first_round(name) if under(s, names))

    verdict_names = {"fock.is_in_fock", "fock.kernel_from_realization"}
    verdicts = [s for s in first_round("fock.is_in_fock")
                if not under(s, verdict_names)]
    verdicts21 = [s for s in verdicts if s[SIZE] == 21]
    spr21 = [s for s in first_round("spectral.spr")
             if s[SIZE] == 21 and under(s, verdict_names)]
    cells = first_round("spectrum._cell_decision")
    factors = first_round("factorization.outer_factor")
    lsq = [s for s in first_round("factorization.least_squares")
           if under(s, {"factorization.outer_factor"})]
    certified = [s for s in first_round("factorization.is_outer_rational")
                 if s[EXTRA] is True
                 and under(s, {"factorization.outer_factor"})]
    searches = first_round("spectrum.variety_witness_search")
    evals = sum(count_under(name, {"spectrum.variety_witness_search"})
                for name in ("realization.evaluate", "words.evaluate"))

    values = {
        "cli.import.s": import_times["ncfock"],
        "cli.import.scipy_optimize.s": import_times["scipy.optimize"],
        "expr.parse.ms": _median_ms(all_of("expr.parse")),
        "realization.minimize.calls": len(first_round("realization.minimize")),
        "realization.minimize.ms": _median_ms(all_of("realization.minimize")),
        "realization.invert.calls": len(first_round("realization.invert")),
        "realization.invert.ms": _median_ms(all_of("realization.invert")),
        "realization.evaluate.calls": len(first_round("realization.evaluate")),
        "realization.evaluate.ms": _median_ms(all_of("realization.evaluate")),
        "spectral.spr.calls": len(first_round("spectral.spr")),
        "spectral.spr.small.ms": _median_ms(
            all_of("spectral.spr", lambda n: n <= 8)),
        "spectral.spr.n16.ms": _median_ms(
            all_of("spectral.spr", lambda n: n == 16)),
        "spectral.stein_solve.n16.ms": _median_ms(
            all_of("spectral.stein_solve", lambda n: n == 16)),
        "spectral.spr.n21.ms": _median_ms(
            all_of("spectral.spr", lambda n: n == 21)),
        "spectral.stein_solve.n21.ms": _median_ms(
            all_of("spectral.stein_solve", lambda n: n == 21)),
        # 16-byte complex entries of one (n^2 x n^2) matrization per spr
        # call, computed from the sizes, not measured
        "spectral.spr.n21.bytes_computed": _ratio(
            16 * 21 ** 4 * len(spr21), len(verdicts21)),
        "spectral.boundary_singularity.ms": _median_ms(
            all_of("spectral.boundary_singularity")),
        "fock.is_in_fock.ms": _median_ms(all_of("fock.is_in_fock")),
        "fock.kernel_from_realization.ms": _median_ms(
            all_of("fock.kernel_from_realization")),
        "fock.spr_calls_per_verdict": _ratio(
            count_under("spectral.spr", verdict_names), len(verdicts)),
        "factorization.outer_factor.ms": _median_ms(
            all_of("factorization.outer_factor")),
        "factorization.lsq.nfev": _ratio(
            sum(s[EXTRA] or 0 for s in lsq), len(factors)),
        "factorization.autocorrelations.calls": len(
            first_round("factorization.autocorrelations")),
        "factorization.certified_per_start": _ratio(len(certified),
                                                    len(lsq)),
        "factorization.is_outer_rational.calls": len(
            first_round("factorization.is_outer_rational")),
        "spectrum.cells": len(cells),
        "spectrum.cell.ms": _median_ms(all_of("spectrum._cell_decision")),
        "spectrum.spr_calls_per_cell": _ratio(
            count_under("spectral.spr", {"spectrum._cell_decision"}),
            len(cells)),
        "spectrum.minimize_calls_per_cell": _ratio(
            count_under("realization.minimize", {"spectrum._cell_decision"}),
            len(cells)),
        "spectrum.witness.evals": _ratio(evals, len(searches)),
    }
    return values


def import_times(env, repeats=3):
    """Median cumulative import time of ncfock and of scipy.optimize, in
    seconds, from ``-X importtime`` in fresh interpreters."""
    found = {"ncfock": [], "scipy.optimize": []}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ncfock"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = [f.strip() for f in line.split("|")]
            if fields[-1] in found and fields[1].isdigit():
                found[fields[-1]].append(int(fields[1]) * 1e-6)
    return {name: statistics.median(values) if values else 0.0
            for name, values in found.items()}
