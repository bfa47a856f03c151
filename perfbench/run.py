"""ncfock benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                      # every workload in turn

A run builds the workload's inputs from --seed, then runs as many whole
rounds of the same operations as it expects to end within --seconds (at
least two), checks the outputs against computations made apart from the
program, and prints, as the last line of standard output, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 the program's public functions are wrapped and the
metrics are the per-layer ones.  See perfbench/README.md.

The machine's speed drifts by up to a third over seconds to minutes, as
other tenants of a shared host come and go.  So every timed operation and
set-up is followed by a fixed reference task, and its time is scaled by the
reference's nominal time over its median time just before and just after:
the times are given at the speed at which the reference task takes its
nominal time.  Work in this process is scaled by an in-process task;
set-up and the cli workload's child processes by a fresh interpreter that
imports numpy.
"""

import os

# one BLAS thread: steadier timings on a shared machine; set before numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_BEFORE, SETUP_AFTER = 1, 2   # set-ups timed before and after the rounds

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_gmean_ms": "ms",
    "round_s": "s",
}


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Reference:
    """A fixed task of about 8 ms that mixes what the program does in
    process: Python loops over a dict and over complex numbers (about
    2 ms), small dense complex LAPACK calls (about 2 ms), and products of
    a 441 x 441 complex matrix (3 MB, the size of a matrization at
    n = 21) with a vector (about 4 ms).  It never calls ncfock, so a
    change to the program cannot move it."""

    NOMINAL_MS = 8.0              # the task's time at the reference speed
    EVERY_S = 0.1                 # one sample more per 0.1 s timed

    def __init__(self):
        rng = np.random.default_rng(0)
        self.M = rng.standard_normal((40, 40)) + 1j * rng.standard_normal(
            (40, 40))
        self.v = self.M[:, 0].copy()
        self.B = rng.standard_normal((441, 441)) + 1j * rng.standard_normal(
            (441, 441))
        self.task()                         # warm-up
        self.last = self.sample(0.0)

    def task(self):
        acc = {}
        for i in range(4000):
            key = (i % 11, i % 7)
            acc[key] = acc.get(key, 0.0) + 0.5 * i
        values = [complex(i, 1) for i in range(500)]
        sum(z * z.conjugate() for z in values)
        np.linalg.eigvals(self.M)
        np.linalg.solve(self.M, self.v)
        self.M @ self.M
        x = self.B[:, 0]
        for _ in range(24):
            x = self.B @ x
            x /= np.linalg.norm(x)

    def sample(self, seconds):
        """Times of the task, run once and once more per EVERY_S of
        ``seconds``."""
        times = []
        for _ in range(1 + int(seconds / self.EVERY_S)):
            t0 = perf_counter()
            self.task()
            times.append(perf_counter() - t0)
        return times

    def scale(self, seconds):
        """NOMINAL_MS over the median time of the task around an operation
        that just took ``seconds``: the samples taken after the operation
        before it, and new ones."""
        times = self.sample(seconds)
        both, self.last = self.last + times, times
        return self.NOMINAL_MS / (1000.0 * statistics.median(both))


class ProcessReference(Reference):
    """A fresh interpreter that imports numpy, for what runs in a child
    process (set-up, the cli workload): process start and imports follow
    the machine's state otherwise than in-process work does."""

    NOMINAL_MS = 200.0
    EVERY_S = 2.0

    def __init__(self):
        self.task()                         # warm-up
        self.last = self.sample(0.0)

    def task(self):
        from workloads import wait_for
        returncode, _ = wait_for(subprocess.Popen(
            [sys.executable, "-c", "import numpy"], cwd=ROOT), 60)
        if returncode != 0:
            sys.exit(f"perfbench: the reference process exited {returncode}")


def _load_program():
    if not (ROOT / "src" / "ncfock" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ncfock source under {ROOT / 'src'}; run "
                 "from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def _build(name, seed):
    import workloads
    if name not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {name!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    return workloads.WORKLOADS[name](seed, OUT_DIR)


def measure_setup(name, seed, reference, repeats):
    """Wall times, in ``repeats`` fresh interpreters, from process start
    to the point where the first timed operation would begin, each scaled
    to the reference speed."""
    from workloads import wait_for
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        returncode, _ = wait_for(subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-only"], cwd=ROOT), 120)
        dt = perf_counter() - t0
        times.append(dt * reference.scale(dt))
        if returncode != 0:
            sys.exit(f"perfbench: set-up of {name} exited {returncode}")
    return times


def run_rounds(workload, seconds, reference, tracer=None):
    """Whole rounds of the workload's operations: at least two, and then
    as many as are expected to end within ``seconds``.  Returns one list
    of (op, seconds, output or None if it raised, scale) per round, where
    scale turns the seconds into seconds at the reference speed."""
    rounds = []
    start = perf_counter()
    while len(rounds) < 2 or (perf_counter() - start) * (
            len(rounds) + 1) / len(rounds) <= seconds:
        if tracer is not None:
            tracer.round = len(rounds)
        results = []
        for op in workload.ops:
            t0 = perf_counter()
            try:
                output = op.call()
            except Exception:
                output = None
                print(f"perfbench: {workload.name}: {op.label} raised",
                      file=sys.stderr)
                traceback.print_exc()
            dt = perf_counter() - t0
            results.append((op, dt, output, reference.scale(dt)))
        if tracer is not None:
            tracer.round = None
            for spans in workload.child_spans():
                tracer.extend(spans, len(rounds))
        rounds.append(results)
    return rounds


def judge(workload, rounds):
    """(correct, attempted, failed): full checks on round 0, and every
    later round must repeat round 0's outputs."""
    import checks
    attempted = failed = 0
    for results in rounds:
        for op, _, output, _ in results:
            attempted += 1
            if output is None or (op.fault and op.fault(output)):
                failed += 1
    first = rounds[0]
    correct = True
    try:
        workload.check([None if op.fault else out
                        for op, _, out, _ in first])
    except checks.CheckError as err:
        print(f"perfbench: {workload.name}: check failed: {err}",
              file=sys.stderr)
        correct = False
    for k, results in enumerate(rounds[1:], start=1):
        for (op, _, out, _), (_, _, base, _) in zip(results, first):
            if out is None or base is None:
                continue
            if workload.fingerprint(op, out) != workload.fingerprint(op, base):
                print(f"perfbench: {workload.name}: round {k} of "
                      f"{op.label!r} differs from round 0", file=sys.stderr)
                correct = False
    return correct, attempted, failed


def typical_times(rounds, scaled=True):
    """Each operation's time: its median over the rounds, each sample
    scaled to the reference speed (or not, with ``scaled`` false)."""
    return [statistics.median(dt * (scale if scaled else 1.0)
                              for _, dt, _, scale in samples)
            for samples in zip(*rounds)]


def timings(ops, typical):
    """(op_gmean_ms, round_s).  op_gmean_ms is the geometric mean of the
    operations' typical times per unit (per cell on scan) over every
    operation of a round, failed or not, so that the set of operations in
    the mean never changes: every operation weighs the same, whatever its
    cost.  round_s is their sum."""
    gmean = math.exp(statistics.fmean(math.log(dt / op.units)
                                      for op, dt in zip(ops, typical)))
    return 1000.0 * gmean, sum(typical)


def run_one(args):
    _load_program()
    workload = _build(args.workload, args.seed)
    if args.setup_only:
        return 0
    import spans

    tracer = None
    # the traced run is scaled too, so that its times compare with the
    # untraced run's and show the tracer's overhead
    reference = ProcessReference() if workload.in_child else Reference()
    if args.trace:
        workload.traced = True
        tracer = spans.Tracer()
        tracer.install()
    else:
        setup_reference = ProcessReference()
        setup_times = measure_setup(args.workload, args.seed,
                                    setup_reference, SETUP_BEFORE)
    rounds = run_rounds(workload, args.seconds, reference, tracer)
    if tracer is None:
        # sampling before and after the rounds spreads the set-ups over
        # the whole run
        setup_s = statistics.median(
            setup_times + measure_setup(args.workload, args.seed,
                                        setup_reference, SETUP_AFTER))
    peak_rss_mb = workload.peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    correct, attempted, failed = judge(workload, rounds)
    typical = typical_times(rounds)
    op_gmean_ms, round_s = timings(workload.ops, typical)
    raw_gmean_ms, raw_round_s = timings(workload.ops,
                                        typical_times(rounds, scaled=False))
    speed = statistics.median(scale for results in rounds
                              for _, _, _, scale in results)
    if tracer is not None:
        from workloads import cli_env
        tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
        values = spans.layer_metrics(tracer.spans,
                                     spans.import_times(cli_env()))
        units = spans.PER_LAYER_UNITS
    else:
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                  "op_gmean_ms": op_gmean_ms, "round_s": round_s}
        units = END_TO_END_UNITS
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    print(f"{args.workload}: seed {args.seed}, trace {args.trace}, "
          f"{len(rounds)} rounds of {len(workload.ops)} operations")
    print(f"  op_gmean_ms {op_gmean_ms:.6g}, round_s {round_s:.6g} at the "
          f"reference speed; unscaled {raw_gmean_ms:.6g} and "
          f"{raw_round_s:.6g}; reference task "
          f"{reference.NOMINAL_MS / speed:.4g} ms (median)")
    for name, (value, unit) in workload.figures(typical).items():
        print(f"  {name} {value:.6g} {unit} (at the reference speed)")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  attempted {attempted}, failed {failed}, correct {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process, one after another."""
    _load_program()
    import workloads
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = _args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
