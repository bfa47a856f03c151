"""Run a fixed list of ncfock CLI commands on one source tree and save
everything each run printed and wrote, so that two trees can be compared
byte for byte:

    python tools/cli_artifacts.py --tree PATH_A OUT_A
    python tools/cli_artifacts.py --tree PATH_B OUT_B
    diff -r OUT_A OUT_B

Each command runs in a fresh ``python -m ncfock`` process with the tree's
``src`` on PYTHONPATH, one BLAS thread and OUT_DIR as working directory.
Run k writes ``OUT_DIR/NNN-<subcommand>/`` holding ``argv`` (the command
line), ``stdout``, ``stderr``, ``exit`` (the exit code) and the files that
the run's ``--out`` wrote.  ``OUT_DIR/inputs/`` holds the fixed input files
(matrix tuples, realizations at extreme scales) and the realizations that
earlier ``realize`` runs write for the ``--realization`` round trip.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

FIXTURE = "inv(1 - 0.5*z1*z2 - 0.5*z2*z1)"
POLY = "1 + z1 + z1*z2"
# the `regular_expression` shape of perfbench's cli workload (its realize
# input at seed 101): 41 states, 11 after minimization
RATIONAL41 = ("0.808*z1*z1*inv(1 + 0.3*z1*z1*(0.516*z2 - 0.800*z2*z1))"
              " - 1.848*inv(1 + 0.3*z1*(0.295*z2*z2*z2"
              " + 0.741*inv(1 - 0.3*z2*z2)))")
INV4 = "inv(1 - 0.9*z1*z2 - 0.8*z2 - 0.7*z1*z1*z2)"
# polynomials whose compressed tuples are nilpotent only up to roundoff,
# which minimize must make exactly nilpotent: degree 9 in d = 2 with 17
# minimal states, d = 4 with 8 and d = 3 with 11
DEGREE9 = (
    "1.0 + (-0.2155971630897659-2.019986129147251i)*z1*z1*z1*z1*z2*z2*z2*z1*z1"
    " + (-0.3526307943415954-0.28128741815135039i)*z1*z2*z2*z1*z1*z1*z1"
    " + (0.9577587029597641-0.19980212906657999i)*z2*z1*z2*z2*z2*z2*z1*z1"
    " + (-0.1828389745977349+0.5405251317548021i)*z2*z1*z1*z2*z2*z1*z1*z1")
POLY_D4 = "1 + 0.5*z3*z4*z4 + 1.7*z4*z1*z2*z4 + 0.2*z2*z2*z3"
POLY_D3 = ("1 + 1.7*z3*z1*z3*z3 + 1.5*z2*z1 + 0.7*z1*z1*z3*z1*z2"
           " + 0.4*z2*z2*z1")
# inv(1 - 2w) for a word w of 13 letters: an imprimitive 13-state tuple,
# whose peripheral spectrum is spr^2 = 2^(2/13) times the 13th roots of unity
CYCLIC13 = "inv(1 - 2*z1*z2*z1*z1*z2*z2*z1*z2*z2*z2*z1*z1*z2)"
EDGE = "inv(1 - 0.9999999995*z1)"
NEAR_EDGE = "inv(1 - 0.999999997*z1)"
HUGE_SQUARE = "inv(1 - 1e154*z1*z1)"
EXPRESSIONS = {"fixture": FIXTURE, "poly": POLY, "rational41": RATIONAL41,
               "inv4": INV4}

RECT = "-1.5,1.5,-1.5,1.5"


def nested_inverse(k):
    """inv(1 - z1*inv(1 - z1*...)) nested k deep, around z1."""
    return "inv(1 - z1*" * k + "z1" + ")" * k


def chain(length):
    """1 + 0.5*(z1 + z1*z2 + ... + z1*z2^(length - 1))."""
    return "1 + 0.5*(" + " + ".join(
        "*".join(["z1"] + ["z2"] * k) for k in range(length)) + ")"


def nested_sum(depth):
    """z1*(1 + z1*(1 + ... z1)) with depth factors z1: the power sum
    z1 + ... + z1^depth on depth + 1 states."""
    return "z1*(1 + " * (depth - 1) + "z1" + ")" * (depth - 1)


def power_sum(length):
    """z1 + z1*z1 + ... + z1^length."""
    return " + ".join("*".join(["z1"] * k) for k in range(1, length + 1))


# fixed inputs, written to OUT_DIR/inputs
INPUTS = {
    "point.json": {
        "d": 2, "n": 2,
        "X": [[[[0.3, 0.1], [-0.2, 0.0]], [[0.0, 0.05], [0.25, -0.1]]],
              [[[0.1, 0.0], [0.0, 0.2]], [[-0.15, 0.0], [0.2, 0.1]]]]},
    # 1e-13 * (1 + z1) on two states, as nf.scale(r, 1e-13) builds it
    "scaled.json": {
        "d": 2, "n": 2,
        "A": [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
              [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
        "b": [[1.0, 0.0], [0.0, 0.0]],
        "c": [[1e-13, 0.0], [1e-13, 0.0]]},
    # A = 1e77 (1 + i): ||R||_F overflows, R and Ad(I) do not
    "big.json": {
        "d": 1, "n": 1, "A": [[[[1e77, 1e77]]]], "b": [[1.0, 0.0]],
        "c": [[1.0, 0.0]]},
    # 1/(1 - z/2) scaled through c and through b: the norms of b and c
    # under- and overflow, their power-of-two scaled ones do not
    "tiny-c.json": {
        "d": 1, "n": 1, "A": [[[[0.5, 0.0]]]], "b": [[1.0, 0.0]],
        "c": [[1e-170, 0.0]]},
    "huge-b.json": {
        "d": 1, "n": 1, "A": [[[[0.5, 0.0]]]], "b": [[1e160, 0.0]],
        "c": [[1.0, 0.0]]},
    # A = 1e160: Ad(I) overflows, spr = 1e160 does not
    "huge-a.json": {
        "d": 1, "n": 1, "A": [[[[1e160, 0.0]]]], "b": [[1.0, 0.0]],
        "c": [[1.0, 0.0]]},
    # finite entries whose Krylov generations overflow: A = 1e308 in every
    # entry, and a first row of 1.7e308
    "full-1e308.json": {
        "d": 1, "n": 2,
        "A": [[[[1e308, 0.0], [1e308, 0.0]], [[1e308, 0.0], [1e308, 0.0]]]],
        "b": [[1.0, 0.0], [0.0, 0.0]], "c": [[1.0, 0.0], [1.0, 0.0]]},
    "row-1.7e308.json": {
        "d": 1, "n": 2,
        "A": [[[[1.7e308, 0.0], [1.7e308, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
        "b": [[1.0, 0.0], [0.0, 0.0]], "c": [[1.0, 0.0], [1.0, 0.0]]},
    # b = (1e308, 1e307): S* b of the kernel and r(1/2) overflow
    "b-1e308.json": {
        "d": 1, "n": 2,
        "A": [[[[0.3, 0.0], [0.5, 0.0]], [[0.1, 0.0], [0.2, 0.0]]]],
        "b": [[1e308, 0.0], [1e307, 0.0]], "c": [[1.0, 0.0], [2.0, 0.0]]},
    "point-half.json": {"d": 1, "n": 1, "X": [[[[0.5, 0.0]]]]},
    # a coupling of 2.5e307: the inverse tuple of outer-test overflows
    "coupling-2.5e307.json": {
        "d": 1, "n": 2,
        "A": [[[[0.33315777974433414, 0.0], [0.4813035816465992, 0.0]],
               [[2.5482929425047334e307, 0.0], [0.22333598467805735, 0.0]]]],
        "b": [[-0.025445316692543535, 0.0], [-0.1470455068463331, 0.0]],
        "c": [[-0.63057798997102, 0.0], [0.0553649749135539, 0.0]]},
}

# finite realizations whose Krylov generations (every subcommand that
# minimizes, and the iterate route), kernel datum, value r(X) or inverse
# tuple overflow: each answers numerical-failure, with nothing on stderr
OVERFLOW_RUNS = [
    [command, "--realization", f"inputs/{name}", *extra]
    for name, commands in (
        ("full-1e308.json", (
            ["spr"], ["spr", "--method", "iterate"], ["norm"], ["member"],
            ["kernel"], ["inner-test"], ["outer-test"], ["boundary-sing"],
            ["realize", "--minimize"],
            ["spectrum-scan", "--rect=-2,2,-2,2", "--res", "1", "--out",
             "{run}/scan"],
            ["spectrum-sample", "--samples", "20"],
            ["variety-search", "--level", "1", "--attempts", "2"],
            ["continuity-probe", "--rect=-2,2,-2,2", "--res", "1",
             "--scales", "0.1"])),
        ("row-1.7e308.json", (["spr"], ["member"],
                              ["realize", "--minimize"])),
        ("b-1e308.json", (["kernel"],
                          ["eval", "--point", "inputs/point-half.json"],
                          ["spectrum-sample", "--samples", "20"])),
        ("coupling-2.5e307.json", (["outer-test"],)))
    for command, *extra in commands]


def _per_expression():
    """Every subcommand on each of the four expressions."""
    runs = []
    for slug, text in EXPRESSIONS.items():
        src = ["-d", "2", text]
        runs += [
            ["parse", "-d", "2", text],
            ["realize", *src],
            ["realize", *src, "--minimize",
             "--out", f"inputs/{slug}-min.json"],
            ["eval", *src, "--point", "inputs/point.json"],
            ["spr", *src],
            ["spr", *src, "--method", "iterate"],
            ["norm", *src],
            ["member", *src],
            ["kernel", *src],
            ["factor", "-d", "2", text],
            ["outer-test", *src],
            ["inner-test", *src],
            ["boundary-sing", *src],
            ["spectrum-scan", *src, f"--rect={RECT}", "--res", "0.5",
             "--out", "{run}/scan"],
            ["spectrum-sample", *src, "--samples", "60",
             "--out", "{run}/sample.csv"],
            ["variety-search", *src, "--level", "1"],
            ["continuity-probe", *src, f"--rect={RECT}", "--res", "0.5",
             "--scales", "1e-1,1e-2"],
            # the round trip through the minimized realization file
            ["member", "--realization", f"inputs/{slug}-min.json"],
            ["outer-test", "--realization", f"inputs/{slug}-min.json"],
        ]
    return runs


COMMANDS = _per_expression() + [
    ["factor", "-d", "2", "1 - z1*z2 - z2*z1"],
    ["factor", "-d", "2", "2 + z1*z2 + 3*z2*z1*z1"],
    ["factor", "-d", "2", "1 + 2*z1*z2"],
    ["factor", "-d", "2", POLY, "--seed", "3", "--starts", "4"],
    ["realize", "-d", "2", RATIONAL41, "--minimize", "--tol", "1e-8"],
    ["spectrum-scan", "-d", "2", "z1", "--rect=-1.3,1.3,-1.3,1.3",
     "--res", "0.2", "--out", "{run}/scan"],
    ["spectrum-scan", "-d", "2", "z1", "--rect=-1.3,1.3,-1.3,1.3",
     "--res", "0.2", "--no-classify", "--out", "{run}/scan"],
    ["spectrum-scan", "-d", "2", FIXTURE, "--rect=-2,2,-2,2", "--res",
     "0.4", "--no-classify", "--out", "{run}/scan"],
    ["spectrum-sample", "-d", "2", FIXTURE, "--levels", "3", "--samples",
     "90", "--seed", "2", "--out", "{run}/sample.csv"],
    ["continuity-probe", "-d", "2", "z1", "--rect=-1.3,1.3,-1.3,1.3",
     "--res", "0.2", "--out", "{run}/probe.json"],
    ["variety-search", "-d", "2", POLY, "--level", "2", "--seed", "1"],
    ["variety-search", "-d", "2", "1 - z1*z2 - z2*z1", "--level", "2"],
    # value at zero, at scales far below 1
    ["outer-test", "-d", "1", "1e-13"],
    ["outer-test", "-d", "1", "1e-11"],
    ["member", "-d", "1", "inv(1e-15)"],
    ["outer-test", "--realization", "inputs/scaled.json"],
    ["spectrum-scan", "--realization", "inputs/scaled.json",
     "--rect=-4e-13,6e-13,-5e-13,5e-13", "--res", "1e-13",
     "--out", "{run}/scan"],
    # usage and input errors
    ["member", "-d", "2", "1 +"],
    ["member", "--realization", "inputs/missing.json"],
    ["spr"],
    ["spectrum-scan", "-d", "2", "z1", "--res", "0.5"],
    # the witness polish of a realization
    ["variety-search", "-d", "2", f"{FIXTURE} - 2", "--level", "2"],
    # a tuple with spr 1e-13: radius 1e13, boundary point at norm 1e13
    ["member", "-d", "1", "inv(1 - 1e-13*z1)"],
    ["boundary-sing", "-d", "1", "inv(1 - 1e-13*z1)"],
    # spr 1.41e77, near the overflow threshold
    ["spr", "--realization", "inputs/big.json"],
    ["member", "--realization", "inputs/big.json"],
    # jointly nilpotent at n = 17: spr 0, radius inf, no boundary point
    ["spr", "-d", "2", DEGREE9],
    ["member", "-d", "2", DEGREE9],
    ["boundary-sing", "-d", "2", DEGREE9],
    # a 10-state resolvent on 64 cells: Stein certificates in blocks of 3
    ["spectrum-scan", "--realization", "inputs/rational41-min.json",
     "--rect=-2.8,-0.4,-1.2,1.2", "--res", "0.3", "--out", "{run}/scan"],
    # centres on |lambda| = 1: knife-edge cells, certified on the edge
    ["spectrum-scan", "-d", "2", "z1", "--rect=-1.25,1.25,-1.25,1.25",
     "--res", "0.5", "--out", "{run}/scan"],
    *([*command, "--realization", f"inputs/{name}"]
      for name in ("tiny-c.json", "huge-b.json")
      for command in (["member"], ["norm"], ["realize", "--minimize"])),
    *([command, "-d", str(d), text]
      for d, text in ((4, POLY_D4), (3, POLY_D3))
      for command in ("spr", "member", "boundary-sing")),
    # a nan tolerance is a usage error
    ["realize", "-d", "2", "z1*inv(1-0.5*z2)", "--minimize", "--tol", "nan"],
    ["boundary-sing", "-d", "2", FIXTURE, "--tol", "nan"],
    # spr 1 - 5e-10, on the edge, and 1 - 3e-9, below it with a Stein
    # solution of norm about 2.5e8
    *([command, "-d", "2", text]
      for text in (EDGE, NEAR_EDGE)
      for command in ("member", "norm", "kernel", "inner-test")),
    ["spectrum-scan", "-d", "2", NEAR_EDGE, "--rect=-1,3,-2,2", "--res",
     "0.25", "--out", "{run}/scan"],
    # factor and the witness search run on p and f scaled by a power of
    # two: 2^300 (2 + z1) and 2^-300 (2 + z1) factor as 2 + z1 does, and
    # the witness of 1e200 (1 - z1) is z1 = 1
    *(["factor", "-d", "1", f"{scale!r}*(2 + z1)"]
      for scale in (2.0 ** 300, 2.0 ** -300)),
    ["factor", "-d", "2", "0"],
    ["variety-search", "-d", "1", "1e200*(1-z1)", "--level", "1"],
    # the witness polish of a realization read from a file
    ["realize", "-d", "2", f"{FIXTURE} - 2", "--minimize",
     "--out", "inputs/fixture-minus-2-min.json"],
    ["variety-search", "--realization", "inputs/fixture-minus-2-min.json",
     "--level", "2"],
    # the scaled files answer as 1/(1 - z/2) does, over the rescaled disk
    *(["outer-test", "--realization", f"inputs/{name}"]
      for name in ("tiny-c.json", "huge-b.json")),
    ["spectrum-scan", "--realization", "inputs/tiny-c.json",
     "--rect=1e-170,2e-170,-5e-171,5e-171", "--res", "1.25e-171",
     "--out", "{run}/scan"],
    ["spectrum-scan", "--realization", "inputs/huge-b.json",
     "--rect=1e160,2e160,-5e159,5e159", "--res", "1.25e159",
     "--out", "{run}/scan"],
    # a tuple whose Ad(I) overflows: spr 1e160, radius 1e-160
    *([*command, "--realization", "inputs/huge-a.json"]
      for command in (["spr"], ["spr", "--method", "iterate"], ["member"],
                      ["boundary-sing"])),
    # constants that fold or compile past the double range, and nesting
    # deeper than the parser's recursion: coded errors
    ["parse", "-d", "1", "1e200*1e200"],
    ["parse", "-d", "1", "1e308+1e308"],
    ["realize", "-d", "1", "1e200*1e200*z1"],
    ["parse", "-d", "1", "(" * 400 + "z1" + ")" * 400],
    # the isometry test on the mantissa: c* Q c = 1e320 overflows to inf
    *(["inner-test", "--realization", f"inputs/{name}"]
      for name in ("huge-b.json", "tiny-c.json")),
    # the first runs on the Arnoldi route with spr > 0: its Perron root is
    # the one peripheral eigenvalue that is real positive
    *([command, "-d", "2", CYCLIC13]
      for command in ("spr", "member", "boundary-sing")),
    # nesting that parses but is too deep to print or to expand: coded
    # errors
    ["parse", "-d", "1", nested_inverse(200)],
    ["factor", "-d", "1", nested_inverse(246)],
    # 2047 words of length <= 10 but a hereditary tree of 20: factored on
    # its shift realization
    ["factor", "-d", "2", chain(10)],
    # a similarity to a row contraction of row norm 1e169: a coded error
    ["kernel", "-d", "1", power_sum(40)],
    # the kernel of a jointly nilpotent tuple of 151 and of 31 states, from
    # the finite Stein sum: W of row norm 1.4e167 (a coded error), and a
    # strict row contraction
    ["kernel", "-d", "1", nested_sum(150)],
    ["kernel", "-d", "1", nested_sum(30)],
    # an expression and --realization together: a coded error, as for
    # every other subcommand
    ["variety-search", "-d", "2", "1 - z1*z2 - z2*z1", "--realization",
     "inputs/fixture-minus-2-min.json", "--level", "1"],
    # a jointly nilpotent tuple of 11 states, just below the switch: the
    # Stein solves are finite sums and the band needs no certificate
    *([command, "-d", "3", POLY_D3]
      for command in ("norm", "kernel", "inner-test")),
    # a mantissa whose Ad has entries near 1e-309, spr 1e77
    *([*command, "-d", "1", HUGE_SQUARE]
      for command in (["spr"], ["spr", "--method", "iterate"], ["member"],
                      ["boundary-sing"])),
    # the inverse 1 - 1e160*z1 of the tuple whose Ad(I) overflows: outer
    ["outer-test", "--realization", "inputs/huge-a.json"],
    # a Taylor tail that overflows in the cleanup: a coded error
    ["member", "-d", "2", "1 + 1e200*z1"],
    # tuples whose 4^-k is below the smallest double (the Stein sum
    # overflows), whose Q c has a norm that overflows, and whose scan
    # resolvent is built from a mantissa of 1e100 or 1e200
    *([command, "-d", "2", "1e170*z2"]
      for command in ("norm", "member", "kernel", "inner-test")),
    ["kernel", "-d", "1", "1e170*z1*z1"],
    ["inner-test", "-d", "1", "1e170*z1*z1"],
    ["inner-test", "-d", "2", "1e100*z2"],
    ["inner-test", "-d", "1", "1 + 1e100*z1"],
    *([command, "-d", "2", text, "--rect=-2,2,-2,2", "--res", "1", *out]
      for text in ("1e100*z2", "1e200*z2")
      for command, *out in (["spectrum-scan", "--out", "{run}/scan"],
                            ["continuity-probe"])),
    *OVERFLOW_RUNS,
    # lambda = 1e300 (+-1 +-i): both parts of lambda 2^-e overflow, and the
    # cells lie in the resolvent
    ["spectrum-scan", "--realization", "inputs/tiny-c.json",
     "--rect=-1e300,1e300,-1e300,1e300", "--res", "5e299",
     "--out", "{run}/scan"],
    # a grid that rounds to no cells, and options without a reader: coded
    # errors
    ["spectrum-scan", "-d", "1", "z1", "--rect=0,0.1,0,0.1", "--res", "1",
     "--out", "{run}/scan"],
    ["continuity-probe", "-d", "1", "z1", "--rect=0,0.1,0,0.1", "--res", "1"],
    ["member", "-d", "7", "--realization", "inputs/tiny-c.json"],
    ["realize", "-d", "1", "z1", "--tol", "1e-8"],
    # a folded constant and an imaginary literal, on the parse that loads
    # no numpy
    ["parse", "-d", "2", "(2*3 - 0.5) + 1.5i*z1 - (1-2i)*z2*z1"],
]


def run_all(tree, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = out_dir / "inputs"
    inputs.mkdir(exist_ok=True)
    for name, obj in INPUTS.items():
        (inputs / name).write_text(json.dumps(obj) + "\n")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    for k, argv in enumerate(COMMANDS):
        run = f"{k:03d}-{argv[0]}"
        (out_dir / run).mkdir(exist_ok=True)
        args = [a.replace("{run}", run) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "ncfock", *args],
                              cwd=out_dir, env=env, capture_output=True,
                              timeout=600)
        (out_dir / run / "argv").write_text(json.dumps(args) + "\n")
        (out_dir / run / "stdout").write_bytes(proc.stdout)
        (out_dir / run / "stderr").write_bytes(proc.stderr)
        (out_dir / run / "exit").write_text(f"{proc.returncode}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, required=True,
                        help="source tree whose src/ncfock is run")
    parser.add_argument("out_dir", type=Path,
                        help="directory for the outputs of every run")
    args = parser.parse_args(argv)
    run_all(args.tree.resolve(), args.out_dir.resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
