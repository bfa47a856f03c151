"""Command-line front end: parser -> realization -> analyses, with JSON/CSV/PGM
artifacts.

Every subcommand takes either ``-d N "expression"`` or ``--realization
path.json`` (exactly one input source); ``parse`` and ``factor`` take only
the expression.  ``factor``, ``spectrum-sample``, ``variety-search`` and
``continuity-probe`` take ``--seed`` (default 0) and are byte-deterministic
for a fixed seed.  Module errors exit 1 with a machine-readable JSON object
{"error": {"code", "message"}}; usage errors exit 2.

Report numbers are printed with 15 significant digits.  Realization JSON
files keep full float precision so that feeding ``realize`` output back
through ``--realization`` reproduces analyses byte-identically.
"""

import argparse
import json
import sys
from math import isinf

import numpy as np

from . import expr as ex
from . import factorization as fz
from . import fock
from . import realization as rz
from . import spectral
from . import spectrum as sp
from .errors import (MalformedJSONError, NCFockError, NotPolynomialError,
                     ParseError)


def _round15(obj):
    if isinstance(obj, float):
        if isinf(obj) or np.isnan(obj):
            return repr(obj)
        return float(f"{obj:.15g}")
    if isinstance(obj, complex):
        return {"re": _round15(obj.real), "im": _round15(obj.imag)}
    # map, not a comprehension: one frame a level of a deep AST
    if isinstance(obj, dict):
        return dict(zip(obj, map(_round15, obj.values())))
    if isinstance(obj, (list, tuple)):
        return list(map(_round15, obj))
    return obj


def _emit(obj, path=None):
    _emit_exact(_round15(obj), path)


def _emit_exact(obj, path=None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _read_json(path):
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as err:
            raise MalformedJSONError(f"{path}: {err}") from None


def _load_realization(args):
    if args.realization:
        if args.expression is not None:
            raise NCFockError("give an expression or --realization, not both")
        if args.d is not None:
            raise NCFockError("-d goes with an expression, not with "
                              "--realization")
        return rz.realization_from_json(_read_json(args.realization))
    if args.expression is None:
        raise NCFockError("an expression (with -d) or --realization is required")
    if args.d is None:
        raise NCFockError("-d is required with an expression")
    return rz.from_expression(args.expression, args.d)


def _ast_json(node):
    return ex.fold(node, lambda value: {"scalar": {"re": value.real,
                                                   "im": value.imag}},
                   lambda index: {"variable": index},
                   lambda terms: {"sum": terms},
                   lambda factors: {"product": factors},
                   lambda x: {"negate": x}, lambda x: {"inverse": x})


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_parse(args):
    node = ex.parse(args.expression, args.d)
    try:
        out = {"formatted": ex.format_expr(node), "ast": _ast_json(node)}
        try:
            poly = ex.as_polynomial(node, args.d)
            out["polynomial"] = poly.to_json_obj()
            out["degree"] = poly.degree
        except NotPolynomialError:
            out["polynomial"] = None
        # the formatter, _round15 and json.dumps recurse once or more a
        # tree level, so a tree the parser accepts can still be too deep
        _emit(out, args.out)
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    return 0


def _cmd_realize(args):
    r = _load_realization(args)
    if args.minimize:
        r = rz.minimize(r, tol=rz.DEFAULT_RANK_TOL if args.tol is None
                        else args.tol)
    elif args.tol is not None:
        raise NCFockError("--tol goes with --minimize")
    _emit_exact(rz.realization_to_json(r), args.out)
    return 0


def _cmd_eval(args):
    r = _load_realization(args)
    Z = rz.matrix_tuple_from_json(_read_json(args.point))
    value = rz.evaluate(r, Z)
    _emit({"value": value.tolist()}, args.out)
    return 0


def _cmd_spr(args):
    r_min = rz.minimize(_load_realization(args))
    _emit({"spr": spectral.spr(r_min.A, method=args.method),
           "n_minimal": r_min.n}, args.out)
    return 0


def _cmd_norm(args):
    r = rz.minimize(_load_realization(args))
    _emit({"h2_norm": fock.h2_norm(r)}, args.out)
    return 0


def _membership_json(result):
    out = {
        "verdict": {"in": "in_H2", "not_in": "not_in_H2",
                    "boundary": "boundary_indeterminate"}[result.verdict],
        "in_h2": result.in_h2,
        "spr": result.spr,
        "radius": "inf" if isinf(result.radius) else result.radius,
    }
    if result.h2_norm is not None:
        out["h2_norm"] = result.h2_norm
    if result.witness is not None:
        out["witness"] = rz.matrix_tuple_to_json(result.witness)
        out["witness_row_norm"] = result.witness_row_norm
        out["witness_sigma_min"] = result.witness_sigma_min
    return out


def _cmd_member(args):
    r = rz.minimize(_load_realization(args))
    _emit(_membership_json(fock.is_in_fock(r)), args.out)
    return 0


def _cmd_kernel(args):
    r = rz.minimize(_load_realization(args))
    kernel = fock.kernel_from_realization(r)
    _emit({
        "Z": rz.matrix_tuple_to_json(kernel.Z),
        "y": kernel.y.tolist(),
        "v": kernel.v.tolist(),
        "row_norm": kernel.Z.row_norm(),
    }, args.out)
    return 0


def _cmd_factor(args):
    node = ex.parse(args.expression, args.d)
    poly = ex.as_polynomial(node, args.d)
    result = fz.outer_factor(poly, n_starts=args.starts, seed=args.seed)
    _emit({
        "outer": result.outer.to_json_obj(),
        "inner": rz.realization_to_json(result.inner),
        "q0": result.q0,
        "q0_squared": result.q0 ** 2,
        "autocorrelation_residual": result.residual,
        "outer_certified": bool(result.outer_certificate),
        "outer_spr_inverse": result.outer_certificate.spr_inverse,
        "inner_certified": bool(result.inner_certificate),
        "inner_unit_defect": result.inner_certificate.unit_defect,
        "inner_orthogonality_defect":
            result.inner_certificate.orthogonality_defect,
    }, args.out)
    return 0


def _cmd_outer_test(args):
    cert = fz.is_outer_rational(_load_realization(args))
    _emit({"outer": cert.outer, "spr_inverse": cert.spr_inverse,
           "indeterminate": cert.indeterminate, "reason": cert.reason},
          args.out)
    return 0


def _cmd_inner_test(args):
    r = rz.minimize(_load_realization(args))
    cert = fz.is_inner(r, tol=args.tol)
    _emit({"inner": cert.inner, "unit_defect": cert.unit_defect,
           "orthogonality_defect": cert.orthogonality_defect,
           "tol": cert.tol}, args.out)
    return 0


def _cmd_boundary_sing(args):
    cp = rz.minimize(_load_realization(args)).cpmap
    Z, sigma_min = spectral._boundary_singularity(cp, args.tol)
    _emit({
        "Z": rz.matrix_tuple_to_json(Z),
        "row_norm": Z.row_norm(),
        "one_over_spr": 1.0 / cp.spr,
        "sigma_min": sigma_min,
    }, args.out)
    return 0


def _float_list(text):
    """argparse type of a comma-separated list of floats."""
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _rect(text):
    """argparse type of --rect: re_min,re_max,im_min,im_max."""
    parts = _float_list(text)
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "--rect needs re_min,re_max,im_min,im_max")
    return parts


def _scales(text):
    """argparse type of --scales: finite noise scales."""
    scales = _float_list(text)
    if not all(np.isfinite(scales)):
        raise argparse.ArgumentTypeError(
            f"noise scales must be finite, got {text!r}")
    return scales


def _int_at_least(low):
    """argparse type of a count flag: an integer no less than low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _tol(text):
    """argparse type of --tol: a number in [0, 1), so never nan or inf."""
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a tolerance in [0, 1), got {text!r}")
    return value


def _cmd_spectrum_scan(args):
    scan = sp.grid_scan(_load_realization(args), args.rect, args.res,
                        classify=not args.no_classify)
    prefix = args.out or "spectrum"
    with open(prefix + ".csv", "w") as handle:
        handle.write(sp.scan_to_csv(scan))
    with open(prefix + ".pgm", "wb") as handle:
        handle.write(sp.scan_to_pgm(scan))
    _emit({"cells": int(scan.member.size),
           "members": int(scan.member.sum()),
           "csv": prefix + ".csv", "pgm": prefix + ".pgm"})
    return 0


def _cmd_spectrum_sample(args):
    eigs, levels = sp.finite_spectrum_sample(
        _load_realization(args), level_max=args.levels, samples=args.samples,
        seed=args.seed)
    text = sp.samples_to_csv(eigs, levels)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        _emit({"samples": int(len(eigs)), "csv": args.out})
    else:
        sys.stdout.write(text)
    return 0


def _cmd_variety_search(args):
    if not (args.realization or args.expression is None or args.d is None):
        node = ex.parse(args.expression, args.d)
        try:
            f = ex.as_polynomial(node, args.d)
        except NCFockError:
            f = rz.minimize(rz.from_ast(node, args.d))
    else:
        f = rz.minimize(_load_realization(args))
    witness = sp.variety_witness_search(
        f, level=args.level, attempts=args.attempts, seed=args.seed,
        tol=args.tol)
    if witness is None:
        _emit({"found": False, "level": args.level}, args.out)
    else:
        _emit({
            "found": True, "level": witness.level,
            "Z": rz.matrix_tuple_to_json(witness.Z),
            "y": witness.y.tolist(),
            "residual": witness.residual,
        }, args.out)
    return 0


def _cmd_continuity_probe(args):
    probe = sp.continuity_probe(_load_realization(args), args.rect,
                                args.res, scales=args.scales, seed=args.seed)
    _emit({"scales": list(probe.scales), "distances": list(probe.distances),
           "rect": list(probe.rect), "resolution": probe.resolution},
          args.out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_source_args(sub):
    sub.add_argument("expression", nargs="?", default=None,
                     help="NC rational expression over z1..zd")
    sub.add_argument("-d", "--vars", dest="d", type=int, default=None,
                     help="number of NC variables")
    sub.add_argument("--realization", default=None,
                     help="path to a realization JSON file")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncfock",
        description="NC rational functions in the Fock space: realizations, "
                    "membership, factorization, spectra.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("parse", help="parse and echo an expression")
    s.add_argument("expression")
    s.add_argument("-d", "--vars", dest="d", type=int, required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_parse)

    s = subs.add_parser("realize", help="compile to a realization JSON")
    _add_source_args(s)
    s.add_argument("--minimize", action="store_true")
    s.add_argument("--tol", type=_tol, default=None,
                   help="rank tolerance of --minimize (default 1e-10)")
    s.set_defaults(func=_cmd_realize)

    s = subs.add_parser("eval", help="evaluate at a matrix tuple JSON")
    _add_source_args(s)
    s.add_argument("--point", required=True,
                   help="path to a matrix tuple JSON file")
    s.set_defaults(func=_cmd_eval)

    s = subs.add_parser("spr", help="joint spectral radius of the minimal A")
    _add_source_args(s)
    s.add_argument("--method", choices=["matrized", "iterate"],
                   default="matrized")
    s.set_defaults(func=_cmd_spr)

    s = subs.add_parser("norm", help="Fock-space (H^2) norm")
    _add_source_args(s)
    s.set_defaults(func=_cmd_norm)

    s = subs.add_parser("member", help="Theorem-A membership verdict")
    _add_source_args(s)
    s.set_defaults(func=_cmd_member)

    s = subs.add_parser("kernel", help="Szego kernel datum {Z, y, v}")
    _add_source_args(s)
    s.set_defaults(func=_cmd_kernel)

    s = subs.add_parser("factor", help="inner-outer factorization of a polynomial")
    s.add_argument("expression")
    s.add_argument("-d", "--vars", dest="d", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--starts", type=_int_at_least(0), default=8)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_factor)

    s = subs.add_parser("outer-test", help="rational outerness certificate")
    _add_source_args(s)
    s.set_defaults(func=_cmd_outer_test)

    s = subs.add_parser("inner-test", help="isometry (innerness) certificate")
    _add_source_args(s)
    s.add_argument("--tol", type=_tol, default=1e-7)
    s.set_defaults(func=_cmd_inner_test)

    s = subs.add_parser("boundary-sing",
                        help="pencil-singular point at norm 1/spr")
    _add_source_args(s)
    s.add_argument("--tol", type=_tol, default=1e-8)
    s.set_defaults(func=_cmd_boundary_sing)

    s = subs.add_parser("spectrum-scan", help="grid scan to CSV + PGM")
    _add_source_args(s)
    s.add_argument("--rect", type=_rect, required=True,
                   help="re_min,re_max,im_min,im_max")
    s.add_argument("--res", type=float, required=True)
    s.add_argument("--no-classify", action="store_true")
    s.set_defaults(func=_cmd_spectrum_scan)

    s = subs.add_parser("spectrum-sample",
                        help="finite-level eigenvalue sampling to CSV")
    _add_source_args(s)
    s.add_argument("--levels", type=_int_at_least(1), default=None)
    s.add_argument("--samples", type=_int_at_least(1), default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_spectrum_sample)

    s = subs.add_parser("variety-search",
                        help="search Sing_n(f) for a witness (Z, y)")
    _add_source_args(s)
    s.add_argument("--level", type=_int_at_least(1), required=True)
    s.add_argument("--attempts", type=_int_at_least(1), default=8)
    s.add_argument("--tol", type=_tol, default=1e-8)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_variety_search)

    s = subs.add_parser("continuity-probe",
                        help="Theorem-B perturbation diagnostic")
    _add_source_args(s)
    s.add_argument("--rect", type=_rect, required=True,
                   help="re_min,re_max,im_min,im_max")
    s.add_argument("--res", type=float, required=True)
    s.add_argument("--scales", type=_scales, default="1e-1,1e-2,1e-3")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_continuity_probe)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NCFockError as err:
        _emit_exact({"error": {"code": err.code, "message": str(err)}})
        return 1
    except OSError as err:
        _emit_exact({"error": {"code": "io-error", "message": str(err)}})
        return 1


if __name__ == "__main__":
    sys.exit(main())
