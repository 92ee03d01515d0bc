"""Command-line front end.

Exit codes: 0 = success / recognized, 1 = valid negative answer
(not recognized), 2 = input or usage error, 3 = internal error (a fault of
prodmat, reported with its traceback on stderr).  Recognition and info commands
print a JSON document on stdout; generators print a matrix in the standard
text format.  Diagnostics go to stderr unless --quiet is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback

from .info import InfoFunction
from .matrix import Matrix, MatrixFormatError, _ascii, _integer, parse_matrix, seeded_shuffle, write_matrix
from .matroids import (
    MatroidInputError,
    _base_lists,
    _check_size,
    expr_to_slack,
    expr_to_text,
    hypersimplex_slack,
    parse_expr,
    recognize_2level_matroid_slack,
)
from .oracles import GuardExceeded, bf_one_product, bf_two_product
from .polytopes import parse_hrep, parse_vrep, slack_from_vh
from .products import factorize_irreducible, one_product, recognize_one_product, recognize_two_product

OK, NO, ERR, INTERNAL = 0, 1, 2, 3


class InputError(ValueError):
    """A file or parameter named on the command line is malformed or inconsistent."""


def _from_input(fn, *args):
    """Call a parser or builder of user input; the ValueError it raises is an
    input error, and so is running out of stack on an input nested too deeply."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    except RecursionError as exc:
        raise InputError("input nested too deeply to parse or build") from exc


def _entry_json(x):
    return x if type(x) is int else str(x)


def _matrix_rows_json(S: Matrix):
    rows = S.array.tolist()
    return [list(map(_entry_json, row)) for row in rows] if S.array.dtype == object else rows


def _read_matrix(path: str) -> Matrix:
    with open(path, "rb") as fh:
        return parse_matrix(fh.read())


def _read_text(path: str) -> str:
    """A text file named on the command line, which must be ASCII (`_ascii`)."""
    with open(path, "rb") as fh:
        return _ascii(fh.read())


def _emit(payload) -> None:
    # json.dumps takes the C encoder; json.dump always streams through the Python one
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


def _diag(args, msg: str) -> None:
    if not args.quiet:
        print(msg, file=sys.stderr)


def cmd_info(args) -> int:
    S = _read_matrix(args.matrix)
    try:
        subset = sorted({_integer(t.strip()) for t in args.subset.split(",") if t.strip() != ""})
    except MatrixFormatError:
        raise MatrixFormatError(f"bad subset {args.subset!r}")
    if any(i < 0 or i >= S.m for i in subset):
        raise MatrixFormatError(f"subset {subset} out of range for {S.m} rows")
    F = InfoFunction(S)
    f_val = round(F.f(tuple(subset)), 12)
    independent = (
        F.is_independent_exact(tuple(subset)) if 0 < len(subset) < S.m else None
    )
    _emit({"f": f_val, "independent": independent, "subset": subset})
    return OK


def cmd_recognize(args) -> int:
    S = _read_matrix(args.matrix)
    if args.kind == "1p":
        cert = recognize_one_product(S)
        if cert is None:
            _emit({"recognized": False})
            return NO
        _emit(
            {
                "kind": "1p",
                "recognized": True,
                "rowPartition": [list(cert.X), list(cert.Xc)],
                "factors": [_matrix_rows_json(cert.S1), _matrix_rows_json(cert.S2)],
            }
        )
        return OK
    if args.kind == "2p":
        cert = recognize_two_product(S)
        if cert is None:
            _emit({"recognized": False})
            return NO
        Xc = [i for i in range(S.m) if i != cert.special_row and i not in set(cert.X)]
        _emit(
            {
                "kind": "2p",
                "recognized": True,
                "specialRow": cert.special_row,
                "rowPartition": [list(cert.X), Xc],
                "specialRowsInFactors": [cert.x1_index, cert.y1_index],
                "factors": [_matrix_rows_json(cert.S1), _matrix_rows_json(cert.S2)],
            }
        )
        return OK
    # matroid
    rec = recognize_2level_matroid_slack(S)
    if rec is None:
        _emit({"recognized": False})
        return NO
    prov = rec.row_provenance(S)
    _emit(
        {
            "kind": "matroid",
            "recognized": True,
            "expr": expr_to_text(rec.expr),
            "elements": rec.size,
            "colBases": _base_lists(rec.bases),
            "rowProvenance": [
                {"row": i, "type": t, "element": e} for i, (t, e) in enumerate(prov)
            ],
        }
    )
    return OK


def cmd_factor(args) -> int:
    S = _read_matrix(args.matrix)
    fac = factorize_irreducible(S)
    _emit(
        {
            "kind": "factor",
            "irreducible": fac.t == 1,
            "rowPartition": [list(b) for b in fac.blocks],
            "factors": [_matrix_rows_json(F) for F in fac.factors],
        }
    )
    return OK


def cmd_slack(args) -> int:
    V = _from_input(parse_vrep, _read_text(args.vertices))
    H = _from_input(parse_hrep, _read_text(args.ineq))
    sys.stdout.write(write_matrix(_from_input(slack_from_vh, V, H)))
    return OK


def cmd_gen(args) -> int:
    if args.what == "hypersimplex":
        if len(args.params) != 2:
            raise MatrixFormatError("gen hypersimplex needs d and k")
        d, k = _integer(args.params[0]), _integer(args.params[1])
        sys.stdout.write(write_matrix(_from_input(hypersimplex_slack, d, k)))
        return OK
    if args.what == "expr":
        if len(args.params) != 1:
            raise MatrixFormatError("gen expr needs one expression file")
        expr = _from_input(parse_expr, _read_text(args.params[0]))
        sys.stdout.write(write_matrix(_from_input(expr_to_slack, expr)))
        return OK
    if args.what == "product":
        if len(args.params) < 2:
            raise MatrixFormatError("gen product needs at least two matrix files")
        mats = [_read_matrix(p) for p in args.params]
        _check_size(sum(M.m for M in mats), math.prod(M.n for M in mats), "the product")
        out = mats[0]
        for M in mats[1:]:
            out = one_product(out, M)
        sys.stdout.write(write_matrix(out))
        return OK
    if args.what == "shuffle":
        if len(args.params) != 1:
            raise MatrixFormatError("gen shuffle needs one matrix file")
        S = _read_matrix(args.params[0])
        shuffled, _, _ = seeded_shuffle(S, args.seed)
        sys.stdout.write(write_matrix(shuffled))
        return OK
    raise MatrixFormatError(f"unknown generator {args.what!r}")


def cmd_oracle(args) -> int:
    S = _read_matrix(args.matrix)
    if args.kind == "1p":
        rep = bf_one_product(S)
        _emit(
            {
                "kind": "oracle-1p",
                "verdict": rep.verdict,
                "zeroSets": [list(w) for w in rep.witnesses],
                "evaluations": rep.evaluations,
            }
        )
    else:
        rep = bf_two_product(S)
        _emit(
            {
                "kind": "oracle-2p",
                "verdict": rep.verdict,
                "witnesses": [{"specialRow": r, "X": list(X)} for r, X in rep.witnesses],
                "evaluations": rep.evaluations,
            }
        )
    return OK if rep.verdict else NO


def _seed(text: str) -> int:
    """A shuffle seed: an integer in 0 .. 2**64 - 1 (a usage error otherwise)."""
    try:
        seed = _integer(text)
    except MatrixFormatError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from None
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed {seed} is outside 0 .. 2**64 - 1")
    return seed


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="prodmat", description=__doc__)
    ap.add_argument("--quiet", action="store_true", help="suppress diagnostics on stderr")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="evaluate f(X) and the exact independence verdict")
    p.add_argument("matrix")
    p.add_argument("--subset", required=True, help="comma-separated row indices")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("recognize", help="recognize 1-products, 2-products, matroid slacks")
    p.add_argument("kind", choices=["1p", "2p", "matroid"])
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_recognize)

    p = sub.add_parser("factor", help="irreducible 1-product factorization")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("slack", help="slack matrix from vertex and inequality files")
    p.add_argument("--vertices", required=True)
    p.add_argument("--ineq", required=True)
    p.set_defaults(fn=cmd_slack)

    p = sub.add_parser("gen", help="generators: hypersimplex d k | expr FILE | product F1 F2.. | shuffle FILE")
    p.add_argument("what", choices=["hypersimplex", "expr", "product", "shuffle"])
    p.add_argument("params", nargs="*")
    p.add_argument("--seed", type=_seed, default=0, help="64-bit seed for shuffle, 0 .. 2**64 - 1")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("oracle", help="brute-force oracles for reproducing derived values")
    p.add_argument("kind", choices=["1p", "2p"])
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_oracle)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, MatrixFormatError, MatroidInputError, GuardExceeded, OSError) as exc:
        _diag(args, f"error: {exc}")
        return ERR
    except Exception:
        _diag(args, "internal error: " + traceback.format_exc())
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
