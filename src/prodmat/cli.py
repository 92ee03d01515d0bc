"""Command-line front end.

Exit codes: 0 = success / recognized, 1 = valid negative answer
(not recognized), 2 = input or usage error, 3 = internal error (a fault of
prodmat, reported with its traceback on stderr).  Recognition and info commands
print a JSON document on stdout; generators print a matrix in the standard
text format.  Diagnostics go to stderr unless --quiet is given.

A line of positional arguments only, with an optional leading --quiet
(`recognize KIND FILE`, `factor FILE`, `oracle KIND FILE`, `gen WHAT
PARAMS...`), is dispatched without argparse, because parse_args costs more
than a small command's own work.  Every other line, help and usage errors
included, goes to argparse, with its messages and exit codes.
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


# Every command's help, function and arguments, each argument as the name and
# keywords of one add_argument call.  build_parser adds them to argparse, and
# _parse_positional reads the same entries, so the grammar is written once.
COMMANDS = {
    "info": ("evaluate f(X) and the exact independence verdict", cmd_info, [
        ("matrix", {}),
        ("--subset", {"required": True, "help": "comma-separated row indices"}),
    ]),
    "recognize": ("recognize 1-products, 2-products, matroid slacks", cmd_recognize, [
        ("kind", {"choices": ["1p", "2p", "matroid"]}),
        ("matrix", {}),
    ]),
    "factor": ("irreducible 1-product factorization", cmd_factor, [
        ("matrix", {}),
    ]),
    "slack": ("slack matrix from vertex and inequality files", cmd_slack, [
        ("--vertices", {"required": True}),
        ("--ineq", {"required": True}),
    ]),
    "gen": ("generators: hypersimplex d k | expr FILE | product F1 F2.. | shuffle FILE", cmd_gen, [
        ("what", {"choices": ["hypersimplex", "expr", "product", "shuffle"]}),
        ("params", {"nargs": "*"}),
        ("--seed", {"type": _seed, "default": 0, "help": "64-bit seed for shuffle, 0 .. 2**64 - 1"}),
    ]),
    "oracle": ("brute-force oracles for reproducing derived values", cmd_oracle, [
        ("kind", {"choices": ["1p", "2p"]}),
        ("matrix", {}),
    ]),
}


# Built once per process, and only for a line that _parse_positional declines:
# parse_args takes about 28 us a call on a 2.1 GHz Xeon, a fifth of a
# `gen expr` call on the benchmark's expressions.  parse_args leaves the parser
# unchanged.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # -h shows the module docstring up to its last paragraph, which is about this dispatch
    ap = argparse.ArgumentParser(prog="prodmat", description=__doc__.rpartition("\n\n")[0])
    ap.add_argument("--quiet", action="store_true", help="suppress diagnostics on stderr")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, fn, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
        p.set_defaults(fn=fn)
    return ap


def _parse_positional(argv: list) -> argparse.Namespace | None:
    """The Namespace that build_parser().parse_args(argv) returns, for a line of
    an optional leading --quiet, a command and exactly its positional arguments,
    each choice valid and no other word starting with "-"; None for any other
    line, a command with a required option included."""
    quiet = argv[:1] == ["--quiet"]
    words = argv[1:] if quiet else argv
    if not words or words[0] not in COMMANDS or any(w.startswith("-") for w in words):
        return None
    _, fn, arguments = COMMANDS[words[0]]
    values = {"quiet": quiet, "command": words[0], "fn": fn}
    rest = words[1:]
    for name, keywords in arguments:
        if name.startswith("-"):
            if keywords.get("required"):
                return None
            values[name[2:]] = keywords.get("default")
        elif keywords.get("nargs") == "*":
            values[name], rest = rest, []
        elif not rest or ("choices" in keywords and rest[0] not in keywords["choices"]):
            return None
        else:
            values[name], rest = rest[0], rest[1:]
    return None if rest else argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_positional(argv)
    if args is None:
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
