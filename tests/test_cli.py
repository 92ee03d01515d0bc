import json
import re
import sys
import time

import pytest

from prodmat import Matrix, one_product, parse_matrix, seeded_shuffle, write_matrix
from prodmat.cli import build_parser, main

PAPER_4x6 = one_product(Matrix([[1, 0], [2, 3]]), Matrix([[1, 0, 0], [0, 1, 1]]))


@pytest.fixture
def paper_file(tmp_path):
    p = tmp_path / "paper.txt"
    p.write_text(write_matrix(PAPER_4x6))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_info_independent(paper_file, capsys):
    code, out = run(capsys, ["info", paper_file, "--subset", "0,1"])
    payload = json.loads(out)
    assert code == 0
    assert payload["f"] == 0.0
    assert payload["independent"] is True


def test_info_dependent(paper_file, capsys):
    code, out = run(capsys, ["info", paper_file, "--subset", "0"])
    assert code == 0
    assert json.loads(out)["independent"] is False


def test_info_out_of_range(paper_file, capsys):
    code, _ = run(capsys, ["--quiet", "info", paper_file, "--subset", "0,9"])
    assert code == 2


def test_recognize_1p(paper_file, capsys):
    code, out = run(capsys, ["recognize", "1p", paper_file])
    payload = json.loads(out)
    assert code == 0 and payload["recognized"]
    assert sorted(map(sorted, payload["rowPartition"])) == [[0, 1], [2, 3]]
    assert len(payload["factors"]) == 2


def test_recognize_1p_negative(tmp_path, capsys):
    p = tmp_path / "m.txt"
    p.write_text("1 2\n1 0\n")
    code, out = run(capsys, ["recognize", "1p", str(p)])
    assert code == 1
    assert json.loads(out) == {"recognized": False}


def test_recognize_2p(tmp_path, capsys):
    from prodmat import two_product

    F = Matrix([[0, 1], [1, 0]])
    T = two_product(F, 0, F, 0)
    p = tmp_path / "t.txt"
    p.write_text(write_matrix(T))
    code, out = run(capsys, ["recognize", "2p", str(p)])
    payload = json.loads(out)
    assert code == 0 and payload["recognized"]
    assert "specialRow" in payload


def test_recognize_matroid_roundtrip(tmp_path, capsys):
    code, out = run(capsys, ["gen", "hypersimplex", "4", "2"])
    assert code == 0
    S = parse_matrix(out)
    assert S.m == 8 and S.n == 6
    p = tmp_path / "h.txt"
    p.write_text(out)
    code, out = run(capsys, ["recognize", "matroid", str(p)])
    payload = json.loads(out)
    assert code == 0 and payload["recognized"]
    assert payload["expr"] == "(u 4 2)"
    assert payload["elements"] == 4


def test_recognize_matroid_precondition_exit2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("2 2\n2 0\n0 1\n")
    code, _ = run(capsys, ["--quiet", "recognize", "matroid", str(p)])
    assert code == 2


def test_factor(paper_file, capsys):
    code, out = run(capsys, ["factor", paper_file])
    payload = json.loads(out)
    assert code == 0
    assert payload["rowPartition"] == [[0, 1], [2, 3]]


def test_gen_shuffle_deterministic(paper_file, capsys):
    code, out1 = run(capsys, ["gen", "shuffle", paper_file, "--seed", "7"])
    code2, out2 = run(capsys, ["gen", "shuffle", paper_file, "--seed", "7"])
    assert code == code2 == 0
    assert out1 == out2
    _, out3 = run(capsys, ["gen", "shuffle", paper_file, "--seed", "8"])
    assert out3 != out1


@pytest.mark.parametrize(
    "seed", ["-1", "18446744073709551616", "18446744073709551617", "7.0", "x", "1_0", "\uff17", "\u0661"]
)
def test_gen_shuffle_seed_out_of_range_exit2(paper_file, capsys, seed):
    # a seed outside 0 .. 2**64 - 1 is a usage error, not reduced mod 2**64
    with pytest.raises(SystemExit) as exc:
        main(["gen", "shuffle", paper_file, "--seed", seed])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--seed" in captured.err


def test_gen_shuffle_seed_bounds(paper_file, capsys):
    assert run(capsys, ["gen", "shuffle", paper_file, "--seed", "0"])[0] == 0
    code, top = run(capsys, ["gen", "shuffle", paper_file, "--seed", str((1 << 64) - 1)])
    assert code == 0 and top == write_matrix(seeded_shuffle(PAPER_4x6, (1 << 64) - 1)[0])


def test_gen_expr(tmp_path, capsys):
    p = tmp_path / "e.txt"
    p.write_text("(2sum (u 2 1) (u 2 1))")
    code, out = run(capsys, ["gen", "expr", str(p)])
    assert code == 0
    assert parse_matrix(out) == Matrix([[1, 0], [0, 1]])


def test_gen_product(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("1 2\n1 0\n")
    b.write_text("1 1\n0\n")
    code, out = run(capsys, ["gen", "product", str(a), str(b)])
    assert code == 0
    assert parse_matrix(out) == Matrix([[1, 0], [0, 0]])


def test_slack_command(tmp_path, capsys):
    v = tmp_path / "v.txt"
    h = tmp_path / "h.txt"
    v.write_text("2 1\n0\n1\n")
    h.write_text("2 1\n-1 0\n1 1\n")
    code, out = run(capsys, ["slack", "--vertices", str(v), "--ineq", str(h)])
    assert code == 0
    assert parse_matrix(out) == Matrix([[0, 1], [1, 0]])


def test_oracle_commands(paper_file, capsys):
    code, out = run(capsys, ["oracle", "1p", paper_file])
    payload = json.loads(out)
    assert code == 0 and payload["verdict"]
    code, out = run(capsys, ["oracle", "2p", paper_file])
    assert code in (0, 1)


def test_missing_file_exit2(capsys):
    code, _ = run(capsys, ["--quiet", "recognize", "1p", "/nonexistent/file.txt"])
    assert code == 2


def test_parser_is_built_once_and_usage_errors_exit2(paper_file, capsys):
    # the parser is built once per process; a usage error on it leaves the
    # next call's exit code and stdout unchanged
    assert build_parser() is build_parser()
    first = run(capsys, ["recognize", "1p", paper_file])
    for argv in (
        ["recognize", "3p", paper_file],
        ["nosuchcommand"],
        [],
        ["recognize", "1p"],
        ["recognize", "1p", paper_file, "extra"],
        ["gen"],
        ["recognize", "-x", paper_file],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    assert run(capsys, ["recognize", "1p", paper_file]) == first


def test_zero_denominator_exit2(tmp_path, capsys):
    p = tmp_path / "m.txt"
    p.write_text("2 2\n1 1/0\n0 1\n")
    code = main(["recognize", "1p", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("tok", ["1/0", "1e3", "0x1", "1_000", "--1", "1.", "abc"])
def test_malformed_token_exit2(tmp_path, capsys, tok):
    p = tmp_path / "m.txt"
    p.write_text(f"2 2\n1 {tok}\n0 1\n")
    code = main(["recognize", "1p", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("prodmat")
    if exe is None:
        pytest.skip("console script not on PATH")
    res = subprocess.run([exe, "gen", "hypersimplex", "3", "1"], capture_output=True, text=True)
    assert res.returncode == 0
    assert parse_matrix(res.stdout) == Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_module_entry_point_matches_in_process_main(paper_file, capsys):
    # `python -m prodmat.cli` calls main() with no argv, as the console script
    # does, so main reads sys.argv
    import os
    import subprocess

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in (["gen", "hypersimplex", "3", "1"], ["recognize", "1p", paper_file]):
        res = subprocess.run([sys.executable, "-m", "prodmat.cli", *argv], capture_output=True, text=True, env=env)
        assert (res.returncode, res.stdout) == run(capsys, argv)


def test_positional_lines_do_not_build_the_parser(paper_file, tmp_path, capsys, monkeypatch):
    from prodmat import cli

    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("the parser was built"))
    e = tmp_path / "e.txt"
    e.write_text("(u 4 2)\n")
    assert run(capsys, ["--quiet", "recognize", "1p", paper_file])[0] == 0
    assert run(capsys, ["gen", "expr", str(e)]) == (0, write_matrix(cli.hypersimplex_slack(4, 2)))


def _command_lines():
    """Command lines around the CLI's grammar: every command with every choice
    and a wrong one, 0-3 words missing or extra, --quiet before the command,
    after it and at the end, and words that argparse reads as options or
    treats specially."""
    full = [[], ["nosuchcommand", "M"], ["info", "M", "--subset", "0,1"], ["factor", "M"],
            ["slack", "--vertices", "V", "--ineq", "H"],
            ["gen", "shuffle", "M", "--seed", "7"], ["gen", "shuffle", "M", "--seed=7"]]
    full += [["recognize", kind, "M"] for kind in ("1p", "2p", "matroid", "3p")]
    full += [["oracle", kind, "M"] for kind in ("1p", "2p", "matroid")]
    full += [["gen", what] + ["P"] * k for what in ("hypersimplex", "expr", "product", "shuffle", "x") for k in range(4)]
    specials = ["-h", "--", "-", "-1", "--qui", "", "--seed", "7", "--seed=7", "info", "slack", "1p"]
    lines = []
    for line in full:
        lines += [line[: len(line) - k] for k in range(4)] + [line + ["X"] * k for k in range(1, 4)]
        for p in range(len(line) + 1):
            lines += [line[:p] + [t] + line[p:] for t in specials]
            lines += [line[:p] + [t] + line[p + 1 :] for t in specials if p < len(line)]
    quiet = [["--quiet"] + line for line in lines] + [line + ["--quiet"] for line in lines]
    return lines + quiet + [line[:1] + ["--quiet"] + line[1:] for line in lines]


def test_the_direct_path_gives_argparse_namespace_or_declines(capsys):
    # every line the direct path takes parses to the same Namespace through
    # argparse, and every line argparse refuses is left to argparse
    from prodmat import cli

    parser = build_parser()
    taken = 0
    for argv in _command_lines():
        direct = cli._parse_positional(list(argv))
        try:
            expected = vars(parser.parse_args(argv))
        except SystemExit:
            expected = None
        capsys.readouterr()
        if direct is not None:
            assert vars(direct) == expected, argv
            taken += 1
        elif expected is not None:
            # declined: a word starting with "-" besides a leading --quiet, or a command with a required option
            words = argv[1:] if argv[:1] == ["--quiet"] else argv
            assert any(w.startswith("-") for w in words) or words[0] in ("info", "slack"), argv
    assert taken >= 500, taken


@pytest.mark.parametrize(
    "argv, files",
    [
        (["gen", "hypersimplex", "3", "x"], {}),
        (["gen", "hypersimplex", "3", "0"], {}),
        (["gen", "expr", "{e}"], {"e": "(2sum (u 2 1)"}),
        (["gen", "expr", "{e}"], {"e": "(u 2 0)"}),
        (["gen", "expr", "{e}"], {"e": "(2sum [5 0] (u 2 1) (u 2 1))"}),
        (["gen", "expr", "{e}"], {"e": "(2sum (u 3 1) (u 3 1))"}),
        (["slack", "--vertices", "{v}", "--ineq", "{h}"], {"v": "2 1\n0\n1\n", "h": "1 2\n0 0 1\n"}),
        (["slack", "--vertices", "{v}", "--ineq", "{h}"], {"v": "2 1\n0\n2\n", "h": "1 1\n1 -1\n"}),
        # a header is two integer entries: "1_0" is none, and one token is not two
        (["recognize", "1p", "{m}"], {"m": "1_0 1\n" + "0\n" * 10}),
        (["slack", "--vertices", "{v}", "--ineq", "{h}"], {"v": "2\n0\n1\n", "h": "2 1\n-1 0\n1 1\n"}),
        (["slack", "--vertices", "{v}", "--ineq", "{h}"], {"v": "2 1\n0\n1\n", "h": "2\n-1 0\n1 1\n"}),
        # every integer the CLI reads is ASCII digits with an optional sign,
        # so neither "1_0" nor non-ASCII digits, which int() takes
        (["gen", "expr", "{e}"], {"e": "(u 1_0 5)"}),
        (["gen", "expr", "{e}"], {"e": "(2sum [1_0 0] (u 20 5) (u 2 1))"}),
        (["gen", "hypersimplex", "1_0", "5"], {}),
        (["gen", "hypersimplex", "\uff14", "2"], {}),
        (["info", "{m}", "--subset", "0_0"], {"m": "2 2\n1 0\n0 1\n"}),
        (["info", "{m}", "--subset", "\uff11"], {"m": "2 2\n1 0\n0 1\n"}),
        (["slack", "--vertices", "{v}", "--ineq", "{h}"], {"v": "2 1\n0\n\uff11\n", "h": "2 1\n-1 0\n1 1\n"}),
        (["slack", "--vertices", "{v}", "--ineq", "{h}"], {"v": "\uff12 1\n0\n1\n", "h": "2 1\n-1 0\n1 1\n"}),
        (["slack", "--vertices", "{v}", "--ineq", "{h}"], {"v": "2 1\n0\n1\n", "h": "\uff12 1\n-1 0\n1 1\n"}),
        (["slack", "--vertices", "{v}", "--ineq", "{h}"], {"v": "2 1\n0\n1\n", "h": "2 1\n-1 0\n1 \uff11\n"}),
    ],
)
def test_malformed_parameters_exit2(tmp_path, capsys, argv, files):
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text, encoding="utf-8")
    code = main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "text, message",
    [
        # 600 levels of (1sum ... (u 2 1)) run out of stack in the slack
        # builder, 3000 already in the expression parser
        ("(1sum " * 600 + "(u 2 1)" + " (u 2 1))" * 600, "input nested too deeply to parse or build"),
        ("(1sum " * 3000 + "(u 2 1)" + " (u 2 1))" * 3000, "input nested too deeply to parse or build"),
        ("(2sum [9 9] (u 4 2) (u 4 2))", "glue element out of range"),
        ("(2sum [-1 0] (u 4 2) (u 4 2))", "glue element out of range"),
    ],
    ids=["nested-600", "nested-3000", "glue-9-9", "glue-neg"],
)
def test_gen_expr_input_error_message(tmp_path, capsys, text, message):
    p = tmp_path / "e.txt"
    p.write_text(text)
    code = main(["gen", "expr", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_gen_expr_over_the_column_bound_exits_2_within_a_second(tmp_path, capsys):
    # each (1sum ... (u 2 1)) level doubles the columns, so 300 levels would
    # never finish; the builder stops at the first sum over the bound
    p = tmp_path / "e.txt"
    p.write_text("(1sum " * 300 + "(u 2 1)" + " (u 2 1))" * 300)
    t0 = time.perf_counter()
    code = main(["gen", "expr", str(p)])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: a sum would have 131072 columns, more than the bound of 65536\n"
    assert elapsed < 1.0


HUGE_LEAVES = {
    "40 20": "U(40,20) would have 137846528820 columns, more than the bound of 65536",
    "65536 1": "U(65536,1) would have 65536 x 65536 entries, more than the bound of 16777216",
}


@pytest.mark.parametrize(
    "argv",
    [["hypersimplex", "40", "20"], ["expr", "(u 40 20)"], ["hypersimplex", "65536", "1"], ["expr", "(u 65536 1)"]],
)
def test_gen_of_a_huge_leaf_exits_2_before_enumerating(tmp_path, capsys, monkeypatch, argv):
    # U(40,20) has C(40,20) = 1.4e11 bases; the leaf is counted with
    # math.comb and refused before any of them is enumerated.  U(65536,1)
    # has only 65536 bases, but its slack is the 65536 x 65536 identity,
    # refused by its count of entries before it is allocated
    from prodmat import matroids

    monkeypatch.setattr(matroids, "_uniform", lambda d, k: pytest.fail(f"U({d},{k}) was built"))
    message = HUGE_LEAVES[" ".join(re.findall(r"\d+", " ".join(argv[1:])))]
    if argv[0] == "expr":
        p = tmp_path / "e.txt"
        p.write_text(argv[1] + "\n")
        argv = ["expr", str(p)]
    t0 = time.perf_counter()
    code = main(["gen"] + argv)
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err
    assert elapsed < 1.0


BOUND = "more than the bound of 65536"
LEAVES_ON_MANY_ELEMENTS = [
    ("expr", "(u 20000000 10000000)", f"U(20000000,10000000) would have at least 20000000 columns, {BOUND}"),
    ("expr", "(u 2000000 1000000)", f"U(2000000,1000000) would have at least 2000000 columns, {BOUND}"),
    ("hypersimplex", "2000000 1000000", f"U(2000000,1000000) would have at least 2000000 columns, {BOUND}"),
    ("expr", "(u 60000 30000)", f"U(60000,30000) would have at least 2**59991 columns, {BOUND}"),
    ("expr", "(1sum (u 3000 1500) (u 4 2))", f"U(3000,1500) would have at least 2**2993 columns, {BOUND}"),
]


@pytest.mark.parametrize("what, params, message", LEAVES_ON_MANY_ELEMENTS)
def test_gen_of_a_leaf_on_many_elements_exits_2_within_a_second(tmp_path, capsys, what, params, message):
    # C(d,k) >= d, so a leaf with d over the column bound is refused without
    # math.comb, which takes 81 s for C(4*10**6, 2*10**6); a count past 64
    # bits is written as a power of two: C(60000,30000) has more digits
    # than Python converts to a string, and C(3000,1500) has 903
    if what == "expr":
        p = tmp_path / "e.txt"
        p.write_text(params + "\n")
        argv = ["gen", "expr", str(p)]
    else:
        argv = ["gen", "hypersimplex"] + params.split()
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert elapsed < 1.0


def test_slack_past_the_digit_limit_exits_2(tmp_path, capsys):
    # each entry of the files is within the digits parsing takes, but the
    # slack 0 - (-10**3000) * 10**3000 = 10**6000 has more digits than
    # Python writes: an input error naming the limit, not an internal one
    v, h = tmp_path / "v.txt", tmp_path / "h.txt"
    v.write_text("1 1\n1" + "0" * 3000 + "\n")
    h.write_text("1 1\n-1" + "0" * 3000 + " 0\n")
    code = main(["slack", "--vertices", str(v), "--ineq", str(h)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    limit = f"{sys.get_int_max_str_digits()} digits, the limit of Python's integer to string conversion"
    assert captured.err == f"error: an entry has more than {limit}\n"


def test_gen_of_a_huge_product_exits_2_before_building(tmp_path, capsys, monkeypatch):
    # three 1 x 100 factors make 10**6 columns, past the bound `gen expr`
    # puts on a sum step; the product is refused before it is allocated
    from prodmat import cli

    monkeypatch.setattr(cli, "one_product", lambda *a: pytest.fail("the product was built"))
    paths = []
    for name in "abc":
        p = tmp_path / f"{name}.txt"
        p.write_text("1 100\n" + " ".join(["0", "1"] * 50) + "\n")
        paths.append(str(p))
    code = main(["gen", "product"] + paths)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: the product would have 1000000 columns, more than the bound of 65536\n"
    assert "Traceback" not in captured.err


def test_internal_error_has_its_own_exit_code(paper_file, capsys, monkeypatch):
    # a plain ValueError inside a recognizer is a fault of the program, not
    # of the input: neither "not recognized" (1) nor "input error" (2)
    from prodmat import cli

    def broken(S):
        raise ValueError("invariant broken")

    monkeypatch.setattr(cli, "recognize_one_product", broken)
    code = main(["recognize", "1p", paper_file])
    captured = capsys.readouterr()
    assert code == cli.INTERNAL == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: ") and "invariant broken" in captured.err


PINNED_INPUTS = {
    "paper": "4 6\n1 1 1 0 0 0\n2 2 2 3 3 3\n1 0 0 1 0 0\n0 1 1 0 1 1\n",
    "frac": "4 6\n1 1 1 0 0 0\n1/2 1/2 1/2 3 3 3\n1 0 0 1 0 0\n0 1 1 0 1 1\n",
    "two": "3 2\n1 0\n1 0\n0 1\n",
    "hyp": "8 6\n0 0 0 1 1 1\n0 1 1 0 0 1\n1 0 1 0 1 0\n1 1 0 1 0 0\n"
    "1 1 1 0 0 0\n1 0 0 1 1 0\n0 1 0 1 0 1\n0 0 1 0 1 1\n",
    "neg": "1 2\n1 0\n",
}


@pytest.mark.parametrize(
    "argv, code, stdout",
    [
        (["recognize", "1p", "{frac}"], 0,
         '{"kind":"1p","recognized":true,"rowPartition":[[0,1],[2,3]],'
         '"factors":[[[1,0],["1/2",3]],[[1,0,0],[0,1,1]]]}\n'),
        (["recognize", "2p", "{two}"], 0,
         '{"kind":"2p","recognized":true,"specialRow":0,"rowPartition":[[1],[2]],'
         '"specialRowsInFactors":[1,1],"factors":[[[0,1],[0,1]],[[1,0],[0,1]]]}\n'),
        (["recognize", "matroid", "{hyp}"], 0,
         '{"kind":"matroid","recognized":true,"expr":"(u 4 2)","elements":4,'
         '"colBases":[[2,3],[1,3],[1,2],[0,3],[0,2],[0,1]],"rowProvenance":['
         '{"row":0,"type":"nonneg","element":0},{"row":1,"type":"nonneg","element":1},'
         '{"row":2,"type":"nonneg","element":2},{"row":3,"type":"nonneg","element":3},'
         '{"row":4,"type":"upper","element":0},{"row":5,"type":"upper","element":1},'
         '{"row":6,"type":"upper","element":2},{"row":7,"type":"upper","element":3}]}\n'),
        (["factor", "{frac}"], 0,
         '{"kind":"factor","irreducible":false,"rowPartition":[[0,1],[2,3]],'
         '"factors":[[[1,0],["1/2",3]],[[1,0,0],[0,1,1]]]}\n'),
        (["info", "{paper}", "--subset", "0,2"], 0,
         '{"f":1.918295834054,"independent":false,"subset":[0,2]}\n'),
        (["oracle", "1p", "{paper}"], 0,
         '{"kind":"oracle-1p","verdict":true,"zeroSets":[[2,3]],"evaluations":7}\n'),
        (["oracle", "2p", "{two}"], 0,
         '{"kind":"oracle-2p","verdict":true,"witnesses":[{"specialRow":0,"X":[2]},'
         '{"specialRow":1,"X":[2]},{"specialRow":2,"X":[1]}],"evaluations":3}\n'),
        (["recognize", "1p", "{neg}"], 1, '{"recognized":false}\n'),
    ],
)
def test_cli_stdout_is_byte_exact(tmp_path, capsys, argv, code, stdout):
    # the exact bytes, compact separators and entry forms included
    paths = {}
    for name, text in PINNED_INPUTS.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    assert run(capsys, [a.format(**paths) for a in argv]) == (code, stdout)


@pytest.mark.parametrize(
    "argv, files",
    [
        (["recognize", "1p", "{m}"], {"m": b"1 2\n1 \xc3\xa9\n"}),
        (["factor", "{m}"], {"m": b"1 2\n1 \xc3\xa9\n"}),
        (["gen", "product", "{m}", "{m}"], {"m": b"1 2\n1 \xc3\xa9\n"}),
        (["gen", "expr", "{e}"], {"e": b"(u 2 1)\xff"}),
        (["slack", "--vertices", "{v}", "--ineq", "{h}"], {"v": b"2 1\n0\n\xff\n", "h": b"2 1\n-1 0\n1 1\n"}),
        (["slack", "--vertices", "{v}", "--ineq", "{h}"], {"v": b"2 1\n0\n1\n", "h": b"2 1\n-1 0\n1 \xff\n"}),
        # UTF-8 digits are not ASCII: every file the CLI reads is
        (["gen", "expr", "{e}"], {"e": "(u \uff14 2)".encode()}),
        (["slack", "--vertices", "{v}", "--ineq", "{h}"], {"v": "2 1\n0\n\uff11\n".encode(), "h": b"2 1\n-1 0\n1 1\n"}),
        (["slack", "--vertices", "{v}", "--ineq", "{h}"], {"v": b"2 1\n0\n1\n", "h": "\uff12 1\n-1 0\n1 1\n".encode()}),
    ],
)
def test_undecodable_input_exit2(tmp_path, capsys, argv, files):
    paths = {}
    for name, data in files.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_bytes(data)
    code = main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
