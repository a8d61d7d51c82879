"""Command-line behavior: exit codes, files, round trips."""

import json

import pytest

from crosscut import cli
from crosscut.cli import main
from crosscut.matrices import BinaryMatrix, col_sums, row_sums
from crosscut.netpbm import read_netpbm


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return tmp_path, write


def test_check_discrete_exit_codes(files, capsys):
    tmp, write = files
    p = write("p.txt", "3 2\n")
    q = write("q.txt", "2 2 1\n")
    bad = write("bad.txt", "4 1\n")
    assert main(["check", "--discrete", p, q]) == 0
    assert "feasible" in capsys.readouterr().out
    assert main(["check", "--discrete", bad, q]) == 1
    out = capsys.readouterr().out
    assert "witness: m=2" in out and "lhs=4" in out
    assert main(["check", "--discrete", p, write("junk.txt", "3 x")]) == 2


def test_check_continuous(files, capsys):
    tmp, write = files
    f = write("f.csv", "breakpoint,value\n0,1\n")
    two = write("g.csv", "breakpoint,value\n0,2\n")
    assert main(["check", "--continuous", f, f, "-N", "2", "-K", "1"]) == 0
    capsys.readouterr()
    assert main(["check", "--continuous", two, two, "-N", "2", "-K", "1"]) == 1
    out = capsys.readouterr().out
    assert "witness: t=1 lhs=2" in out
    assert main(["check", "--continuous", f, f]) == 2  # missing -N/-K


@pytest.mark.xfail(
    strict=True,
    reason="each marginal is rounded to the 2**-(N+K) grid on its own, "
    "so a realizable pair can lose its equal totals",
)
def test_check_keeps_a_realizable_pair_feasible_after_quantization(files, capsys):
    # f = 1/3 throughout, g = 2/3 on [0, 1/2): both integrate to 1/3 and
    # t/3 <= min(t/2, 1/3) bounds f*'s primitive by lambda_g's, so the raw
    # pair is realizable
    tmp, write = files
    f = write("f.csv", "breakpoint,value\n0,1/3\n")
    g = write("g.csv", "breakpoint,value\n0,2/3\n1/2,0\n")
    code = main(["check", "--continuous", f, g, "-N", "3", "-K", "4"])
    out = capsys.readouterr().out
    assert "infeasible_norm" not in out
    assert code == 0


def test_realize_matrix_writes_pbm_and_text(files, capsys):
    tmp, write = files
    p = write("p.txt", "3 2\n")
    q = write("q.txt", "2 2 1\n")
    out_pbm = str(tmp / "a.pbm")
    assert main(["realize-matrix", p, q, "-o", out_pbm, "--verify-oracle"]) == 0
    magic, w, h, _, rows, _ = read_netpbm((tmp / "a.pbm").read_text())
    assert (magic, w, h) == ("P1", 3, 2)
    a = BinaryMatrix.from_rows(rows)
    assert row_sums(a) == (3, 2) and col_sums(a) == (2, 2, 1)

    out_txt = str(tmp / "a.txt")
    assert main(["realize-matrix", p, q, "-o", out_txt, "--method", "swap"]) == 0
    b = BinaryMatrix.from_text((tmp / "a.txt").read_text())
    assert row_sums(b) == (3, 2) and col_sums(b) == (2, 2, 1)


def test_realize_matrix_infeasible_exit(files, capsys):
    tmp, write = files
    p = write("p.txt", "4 1\n")
    q = write("q.txt", "2 2 1\n")
    assert main(["realize-matrix", p, q, "-o", str(tmp / "x.pbm")]) == 1


def test_realize_set_then_verify_round_trip(files, capsys):
    tmp, write = files
    f = write("f.csv", "breakpoint,value\n0,0.5\n1/2,0.25\n")
    out = str(tmp / "set.pgm")
    trace = str(tmp / "trace.jsonl")
    summ = str(tmp / "summary.json")
    svg = str(tmp / "set.svg")
    code = main(
        ["realize-set", f, f, "-N", "3", "-K", "2", "-o", out,
         "--trace", trace, "--summary", summ, "--svg", svg]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "final residual" in text
    payload = json.loads((tmp / "summary.json").read_text())
    final = payload["final_residual"]
    assert (tmp / "trace.jsonl").read_text().count("\n") == payload["swap_count"]
    assert (tmp / "set.svg").read_text().startswith("<svg")

    assert main(["verify", out, f, f]) == 0
    vtext = capsys.readouterr().out
    assert "horizontal section equals quantized g: True" in vtext
    assert f"residual |f - v|_1: {final} " in vtext


def test_realize_set_writes_pbm_when_k_zero(files, capsys):
    tmp, write = files
    f = write("f.csv", "breakpoint,value\n0,1/2\n")
    out = str(tmp / "set.pgm")
    assert main(["realize-set", f, f, "-N", "2", "-K", "0", "-o", out]) == 0
    assert (tmp / "set.pgm").read_text().startswith("P1")
    assert main(["verify", out, f, f]) == 0


def test_realize_set_images_are_lossless_up_to_k15(files, capsys, monkeypatch):
    tmp, write = files
    f = write("f.csv", "breakpoint,value\n0,1/2\n")
    out = tmp / "set.pgm"
    assert main(["realize-set", f, f, "-N", "2", "-K", "9", "-o", str(out)]) == 0
    assert main(["verify", str(out), f, f]) == 0
    assert "horizontal section equals quantized g: True" in capsys.readouterr().out

    def must_not_run(*args):
        raise AssertionError("construction ran for an unwritable K")

    monkeypatch.setattr("crosscut.cli.reconstruct", must_not_run)
    out17 = tmp / "k17.pgm"
    assert main(["realize-set", f, f, "-N", "1", "-K", "17", "-o", str(out17)]) == 2
    assert "K <= 15" in capsys.readouterr().err
    assert not out17.exists()


def test_realize_set_refuses_k16_before_building(files, capsys, monkeypatch):
    # a K=16 cell has 65,537 levels, and a PGM's maxval stays below 65536
    tmp, write = files
    f = write("f.csv", "breakpoint,value\n0,1/2\n")

    def must_not_run(*args):
        raise AssertionError("construction ran for an unwritable K")

    monkeypatch.setattr("crosscut.cli.reconstruct", must_not_run)
    out = tmp / "k16.pgm"
    assert main(["realize-set", f, f, "-N", "1", "-K", "16", "-o", str(out)]) == 2
    assert "set images hold K <= 15; got K=16" in capsys.readouterr().err
    assert not out.exists()


def test_realize_set_infeasible_exit(files, capsys):
    tmp, write = files
    f = write("f.csv", "breakpoint,value\n0,2\n")
    assert main(["realize-set", f, f, "-N", "2", "-K", "1",
                 "-o", str(tmp / "x.pgm")]) == 1
    assert "infeasible_majorization" in capsys.readouterr().out


def test_verify_needs_subres_for_plain_pgm(files, capsys):
    tmp, write = files
    f = write("f.csv", "breakpoint,value\n0,1/2\n")
    img = tmp / "plain.pgm"
    img.write_text("P2\n2 2\n255\n255 0 0 255\n")
    assert main(["verify", str(img), f, f]) == 2
    assert main(["verify", str(img), f, f, "-K", "0"]) in (0, 1)


def test_render_writes_svg(files, capsys):
    tmp, write = files
    f = write("f.csv", "breakpoint,value\n0,1/3\n1/2,1/8\n")
    out = str(tmp / "plot.svg")
    assert main(["render", f, "-o", out, "-N", "3", "-K", "6"]) == 0
    data = (tmp / "plot.svg").read_text()
    assert "marginal" in data and "rearrangement" in data and "distribution" in data


def test_outputs_are_byte_identical_across_runs(files, capsys):
    tmp, write = files
    f = write("f.csv", "breakpoint,value\n0,0.5\n1/2,0.25\n")
    a, b = str(tmp / "a.pgm"), str(tmp / "b.pgm")
    assert main(["realize-set", f, f, "-N", "3", "-K", "2", "-o", a]) == 0
    assert main(["realize-set", f, f, "-N", "3", "-K", "2", "-o", b]) == 0
    assert (tmp / "a.pgm").read_bytes() == (tmp / "b.pgm").read_bytes()


def test_error_exit_on_missing_file(files, capsys):
    tmp, write = files
    assert main(["check", "--discrete", str(tmp / "nope.txt"),
                 str(tmp / "nope.txt")]) == 2


def test_main_reuses_the_parser_built_at_import(files, capsys, monkeypatch):
    # main parses with the tree built once at import: commands in a row,
    # usage errors and help among them, print and exit as each does on a
    # freshly built parser
    tmp, write = files
    p = write("p.txt", "3 2\n")
    q = write("q.txt", "2 2 1\n")
    commands = [
        ["check", "--discrete", p, q],
        ["realize-matrix", p, q, "-o", str(tmp / "a.txt"), "--method", "swap"],
        ["check", "--discrete", "--continuous", p, q],
        ["realize-matrix", p],
        ["verify", "--help"],
        ["render"],
        ["nonsense"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in commands:
        monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
        fresh.append(run(argv))
    monkeypatch.undo()
    assert [code for code, _, _ in fresh] == [0, 0, 2, 2, 0, 2, 2]

    def rebuilt():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    for _ in range(2):
        assert [run(argv) for argv in commands] == fresh
