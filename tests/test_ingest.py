"""Marginal parsing and exact quantization."""

from fractions import Fraction

import pytest

from crosscut import ingest
from crosscut.dyadic import Dyadic
from crosscut.gridset import GridParams
from crosscut.ingest import (
    NegativeValue,
    ParseError,
    RawMarginal,
    load_marginal,
    load_partition,
    parse_marginal_text,
    quantize,
)

D = Dyadic


def test_csv_parsing():
    raw = parse_marginal_text("breakpoint,value\n0,1/3\n1/2,0.25\n", "csv")
    assert raw.breakpoints == (Fraction(0), Fraction(1, 2))
    assert raw.values == (Fraction(1, 3), Fraction(1, 4))


def test_json_parsing():
    raw = parse_marginal_text('[{"b": "0", "v": "2"}, {"b": "3/4", "v": "1"}]', "json")
    assert raw.breakpoints == (Fraction(0), Fraction(3, 4))
    assert raw.values == (Fraction(2), Fraction(1))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_marginal_text("wrong,header\n0,1\n", "csv")
    with pytest.raises(ParseError):
        parse_marginal_text("breakpoint,value\n1/2,1\n", "csv")  # first must be 0
    with pytest.raises(ParseError):
        parse_marginal_text("breakpoint,value\n0,1\n0,2\n", "csv")  # not increasing
    with pytest.raises(ParseError):
        parse_marginal_text("breakpoint,value\n0,1\n1,1\n", "csv")  # 1 not in [0,1)
    with pytest.raises(NegativeValue):
        parse_marginal_text("breakpoint,value\n0,-1\n", "csv")
    with pytest.raises(ParseError):
        parse_marginal_text('{"not": "a list"}', "json")


def test_load_marginal_sniffs_format(tmp_path):
    p = tmp_path / "m.dat"
    p.write_text('[{"b": 0, "v": 1}]')
    assert load_marginal(str(p)).values == (Fraction(1),)
    c = tmp_path / "m.csv"
    c.write_text("breakpoint,value\n0,1\n")
    assert load_marginal(str(c)).values == (Fraction(1),)


def test_load_partition(tmp_path):
    p = tmp_path / "p.txt"
    p.write_text("3 1\n2\n")
    assert load_partition(str(p)).parts == (3, 2, 1)
    bad = tmp_path / "bad.txt"
    bad.write_text("3 x")
    with pytest.raises(ParseError):
        load_partition(str(bad))


def test_files_with_a_utf8_byte_order_mark(tmp_path):
    # editors on some systems start UTF-8 files with U+FEFF; it is not part
    # of the header, the JSON text or the first integer
    bom = "\ufeff"
    c = tmp_path / "m.csv"
    c.write_text(bom + "breakpoint,value\n0,1/3\n1/2,1/4\n", encoding="utf-8")
    assert load_marginal(str(c)).values == (Fraction(1, 3), Fraction(1, 4))
    j = tmp_path / "m.json"
    j.write_text(bom + '[{"b": "0", "v": "2"}, {"b": "3/4", "v": "1"}]', encoding="utf-8")
    assert load_marginal(str(j)).breakpoints == (Fraction(0), Fraction(3, 4))
    for name, text in (("j.dat", bom + '[{"b": 0, "v": 1}]'), ("c.dat", bom + "breakpoint,value\n0,1\n")):
        d = tmp_path / name
        d.write_text(text, encoding="utf-8")
        assert load_marginal(str(d)).values == (Fraction(1),), name
    p = tmp_path / "p.txt"
    p.write_text(bom + "3 1\n2\n", encoding="utf-8")
    assert load_partition(str(p)).parts == (3, 2, 1)


# ---------------------------------------------------------------------------
# quantization


def test_quantize_one_third_rounds_to_five_sixteenths():
    raw = RawMarginal((Fraction(0),), (Fraction(1, 3),))
    q, rep = quantize(raw, GridParams(2, 2))
    assert q.values == (D(5, 4),)
    assert rep.sup_error == Fraction(1, 48)
    assert rep.l1_error == Fraction(1, 48)


def test_quantize_on_grid_input_is_identity():
    raw = RawMarginal(
        (Fraction(0), Fraction(1, 4), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 4), Fraction(0)),
    )
    q, rep = quantize(raw, GridParams(2, 3))
    assert q.values == (D(1, 1), D(1, 2), D(0))
    assert rep.l1_error == 0
    assert rep.sup_error == 0


def test_quantize_averages_within_cells():
    # one grid cell split 50/50 between values 0 and 1/2 averages to 1/4
    raw = RawMarginal(
        (Fraction(0), Fraction(1, 8), Fraction(1, 4)),
        (Fraction(0), Fraction(1, 2), Fraction(0)),
    )
    q, rep = quantize(raw, GridParams(2, 4))
    assert q.value_at(D(0)) == D(1, 2)
    assert q.value_at(D(1, 2)) == D(0)
    # exact L1 error: |0 - 1/4| and |1/2 - 1/4| on two width-1/8 pieces
    assert rep.l1_error == Fraction(1, 16)
    assert rep.sup_error == Fraction(1, 4)


def test_quantize_ties_round_toward_zero():
    # average 3/32 sits exactly between 1/16 and 2/16
    raw = RawMarginal((Fraction(0),), (Fraction(3, 32),))
    q, _ = quantize(raw, GridParams(1, 3))
    assert q.values == (D(1, 4),)


def test_quantize_ramp_averages_are_exact_at_n4_k4():
    vals = tuple(Fraction(1, 2) - Fraction(j, 128) for j in range(64))
    raw = RawMarginal(tuple(Fraction(j, 64) for j in range(64)), vals)
    q, rep = quantize(raw, GridParams(4, 4))
    # 64-step staircase averages exactly onto the coarser 16-cell grid
    assert len(q.values) == 16
    assert rep.l1_error < Fraction(1, 64)


def _split_cells(depth: int, per_cell: int) -> RawMarginal:
    """Each cell cut into per_cell equal pieces at non-dyadic points, the
    values on a non-dyadic grid; per_cell * 2**depth breakpoints."""
    cells = 1 << depth
    points = tuple(Fraction(j, cells) + Fraction(i, cells * per_cell) for j in range(cells) for i in range(per_cell))
    values = tuple(Fraction(1, 2) + Fraction((7 * m) % 13 - 6, 3 << 14) for m in range(len(points)))
    return RawMarginal(points, values)


def test_quantize_builds_a_constant_number_of_fractions(monkeypatch):
    # the walk runs on integers and builds the two reported distances at
    # the end; one Fraction per cell or per piece makes the counts differ.
    # A walk that builds its cell edges as Fractions builds 131 and 1,027.
    # Parsing a file keeps the tokens as int pairs, so a 320-row CSV read
    # and quantized builds the same 2; one Fraction per token builds 642.
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(ingest, "Fraction", Counted)
    counts = []
    for depth in (6, 9):
        raw = _split_cells(depth, 5)
        assert len(raw.breakpoints) == 5 << depth
        built.clear()
        quantize(raw, GridParams(depth, 4))
        counts.append(len(built))
    raw = _split_cells(6, 5)
    text = "breakpoint,value\n" + "".join(f"{b},{v}\n" for b, v in zip(raw.breakpoints, raw.values))
    built.clear()
    parsed = parse_marginal_text(text, "csv")
    quantize(parsed, GridParams(6, 4))
    counts.append(len(built))
    assert counts == [2, 2, 2]
    assert parsed == raw and len(raw.breakpoints) == 320
