"""The replay's per-swap checks on hand-built states and injected faults.

ReplayState accepts any fill whose rows hold at most one partial cell, so
a move whose receiver lies left of its donor, or whose corridors both
break, is built directly.  Four checks
("horizontal section changed", "symmetric difference bookkeeping
mismatch", "untouched column changed", and a corridor left only inside a
cell) hold for every real exchange, so no trace reaches them; they are
reached by corrupting the state after the exchange, or, for the section,
between two exchanges.  The section is held per cell column, as a full
count and partial widths, so the corruptions change those.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest

from crosscut import GridParams, StepFunction, SwapRecord, reconstruct
from crosscut.dyadic import Dyadic
from crosscut.feasibility import counts_above
from crosscut.gridset import ReplayState, ReplayViolation, SwapMove, _Work, initial_set
from reference_search import recounted_section
from test_audit_golden import _ramp
from test_report import run_fixture

D = Dyadic


def _drift(state: _Work, at: int, how: str) -> None:
    """Raise the section of the column that holds sub-column at: one more
    full cell, or one more partial cell of width 1."""
    j = at >> state.K
    if how == "full":
        state.F[j] += 1
    else:
        state.widths[j] = tuple(sorted((*state.widths[j], 1)))


class _Drifting(ReplayState):
    """Raises the section of the column that holds sub-column `at`
    (_drift) after exchange number `nth`, or, with between set, when the
    sweep next asks for a move, so that the drift falls between two
    replayed swaps."""

    def __init__(self, *args, at: int, nth: int = 1, between: bool = False, how: str = "full"):
        super().__init__(*args)
        self.at, self.nth, self.between, self.how = at, nth, between, how

    def _write_section(self, changes, heights):
        drop = super()._write_section(changes, heights)
        self.nth -= 1
        if self.nth == 0 and not self.between:
            _drift(self, self.at, self.how)
        return drop

    def find_first(self, gen):
        if self.nth == 0 and self.between:
            _drift(self, self.at, self.how)
            self.nth = -1
        return super().find_first(gen)


def _replay_one(fill, f, params, move, record, state_cls=ReplayState, **kw):
    state = state_cls(params, fill, f, (record,), **kw)
    return state.apply(move)


def _violation(*args, **kw):
    with pytest.raises(ReplayViolation) as err:
        _replay_one(*args, **kw)
    return err.value.record_index, err.value.violation


# ---------------------------------------------------------------------------
# a receiver left of its donor


def test_receiver_left_of_donor_replays_ok():
    # column 2 is full, column 1 empty, f = 1/2: band 1 moves half a column
    params = GridParams(1, 0)
    move = SwapMove(1, 1, 2, 1)
    record = SwapRecord(1, 1, 2, 1, D(1, 1), D(1, 1))
    got = _replay_one(((0, 1), (0, 1)), StepFunction.constant(D(1, 1)), params, move, record)
    assert got == record


def _broken_corridors(fill, f, params, move) -> tuple[bool, bool]:
    """Whether the move leaves the donor's and the receiver's corridor,
    on the sections recounted from the cells before and after it."""
    work = _Work(params, fill, f)
    subs = params.sub_per_cell
    before = [v << work.shift for v in recounted_section(fill, subs)]
    work.apply(move)
    after = [v << work.shift for v in recounted_section(work.to_set().fill, subs)]
    target = [u for u in work.fcol for _ in range(subs)]
    width = (params.side >> move.gen) * subs

    def left(cls, low, high):
        cols = range((cls - 1) * width, cls * width)
        return not all(low[i] <= after[i] <= high[i] for i in cols)

    return left(move.donor, target, before), left(move.receiver, before, target)


def test_both_corridors_broken_reports_the_left_one_first():
    # N=2, K=1, rows of full cells, at most one partial cell and empty
    # cells: both corridors break while the L1 drop still equals the
    # symmetric difference, 1/8, and the left class is reported
    params = GridParams(2, 1)
    cases = [
        (
            ((1, 2, 0, 2), (1, 0, 0, 0), (1, 2, 0, 2), (0, 0, 1, 2)),
            (1, 5, 7, 1),
            SwapMove(1, 1, 1, 2),
            "donor column left the f .. v_before corridor",
        ),
        (
            ((0, 0, 1, 2), (2, 1, 0, 2), (2, 0, 2, 1), (2, 1, 2, 2)),
            (3, 8, 6, 3),
            SwapMove(1, 2, 2, 1),
            "receiver column left the v_before .. f corridor",
        ),
    ]
    for fill, f_cells, move, violation in cases:
        f = StepFunction.from_grid([D(u, 3) for u in f_cells], 2)
        assert _broken_corridors(fill, f, params, move) == (True, True)
        record = SwapRecord(*astuple(move), D(1, 3), D(1, 3))
        assert _violation(fill, f, params, move, record) == (0, violation)


# N=3, K=0, f = 1/8: band 1 moves one cell from column 6 (two cells tall)
# to column 3 (empty); every other column is one cell tall
_BAND1 = (1, 1, 0, 1, 1, 1, 1, 1)
_BAND2 = (0, 0, 0, 0, 0, 1, 0, 0)


def _columns_case(mirror: bool):
    params = GridParams(3, 0)
    rows = [_BAND1, _BAND2] + [(0,) * 8] * 6
    donor, receiver = 6, 3
    if mirror:
        rows = [row[::-1] for row in rows]
        donor, receiver = 9 - donor, 9 - receiver
    record = SwapRecord(3, 1, donor, receiver, D(1, 5), D(1, 5))
    move = SwapMove(3, 1, donor, receiver)
    return tuple(rows), StepFunction.constant(D(1, 3)), params, move, record


@pytest.mark.parametrize("mirror", (False, True))
def test_column_case_replays_ok(mirror):
    fill, f, params, move, record = _columns_case(mirror)
    assert _replay_one(fill, f, params, move, record) == record


@pytest.mark.parametrize("mirror", (False, True))
@pytest.mark.parametrize("at", (0, 1, 3, 4, 6, 7))
def test_untouched_column_change_is_flagged(mirror, at):
    # at K=0 a column is one sub-column; columns 2 and 5 are the two
    # classes: 0-1 lie left of both, 3-4 between them and 6-7 right of
    # both
    case = _columns_case(mirror)
    assert _violation(*case, state_cls=_Drifting, at=at) == (0, "untouched column changed")


class _Spreading(ReplayState):
    """Moves two partial widths of column `at` apart by one each after the
    exchange, (a, b) -> (a - 1, b + 1), or together, (a, b) -> (a + 1,
    b - 1): the column's sum and its first and last sub-columns keep
    their values, and the staircase rises by one at b, or falls by one at
    a, inside the cell."""

    def __init__(self, *args, at: int, apart: bool):
        super().__init__(*args)
        self.at, self.apart = at, apart

    def _write_section(self, changes, heights):
        drop = super()._write_section(changes, heights)
        a, b = self.widths[self.at]
        self.widths[self.at] = (a - 1, b + 1) if self.apart else (a + 1, b - 1)
        return drop


# N=2, K=3, gen 1: band 1 moves the full cell of row 0 from column 0
# (class 1) to column 2 (class 2).  Rows 2 and 3 put partial cells of
# widths 2 and 5 in column 1, in the donor class, or in column 3, in the
# receiver class (with full cells in column 1, so that the section still
# dominates f), which the exchange leaves as they are.
_INSIDE_CASES = {
    "donor": (1, True, 0, (2, 0, 1, 0), "donor column left the f .. v_before corridor"),
    "receiver": (3, False, 8, (2, 0, 1, 2), "receiver column left the v_before .. f corridor"),
}


@pytest.mark.parametrize("case", _INSIDE_CASES)
def test_corridor_left_only_inside_a_cell_is_flagged(case):
    at, apart, beside, f_cells, violation = _INSIDE_CASES[case]
    params = GridParams(2, 3)
    rows = [[8, 0, 0, 0], [0] * 4, [8, beside, 0, 0], [8, beside, 0, 0]]
    rows[2][at], rows[3][at] = 2, 5
    fill = tuple(map(tuple, rows))
    f = StepFunction.from_grid([D(u, 2) for u in f_cells], 2)
    move = SwapMove(1, 1, 1, 2)
    record = _replay_one(fill, f, params, move, SwapRecord(*astuple(move), D(0), D(0)), state_cls=_Recording)
    assert _replay_one(fill, f, params, move, record) == record
    # the corrupted staircase leaves the old one at one sub-column, not
    # the cell's first or last
    old = counts_above((2, 5), 8)
    new = counts_above((1, 6) if apart else (3, 4), 8)
    breach = [m for m in range(8) if (new[m] > old[m] if apart else new[m] < old[m])]
    assert breach == ([5] if apart else [4])
    got = _violation(fill, f, params, move, record, state_cls=_Spreading, at=at, apart=apart)
    assert got == (0, violation)


# N=2, K=0, gen 1: band 1 moves row 0's cell from column 0 (class 1) to
# column 2 (class 2), each one cell nearer f, so the L1 error drops by the
# symmetric difference.  A column of either class that the exchange
# leaves as it is, column 1 or 3, lies on the wrong side of f.  At K=0
# every column's widths are the empty tuple, so the staircase comparison
# reduces to the full counts, and only the column's bound by f catches it
_OUTSIDE_F_CASES = {
    "donor": ((1, 0, 0, 0), (1, 1, 1, 0), "donor column left the f .. v_before corridor"),
    "receiver": ((1, 0, 0, 1), (1, 0, 1, 0), "receiver column left the v_before .. f corridor"),
}


@pytest.mark.parametrize("case", _OUTSIDE_F_CASES)
def test_a_class_column_the_swap_leaves_on_the_wrong_side_of_f_is_flagged(case):
    row2, f_cells, violation = _OUTSIDE_F_CASES[case]
    params = GridParams(2, 0)
    fill = ((1, 0, 0, 0), (0, 0, 0, 0), row2, (0, 0, 0, 0))
    f = StepFunction.from_grid([D(u, 2) for u in f_cells], 2)
    move = SwapMove(1, 1, 1, 2)
    record = SwapRecord(*astuple(move), D(1, 3), D(1, 3))
    assert _replay_one(fill, f, params, move, record, state_cls=_Recording) == record
    assert _violation(fill, f, params, move, record) == (0, violation)


class _Recording(ReplayState):
    """A replay that takes whatever the swap gives in place of the record,
    so that a hand-built case can read its exact values."""

    def verify_and_apply(self, move):
        self.next += 1
        return _Work.apply(self, move)


# ---------------------------------------------------------------------------
# faults injected into a recorded run (two swaps; the second is corrupted)


def _fixture_state(state_cls=ReplayState, **kw):
    f, params, (_, summary) = run_fixture()
    assert len(summary.swaps) == 2
    return state_cls(params, initial_set(f, params).fill, f, summary.swaps, **kw)


def _sweep_violation(state):
    with pytest.raises(ReplayViolation) as err:
        state.sweep(None)
    return err.value.record_index, err.value.violation


def _on_second_exchange(monkeypatch, corrupt):
    """Runs corrupt(state, rows, moved) -> moved after the second exchange."""
    exchange, calls = _Work._exchange, []

    def patched(self, rows, donor, receiver):
        moved = exchange(self, rows, donor, receiver)
        calls.append(rows)
        return corrupt(self, rows, moved) if len(calls) == 2 else moved

    monkeypatch.setattr(_Work, "_exchange", patched)


def test_injected_row_change_is_flagged(monkeypatch):
    def leak(state, rows, moved):
        # the band's first cell turns empty, or full when it was empty
        r = rows.start
        if state.nonempty[r] & 1:
            state.full[r] &= ~1
            state.nonempty[r] &= ~1
        else:
            state.full[r] |= 1
            state.nonempty[r] |= 1
        return moved

    state = _fixture_state()
    _on_second_exchange(monkeypatch, leak)
    assert _sweep_violation(state) == (1, "horizontal section changed")


def test_injected_partial_cell_loss_is_flagged(monkeypatch):
    def leak(state, rows, moved):
        # the band row's partial cell turns empty, its full cells stay:
        # the row's sum falls by the partial width alone
        r = rows.start
        partial = state.nonempty[r] & ~state.full[r]
        assert partial and state.part[r]
        state.nonempty[r] &= ~partial
        return moved

    state = _fixture_state()
    _on_second_exchange(monkeypatch, leak)
    assert _sweep_violation(state) == (1, "horizontal section changed")


def test_injected_miscount_is_flagged(monkeypatch):
    state = _fixture_state()
    _on_second_exchange(monkeypatch, lambda state, rows, moved: moved + 1)
    assert _sweep_violation(state) == (1, "symmetric difference bookkeeping mismatch")


def test_injected_section_drift_is_flagged():
    # the second swap exchanges classes 1 and 6 of 8 (four sub-columns
    # each at K=2), so sub-column 4, in column 1, is untouched; the
    # column gets one more full cell
    state = _fixture_state(_Drifting, at=4, nth=2)
    assert (state.records[1].donor, state.records[1].receiver) == (1, 6)
    assert _sweep_violation(state) == (1, "untouched column changed")


def test_injected_width_drift_is_flagged():
    # as above, with one more partial cell in column 1: the widths, not
    # the full count, are what changed
    state = _fixture_state(_Drifting, at=4, nth=2, how="widths")
    assert _sweep_violation(state) == (1, "untouched column changed")


@pytest.mark.parametrize("at", (4, 12, 31))
def test_drift_between_two_swaps_is_flagged_at_the_next(at):
    # drift made after the first swap, when the sweep asks for the second
    # move, at sub-columns the second swap does not touch (in columns 1,
    # 3 and 7; the swap's are 0 and 5): the replay checks the state
    # against its copy from the first swap
    state = _fixture_state(_Drifting, at=at, between=True)
    assert _sweep_violation(state) == (1, "untouched column changed")


@pytest.mark.parametrize("at", (4, 12, 31))
def test_width_drift_between_two_swaps_is_flagged_at_the_next(at):
    state = _fixture_state(_Drifting, at=at, between=True, how="widths")
    assert _sweep_violation(state) == (1, "untouched column changed")


class _Reads(list):
    """A list that records the length of every slice read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.slices = []

    def __getitem__(self, key):
        got = super().__getitem__(key)
        if isinstance(key, slice):
            self.slices.append(len(got))
        return got


def test_replay_reads_no_whole_section_per_swap():
    # the 64-step ramp at N=6, K=4 (61 swaps); the copy that the running
    # check starts from is made when the state is built, before the column
    # states are swapped for the counting lists.  A swap reads the slices
    # of its two classes, never the whole state, and compares the copy
    # column by column, by pointer
    f, params = _ramp(6)
    _, summary = reconstruct(f, f, params)
    state = ReplayState.hypograph(params, f, f, summary.swaps)
    state.F, state.widths = _Reads(state.F), _Reads(state.widths)
    replayed = state.sweep(None)
    assert replayed.final_residual == summary.final_residual
    assert state.next == len(summary.swaps) == 61
    for states in (state.F, state.widths):
        assert states.slices and params.side not in states.slices
