"""The replay's per-swap checks on hand-built states and injected faults.

ReplayState accepts any fill whose rows hold at most one partial cell, so
a move whose receiver lies left of its donor, or whose corridors both
break, is built directly.  Three checks
("horizontal section changed", "symmetric difference bookkeeping
mismatch", "untouched column changed") hold for every real exchange, so
no trace reaches them; they are reached by corrupting the state after
the exchange.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest

from crosscut import GridParams, StepFunction, SwapRecord
from crosscut.dyadic import Dyadic
from crosscut.gridset import ReplayState, ReplayViolation, SwapMove, _Work, initial_set
from test_report import run_fixture

D = Dyadic


class _Drifting(ReplayState):
    """Raises the section at sub-column `at` after exchange number `nth`."""

    def __init__(self, *args, at: int, nth: int = 1):
        super().__init__(*args)
        self.at, self.nth = at, nth

    def _write_section(self, changes, heights):
        drop = super()._write_section(changes, heights)
        self.nth -= 1
        if self.nth == 0:
            self.vu[self.at] += 1
        return drop


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
    """Whether the move leaves the donor's and the receiver's corridor."""
    work = _Work(params, fill, f)
    before = work.vu[:]
    work.apply(move)
    span = params.side >> move.gen
    width = span * params.sub_per_cell

    def left(cls, low, high):
        cols = range((cls - 1) * width, cls * width)
        return not all(low[i] <= work.vu[i] <= high[i] for i in cols)

    return left(move.donor, work.fu, before), left(move.receiver, before, work.fu)


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
    # sub-columns 2 and 5 are the two classes: 0-1 lie left of both,
    # 3-4 between them and 6-7 right of both
    case = _columns_case(mirror)
    assert _violation(*case, state_cls=_Drifting, at=at) == (0, "untouched column changed")


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


def test_injected_miscount_is_flagged(monkeypatch):
    state = _fixture_state()
    _on_second_exchange(monkeypatch, lambda state, rows, moved: moved + 1)
    assert _sweep_violation(state) == (1, "symmetric difference bookkeeping mismatch")


def test_injected_section_drift_is_flagged():
    # the second swap exchanges classes 1 and 6 of 8 (four sub-columns
    # each at K=2), so sub-column 4 is untouched
    state = _fixture_state(_Drifting, at=4, nth=2)
    assert (state.records[1].donor, state.records[1].receiver) == (1, 6)
    assert _sweep_violation(state) == (1, "untouched column changed")
