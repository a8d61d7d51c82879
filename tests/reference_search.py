"""The scalar swap search, kept as the reference for gridset._Work.

ReferenceWork is the engine with its search and bookkeeping done the
direct way: every candidate (band, donor, receiver) is tested cell by
cell, the L1 drop of a swap is the difference of two whole-section
residual sums, and prefix dominance recounts the histogram of the whole
vertical section.  Everything else (margins, the exchange, the column
recount, the generation loop) is the engine's own, so a trace of
ReferenceWork differs from the engine's exactly when the fast search or
its bookkeeping does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Optional

from crosscut.dyadic import Dyadic
from crosscut.feasibility import run_excess
from crosscut.gridset import SwapMove, SwapRecord, _Work


class ReferenceWork(_Work):
    def residual_units(self) -> int:
        return sum(abs(a - b) for a, b in zip(self.fu, self.vu))

    def majorized(self) -> bool:
        return run_excess(self.f_runs, sorted(Counter(self.vu).items(), reverse=True)) is None

    def _proper_subset(self, gen: int, band: int, j: int, k: int) -> bool:
        """Receiver block <= donor block in every cell, and not equal."""
        span = self.side >> gen
        r0, j0, k0 = (band - 1) * span, (j - 1) * span, (k - 1) * span
        strict = False
        for r in range(r0, r0 + span):
            row = self.fill[r]
            for c in range(span):
                wj, wk = row[j0 + c], row[k0 + c]
                if wk > wj:
                    return False
                if wk < wj:
                    strict = True
        return strict

    def find_first(self, gen: int) -> Optional[SwapMove]:
        """First swappable move in (band, donor, receiver) ascending order."""
        top = 1 << gen
        donors = [j for j in range(1, top + 1) if self._donor_ok(gen, j)]
        if not donors:
            return None
        receivers = {k for k in range(1, top + 1) if self._receiver_ok(gen, k)}
        if not receivers:
            return None
        for band in range(1, top + 1):
            for j in donors:
                for k in range(1, top + 1):
                    if k == j or k not in receivers:
                        continue
                    if self._proper_subset(gen, band, j, k):
                        move = SwapMove(gen, band, j, k)
                        if self._dominance_after(move):
                            return move
        return None

    def apply(self, move: SwapMove) -> SwapRecord:
        before = self.residual_units()
        rec = super().apply(move)
        drop = Dyadic(before - self.residual_units(), self.D + self.N + self.K)
        return replace(rec, l1_drop=drop)

