"""Reference window scan for Until, used only by tests.

``reference_signal_cells`` is ``stlgo.central.signal_cells`` with Until
evaluated by the plain per-cell scan: for every witness time t2 of the
window it extends the Kleene conjunction of phi1 over [t, t2] and folds
``phi1-prefix AND phi2(t2)`` into a Kleene disjunction, stopping at the
first decisive cell. It is quadratic in the window length and plainly
correct by reading; the compiled kernel's next-witness pointers must give
the same cells.
"""

from __future__ import annotations

from stlgo import formula as F
from stlgo.central import _UNSET, Cells, _signal_end, clamp_window, k_or
from stlgo.formula import lower


def k_and(a, b):
    return 0 if a == 0 or b == 0 else None if a is None or b is None else 1


class ReferenceCells(Cells):
    """The compiled cells with every Until cell computed by a scan."""

    def _until(self, f, left, right):
        rows, length = self._memo(f), self.run.length
        left = None if type(f.left) is F.Truth else left

        def cell(agent, t):
            row = rows[agent]
            if row[t] is _UNSET:
                row[t] = until_scan(left, right, f.interval, length, agent, t)
            return row[t]
        return cell


def until_scan(left, right, interval, length, agent, t):
    lo, hi = clamp_window(t, interval, length)
    scanned = hi + 1 if left is None else t
    prefix = 1
    acc = 0
    for t2 in range(lo, hi + 1):
        while scanned <= t2:
            prefix = k_and(prefix, left(agent, scanned))
            scanned += 1
        if prefix == 0:
            return acc
        acc = k_or(acc, k_and(prefix, right(agent, t2)))
        if acc == 1:
            return 1
    return acc


def reference_signal_cells(run, f, agent, T, strict=False, mask=None) -> tuple:
    end = _signal_end(run, f, agent, T, strict)
    core = lower(f)
    cell = ReferenceCells(run, core, mask)[core]
    return tuple(cell(agent, t) for t in range(end + 1))
