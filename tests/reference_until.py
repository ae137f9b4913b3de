"""Reference window scan for Until, used only by tests.

``reference_signal_cells`` is ``stlgo.central.signal_cells`` with Until
evaluated by the plain per-cell scan: for every witness time t2 of the
window it extends the Kleene conjunction of phi1 over [t, t2] and folds
``phi1-prefix AND phi2(t2)`` into a Kleene disjunction, stopping at the
first decisive cell. It is quadratic in the window length and plainly
correct by reading; the evaluator's next-witness pointers must give the
same cells.
"""

from __future__ import annotations

from stlgo import formula as F
from stlgo.central import (
    _HANDLERS,
    Evaluator,
    _signal_end,
    clamp_window,
    k_and,
    k_or,
)
from stlgo.formula import lower


class ReferenceEvaluator(Evaluator):
    """The memoized evaluator with every Until cell computed by a scan."""

    def eval(self, f, agent, t):
        key = (id(f), agent, t)
        if key not in self._memo:
            handler = until_scan if type(f) is F.Until else _HANDLERS[type(f)]
            self._memo[key] = handler(self, f, agent, t)
        return self._memo[key]


def until_scan(ev, f, agent, t):
    lo, hi = clamp_window(t, f.interval, ev.run.length)
    scanned = hi + 1 if type(f.left) is F.Truth else t
    prefix = 1
    acc = 0
    for t2 in range(lo, hi + 1):
        while scanned <= t2:
            prefix = k_and(prefix, ev.eval(f.left, agent, scanned))
            scanned += 1
        if prefix == 0:
            return acc
        acc = k_or(acc, k_and(prefix, ev.eval(f.right, agent, t2)))
        if acc == 1:
            return 1
    return acc


def reference_signal_cells(run, f, agent, T, strict=False, mask=None) -> tuple:
    end = _signal_end(run, f, agent, T, strict)
    core = lower(f)
    ev = ReferenceEvaluator(run, mask)
    return tuple(ev.eval(core, agent, t) for t in range(end + 1))
