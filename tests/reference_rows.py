"""Pointwise drive of the compiled cells, used only by tests.

``pointwise_signal_cells`` is ``stlgo.central.signal_cells`` without whole
rows: it reads the root's cell function at every time of the signal domain,
and every cell reads its operands' cells on demand. ``signal_cells``
evaluates the nodes above the graph operators as rows; it must give the
same signals, raise the same errors and evaluate the same graph-operator
cells.
"""

from __future__ import annotations

from stlgo.central import Cells, _signal_end
from stlgo.formula import lower


def pointwise_signal_cells(run, f, agent, T, strict=False, mask=None, cells=Cells) -> tuple:
    """f's cells over its signal domain, each read through the root's cell
    function of ``cells``, a ``Cells`` class."""
    end = _signal_end(run, f, agent, T, strict)
    core = lower(f)
    cell = cells(run, core, mask)[core]
    return tuple(cell(agent, t) for t in range(end + 1))
