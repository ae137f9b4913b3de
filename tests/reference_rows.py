"""Pointwise drive of the compiled cells, used only by tests.

``pointwise_signal_cells`` is ``stlgo.central.signal_cells`` without whole
rows: it reads the root's cell function at every time of the signal domain,
and every cell reads its operands' cells on demand. ``signal_cells``
evaluates the nodes above the graph operators as rows; it must give the
same signals, raise the same errors and evaluate the same graph-operator
cells.
"""

from __future__ import annotations

from stlgo.central import Cells, _Query


def pointwise_signal_cells(run, f, agent, T, strict=False, mask=None, cells=Cells) -> tuple:
    """f's cells over its signal domain, each read through the root's cell
    function of ``cells``, a ``Cells`` class."""
    query = _Query(run, f, agent, T, strict)
    cell = cells(query, mask)[query.core]
    return tuple(cell(agent, t) for t in range(query.end + 1))
