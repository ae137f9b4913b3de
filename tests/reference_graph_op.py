"""Reference graph-operator cells, used only by tests.

``FullCountCells`` is ``stlgo.central.Cells`` with every graph-operator cell
computed by counting every neighbor: it reads the child cell behind each
edge, sums n_sat and n_nviol over all of them and decides once with
``graph_op_verdict``. The compiled kernel stops its neighbor loop as soon as
the verdict is fixed; it must give the same cells and raise the same errors.
"""

from __future__ import annotations

from stlgo.central import _UNSET, Cells, _signal_end, graph_op_verdict
from stlgo.formula import lower
from stlgo.model import neighbor_items


class FullCountCells(Cells):
    """The compiled cells with every graph-operator cell counted in full."""

    def _graph_op(self, f, child):
        rows = self._memo(f)
        (tag,), weights = f.graphs, f.weights
        at = self.run.graphs.neighbor_index(tag, f.direction, weights.lo, weights.hi).at

        def cell(agent, t):
            row = rows[agent]
            if row[t] is _UNSET:
                n_sat = n_nviol = 0
                for j, m in neighbor_items(at(agent, t)):
                    c = child(j, t)
                    if c == 1:
                        n_sat += m
                    if c != 0:
                        n_nviol += m
                row[t] = graph_op_verdict(f.counts, n_sat, n_nviol)
            return row[t]
        return cell


def full_count_signal_cells(run, f, agent, T, strict=False, mask=None) -> tuple:
    end = _signal_end(run, f, agent, T, strict)
    core = lower(f)
    cell = FullCountCells(run, core, mask)[core]
    return tuple(cell(agent, t) for t in range(end + 1))
