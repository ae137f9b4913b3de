"""The traced benchmark patches stlgo functions by name; a refactor that
renames or moves one must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from stlgo import lower, parse_global
from stlgo.formula import nodes

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up
    spec.loader.exec_module(spans)
    return spans


SPANS = load_spans()


@pytest.mark.parametrize("module, attrs", [(p[0], p[1]) for p in SPANS.PATCHES])
def test_every_patched_name_resolves(module, attrs):
    mod = importlib.import_module(module)
    for attr in attrs:
        assert callable(getattr(mod, attr)), f"{module}.{attr}"


def test_lowered_nodes_have_vars_for_the_node_counter():
    core = lower(parse_global("G[0,2] FA{1..3}([x[0] >= 0] | F[0,1] [x[0] >= 1] | true)"))
    for node in nodes(core):
        vars(node)
    assert SPANS._core_nodes(core, ()) == {"core_nodes": sum(1 for _ in nodes(core))}
