import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lyapcut import graphs
from lyapcut.graphs import Graph

# Standard labeling: outer 5-cycle 0..4, inner pentagram 5..9, spokes between.
PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
]


@pytest.fixture
def petersen():
    return Graph.from_edges(10, PETERSEN_EDGES)


@pytest.fixture
def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def k4():
    return Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


@pytest.fixture
def single_edge():
    return Graph.from_edges(2, [(0, 1)])


@pytest.fixture
def cut_table_calls(monkeypatch):
    """Sizes of the graphs passed to graphs.cut_table, counted through every lyapcut module that binds it."""
    calls = []
    original = graphs.cut_table

    def counted(g):
        calls.append(g.n)
        return original(g)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lyapcut" and getattr(module, "cut_table", None) is original:
            monkeypatch.setattr(module, "cut_table", counted)
    return calls
