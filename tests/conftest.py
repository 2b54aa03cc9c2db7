import contextlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from hyperemb import HypergraphWarning, build_hypergraph, model

TRIANGLE_EDGES = [(0, 1), (1, 2), (0, 1, 2)]
# five nodes under one hyperedge that spans them all, two singletons and one pair listed twice
RAGGED_EDGES = [(0, 1, 2, 3, 4), (3,), (1, 3), (1, 3), (2,), (0, 4)]


@pytest.fixture
def triangle():
    """Three nodes, edges {0,1}, {1,2}, {0,1,2}: the worked example everywhere."""
    return build_hypergraph(TRIANGLE_EDGES, 3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def row_blocks_forced(monkeypatch):
    """Run every activation in row blocks of four elements, so each array spans several."""
    monkeypatch.setattr(model, "ROW_BLOCK", 4)


@pytest.fixture
def sparse_products(monkeypatch):
    """A list that gains the factor's shape for every sparse product ``f @ x`` run in the test."""
    log = []
    for cls in (sparse.csr_array, sparse.csc_array):
        def counted(f, x, run=cls.__matmul__):
            log.append(f.shape)
            return run(f, x)
        monkeypatch.setattr(cls, "__matmul__", counted)
    return log


def graph_of(edges, n):
    """``build_hypergraph(edges, n)`` with its pack derived, expecting the
    isolated-node warning when some node is in no hyperedge."""
    isolated = len({i for e in edges for i in e}) < n
    with pytest.warns(HypergraphWarning, match="isolated") if isolated else contextlib.nullcontext():
        g = build_hypergraph(edges, n)
    g.pack
    return g


def dataset_root() -> Path | None:
    """Directory with converted public datasets, if the env points at one."""
    root = os.environ.get("HYPEREMB_DATA")
    if root and Path(root).is_dir():
        return Path(root)
    return None


def require_dataset(name: str) -> Path:
    root = dataset_root()
    if root is None or not (root / name).is_dir():
        pytest.skip(
            f"dataset {name!r} unavailable (set HYPEREMB_DATA to a directory of "
            "converted datasets to enable)"
        )
    return root / name


def pytest_terminal_summary(terminalreporter):
    """One line per acceptance check so pass/fail/skip is visible at a glance."""
    labels = {"passed": "PASS", "failed": "FAIL", "error": "FAIL", "skipped": "SKIP"}
    outcomes: dict[str, str] = {}
    reasons: dict[str, str] = {}
    for key, label in labels.items():
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            outcomes[name] = label
            if key == "skipped" and isinstance(rep.longrepr, tuple):
                reasons[name] = str(rep.longrepr[2]).replace("Skipped: ", "")
    if not outcomes:
        return
    terminalreporter.section("acceptance")
    for name in sorted(outcomes):
        line = f"{name}: {outcomes[name]}"
        if name in reasons:
            line += f" ({reasons[name]})"
        terminalreporter.write_line(line)
