import math
import os
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

from leafbridge import workers
from leafbridge.dataset import NUMERIC, AttributeSchema, Dataset
from leafbridge.forest import _TREE_ARRAYS


def numeric_dataset(records, labels, n_classes=None, domain_tag="source"):
    """Dataset with anonymous numeric attributes f0..f{d-1} and classes c0..."""
    records = np.asarray(records, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = n_classes or int(labels.max()) + 1
    schema = tuple(AttributeSchema(f"f{j}", NUMERIC) for j in range(records.shape[1]))
    return Dataset(schema, records, labels,
                   tuple(f"c{c}" for c in range(n_classes)), domain_tag)


#: Cell pools of drawn columns: ties and signed zeros, adjacent floats,
#: spreads whose squares are subnormal, sums and midpoints that overflow
#: float64, and ordinary values.
COLUMN_REGIMES = (
    (0.0, -0.0, 1.0, -1.0, 2.0),
    (1.0, 1.0 + 2**-52, 1.0 + 2**-51),
    (0.0, -0.0, 5e-324, 1e-160, 3e-160),
    (1e308, 1.6e308, sys.float_info.max, -1e308, -1.6e308, -sys.float_info.max),
    (0.1, 0.3, 2.5, math.pi, 1e6 / 7, -1234.5),
)


def drawn_matrix(draw, rng, n, d):
    """An n x d matrix: a hypothesis `draw` picks each column's pool among
    COLUMN_REGIMES and makes some columns constant or copies of an earlier
    one; the numpy Generator `rng` picks the cells."""
    X = np.empty((n, d))
    for j in range(d):
        X[:, j] = rng.choice(draw(st.sampled_from(COLUMN_REGIMES)), size=n)
        shape = draw(st.sampled_from(["drawn", "drawn", "drawn", "constant", "copy"]))
        if shape == "constant":
            X[:, j] = X[0, j]
        elif shape == "copy" and j:
            X[:, j] = X[:, draw(st.integers(0, j - 1))]
    return X


def drawn_rng(draw) -> np.random.Generator:
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@pytest.fixture
def mixed_csv(tmp_path):
    """A small CSV with one numeric and one categorical column plus labels."""
    path = tmp_path / "mixed.csv"
    path.write_text(
        "a,b,label\n"
        "1.5,x,yes\n"
        "2.5,y,no\n"
        "3.5,x,yes\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def fork_in(monkeypatch, tmp_path):
    """fork_in(n) makes `workers.fork_map` split any work into n shares: the
    threshold is lifted and the usable CPUs patched. It returns a function
    that lists the process id of the caller of every os.fork call since,
    made in this process or in the workers it forked."""
    log = tmp_path / "forks.log"
    fork = os.fork

    def counting_fork():
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return fork()

    def setup(n):
        if n > 1 and workers._threads_running():
            pytest.skip("this process runs other threads, so everything stays serial")
        monkeypatch.setattr(workers, "FORK_MIN_WORK", 0)
        monkeypatch.setattr(workers, "_usable_cpus", lambda: n)
        monkeypatch.setattr(os, "fork", counting_fork)
        log.write_text("", encoding="utf-8")
        return lambda: [int(pid) for pid in log.read_text(encoding="utf-8").split()]

    return setup


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_forest(a, b):
    """Equal schemas, classes, tree arrays and leaf tables (or neither has
    one), dtypes included."""
    assert (a.schema, a.class_names, a.n_trees) == (b.schema, b.class_names, b.n_trees)
    for tree_a, tree_b in zip(a.trees, b.trees):
        for name in _TREE_ARRAYS:
            x, y = getattr(tree_a, name), getattr(tree_b, name)
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)
    assert (a.leaves is None) == (b.leaves is None)
    for name in ("members", "offsets") if a.leaves is not None else ():
        x, y = getattr(a.leaves, name), getattr(b.leaves, name)
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
