import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from leafbridge import dataset, forest, workers
from leafbridge.adaptation import MIN_NEIGHBORS
from leafbridge.dataset import NUMERIC, AttributeSchema, Dataset
from leafbridge.forest import _TREE_ARRAYS

# Every property test draws the same examples on every run and has no time
# limit; each sets only its own max_examples.
settings.register_profile("leafbridge", derandomize=True, database=None, deadline=None)
settings.load_profile("leafbridge")


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(script, *args, env=None):
    """Lines that `script` prints, run in a fresh interpreter with the
    package sources as sys.argv[1] and args after them; it must exit 0. The
    child runs at 1 BLAS and OpenMP thread; `env` sets further variables of
    that child only, over those, and a variable it maps to None is unset."""
    child = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")
    child.pop("PYTHONPATH", None)
    for name, value in (env or {}).items():
        if value is None:
            child.pop(name, None)
        else:
            child[name] = value
    result = subprocess.run([sys.executable, "-c", script, SRC, *map(str, args)],
                            capture_output=True, text=True, timeout=300, env=child)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()


def numeric_dataset(records, labels, n_classes=None, domain_tag="source"):
    """Dataset with anonymous numeric attributes f0..f{d-1} and classes c0..."""
    records = np.asarray(records, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = n_classes or int(labels.max()) + 1
    schema = tuple(AttributeSchema(f"f{j}", NUMERIC) for j in range(records.shape[1]))
    return Dataset(schema, records, labels,
                   tuple(f"c{c}" for c in range(n_classes)), domain_tag)


def record_scans(monkeypatch) -> list:
    """Make every call of `dataset.cell_facts`, the one scan for missing and
    non-finite cells, append the matrix it scans to the returned list."""
    scanned = []
    scan = dataset.cell_facts

    def recording_scan(records):
        scanned.append(records)
        return scan(records)

    for module in (dataset, forest):
        monkeypatch.setattr(module, "cell_facts", recording_scan)
    return scanned


def record_cell_reads(monkeypatch) -> list:
    """Make every call of np.isnan or np.isfinite, from `dataset.cell_facts`
    or from anywhere else, append the array it reads to the returned list."""
    read = []
    for name in ("isnan", "isfinite"):
        def recording(x, *args, _ufunc=getattr(np, name), **kwargs):
            read.append(x)
            return _ufunc(x, *args, **kwargs)

        monkeypatch.setattr(np, name, recording)
    return read


def peak_over_output(derive, *args) -> float:
    """tracemalloc peak of derive(*args) over the bytes of the datasets it
    returns (one, or a tuple of them): 1.0 when it allocates only those."""
    tracemalloc.start()
    try:
        out = derive(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = out if isinstance(out, tuple) else (out,)
    return peak / sum(ds.records.nbytes + ds.labels.nbytes for ds in out)


def assert_owns_its_arrays(child, *parents):
    """child's arrays are read-only, column-major and share no memory with
    any parent's."""
    for array in (child.records, child.labels):
        assert not array.flags.writeable and array.flags.f_contiguous
        for parent in parents:
            assert not np.shares_memory(array, parent.records)
            assert not np.shares_memory(array, parent.labels)


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


def auto_knn_from_cos(cos: np.ndarray, labels: np.ndarray, i: int) -> np.ndarray:
    """Reference for `build_laplacian`'s neighbor rule, one row at a time:
    the automatically sized nearest-neighbor list of row i of the cosine
    matrix.

    Rows are ranked by ascending cosine distance (ties -> lower index). The
    first four are always included; the list then grows down the ranking
    while neighbors keep the query row's label, stopping at the first row
    with a different label. With fewer than 5 rows every other row is
    returned.
    """
    z = cos.shape[0]
    dist = 1.0 - cos[i]
    others = np.concatenate([np.arange(i), np.arange(i + 1, z)])
    if z < MIN_NEIGHBORS + 1:
        return others
    ranked = others[np.argsort(dist[others], kind="stable")]
    neighbors = list(ranked[:MIN_NEIGHBORS])
    for u in ranked[MIN_NEIGHBORS:]:
        if labels[u] != labels[i]:
            break
        neighbors.append(u)
    return np.array(neighbors, dtype=np.int64)


def projection_loops(sp, K, M, Lap, mmd, manifold) -> np.ndarray:
    """Reference for `build_projection`, by scalar loops over the zero-padded
    transforms Gs = rows[:, :ds] and Gt = rows[:, ds:]: alpha = (mmd * M +
    manifold * Lap) K, then P[a, b] = sum_ij Gs[i, a] alpha[i, j] Gt[j, b]."""
    z, d_s = sp.z, sp.d_source
    gs, gt = sp.rows[:, :d_s], sp.rows[:, d_s:]
    alpha = np.zeros((z, z))
    for i in range(z):
        for j in range(z):
            for k in range(z):
                alpha[i, j] += (mmd * M[i, k] + manifold * Lap[i, k]) * K[k, j]
    expected = np.zeros((d_s, sp.d_target))
    for a in range(d_s):
        for b in range(sp.d_target):
            for i in range(z):
                for j in range(z):
                    expected[a, b] += gs[i, a] * alpha[i, j] * gt[j, b]
    return expected


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
