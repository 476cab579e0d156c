import os

import numpy as np
import pytest

from leafbridge import workers
from leafbridge.dataset import NUMERIC, AttributeSchema, Dataset


def numeric_dataset(records, labels, n_classes=None, domain_tag="source"):
    """Dataset with anonymous numeric attributes f0..f{d-1} and classes c0..."""
    records = np.asarray(records, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = n_classes or int(labels.max()) + 1
    schema = tuple(AttributeSchema(f"f{j}", NUMERIC) for j in range(records.shape[1]))
    return Dataset(schema, records, labels,
                   tuple(f"c{c}" for c in range(n_classes)), domain_tag)


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
