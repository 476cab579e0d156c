import os

import pytest

from leafbridge import workers
from conftest import assert_no_children

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="fork_map forks")


def mapped(items, work):
    """fork_map's results, each (item, whether a forked child ran it, whether
    it ran as a worker), and the shares the calling process ran, in order."""
    parent, here = os.getpid(), []

    def fn(share):
        if os.getpid() == parent:
            here.append(list(share))
        return [(item, os.getpid() != parent, workers._worker) for item in share]

    results = workers.fork_map(fn, items, work, "items")
    assert [item for item, _, _ in results] == list(items)
    assert_no_children()
    return results, here


def test_shares_cut_by_work(fork_in):
    fork_in(2)
    results, here = mapped("abcd", [1, 1, 1, 3])
    assert here == [["a", "b", "c"]]
    assert [child for _, child, _ in results] == [False, False, False, True]
    assert all(worker for _, _, worker in results)


def test_equal_work_cut_by_count(fork_in):
    fork_in(3)
    results, here = mapped(range(7), [5] * 7)
    assert here == [[0, 1]]
    assert [child for _, child, _ in results] == [False] * 2 + [True] * 5


def test_heavy_items_run_alone_first(fork_in):
    # 10 outweighs half of 18; then 6 outweighs half of 8; 1 and 1 share
    fork_in(2)
    results, here = mapped("wxyz", [1, 10, 6, 1])
    assert here == [["x"], ["y"], ["w"]]
    assert results == [("w", False, True), ("x", False, False), ("y", False, False),
                       ("z", True, True)]


def test_heavy_item_with_light_rest_runs_all_here(fork_in, monkeypatch):
    # what is left after the heavy item is below the threshold
    forks = fork_in(2)
    monkeypatch.setattr(workers, "FORK_MIN_WORK", 10)
    results, here = mapped("abc", [9, 1, 2])
    assert here == [["a"], ["b", "c"]]
    assert forks() == [] and not any(worker for _, _, worker in results)
