"""Workload definitions and seeded input generation for the benchmark.

Every workload is a source/target task drawn the way
`leafbridge.synthetic.rotated_pair` draws it: Gaussian class clusters around
random centers, with the source features passed through a random rotation.
The centers and the rotation are a fixed task per workload (TASK_SEED), and
`--seed` draws the records, the 5% target split and the forest seed, so that
seeds vary the sample and not the problem.

Each workload yields two inputs:

- a fit pair (datasets plus a held-out test part) for direct `run_transfer`
  and `predict_many` calls; a task with categorical columns goes through
  CSV files and `load_csv`;
- an experiment pair, written as two CSV files that share column names and
  category sets, for one `run_experiment` call per cycle.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

import leafbridge as lb

#: Fixed seed of the class centers and the source rotation.
TASK_SEED = 20210827
#: Labeled share of the target domain; the rest is the test part.
TARGET_FRACTION = 0.05
N_CLASSES = 3
LEVELS = 6
METHODS = ("tlf", "source_only", "target_only")
INJECT_RATIOS = (0.1, 0.3)


@dataclass(frozen=True)
class Task:
    """Blob task parameters (the arguments `rotated_pair` takes)."""

    n_features: int
    center_spread: float
    cluster_std: float
    n_categorical: int = 0  # trailing features binned into LEVELS string levels


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why it was chosen."""

    name: str
    task: Task
    fit_rows: tuple[int, int]  # (n_source, n_target)
    experiment_rows: tuple[int, int]
    repeats: int


OVERLAP = Task(n_features=10, center_spread=2.0, cluster_std=2.0)
SEPARABLE = Task(n_features=40, center_spread=3.0, cluster_std=1.0)
CATEGORICAL = Task(n_features=12, center_spread=2.0, cluster_std=1.5, n_categorical=8)

# Sizes keep one cycle (fit, predictions, experiment) to about 2-3 s, so that
# a run times about ten of each operation. The overlap source stays below
# TransferConfig.large_threshold, so its forest keeps the small minimum leaf
# size and many distinct leaf distributions.
WORKLOADS = {
    w.name: w for w in (
        Workload("overlap", OVERLAP, (5000, 24000), (800, 800), 2),
        Workload("separable", SEPARABLE, (12000, 24000), (800, 800), 2),
        Workload("experiment_categorical", CATEGORICAL, (3000, 6000), (1000, 1000), 2),
    )
}

#: Seconds-long sizes of every workload, for the benchmark's own tests.
SMOKE_FIT_ROWS = (600, 1200)
SMOKE_EXPERIMENT_ROWS = (300, 300)


@dataclass(frozen=True, eq=False)
class Inputs:
    source: lb.Dataset
    target: lb.Dataset  # labeled target part
    test: lb.Dataset
    spec: lb.ExperimentSpec
    config: lb.TransferConfig


def _task_geometry(task: Task):
    rng = np.random.default_rng(TASK_SEED)
    centers = rng.normal(size=(N_CLASSES, task.n_features)) * task.center_spread
    rotation = lb.random_rotation(task.n_features, seed=int(rng.integers(2**31)))
    return centers, rotation


def _blobs(rng, centers, n, cluster_std):
    labels = rng.permutation(np.arange(n) % len(centers))
    records = centers[labels] + rng.normal(size=(n, centers.shape[1])) * cluster_std
    return records, labels


def sample_pair(task: Task, n_source: int, n_target: int, rng):
    """(source records, source labels, target records, target labels)."""
    centers, rotation = _task_geometry(task)
    X_t, y_t = _blobs(rng, centers, n_target, task.cluster_std)
    X_s, y_s = _blobs(rng, centers, n_source, task.cluster_std)
    return X_s @ rotation, y_s, X_t, y_t


def _numeric_dataset(X, y, domain_tag):
    schema = tuple(lb.AttributeSchema(f"x{j}", "numeric") for j in range(X.shape[1]))
    return lb.Dataset(schema, X, y, tuple(f"c{c}" for c in range(N_CLASSES)), domain_tag)


def write_csv(path, X, y, n_categorical) -> tuple:
    """Write one domain; the trailing columns are binned by quantile.

    Each categorical column gets LEVELS equally frequent levels named by the
    quantile bin, so both files of a pair share category sets while the
    order in which levels first appear depends on the rows. Returns that
    order per categorical column.
    """
    n_numeric = X.shape[1] - n_categorical
    names, cells, first_seen = [], [], []
    for j in range(X.shape[1]):
        col = X[:, j]
        if j < n_numeric:
            names.append(f"x{j}")
            cells.append([repr(float(v)) for v in col])
        else:
            edges = np.quantile(col, np.arange(1, LEVELS) / LEVELS)
            bins = np.searchsorted(edges, col, side="right")
            names.append(f"k{j - n_numeric}")
            cells.append([f"q{b}" for b in bins])
            levels, first = np.unique(bins, return_index=True)
            first_seen.append(tuple(levels[np.argsort(first)]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["label"])
        writer.writerows(zip(*cells, (f"c{c}" for c in y)))
    return tuple(first_seen)


def write_pair(task: Task, rows, rng, workdir, stem) -> tuple[str, str]:
    """Sample a pair and write it as <stem>_source.csv and <stem>_target.csv.

    A categorical pair must list some column's levels in a different order in
    the two files, so that scoring a source model on target records takes
    the category remap.
    """
    X_s, y_s, X_t, y_t = sample_pair(task, *rows, rng)
    paths = (os.path.join(workdir, f"{stem}_source.csv"),
             os.path.join(workdir, f"{stem}_target.csv"))
    order_s = write_csv(paths[0], X_s, y_s, task.n_categorical)
    order_t = write_csv(paths[1], X_t, y_t, task.n_categorical)
    if task.n_categorical and order_s == order_t:
        raise RuntimeError(f"{stem}: both files list their categories in the same order")
    return paths


def make_inputs(workload: Workload, seed: int, workdir: str, smoke: bool = False) -> Inputs:
    """Generate every input of one run from the seed; CSV files go to workdir."""
    rng = np.random.default_rng([TASK_SEED, seed])
    task = workload.task
    fit_rows, exp_rows, repeats = workload.fit_rows, workload.experiment_rows, workload.repeats
    if smoke:
        fit_rows, exp_rows, repeats = SMOKE_FIT_ROWS, SMOKE_EXPERIMENT_ROWS, 1

    src_csv, tgt_csv = write_pair(task, exp_rows, rng, workdir, "experiment")
    if task.n_categorical:
        fit_src, fit_tgt = write_pair(task, fit_rows, rng, workdir, "fit")
        source = lb.load_csv(fit_src, "label", domain_tag="source")
        target_full = lb.load_csv(fit_tgt, "label", domain_tag="target")
    else:
        X_s, y_s, X_t, y_t = sample_pair(task, *fit_rows, rng)
        source = _numeric_dataset(X_s, y_s, "source")
        target_full = _numeric_dataset(X_t, y_t, "target")
    target, test = lb.split_target(target_full, lb.SplitSpec(TARGET_FRACTION, seed))

    spec = lb.ExperimentSpec(
        pairs=(lb.PairSpec(src_csv, tgt_csv),),
        split=lb.SplitSpec(TARGET_FRACTION, seed),
        repeats=repeats,
        methods=METHODS,
        missing_mode="impute",
        inject_ratios=INJECT_RATIOS,
    )
    return Inputs(source, target, test, spec, lb.TransferConfig(seed=seed))
