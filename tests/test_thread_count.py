"""Saved models, projections and reports do not depend on the BLAS thread
count: the adaptation stage and `project_records` sum their products with
einsum, not BLAS.

Each case runs in fresh interpreters at 1 and at 2 BLAS and OpenMP threads
(the count is read when numpy loads) and compares the bytes they hash.
"""

import json

import pytest

from conftest import run_fresh

CASES = r"""
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])

import numpy as np

from leafbridge import adaptation
from leafbridge.dataset import SplitSpec, split_target, write_csv
from leafbridge.experiment import ExperimentSpec, PairSpec, run_experiment
from leafbridge.synthetic import gaussian_blobs, rotated_pair
from leafbridge.transfer import TransferConfig, project_records, run_transfer

root = Path(sys.argv[2])
digests = {}

def digest(data):
    return hashlib.sha256(data).hexdigest()

adapt = adaptation.adapt
solved = []

def recording_adapt(*args, **kwargs):
    solved.append(adapt(*args, **kwargs))
    return solved[-1]

def fit(case, seed, cfg, **pair):
    src, tgt = rotated_pair(5000, 8000, center_spread=2.0, cluster_std=2.0, seed=seed,
                            **pair)
    tgt_train, _ = split_target(tgt, SplitSpec(0.05, seed))
    model = run_transfer(src, tgt_train, cfg)
    assert not model.fallback, model.diagnostics
    model.save(root / f"{case}.json")
    digests[case] = digest((root / f"{case}.json").read_bytes())
    return src, tgt

adaptation.adapt = recording_adapt
src, tgt = fit("model", 1, TransferConfig(seed=1))
adaptation.adapt = adapt
digests["projection"] = digest(solved[0][1].matrix.tobytes())
fit("linear_model", 2, TransferConfig(seed=2, kernel="linear"), n_features=20)

write_csv(src, root / "src.csv")
write_csv(tgt, root / "tgt.csv")
spec = ExperimentSpec(pairs=(PairSpec(str(root / "src.csv"), str(root / "tgt.csv")),),
                      split=SplitSpec(0.05, 1), methods=("tlf",))
json_path, _ = run_experiment(spec, TransferConfig(seed=1)).write(root / "report")
digests["report"] = digest(json_path.read_bytes())

rng = np.random.default_rng(0)
records = gaussian_blobs(12_000, n_features=40, seed=0, domain_tag="source")
projection = adaptation.ProjectionMatrix(rng.normal(size=(40, 40)))
projected = project_records(records, projection, records.schema, records.class_names)
digests["product"] = digest(projected.records.tobytes())
print(json.dumps(digests))
"""


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    # one directory for both runs, since the report holds the CSV paths
    root = tmp_path_factory.mktemp("threads")
    return {threads: json.loads(run_fresh(CASES, root, threads=threads)[-1])
            for threads in (1, 2)}


@pytest.mark.parametrize("case", ["model", "linear_model", "projection", "report", "product"])
def test_same_bytes_at_one_and_two_threads(digests, case):
    assert digests[1][case] == digests[2][case]
