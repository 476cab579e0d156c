"""Saved models, projections and reports do not depend on BLAS: every product
that reaches them, the adaptation stage's and `project_records`', is an
einsum sum, not a BLAS call.

One case script runs in fresh interpreters at 1 BLAS and OpenMP thread, at
2 threads, and at 1 thread with OpenBLAS's Prescott kernels (x86-64 only);
the count and the kernel are read when numpy loads. Every digest must equal
the 1-thread run's. The inputs are `gaussian_blobs`, built without BLAS;
`rotated_pair` is not, as its rotation comes from a QR factorisation and a
product. The shared-center fits are ones whose mu is not C / (C + 1): its
least-squares separator, the one LAPACK call whose result reaches a model,
puts rows on the wrong side there.
"""

import functools
import json
import platform

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
from leafbridge.synthetic import gaussian_blobs
from leafbridge.transfer import TransferConfig, project_records, run_transfer

root = Path(sys.argv[2])
digests = {}

def digest(data):
    return hashlib.sha256(data).hexdigest()

adapt = adaptation.adapt
solved = []

def recording_adapt(pivots, *args, **kwargs):
    solved.append((pivots, *adapt(pivots, *args, **kwargs)))
    return solved[-1][1:]

PAIRS = {
    "10x8": (1, dict(n_features=10, seed=1), dict(n_features=8, seed=101)),
    "40x12": (3, dict(n_features=40, seed=3), dict(n_features=12, seed=103)),
    # one seed gives both domains the same class centers
    "shared": (1, dict(n_features=10, center_spread=2.0, cluster_std=2.0, seed=1),
               dict(n_features=10, center_spread=2.0, cluster_std=2.0, seed=1)),
}

adaptation.adapt = recording_adapt
for shape, (seed, source, target) in PAIRS.items():
    src = gaussian_blobs(5000, domain_tag="source", **source)
    tgt = gaussian_blobs(8000, **target)
    tgt_train, _ = split_target(tgt, SplitSpec(0.05, seed))
    for kernel in ("rbf", "linear"):
        case = f"{kernel}_{shape}"
        model = run_transfer(src, tgt_train, TransferConfig(seed=seed, kernel=kernel))
        assert not model.fallback, model.diagnostics
        model.save(root / f"{case}.json")
        digests[case] = digest((root / f"{case}.json").read_bytes())
adaptation.adapt = adapt
digests["mu"] = [mu.hex() for _, mu, _ in solved]
digests["projection"] = digest(b"".join(projection.matrix.tobytes() for *_, projection in solved))

# the shared-center pivots outnumber the padded width, so mu's separator
# puts rows on the wrong side and mu is not C / (C + 1)
pivots, mu, _ = solved[-1]
n = pivots.n_pivots
shared = len(set(pivots.labels[:n].tolist()) & set(pivots.labels[n:].tolist()))
assert mu != shared / (shared + 1), (mu, shared)

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

NAMES = ["rbf_10x8", "linear_10x8", "rbf_40x12", "linear_40x12", "rbf_shared",
         "linear_shared", "mu", "projection", "report", "product"]
THREADS = {name: "2" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
ENVIRONMENTS = {"one_thread": {"OPENBLAS_CORETYPE": None},
                "two_threads": dict(THREADS, OPENBLAS_CORETYPE=None),
                "prescott": {"OPENBLAS_CORETYPE": "Prescott"}}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """digests(environment): the case script's digests there, run once. Every
    run shares one directory, since the report holds the CSV paths."""
    root = tmp_path_factory.mktemp("saved_bytes")

    @functools.cache
    def run(environment):
        return json.loads(run_fresh(CASES, root, env=ENVIRONMENTS[environment])[-1])

    return run


@pytest.mark.parametrize("environment", [
    "two_threads",
    pytest.param("prescott", marks=pytest.mark.skipif(
        platform.machine() not in ("x86_64", "AMD64"),
        reason="OPENBLAS_CORETYPE names x86-64 kernels"))])
@pytest.mark.parametrize("case", NAMES)
def test_same_bytes_as_one_thread(digests, environment, case):
    assert digests(environment)[case] == digests("one_thread")[case]
