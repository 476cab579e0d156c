"""Saved models and projections do not depend on the BLAS kernel: every
product that reaches a model, the adaptation stage's and `project_records`',
is an einsum sum, not BLAS.

Each case runs in fresh interpreters with OpenBLAS's CPU-detected kernels
and with its Prescott kernels (`OPENBLAS_CORETYPE`, read when numpy loads),
which round a product differently, and compares the bytes they hash. The
inputs are `gaussian_blobs`, built without BLAS; `rotated_pair` is not, as
its rotation comes from a QR factorisation and a product.
"""

import json
import platform

import pytest

from conftest import run_fresh

pytestmark = pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                                reason="OPENBLAS_CORETYPE names x86-64 kernels")

CASES = r"""
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])

import numpy as np

from leafbridge import adaptation
from leafbridge.dataset import SplitSpec, split_target
from leafbridge.synthetic import gaussian_blobs
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

adaptation.adapt = recording_adapt
for seed, d_source, d_target in ((1, 10, 8), (3, 40, 12)):
    src = gaussian_blobs(5000, n_features=d_source, seed=seed, domain_tag="source")
    tgt = gaussian_blobs(8000, n_features=d_target, seed=seed + 100)
    tgt_train, _ = split_target(tgt, SplitSpec(0.05, seed))
    for kernel in ("rbf", "linear"):
        case = f"{kernel}_{d_source}x{d_target}"
        model = run_transfer(src, tgt_train, TransferConfig(seed=seed, kernel=kernel))
        assert not model.fallback, model.diagnostics
        model.save(root / f"{case}.json")
        digests[case] = digest((root / f"{case}.json").read_bytes())
adaptation.adapt = adapt
digests["projection"] = digest(solved[0][1].matrix.tobytes())

rng = np.random.default_rng(0)
records = gaussian_blobs(12_000, n_features=40, seed=0, domain_tag="source")
projection = adaptation.ProjectionMatrix(rng.normal(size=(40, 40)))
projected = project_records(records, projection, records.schema, records.class_names)
digests["product"] = digest(projected.records.tobytes())
print(json.dumps(digests))
"""

CORES = (None, "Prescott")
NAMES = ["rbf_10x8", "linear_10x8", "rbf_40x12", "linear_40x12", "projection", "product"]


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return {core: json.loads(run_fresh(CASES, tmp_path_factory.mktemp("core"),
                                       env={"OPENBLAS_CORETYPE": core})[-1])
            for core in CORES}


@pytest.mark.parametrize("case", NAMES)
def test_same_bytes_under_two_blas_kernels(digests, case):
    assert digests[None][case] == digests["Prescott"][case]
