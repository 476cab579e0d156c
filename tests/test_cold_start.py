"""The runtime runs on numpy alone: no scipy module is ever loaded.

The checks run in a fresh interpreter, because the test process itself has
scipy loaded (the tests use it as an oracle).
"""

import json

from conftest import run_fresh

PRELUDE = r"""
import sys
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""

DEFAULT_PATHS = PRELUDE + r"""
import json
from pathlib import Path

import numpy as np

import leafbridge
import leafbridge.cli
from leafbridge import cli
from leafbridge.dataset import (CATEGORICAL, AttributeSchema, Dataset, SplitSpec,
                                split_target, write_csv)
from leafbridge.experiment import ExperimentSpec, PairSpec, run_experiment
from leafbridge.synthetic import rotated_pair
from leafbridge.transfer import TransferConfig, TransferModel, run_transfer

assert scipy_modules() == [], scipy_modules()
root = Path(sys.argv[2])

def binned(ds, schema):
    X = np.array(ds.records)
    for j in (2, 3):
        X[:, j] = np.digitize(X[:, j], np.quantile(X[:, j], [1 / 3, 2 / 3]))
    return Dataset(schema, X, ds.labels, ds.class_names, ds.domain_tag)

src, tgt = rotated_pair(n_source=300, n_target=300, n_features=4, center_spread=2.0,
                        cluster_std=1.5, seed=3)
levels = ("lo", "mid", "hi")
schema = (AttributeSchema("f0", "numeric"), AttributeSchema("f1", "numeric"),
          AttributeSchema("f2", CATEGORICAL, levels), AttributeSchema("f3", CATEGORICAL, levels))
src = binned(src, schema)
tgt = binned(tgt, schema)

cfg = TransferConfig(min_leaf_small=5)
assert cfg.kernel == "rbf"
tgt_train, test = split_target(tgt, SplitSpec(0.2, 0))
model = run_transfer(src, tgt_train, cfg)
assert not model.fallback, model.diagnostics
predictions = model.predict_many(test)
model.save(root / "model.json")
loaded = TransferModel.load(root / "model.json")
assert np.array_equal(loaded.predict_many(test), predictions)

write_csv(src, root / "src.csv")
write_csv(tgt, root / "tgt.csv")
spec = ExperimentSpec(pairs=(PairSpec(str(root / "src.csv"), str(root / "tgt.csv")),),
                      split=SplitSpec(0.2, 0))
report = run_experiment(spec, cfg)
assert all("accuracy" in cell for cell in report.pairs[0]["methods"].values()), report.pairs
assert report.pairs[0]["diagnostics"]["fallback_runs"] == 0
json_path, _ = report.write(root / "report")

# a second pair, so that stats also ranks the methods (Nemenyi)
payload = json.loads(json_path.read_text())
payload["pairs"].append(dict(payload["pairs"][0], pair="copy"))
json_path.write_text(json.dumps(payload))
assert cli.main(["stats", "--report", str(json_path)]) == 0

print(json.dumps(scipy_modules()))
"""

def test_default_paths_load_no_scipy(tmp_path):
    lines = run_fresh(DEFAULT_PATHS, tmp_path)
    assert any(line.startswith("Nemenyi critical difference") for line in lines), lines
    assert json.loads(lines[-1]) == []

