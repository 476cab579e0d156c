"""The benchmark's traced run wraps library functions by name
(`bench/spans.py`); a rename or deletion in the library silently switches a
traced layer off. These checks name every wrapped function that does not
resolve, so that such a change shows up here."""

import importlib.util
from pathlib import Path

import leafbridge

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

#: Wrapped names that no longer exist: the experiment runner reaches the
#: forest and the encoders through `leafbridge.transfer`, the adaptation
#: stage no longer takes the spectra of its matrices, and `build_projection`
#: forms the coefficient blocks itself.
STALE = {
    "leafbridge.experiment.train_forest",
    "leafbridge.experiment.predict_many",
    "leafbridge.experiment.one_hot_encode",
    "leafbridge.experiment.encode_records",
    "leafbridge.adaptation.AdaptationState.diagnostics",
    "leafbridge.adaptation.compute_alpha",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_but_the_known_stale_ones():
    spans = load_spans()
    unresolved = set()
    for module, attr, *_ in spans.Tracer()._surface():
        owner = spans._resolve(module)
        if owner is None or getattr(owner, attr, None) is None:
            unresolved.add(f"{module}.{attr}")
    assert unresolved == STALE


def test_leaf_counting_name_exists():
    # the tracer counts a forest's leaves through the package-level name
    assert callable(leafbridge.collect_leaves)
    assert load_spans().Tracer()._collect_leaves is leafbridge.collect_leaves
