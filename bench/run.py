"""Closed-loop benchmark of leafbridge: fit, predict and experiment workloads.

Run from the repository root:

    python3 bench/run.py --workload overlap --seed 1 --seconds 27 --trace 0

One process is one caller that waits for each call before the next. It pins
the BLAS and OpenMP thread pools to one thread before numpy loads (set-up's
fresh interpreters inherit that), generates
every input from `--seed` (see workloads.py), then repeats a cycle until
`--seconds` have passed:

1. `leafbridge.transfer.run_transfer` on the workload's fit pair;
2. `TransferModel.predict_many` on the held-out test part, PREDICT_CALLS times;
3. `leafbridge.experiment.run_experiment` over the workload's CSV pair.

After each cycle the outputs are checked: predictions are valid class
indices and repeat bit for bit within and across cycles; the experiment
report repeats byte for byte and every experiment cell succeeds. After the
first cycle the model is saved, loaded and must predict the same classes.
Every operation, experiment cell and check counts as attempted; failures
count as failed.

`setup_s` is the median of SETUP_REPEATS set-ups, each the time of
`import leafbridge` in a fresh interpreter plus input generation and CSV
writing. Every timing is a median wall time scaled to a reference host pace
(see Stopwatch), so that changes of the host's own speed between runs cancel
out; the timing lines print the wall-time medians too. Per-layer self times
are scaled the same way.

With `--trace 0` the last line holds the end-to-end metrics, each a median
over the cycles of the run. With `--trace 1` cycles alternate between traced
(spans.py wrappers installed) and untraced, and the last line holds the
per-layer metrics of the traced cycles: self times in seconds, work counts of
one cycle, and `trace.overhead`, the traced over the untraced cycle time
minus one. Spans are written to .bench_work/trace-<workload>-seed<seed>.json.
The metric names and units are those of BENCHMARK.json at the root.

`--smoke` shrinks every input to a seconds-long size for the tests.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One thread each, before numpy loads: with the default pools, small matrix
# products and eigvalsh calls mostly measure thread wake-ups.
for _name in PINNED_THREADS:
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
#: Imports leafbridge in a fresh interpreter; argv[1] is the source dir.
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import leafbridge"
PREDICT_CALLS = 3
#: Iterations of the pace loop, a fixed pure-Python computation.
PACE_LOOP = 100_000
#: Pace-loop seconds on the reference host, about what the loop takes on a
#: 2.1 GHz Xeon vCPU running at full speed; every timing is scaled to it.
REFERENCE_PACE_S = 0.006
#: Self-time metrics named after the whole operation rather than the span.
SELF_METRIC = {
    "transfer.run_transfer": "transfer.run_transfer_self_s",
    "experiment.run": "experiment.run_self_s",
}

clock = time.perf_counter


class Tally:
    """Attempted and failed operations and checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int = 0):
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, what: str):
        self.add(1, 0 if ok else 1)
        if not ok:
            print(f"check failed: {what}", file=sys.stderr)


def pace() -> float:
    """Seconds the pace loop takes now, which tracks the host's current speed."""
    t = clock()
    total = 0
    for i in range(PACE_LOOP):
        total += i * i
    return clock() - t


class Stopwatch:
    """Wall times of operations, and the host pace around them.

    A shared virtual machine (2 vCPUs of a 2.1 GHz Xeon) was measured
    changing speed by tens of percent from one half minute to the next.
    Every operation is bracketed by pace loops, and `scale()` is
    REFERENCE_PACE_S over the run's median pace: multiplied by it, a median
    wall time becomes seconds on a host running at the reference pace. The
    library's own speed moves the wall times only, the host's speed both.
    """

    def __init__(self):
        self.raw = collections.defaultdict(list)
        self.paces: list[float] = []

    def time(self, name, fn, *args):
        self.paces.append(pace())
        t = clock()
        result = fn(*args)
        self.raw[name].append(clock() - t)
        self.paces.append(pace())
        return result

    def scale(self) -> float:
        return REFERENCE_PACE_S / statistics.median(self.paces)

    def median(self, name: str) -> float:
        """Median wall time of an operation, in reference-pace seconds."""
        return statistics.median(self.raw[name]) * self.scale()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def timing_line(name: str, watch: Stopwatch) -> str:
    """Median plus the highest percentile that has ten samples beyond it."""
    samples = watch.raw[name]
    n = len(samples)
    line = (f"timing {name}: n={n} median={watch.median(name):.6g} s at reference pace, "
            f"{statistics.median(samples):.6g} s wall")
    if n >= 20:
        p = int(100 * (1 - 10 / n))
        value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
        line += f", p{p}={value * watch.scale():.6g} s at reference pace"
    else:
        line += "; fewer than 20 samples, so no percentile has ten beyond it"
    return line


def environment() -> dict:
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "threads": {name: os.environ.get(name) for name in PINNED_THREADS},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }


def run_cycle(lb, inputs, watch, tally):
    """One fit, PREDICT_CALLS predictions and one experiment, timed.

    Module attributes are looked up per call, so traced cycles see the
    wrapped functions.
    """
    tally.add(1)
    model = watch.time("fit", lb.transfer.run_transfer,
                       inputs.source, inputs.target, inputs.config)
    predictions = []
    for _ in range(PREDICT_CALLS):
        tally.add(1)
        predictions.append(watch.time("predict", model.predict_many, inputs.test))
    report = watch.time("experiment", lb.experiment.run_experiment, inputs.spec, inputs.config)
    return model, predictions, report


def check_cycle(inputs, predictions, report_text, ref, tally):
    """Output checks of one cycle; fills `ref` with the first cycle's digests."""
    test = inputs.test
    first = predictions[0]
    tally.check(
        first.shape == (test.n,) and np.issubdtype(first.dtype, np.integer)
        and bool(((first >= 0) & (first < len(test.class_names))).all()),
        "every prediction is a valid class index",
    )
    tally.check(all(np.array_equal(first, p) for p in predictions[1:]),
                "repeated predict_many calls agree")

    digests = {
        "predictions": sha256(np.ascontiguousarray(first, dtype=np.int64).tobytes()),
        "report": sha256(report_text.encode()),
    }
    for key, value in digests.items():
        tally.check(ref.setdefault(key, value) == value, f"{key} repeat across cycles")
    ref.setdefault("accuracy", float(np.mean(first == test.labels)))


def check_saved_model(model, inputs, predictions, workdir, tally, ref):
    """save -> load -> predict_many must reproduce the in-memory predictions."""
    path = os.path.join(workdir, "model.json")
    model.save(path)
    with open(path, "rb") as fh:
        data = fh.read()
    ref["model"] = sha256(data)
    ref["model_bytes"] = len(data)
    loaded = type(model).load(path)
    tally.check(np.array_equal(loaded.predict_many(inputs.test), predictions),
                "loaded model predicts like the saved one")


def layer_metrics(tracer, run_id: int) -> dict:
    return {SELF_METRIC.get(span, span + "_s"): seconds
            for span, seconds in tracer.self_times(run_id).items()}


def derived_counts(counts: dict) -> dict:
    out = dict(counts)
    jsd_pairs = counts.get("pivot.jsd_pairs", 0)
    out["pivot.match_yield"] = counts.get("pivot.pivots", 0) / jsd_pairs if jsd_pairs else 0.0
    leaves = counts.get("pivot.leaves_src", 0) + counts.get("pivot.leaves_tgt", 0)
    rows = counts.get("pivot.rows_src", 0) + counts.get("pivot.rows_tgt", 0)
    out["pivot.dedup_ratio"] = rows / leaves if leaves else 0.0
    return out


def set_up(make_inputs, workload, args, inputs_dir):
    """Import leafbridge in a fresh interpreter, then generate the inputs."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], check=True, timeout=120)
    os.makedirs(inputs_dir)
    return make_inputs(workload, args.seed, inputs_dir, smoke=args.smoke)


def run(args, bench_spec, workdir) -> int:
    import leafbridge as lb
    import leafbridge.experiment  # noqa: F401  (module attributes are looked up per call)
    import leafbridge.transfer  # noqa: F401
    from spans import Tracer, report_cells
    from workloads import WORKLOADS, make_inputs

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload]

    watch = Stopwatch()
    for k in range(SETUP_REPEATS):
        inputs_dir = os.path.join(workdir, f"setup{k}")
        inputs = watch.time("setup", set_up, make_inputs, workload, args, inputs_dir)
    print(timing_line("setup", watch))

    tracer = Tracer() if args.trace else None
    tally = Tally()
    cycle_times = {True: [], False: []}  # wall seconds, by traced
    layer_values = []
    ref: dict = {}
    traced_counts = None
    min_cycles = 2 if tracer else 1
    deadline = clock() + args.seconds
    cycle = 0
    while cycle < min_cycles or clock() < deadline:
        traced = tracer is not None and cycle % 2 == 0
        if traced:
            tracer.run_id = cycle
            tracer.install()
        start = clock()
        try:
            model, predictions, report = run_cycle(lb, inputs, watch, tally)
        except Exception:  # a raising library call fails the cycle, the run goes on
            tally.add(1, 1)
            traceback.print_exc()
            cycle += 1
            continue
        finally:
            if traced:
                tracer.uninstall()
        cycle_times[traced].append(clock() - start)
        if traced:
            layer_values.append(layer_metrics(tracer, cycle))
        report_dict = report.to_dict()
        cells, failed_cells = report_cells(report_dict)
        tally.add(cells, failed_cells)
        if failed_cells:
            print(f"check failed: {failed_cells} of {cells} experiment cells failed",
                  file=sys.stderr)
        # the CSV paths in the report hold the process id; digest without them
        check_cycle(inputs, predictions,
                    json.dumps(report_dict, sort_keys=True).replace(inputs_dir + os.sep, ""),
                    ref, tally)
        if "model" not in ref:
            check_saved_model(model, inputs, predictions[0], workdir, tally, ref)
        if traced:
            counts = dict(tracer.counts[cycle])
            if traced_counts is None:
                traced_counts = counts
            tally.check(counts == traced_counts, "traced work counts repeat across cycles")
        cycle += 1

    if "model" not in ref:
        print("error: no cycle completed", file=sys.stderr)
        return 1
    print("digests " + json.dumps(
        {k: ref[k] for k in ("predictions", "model", "report")}, sort_keys=True))

    if tracer is None:
        for name in ("fit", "predict", "experiment"):
            print(timing_line(name, watch))
        values = {
            "setup_s": watch.median("setup"),
            "fit_s": watch.median("fit"),
            "predict_rps": inputs.test.n / watch.median("predict"),
            "experiment_s": watch.median("experiment"),
            "accuracy": ref["accuracy"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "model_bytes": ref["model_bytes"],
        }
        wanted = bench_spec["end_to_end"]
    else:
        names = set().union(*layer_values)
        values = {name: statistics.median(m.get(name, 0.0) for m in layer_values) * watch.scale()
                  for name in names}
        values.update(derived_counts(traced_counts or {}))
        if cycle_times[True] and cycle_times[False]:
            values["trace.overhead"] = (statistics.median(cycle_times[True])
                                        / statistics.median(cycle_times[False]) - 1.0)
        print("counts " + json.dumps(traced_counts, sort_keys=True))
        if tracer.missing:
            print("untraced (not in this library version): " + ", ".join(tracer.missing))
        tracer.write(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json"),
                     {"workload": args.workload, "seed": args.seed, "environment": env})
        wanted = bench_spec["per_layer"]

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long input sizes")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "leafbridge", "__init__.py")):
        print(f"error: no leafbridge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import leafbridge

    if os.path.dirname(os.path.dirname(os.path.abspath(leafbridge.__file__))) != SRC:
        print(f"error: leafbridge was imported from {leafbridge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench_spec = json.load(fh)
    if args.workload not in {w["name"] for w in bench_spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, bench_spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
