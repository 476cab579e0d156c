"""Command line interface.

Subcommands:
  run             run an experiment spec file, write JSON + CSV reports
  transfer        train one source->target model and serialize it
  inject-missing  randomly blank cells in a CSV file
  stats           print sign/Nemenyi summaries for an existing report

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Set LEAFBRIDGE_LOG (debug|info|warning|error) to control verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace

from .dataset import _require_distinct, inject_missing, load_csv, write_csv
from .errors import DataError, LeafBridgeError, NumericalError
from .experiment import nemenyi, parse_config, parse_transfer_config, run_experiment, sign_tests
from .forest import read_key
from .metrics import SIGN_TEST_Z_REF
from .transfer import TransferConfig, run_transfer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _setup_logging():
    level = os.environ.get("LEAFBRIDGE_LOG", "warning").upper()
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("leafbridge").setLevel(getattr(logging, level, logging.WARNING))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="leafbridge",
                     description="heterogeneous transfer learning with forest leaf pivots")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec file")
    p_run.add_argument("--spec", required=True, help="experiment config file (key = value)")
    p_run.add_argument("--output", help="report base path (overrides the spec's output)")

    p_tr = sub.add_parser("transfer", help="train a single source->target model")
    p_tr.add_argument("--source", required=True)
    p_tr.add_argument("--target", required=True)
    p_tr.add_argument("--label-column", default="label")
    p_tr.add_argument("--config", help="optional config file for pipeline parameters")
    p_tr.add_argument("--seed", type=int, help="override the config seed")
    p_tr.add_argument("--output", required=True, help="path for the serialized model (JSON)")

    p_inj = sub.add_parser("inject-missing", help="randomly blank cells in a CSV file")
    p_inj.add_argument("--input", required=True)
    p_inj.add_argument("--output", required=True)
    p_inj.add_argument("--label-column", default="label")
    p_inj.add_argument("--ratio", type=float, required=True,
                       help="fraction of records that receive missing cells (0..0.5)")
    p_inj.add_argument("--seed", type=int, default=0)

    p_st = sub.add_parser("stats", help="sign/Nemenyi summary for a report JSON")
    p_st.add_argument("--report", required=True)
    return parser


def _cmd_run(args) -> int:
    spec, cfg = parse_config(args.spec)
    report = run_experiment(spec, cfg)
    json_path, csv_path = report.write(args.output or spec.output)
    print(f"report written to {json_path} and {csv_path}")
    for method, agg in report.aggregates.items():
        acc = agg["mean_accuracy"]
        shown = "n/a" if acc is None else f"{acc:.6f}"
        print(f"  {method}: mean accuracy {shown} over {agg['pairs']} pairs")
    if report.all_failed:
        # a pair fails when its data cannot be loaded, split, injected or
        # repaired, when one of its cells meets an OSError, or when the
        # cells' fork_map fails; a method's own error fails only that method
        print("every pair failed", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _cmd_transfer(args) -> int:
    cfg = parse_transfer_config(args.config) if args.config else TransferConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    source = load_csv(args.source, args.label_column, domain_tag="source")
    target = load_csv(args.target, args.label_column, domain_tag="target")
    model = run_transfer(source, target, cfg)
    model.save(args.output)
    diag = model.diagnostics
    print(f"model written to {args.output}")
    print(f"  pivots: {diag['n_pivots']}, mu: {diag['mu']}, fallback: {model.fallback}")
    return EXIT_OK


def _cmd_inject(args) -> int:
    ds = load_csv(args.input, args.label_column)
    out = inject_missing(ds, args.ratio, args.seed)
    write_csv(out, args.output, label_column=args.label_column)
    n_records = int(out.missing_mask().any(axis=1).sum())
    print(f"{args.output}: {n_records} records now contain missing cells")
    return EXIT_OK


def _cmd_stats(args) -> int:
    with open(args.report, encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except ValueError as exc:  # not UTF-8, not JSON, or an int of over 4300 digits
            raise DataError(f"{args.report} is not UTF-8 JSON text: {exc}") from None
    doc = "leafbridge-report"
    if not isinstance(report, dict) or report.get("format") != doc:
        raise DataError(f"{args.report} is not a leafbridge report")
    methods = read_key(read_key(report, "spec", dict, doc), "methods", list, f"{doc} spec",
                       items=str)
    _require_distinct(methods, DataError, f"{doc} spec key 'methods' lists")
    pairs = read_key(report, "pairs", list, doc, items=dict)
    for i, pair in enumerate(pairs):
        if not isinstance(pair.get("group", ""), str):
            raise DataError(f"{doc} pairs[{i}] (pair {pair.get('pair')!r}) key 'group' holds "
                            f"{pair['group']!r}, not a string")
        if "methods" not in pair:
            continue
        cells = read_key(pair, "methods", dict, f"{doc} pair")
        if not all(isinstance(cell, dict) for cell in cells.values()):
            raise DataError(f"{doc} pair document key 'methods' holds a method cell "
                            f"that is not an object")
        for method, cell in cells.items():
            accuracy = cell.get("accuracy", 0.0)
            if isinstance(accuracy, bool) or not isinstance(accuracy, (int, float)):
                fault = "not a number"
            elif isinstance(accuracy, float) and not math.isfinite(accuracy):
                fault = "not a finite number"  # JSON NaN, Infinity or -Infinity
            elif abs(accuracy) > sys.float_info.max:  # an int beyond the float range
                fault = "too large for a float"
            elif not 0 <= accuracy <= 1:  # also keeps the means of a group finite
                fault = "outside [0, 1]"
            else:
                continue
            raise DataError(f"{doc} pairs[{i}] (pair {pair.get('pair')!r}) method "
                            f"{method!r} key 'accuracy' holds {accuracy!r}, {fault}")
    tests = sign_tests(methods, pairs)
    if tests:
        print(f"sign test (right-tailed, z ref {SIGN_TEST_Z_REF}):")
    for level, block in tests.items():
        for name, entry in block.items():
            versus = name.replace("_vs_", " vs ", 1)
            if "z" not in entry:
                print(f"  [{level}] {versus}: no comparable cells")
                continue
            verdict = "significant" if entry["significant"] else "not significant"
            print(f"  [{level}] {versus}: wins={entry['wins']} losses={entry['losses']} "
                  f"z={entry['z']:.3f} ({verdict})")
    ranking = nemenyi(methods, pairs)
    if ranking is not None:
        print(f"Nemenyi critical difference: {ranking['critical_difference']:.4f} "
              f"over {ranking['datasets']} pairs")
        for method, rank in zip(methods, ranking["mean_ranks"]):
            print(f"  {method}: mean rank {rank:.3f}")
    return EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    commands = {"run": _cmd_run, "transfer": _cmd_transfer,
                "inject-missing": _cmd_inject, "stats": _cmd_stats}
    try:
        # the subparsers are required, so argparse rejects any other command
        args = _build_parser().parse_args(argv)
        return commands[args.command](args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LeafBridgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
