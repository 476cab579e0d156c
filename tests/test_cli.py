import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafbridge import experiment
from leafbridge.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from leafbridge.dataset import load_csv, write_csv
from leafbridge.synthetic import rotated_pair
from leafbridge.transfer import TransferModel


@pytest.fixture(scope="module")
def pair_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_pairs")
    src, tgt = rotated_pair(n_source=150, n_target=160, center_spread=2.0,
                            cluster_std=2.0, seed=0)
    src_path, tgt_path = root / "src.csv", root / "tgt.csv"
    write_csv(src, src_path)
    write_csv(tgt, tgt_path)
    return str(src_path), str(tgt_path)


# a CSV whose label "café" is latin-1, not UTF-8
LATIN1_CSV = "x,label\n1.0,caf\xe9\n2.0,b\n".encode("latin-1")


def spec_file(tmp_path, pair_files, output):
    path = tmp_path / "spec.ini"
    path.write_text(
        "[experiment]\n"
        f"pairs = {pair_files[0]} :: {pair_files[1]}\n"
        "split_fraction = 0.2\n"
        "methods = tlf, target_only\n"
        f"output = {output}\n"
        "[forest]\n"
        "min_leaf_small = 5\n",
        encoding="utf-8",
    )
    return path


class TestRun:
    def test_run_writes_reports(self, tmp_path, pair_files, capsys):
        spec = spec_file(tmp_path, pair_files, tmp_path / "report")
        assert main(["run", "--spec", str(spec)]) == EXIT_OK
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.csv").exists()
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["format"] == "leafbridge-report"

    def test_inject_ratio_outside_half_fails_before_loading(self, tmp_path, pair_files,
                                                            monkeypatch, capsys):
        loaded = []
        monkeypatch.setattr(experiment, "load_csv", lambda *a, **k: loaded.append(a))
        spec = spec_file(tmp_path, pair_files, tmp_path / "report")
        spec.write_text(spec.read_text(encoding="utf-8")
                        .replace("[forest]", "missing_mode = impute\ninject_ratios = 0.7\n"
                                             "[forest]"), encoding="utf-8")
        assert main(["run", "--spec", str(spec)]) == EXIT_DATA
        assert "inject_ratios [0.7] must be in [0, 0.5]" in capsys.readouterr().err
        assert loaded == []
        assert not (tmp_path / "report.json").exists()

    def test_all_pairs_failed_exit_code(self, tmp_path, capsys):
        spec = tmp_path / "bad.ini"
        spec.write_text(
            "[experiment]\npairs = missing_a.csv :: missing_b.csv\n"
            f"output = {tmp_path / 'rep'}\n",
            encoding="utf-8",
        )
        assert main(["run", "--spec", str(spec)]) == EXIT_DATA

    def test_removed_mmd_cross_term_key_stops_at_config_parse(self, tmp_path, pair_files,
                                                               monkeypatch, capsys):
        spec = spec_file(tmp_path, pair_files, tmp_path / "report")
        spec.write_text(spec.read_text() + "[adapt]\nmmd_cross_term = product\n",
                        encoding="utf-8")

        def no_pairs(*args):
            raise AssertionError("run_experiment must not start")

        monkeypatch.setattr("leafbridge.cli.run_experiment", no_pairs)
        assert main(["run", "--spec", str(spec)]) == EXIT_DATA
        assert "unknown key [adapt] mmd_cross_term" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_duplicate_method_stops_at_config_parse(self, tmp_path, pair_files,
                                                    monkeypatch, capsys):
        spec = spec_file(tmp_path, pair_files, tmp_path / "report")
        spec.write_text(spec.read_text().replace("methods = tlf, target_only",
                                                 "methods = tlf, tlf"),
                        encoding="utf-8")

        def no_pairs(*args):
            raise AssertionError("run_experiment must not start")

        monkeypatch.setattr("leafbridge.cli.run_experiment", no_pairs)
        assert main(["run", "--spec", str(spec)]) == EXIT_DATA
        assert "['tlf'] listed more than once" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_negative_seed_stops_before_any_csv(self, tmp_path, pair_files, monkeypatch,
                                                capsys):
        spec = spec_file(tmp_path, pair_files, tmp_path / "report")
        spec.write_text(spec.read_text().replace("[forest]", "seed = -2\n[forest]"),
                        encoding="utf-8")

        def no_csv(*args, **kwargs):
            raise AssertionError("no CSV may load")

        monkeypatch.setattr("leafbridge.experiment.load_csv", no_csv)
        monkeypatch.setattr("leafbridge.cli.load_csv", no_csv)
        assert main(["run", "--spec", str(spec)]) == EXIT_DATA
        assert "seed must be >= 0, got -2" in capsys.readouterr().err
        model = tmp_path / "model.json"
        assert main(["transfer", "--source", pair_files[0], "--target", pair_files[1],
                     "--seed", "-3", "--output", str(model)]) == EXIT_DATA
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert not model.exists() and not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("setting", ["mmd = nan", "mmd = 1e400", "manifold = -inf"])
    def test_non_finite_setting_stops_before_any_csv(self, tmp_path, pair_files, monkeypatch,
                                                     capsys, setting):
        spec = spec_file(tmp_path, pair_files, tmp_path / "report")
        spec.write_text(spec.read_text() + f"[adapt]\n{setting}\n", encoding="utf-8")

        def no_csv(*args, **kwargs):
            raise AssertionError("no CSV may load")

        monkeypatch.setattr("leafbridge.experiment.load_csv", no_csv)
        monkeypatch.setattr("leafbridge.cli.load_csv", no_csv)
        assert main(["run", "--spec", str(spec)]) == EXIT_DATA
        field = setting.split()[0]
        assert f"TransferConfig field '{field}'" in capsys.readouterr().err
        model = tmp_path / "model.json"
        assert main(["transfer", "--source", pair_files[0], "--target", pair_files[1],
                     "--config", str(spec), "--output", str(model)]) == EXIT_DATA
        assert f"TransferConfig field '{field}'" in capsys.readouterr().err
        assert not model.exists() and not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("content, named", [
        (b"[experiment]\npairs = a.csv :: b.csv\n[forest]\ntrees = ten\n", "[forest] trees"),
        (b"pairs = a.csv :: b.csv\n", "bad.ini"),
        (b"[experiment]\npairs = caf\xe9.csv :: b.csv\n", "bad.ini"),
        (b"[experiment]\npairs = a.csv :: b.csv\n[forest]\ntress = 3\n", "[forest] tress"),
        (b"[experiment]\npairs = a.csv :: b.csv\n[forrest]\ntrees = 3\n", "[forrest] trees"),
        (b"[DEFAULT]\ntress = 3\n[experiment]\npairs = a.csv :: b.csv\n", "[DEFAULT] tress"),
        (b"[experiment]\npairs = a.csv :: b.csv\ntrees = 3\n", "[experiment] trees"),
        (b"[experiment]\npairs = a.csv :: b.csv\n[adapt]\nridge = 0.001\n",
         "key [adapt] ridge was removed"),
        (b"[experiment]\npairs = a.csv :: b.csv\n[adapt]\nalpha_mode = inverse\n",
         "key [adapt] alpha_mode was removed"),
        (b"[DEFAULT]\nalpha_mode = literal\n[experiment]\npairs = a.csv :: b.csv\n",
         "key [DEFAULT] alpha_mode was removed"),
    ], ids=["ill-typed value", "no section header", "not utf-8", "unknown key",
            "unknown section", "unknown default key", "key of another section",
            "removed ridge key", "removed alpha_mode key", "removed default key"])
    def test_bad_config_file_is_data_error(self, tmp_path, pair_files, content, named,
                                           capsys):
        path = tmp_path / "bad.ini"
        path.write_bytes(content)
        assert main(["run", "--spec", str(path)]) == EXIT_DATA
        assert named in capsys.readouterr().err
        model = tmp_path / "model.json"
        assert main(["transfer", "--source", pair_files[0], "--target", pair_files[1],
                     "--config", str(path), "--output", str(model)]) == EXIT_DATA
        assert named in capsys.readouterr().err
        assert not model.exists()

    def test_non_utf8_pair_is_recorded(self, tmp_path, pair_files, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(LATIN1_CSV)
        spec = spec_file(tmp_path, pair_files, tmp_path / "report")
        spec.write_text(spec.read_text().replace(
            "pairs = ", f"pairs =\n    {bad} :: {pair_files[1]}\n    "), encoding="utf-8")
        assert main(["run", "--spec", str(spec)]) == EXIT_OK
        failed, scored = json.loads((tmp_path / "report.json").read_text())["pairs"]
        assert failed["error"].startswith(f"ParseError: {bad}: not UTF-8 text")
        assert "methods" in scored and "error" not in scored


class TestTransfer:
    def test_transfer_writes_model(self, tmp_path, pair_files, capsys):
        out = tmp_path / "model.json"
        code = main([
            "transfer", "--source", pair_files[0], "--target", pair_files[1],
            "--output", str(out), "--seed", "1",
        ])
        assert code == EXIT_OK
        model = TransferModel.load(out)
        assert model.config.seed == 1

    def test_config_without_pairs(self, tmp_path, pair_files, capsys):
        config = tmp_path / "pipeline.ini"
        config.write_text("[experiment]\nseed = 4\n[forest]\ntrees = 3\n", encoding="utf-8")
        out = tmp_path / "model.json"
        assert main(["transfer", "--source", pair_files[0], "--target", pair_files[1],
                     "--config", str(config), "--output", str(out)]) == EXIT_OK
        cfg = TransferModel.load(out).config
        assert (cfg.seed, cfg.n_trees) == (4, 3)
        # a key of the experiment is still read and checked
        config.write_text("[experiment]\nrepeats = two\n", encoding="utf-8")
        assert main(["transfer", "--source", pair_files[0], "--target", pair_files[1],
                     "--config", str(config), "--output", str(out)]) == EXIT_DATA
        assert "[experiment] repeats" in capsys.readouterr().err

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = main([
            "transfer", "--source", "none.csv", "--target", "none.csv",
            "--output", str(tmp_path / "m.json"),
        ])
        assert code == EXIT_DATA

    def test_non_utf8_input_is_data_error(self, tmp_path, pair_files, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(LATIN1_CSV)
        code = main(["transfer", "--source", str(bad), "--target", pair_files[1],
                     "--output", str(tmp_path / "m.json")])
        assert code == EXIT_DATA
        assert "latin1.csv: not UTF-8 text" in capsys.readouterr().err


class TestInjectMissing:
    def test_inject(self, tmp_path, pair_files, capsys):
        out = tmp_path / "injected.csv"
        code = main([
            "inject-missing", "--input", pair_files[0], "--output", str(out),
            "--ratio", "0.3", "--seed", "2",
        ])
        assert code == EXIT_OK
        ds = load_csv(out, "label")
        touched = int(ds.missing_mask().any(axis=1).sum())
        assert touched == round(0.3 * ds.n)

    def test_bad_ratio(self, tmp_path, pair_files, capsys):
        code = main([
            "inject-missing", "--input", pair_files[0],
            "--output", str(tmp_path / "x.csv"), "--ratio", "0.9",
        ])
        assert code == EXIT_DATA

    def test_negative_seed(self, tmp_path, pair_files, capsys):
        out = tmp_path / "x.csv"
        code = main(["inject-missing", "--input", pair_files[0], "--output", str(out),
                     "--ratio", "0.3", "--seed", "-1"])
        assert code == EXIT_DATA
        assert "data error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


def report_pair(name, group, cells):
    """A report's pair entry; a string cell is that method's error."""
    methods = {m: {"accuracy": v, "runs": 1} if isinstance(v, float) else {"error": v}
               for m, v in cells.items()}
    return {"pair": name, "source": f"{name}_s.csv", "target": f"{name}_t.csv",
            "group": group, "methods": methods, "diagnostics": None}


def by_ratio_pair(name, group, tlf, target_only):
    return {"pair": name, "source": f"{name}_s.csv", "target": f"{name}_t.csv",
            "group": group, "by_ratio": [{"inject_ratio": 0.1, "methods": {
                "tlf": {"accuracy": tlf}, "target_only": {"accuracy": target_only}}}]}


SCHEMA_ERROR = "SchemaError: columns differ"

# report methods and pairs -> the exact `stats` output
STATS_GOLDEN = {
    "tlf_two_methods_groups": (["tlf", "target_only"], [
        report_pair("p1", "g1", {"tlf": 0.9125, "target_only": 0.8}),
        report_pair("p2", "g1", {"tlf": 0.71, "target_only": 0.7}),
        report_pair("p3", "g1", {"tlf": 0.6, "target_only": 0.6}),
        report_pair("p4", "g2", {"tlf": 0.85, "target_only": 0.8333333333333334}),
        report_pair("p5", "g2", {"tlf": 0.95, "target_only": 0.7}),
        report_pair("p6", "", {"tlf": 0.81, "target_only": 0.8}),
        report_pair("p7", "", {"tlf": 0.64, "target_only": 0.62}),
        report_pair("p8", "", {"tlf": 0.77, "target_only": 0.7}),
    ], "sign test (right-tailed, z ref 1.96):\n"
       "  [pair] tlf vs target_only: wins=7 losses=0 z=2.268 (significant)\n"
       "  [group] tlf vs target_only: wins=5 losses=0 z=1.789 (not significant)\n"
       "Nemenyi critical difference: 0.6930 over 8 pairs\n"
       "  tlf: mean rank 1.062\n"
       "  target_only: mean rank 1.938\n"),
    "no_tlf": (["source_only", "target_only"], [
        report_pair("p1", "", {"source_only": 0.5, "target_only": 0.8}),
        report_pair("p2", "g", {"source_only": 0.9, "target_only": 0.7}),
        report_pair("p3", "g", {"source_only": 0.4, "target_only": 0.65}),
    ], "Nemenyi critical difference: 1.1316 over 3 pairs\n"
       "  source_only: mean rank 1.667\n"
       "  target_only: mean rank 1.333\n"),
    "one_failed_pair": (["tlf", "source_only", "target_only"], [
        report_pair("p1", "", {"tlf": 0.9, "source_only": 0.8, "target_only": 0.85}),
        {"pair": "p2", "source": "p2_s.csv", "target": "p2_t.csv", "group": "",
         "error": "ParseError: p2_s.csv: line 3 has 2 cells, header has 3"},
        report_pair("p3", "", {"tlf": 0.7, "source_only": 0.7, "target_only": 0.75}),
        report_pair("p4", "", {"tlf": 0.66, "source_only": 0.6, "target_only": 0.66}),
    ], "sign test (right-tailed, z ref 1.96):\n"
       "  [pair] tlf vs source_only: wins=2 losses=0 z=0.707 (not significant)\n"
       "  [pair] tlf vs target_only: wins=1 losses=1 z=-0.707 (not significant)\n"
       "  [group] tlf vs source_only: wins=2 losses=0 z=0.707 (not significant)\n"
       "  [group] tlf vs target_only: wins=1 losses=1 z=-0.707 (not significant)\n"
       "Nemenyi critical difference: 1.9131 over 3 pairs\n"
       "  tlf: mean rank 1.667\n"
       "  source_only: mean rank 2.833\n"
       "  target_only: mean rank 1.500\n"),
    "by_ratio": (["tlf", "target_only"], [
        by_ratio_pair("p1", "", 0.8, 0.7),
        by_ratio_pair("p2", "g", 0.6, 0.65),
    ], "sign test (right-tailed, z ref 1.96):\n"
       "  [pair] tlf vs target_only: no comparable cells\n"
       "  [group] tlf vs target_only: no comparable cells\n"),
    "no_comparable_method": (["tlf", "source_only", "target_only"], [
        report_pair("p1", "", {"tlf": 0.8, "source_only": SCHEMA_ERROR, "target_only": 0.7}),
        report_pair("p2", "g", {"tlf": 0.75, "source_only": SCHEMA_ERROR, "target_only": 0.75}),
        report_pair("p3", "g", {"tlf": 0.55, "source_only": SCHEMA_ERROR, "target_only": 0.6}),
    ], "sign test (right-tailed, z ref 1.96):\n"
       "  [pair] tlf vs source_only: no comparable cells\n"
       "  [pair] tlf vs target_only: wins=1 losses=1 z=-0.707 (not significant)\n"
       "  [group] tlf vs source_only: no comparable cells\n"
       "  [group] tlf vs target_only: wins=1 losses=1 z=-0.707 (not significant)\n"),
}


def stats_output(tmp_path, capsys, methods, pairs):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"format": "leafbridge-report", "version": 1,
                                "spec": {"methods": methods}, "pairs": pairs}),
                    encoding="utf-8")
    capsys.readouterr()
    assert main(["stats", "--report", str(path)]) == EXIT_OK
    return capsys.readouterr().out


class TestStats:
    @pytest.mark.parametrize("name", sorted(STATS_GOLDEN))
    def test_output_unchanged(self, tmp_path, capsys, name):
        methods, pairs, expected = STATS_GOLDEN[name]
        assert stats_output(tmp_path, capsys, methods, pairs) == expected

    def test_pairs_sharing_a_name_stay_apart(self, tmp_path, capsys):
        pairs = [report_pair("train->test", "", {"tlf": acc, "target_only": 0.9})
                 for acc in (0.5, 0.6)]
        out = stats_output(tmp_path, capsys, ["tlf", "target_only"], pairs)
        assert "[pair] tlf vs target_only: wins=0 losses=2" in out
        assert "[group] tlf vs target_only: wins=0 losses=2" in out

    def test_stats_on_report(self, tmp_path, pair_files, capsys):
        spec = spec_file(tmp_path, pair_files, tmp_path / "report")
        assert main(["run", "--spec", str(spec)]) == EXIT_OK
        capsys.readouterr()
        assert main(["stats", "--report", str(tmp_path / "report.json")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "sign test" in out

    def test_stats_rejects_other_json(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        for text in ("{}", "[]"):
            path.write_text(text, encoding="utf-8")
            assert main(["stats", "--report", str(path)]) == EXIT_DATA

    def test_report_with_byte_order_mark_read(self, tmp_path, pair_files, capsys):
        spec = spec_file(tmp_path, pair_files, tmp_path / "report")
        assert main(["run", "--spec", str(spec)]) == EXIT_OK
        capsys.readouterr()
        report = tmp_path / "report.json"
        assert main(["stats", "--report", str(report)]) == EXIT_OK
        plain = capsys.readouterr().out
        marked = tmp_path / "marked.json"
        marked.write_text(report.read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert main(["stats", "--report", str(marked)]) == EXIT_OK
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("body, named", [
        ({"pairs": []}, "lacks key 'spec'"),
        ({"spec": ["tlf"], "pairs": []}, "key 'spec' holds a value of the wrong type"),
        ({"spec": {}, "pairs": []}, "lacks key 'methods'"),
        ({"spec": {"methods": "tlf"}, "pairs": []},
         "key 'methods' holds a value of the wrong type"),
        ({"spec": {"methods": ["tlf"]}}, "lacks key 'pairs'"),
        ({"spec": {"methods": ["tlf"]}, "pairs": [1]},
         "key 'pairs' holds a value of the wrong type"),
        ({"spec": {"methods": ["tlf"]}, "pairs": [{"methods": []}]},
         "pair document key 'methods' holds a value of the wrong type"),
        ({"spec": {"methods": ["tlf"]}, "pairs": [{"methods": {"tlf": 0.5}}]},
         "pair document key 'methods' holds a method cell that is not an object"),
    ], ids=["no spec", "spec not an object", "no methods", "methods not a list", "no pairs",
            "pairs not objects", "pair methods not an object", "method cell not an object"])
    def test_missing_or_ill_typed_key_is_data_error(self, tmp_path, capsys, body, named):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"format": "leafbridge-report", **body}), encoding="utf-8")
        assert main(["stats", "--report", str(path)]) == EXIT_DATA
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("accuracy", ["x", "0.9", True, False, None, [0.9], {"v": 0.9}],
                             ids=["text", "numeral text", "true", "false", "null", "list",
                                  "object"])
    def test_accuracy_that_is_not_a_number_is_data_error(self, tmp_path, capsys, accuracy):
        pairs = [report_pair("p1", "", {"tlf": 0.9, "target_only": 0.8}),
                 report_pair("p2", "", {"tlf": 0.7, "target_only": 0.8})]
        pairs[1]["methods"]["tlf"]["accuracy"] = accuracy
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"format": "leafbridge-report",
                                    "spec": {"methods": ["tlf", "target_only"]},
                                    "pairs": pairs}), encoding="utf-8")
        assert main(["stats", "--report", str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert (f"pairs[1] (pair 'p2') method 'tlf' key 'accuracy' holds {accuracy!r}, "
                f"not a number") in err

    @pytest.mark.parametrize("accuracy", [math.nan, math.inf, -math.inf],
                             ids=["NaN", "Infinity", "-Infinity"])
    def test_accuracy_that_is_not_finite_is_data_error(self, tmp_path, capsys, accuracy):
        pairs = [report_pair("p1", "", {"tlf": 0.9, "target_only": 0.8}),
                 report_pair("p2", "", {"tlf": 0.7, "target_only": 0.8}),
                 report_pair("p3", "", {"tlf": 0.6, "target_only": 0.5})]
        pairs[2]["methods"]["target_only"]["accuracy"] = accuracy
        path = tmp_path / "report.json"
        # json writes these floats as the tokens NaN, Infinity and -Infinity
        path.write_text(json.dumps({"format": "leafbridge-report",
                                    "spec": {"methods": ["tlf", "target_only"]},
                                    "pairs": pairs}), encoding="utf-8")
        assert main(["stats", "--report", str(path)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"pairs[2] (pair 'p3') method 'target_only' key 'accuracy' holds "
                f"{accuracy!r}, not a finite number") in captured.err

    @pytest.mark.parametrize("accuracy", [1.5, -0.25, 1.7e308],
                             ids=["above one", "negative", "near the float maximum"])
    def test_accuracy_outside_the_unit_interval_is_data_error(self, tmp_path, capsys, accuracy):
        # two accuracies near the float maximum made a group's mean overflow
        pairs = [report_pair(f"p{i}", "g", {"tlf": accuracy, "target_only": 0.8})
                 for i in (1, 2)]
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"format": "leafbridge-report",
                                    "spec": {"methods": ["tlf", "target_only"]},
                                    "pairs": pairs}), encoding="utf-8")
        assert main(["stats", "--report", str(path)]) == EXIT_DATA
        assert (f"pairs[0] (pair 'p1') method 'tlf' key 'accuracy' holds {accuracy!r}, "
                f"outside [0, 1]") in capsys.readouterr().err

    def test_integer_accuracy_is_a_number(self, tmp_path, capsys):
        pairs = [report_pair("p1", "", {"tlf": 0.9, "target_only": 0.8}),
                 report_pair("p2", "", {"tlf": 0.7, "target_only": 0.8})]
        pairs[0]["methods"]["tlf"]["accuracy"] = 1
        out = stats_output(tmp_path, capsys, ["tlf", "target_only"], pairs)
        assert "[pair] tlf vs target_only: wins=1 losses=1" in out

    @pytest.mark.parametrize("integer", [10**400, -(10**400)], ids=["positive", "negative"])
    def test_integer_accuracy_beyond_the_float_range_is_data_error(self, tmp_path, capsys,
                                                                   integer):
        pairs = [report_pair("p1", "", {"tlf": 0.9, "target_only": 0.8}),
                 report_pair("p2", "", {"tlf": 0.7, "target_only": 0.8})]
        pairs[1]["methods"]["target_only"]["accuracy"] = integer
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"format": "leafbridge-report",
                                    "spec": {"methods": ["tlf", "target_only"]},
                                    "pairs": pairs}), encoding="utf-8")
        assert main(["stats", "--report", str(path)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"pairs[1] (pair 'p2') method 'target_only' key 'accuracy' holds "
                f"{integer!r}, too large for a float") in captured.err

    @pytest.mark.parametrize("group", [[1], {}, 5, True, None],
                             ids=["list", "object", "number", "true", "null"])
    def test_group_that_is_not_a_string_is_data_error(self, tmp_path, capsys, group):
        # a list or object group crashed the grouping, a number or bool was
        # grouped as if it were a name
        pairs = [report_pair("p1", "g", {"tlf": 0.9, "target_only": 0.8}),
                 report_pair("p2", group, {"tlf": 0.7, "target_only": 0.8})]
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"format": "leafbridge-report",
                                    "spec": {"methods": ["tlf", "target_only"]},
                                    "pairs": pairs}), encoding="utf-8")
        assert main(["stats", "--report", str(path)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"pairs[1] (pair 'p2') key 'group' holds {group!r}, not a string"
                in captured.err)

    def test_method_listed_twice_is_data_error(self, tmp_path, capsys):
        # two Nemenyi ranks for one method; ExperimentSpec rejects such a spec
        pairs = [report_pair(f"p{i}", "", {"tlf": 0.9, "target_only": 0.8}) for i in (1, 2)]
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"format": "leafbridge-report",
                                    "spec": {"methods": ["tlf", "target_only", "tlf"]},
                                    "pairs": pairs}), encoding="utf-8")
        assert main(["stats", "--report", str(path)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "spec key 'methods' lists 'tlf' more than once" in captured.err

    @pytest.mark.parametrize("data", [b'{"format": "leafbridge-report", ',
                                      b'{"format": "leafbridge-report\xff"}',
                                      b'{"format": "leafbridge-report", "n": ' + b"1" * 5000
                                      + b"}"],
                             ids=["truncated", "not utf-8", "integer of 5000 digits"])
    def test_text_that_is_not_json_is_data_error(self, tmp_path, capsys, data):
        path = tmp_path / "report.json"
        path.write_bytes(data)
        assert main(["stats", "--report", str(path)]) == EXIT_DATA
        assert f"{path} is not UTF-8 JSON text" in capsys.readouterr().err

    def test_report_nemenyi_without_tlf_is_the_one_stats_prints(self, tmp_path, pair_files,
                                                                 capsys):
        # source_only scores the target only where both share one schema
        target = pair_files[1]
        spec = spec_file(tmp_path, (target, target), tmp_path / "report")
        text = spec.read_text().replace("methods = tlf, target_only",
                                        "methods = source_only, target_only")
        spec.write_text(text.replace("pairs = ", f"pairs =\n    {target} :: {target} :: g\n    "),
                        encoding="utf-8")
        assert main(["run", "--spec", str(spec)]) == EXIT_OK
        block = json.loads((tmp_path / "report.json").read_text())["significance"]["nemenyi"]
        assert block["methods"] == ["source_only", "target_only"] and block["datasets"] == 2
        capsys.readouterr()
        assert main(["stats", "--report", str(tmp_path / "report.json")]) == EXIT_OK
        assert capsys.readouterr().out == (
            f"Nemenyi critical difference: {block['critical_difference']:.4f} "
            f"over {block['datasets']} pairs\n"
            + "".join(f"  {method}: mean rank {rank:.3f}\n"
                      for method, rank in zip(block["methods"], block["mean_ranks"])))


#: Any JSON value; integers stay below the 4300 digits that json reads.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=6)
METHODS = ["tlf", "source_only", "target_only"]


@st.composite
def drawn_reports(draw):
    """A report document of the shape run_experiment writes, except that
    every value at one drawn place (or none) is one odd value: the methods
    list, the pair groups, the pair method cells or the accuracies. The odd
    value is any JSON value or one that once broke `stats`: an accuracy
    whose group mean overflows, or a method listed twice."""
    odd = draw(st.sampled_from([None, "methods", "group", "cells", "accuracy"]))
    odd_value = draw(st.sampled_from([1.5e308, ["tlf", "tlf"], "any"]))
    if odd_value == "any":
        odd_value = draw(JSON)

    def value(place, valid):
        return odd_value if place == odd else draw(valid)

    pairs = []
    for i in range(draw(st.integers(0, 6))):
        cells = {}
        for method in draw(st.just(METHODS) | st.lists(st.sampled_from(METHODS), unique=True)):
            accuracy = value("accuracy", st.floats(0, 1))
            cells[method] = value("cells", st.just({"accuracy": accuracy}))
        # one group, and half the pairs scored, so that accuracies meet in
        # a group mean; the pair without a group key is ungrouped
        pair = {"pair": f"p{i}", "group": value("group", st.just("g")), "methods": cells}
        pairs.append(draw(st.sampled_from([pair, pair, {**pair, "error": "ParseError"},
                                           {k: v for k, v in pair.items() if k != "group"}])))
    methods = value("methods", st.just(METHODS) | st.lists(st.sampled_from(METHODS), min_size=1,
                                                          unique=True))
    return {"format": "leafbridge-report", "spec": {"methods": methods}, "pairs": pairs}


@settings(max_examples=300)
@given(report=drawn_reports())
def test_stats_on_drawn_reports_exits_0_or_2(tmp_path_factory, report):
    path = tmp_path_factory.getbasetemp() / "drawn_report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    assert main(["stats", "--report", str(path)]) in (EXIT_OK, EXIT_DATA)


class TestUsage:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])  # --spec missing
        assert exc.value.code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE
