import json

import numpy as np
import pytest

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

    def test_all_pairs_failed_exit_code(self, tmp_path, capsys):
        spec = tmp_path / "bad.ini"
        spec.write_text(
            "[experiment]\npairs = missing_a.csv :: missing_b.csv\n"
            f"output = {tmp_path / 'rep'}\n",
            encoding="utf-8",
        )
        assert main(["run", "--spec", str(spec)]) == EXIT_DATA

    def test_bad_mmd_cross_term_stops_at_config_parse(self, tmp_path, pair_files,
                                                       monkeypatch, capsys):
        spec = spec_file(tmp_path, pair_files, tmp_path / "report")
        spec.write_text(spec.read_text() + "[adapt]\nmmd_cross_term = cubed\n",
                        encoding="utf-8")

        def no_pairs(*args):
            raise AssertionError("run_experiment must not start")

        monkeypatch.setattr("leafbridge.cli.run_experiment", no_pairs)
        assert main(["run", "--spec", str(spec)]) == EXIT_DATA
        assert "mmd_cross_term" in capsys.readouterr().err
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

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = main([
            "transfer", "--source", "none.csv", "--target", "none.csv",
            "--output", str(tmp_path / "m.json"),
        ])
        assert code == EXIT_DATA


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


class TestStats:
    def test_stats_on_report(self, tmp_path, pair_files, capsys):
        spec = spec_file(tmp_path, pair_files, tmp_path / "report")
        assert main(["run", "--spec", str(spec)]) == EXIT_OK
        capsys.readouterr()
        assert main(["stats", "--report", str(tmp_path / "report.json")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "sign test" in out

    def test_stats_rejects_other_json(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text("{}", encoding="utf-8")
        assert main(["stats", "--report", str(path)]) == EXIT_DATA


class TestUsage:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])  # --spec missing
        assert exc.value.code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE
