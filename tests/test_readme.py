"""The README's Python quick start runs, its config block and command
lines are what the code accepts, and its model notes name the keys the code
writes."""

import re
import shlex
from pathlib import Path

import numpy as np

from leafbridge.cli import _build_parser
from leafbridge.dataset import Dataset, write_csv
from leafbridge.experiment import ExperimentSpec, PairSpec, parse_config
from leafbridge.synthetic import rotated_pair
from leafbridge.transfer import (
    FORMAT_VERSION,
    TransferConfig,
    TransferModel,
    fit_forest,
    run_transfer,
)
from conftest import numeric_dataset

README = Path(__file__).resolve().parent.parent / "README.md"


def code_blocks():
    """(language, text) of every fenced block in the README."""
    blocks, lang, lines = [], None, []
    for line in README.read_text(encoding="utf-8").splitlines():
        if not line.startswith("```"):
            lines.append(line)
        elif lang is None:
            lang, lines = line[3:].strip(), []
        else:
            blocks.append((lang, "\n".join(lines) + "\n"))
            lang = None
    return blocks


def test_python_quick_start_runs(tmp_path, monkeypatch, capsys):
    (text,) = [text for lang, text in code_blocks() if lang == "python"]
    # 5% of 2000 target records is enough for the default leaf size to split
    source, target = rotated_pair(n_target=2000, seed=0)
    write_csv(source, tmp_path / "source.csv")
    write_csv(target, tmp_path / "target.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(text, str(README), "exec"), {})
    pivots, fallback, accuracy = capsys.readouterr().out.split()
    assert int(pivots) > 0 and fallback == "False"
    assert float(accuracy) > 0.5
    saved = TransferModel.load(tmp_path / "model.json")
    assert set(saved.class_names) == set(target.class_names)


def test_ini_block_holds_the_defaults(tmp_path):
    (text,) = [text for lang, text in code_blocks() if lang == "ini"]
    assert "\npairs =\n" in text
    path = tmp_path / "readme.ini"
    path.write_text(text.replace("\npairs =\n", "\npairs = s.csv :: t.csv\n"),
                    encoding="utf-8")
    assert parse_config(path) == (ExperimentSpec(pairs=(PairSpec("s.csv", "t.csv"),)),
                                  TransferConfig())


def note_keys(start):
    """The Notes bullet that begins with `start`, and every lowercase
    `name` in it, which the notes below use for keys only."""
    text = README.read_text(encoding="utf-8")
    note = text[text.index(start):]
    note = note[:note.index("\n- ")]
    return note, [w for w in re.findall(r"`([^`]+)`", note) if re.fullmatch(r"[a-z_]+", w)]


def test_model_format_note_names_the_saved_keys():
    # every key is named once
    note, named = note_keys("- Saved models use format version")
    assert note.startswith(f"- Saved models use format version {FORMAT_VERSION}.")
    source, _ = rotated_pair(n_source=60, n_target=10, seed=0)
    cfg = TransferConfig(n_trees=1)
    doc = TransferModel(forest=fit_forest(source, cfg), fallback=True,
                        diagnostics={}, raw_schema=source.schema, config=cfg).to_dict()
    forest = doc["forest"]
    keys = [*doc, *doc["raw_schema"][0], *forest, *forest["trees"][0]]
    assert sorted(named) == sorted(keys)


def test_diagnostics_note_names_the_written_keys():
    # each key of an adapted model's diagnostics is named once, and so is
    # the key a fallback adds
    _, named = note_keys("- An adapted model's diagnostics")
    source, target = rotated_pair(n_source=300, n_target=300, center_spread=2.0,
                                  cluster_std=2.0, seed=4)
    adapted = run_transfer(source, target, TransferConfig(min_leaf_small=5, seed=4))
    diagnostics = adapted.diagnostics
    assert not adapted.fallback
    keys = list(diagnostics)
    # a 1-column source split at 0 and a target of random labels share no pivot
    rng = np.random.default_rng(6)
    x = np.sort(rng.normal(size=(100, 1)), axis=0)
    source = numeric_dataset(x, (x[:, 0] > 0).astype(int))
    target = Dataset(source.schema, rng.normal(size=(20, 1)), np.arange(20) % 2,
                     source.class_names, "target")
    fallback = run_transfer(source, target, TransferConfig(seed=6))
    assert fallback.fallback
    keys += [key for key in fallback.diagnostics if key not in diagnostics]
    assert sorted(named) == sorted(keys)


def test_command_lines_parse():
    commands = [shlex.split(line, comments=True) for _, text in code_blocks()
                for line in text.splitlines() if line.startswith("leafbridge ")]
    assert {argv[1] for argv in commands} == {"run", "transfer", "inject-missing", "stats"}
    for argv in commands:
        assert _build_parser().parse_args(argv[1:]).command == argv[1]
