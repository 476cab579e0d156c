"""The README's config block and command lines are what the code accepts."""

import shlex
from pathlib import Path

from leafbridge.cli import _build_parser
from leafbridge.experiment import ExperimentSpec, PairSpec, parse_config
from leafbridge.transfer import TransferConfig

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


def test_ini_block_holds_the_defaults(tmp_path):
    (text,) = [text for lang, text in code_blocks() if lang == "ini"]
    assert "\npairs =\n" in text
    path = tmp_path / "readme.ini"
    path.write_text(text.replace("\npairs =\n", "\npairs = s.csv :: t.csv\n"),
                    encoding="utf-8")
    assert parse_config(path) == (ExperimentSpec(pairs=(PairSpec("s.csv", "t.csv"),)),
                                  TransferConfig())


def test_command_lines_parse():
    commands = [shlex.split(line, comments=True) for _, text in code_blocks()
                for line in text.splitlines() if line.startswith("leafbridge ")]
    assert {argv[1] for argv in commands} == {"run", "transfer", "inject-missing", "stats"}
    for argv in commands:
        assert _build_parser().parse_args(argv[1:]).command == argv[1]
