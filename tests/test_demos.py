"""Every demo under demos/ runs to the end without an error."""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # demos write their files under tempfile's directory; keep them in tmp_path
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
