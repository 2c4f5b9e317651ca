"""The CLI as a process: `python -m threeterm.cli` through `cli.run`.

A few runs in a fresh interpreter check that the process entry writes what
the in-process `cli.main` does, exits with its code, and that `main` itself
leaves the collector as it found it.
"""

import gc
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from threeterm import cli

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def run_process(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "threeterm.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=60)


def test_measure_json_golden():
    proc = run_process("measure", DATA / "square_config.json", "--json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / "square_measure_golden.json").read_text(encoding="utf-8")


def test_render_golden(tmp_path):
    out = tmp_path / "square.svg"
    proc = run_process("render", DATA / "square_config.json", "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (DATA / "square_render_golden.svg").read_bytes()


def test_orbit_failure_exit_code():
    proc = run_process("rescale", DATA / "other_orbit.json", DATA / "square_chords.json")
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: ")
    assert proc.stdout == ""


def test_main_leaves_collector_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["measure", str(DATA / "square_config.json"), "--json"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_script_entry_is_run():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"threeterm": "threeterm.cli:run"}


def test_run_freezes_on_every_exit(monkeypatch, capsys):
    # argparse's SystemExit(2) passes through run, which still freezes.
    monkeypatch.setattr(sys, "argv", ["threeterm", "measure"])
    before = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as info:
            cli.run()
        assert info.value.code == 2
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    capsys.readouterr()
