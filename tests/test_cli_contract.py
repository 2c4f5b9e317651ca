"""The CLI's observable contract on every fixture, pinned by a committed table.

`cli.main` runs in-process on every `tests/data/*.json` document for each
subcommand, with and without --json (and `measure` with a --tol that fails
it), and `rescale` on every ordered pair of the six-tuple fixtures.
`tests/cli_contract.json` stores, per run, the exit code and the SHA-256 of
stdout, of the rendered SVG, and of stderr for exits 1, 3 and 4.  For exit 2 only the shape of the output is fixed: stderr starts
with "error: " and stdout is empty, so the wording of document errors may
change.

Regenerate the table (only when the contract is meant to change) with

    PYTHONPATH=src python tests/test_cli_contract.py

which prints every run whose entry moved, with its old and new entries.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

from threeterm.cli import main

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
TABLE = HERE / "cli_contract.json"

# Each subcommand's argv, with {} for the document's path.
COMMANDS = {
    "measure": ("measure", "{}"),
    "measure --json": ("measure", "{}", "--json"),
    "measure --tol 1e-17": ("measure", "{}", "--tol", "1e-17"),
    "plucker minors": ("plucker", "minors", "{}"),
    "plucker minors --json": ("plucker", "minors", "{}", "--json"),
    "plucker reconstruct": ("plucker", "reconstruct", "{}"),
    "plucker reconstruct --json": ("plucker", "reconstruct", "{}", "--json"),
    "crossratio": ("crossratio", "{}"),
    "crossratio --json": ("crossratio", "{}", "--json"),
    "render": ("render", "{}", "--out", "{svg}"),
}


def _documents() -> list[Path]:
    return sorted(DATA.glob("*.json"))


def _sixtuples() -> list[Path]:
    """The fixtures that are JSON arrays of six entries."""
    found = []
    for path in _documents():
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            continue
        if isinstance(doc, list) and len(doc) == 6:
            found.append(path)
    return found


def _runs() -> dict[str, dict[str, tuple[str, ...]]]:
    """Run ids to argv, grouped by command; {svg} stands for the output path."""
    runs = {}
    for command, argv in COMMANDS.items():
        runs[command] = {
            f"{command} {path.name}": tuple(a.replace("{}", str(path)) for a in argv)
            for path in _documents()
        }
    sixtuples = _sixtuples()
    pairs = [(a, a) for a in _documents() if a not in sixtuples]
    pairs += [(a, b) for a in sixtuples for b in sixtuples]
    for json_flag in ((), ("--json",)):
        command = " ".join(("rescale", *json_flag))
        runs[command] = {
            f"{command} {a.name} {b.name}": ("rescale", str(a), str(b), *json_flag)
            for a, b in pairs
        }
    return runs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _observe(argv, tmp: Path, capsys) -> dict:
    svg = tmp / "out.svg"
    svg.unlink(missing_ok=True)
    code = main([a.replace("{svg}", str(svg)) for a in argv])
    out, err = capsys.readouterr()
    if code == 2:
        assert err.startswith("error: ") and out == "", argv
        return {"exit": 2}
    return {
        "exit": code,
        "stdout": _sha(out),
        "stderr": _sha(err),
        "svg": _sha(svg.read_text(encoding="utf-8")) if svg.exists() else None,
    }


def _expected() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", [*COMMANDS, "rescale", "rescale --json"])
def test_contract(command, tmp_path, capsys):
    expected = _expected()[command]
    runs = _runs()[command]
    assert sorted(runs) == sorted(expected)
    differ = [run_id for run_id, argv in runs.items()
              if _observe(argv, tmp_path, capsys) != expected[run_id]]
    assert differ == []


def test_table_covers_every_fixture():
    assert len(_sixtuples()) == 12
    assert sum(map(len, _expected().values())) >= 500


def _generate() -> None:
    """Write the table from the program as it stands, and print each run
    whose entry differs from the table it replaces (None where a run is new
    or gone)."""
    before = _expected() if TABLE.exists() else {}
    out, err = io.StringIO(), io.StringIO()

    def readouterr():
        pair = out.getvalue(), err.getvalue()
        for stream in (out, err):
            stream.seek(0)
            stream.truncate()
        return pair

    capture = SimpleNamespace(readouterr=readouterr)
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        table = {
            command: {run_id: _observe(argv, Path(tmp), capture) for run_id, argv in runs.items()}
            for command, runs in _runs().items()
        }
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    old, new = ({run_id: entry for runs in t.values() for run_id, entry in runs.items()}
                for t in (before, table))
    moved = sorted(run_id for run_id in {*old, *new} if old.get(run_id) != new.get(run_id))
    for run_id in moved:
        print(run_id, f"  old: {json.dumps(old.get(run_id), sort_keys=True)}",
              f"  new: {json.dumps(new.get(run_id), sort_keys=True)}", sep="\n")
    print(f"{len(moved)} runs differ; wrote {sum(map(len, table.values()))} runs to {TABLE}")


if __name__ == "__main__":
    _generate()
