"""README.md's examples, run as written.

The `## Library` Python block runs in a temporary directory, and every
line whose comment states a value is checked against it: an expression
against its value, an assignment against the name it binds, and an array
against its shape, with N the example code's length.  Each JSON spec
under `## Command line` must build a code, and every `polaraut` command
there runs through `cli.main` as written, in a temporary directory too,
with `code.json` holding the first spec; its outputs and their manifests
are checked against what README says of them.
"""

import ast
import csv
import json
import multiprocessing
import re
import shlex
from pathlib import Path

import numpy as np

from conftest import numpy_umath
from polaraut import __version__, cli
from polaraut.automorphisms import BlockStructure
from polaraut.channel import STREAM_VERSION
from polaraut.construction import ConstructionSpec

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(section: str) -> str:
    """The first ```python block under the `## <section>` heading."""
    text = README.read_text()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def stated_values(block: str) -> list[tuple[str, str]]:
    """(code, comment) for each line of block that ends in a comment."""
    out = []
    for line in block.splitlines():
        code, sep, comment = line.partition("  #")
        if sep and code.strip():
            out.append((code.strip(), comment.strip()))
    return out


def test_library_example_runs_and_its_comments_hold(tmp_path, monkeypatch):
    block = python_block("Library")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(block, str(README), "exec"), names)
    stated = stated_values(block)
    assert [comment for _, comment in stated] == [
        "BlockStructure((3, 5))", "14091959496867840", "(8, N)",
    ]
    for code, comment in stated:
        (statement,) = ast.parse(code).body
        if isinstance(statement, ast.Assign):
            value = names[statement.targets[0].id]
        else:
            value = eval(code, names)
        want = eval(comment, {"BlockStructure": BlockStructure,
                              "N": names["code"].block_length})
        if isinstance(value, np.ndarray):
            value = value.shape
        assert value == want, code
    assert [r.ebn0_db for r in names["results"]] == [2.0, 2.5]
    assert all(r.decoder == "aut-8-sc" and r.block_errors >= 100 for r in names["results"])


def polaraut_commands() -> list[list[str]]:
    """The arguments of each `polaraut ...` line in README's ```sh blocks,
    backslash continuations joined."""
    out = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words and words[0] == "polaraut":
                out.append(words[1:])
    return out


def json_specs() -> list[str]:
    """The lines of README's ```json block: one code spec each."""
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    return block.splitlines()


def test_each_json_spec_builds_a_code():
    codes = [ConstructionSpec.from_json(line).build() for line in json_specs()]
    assert [(c.block_length, c.dimension) for c in codes] == [(256, 128), (128, 64), (128, 64)]


def test_each_command_runs_below():
    assert sorted(words[0] for words in polaraut_commands()) == [
        "analyze", "enumerate", "sample", "simulate", "sweep-epsilon",
    ]


def run_as_written(command: str, tmp_path, monkeypatch, extra: tuple[str, ...] = ()) -> list[str]:
    """Run README's one `polaraut <command>` line in tmp_path, with
    code.json holding its first spec; returns the arguments run."""
    (argv,) = [words for words in polaraut_commands() if words[0] == command]
    monkeypatch.chdir(tmp_path)
    Path("code.json").write_text(json_specs()[0])
    assert cli.main(argv + list(extra)) == 0
    return argv


def manifest(name: str) -> dict:
    """name's manifest, holding what README says each one records."""
    got = json.loads(Path(name + ".manifest.json").read_text())
    assert set(got) == {"command", "config", "version", "master_seed", "stream_version",
                        "numpy", "created_utc"}
    assert got["version"] == __version__ and got["stream_version"] == STREAM_VERSION
    assert got["numpy"] == {"version": np.__version__,
                            "cpu_dispatch": list(numpy_umath().__cpu_dispatch__)}
    return got


def test_census_command_runs_as_written(tmp_path, monkeypatch):
    argv = run_as_written("enumerate", tmp_path, monkeypatch)
    assert argv == ["enumerate", "--n", "7", "--K", "64",
                    "--out", "codes.csv", "--summary-out", "summary.csv"]
    with open("codes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # README: "the 1007-code census at (7, 64)".
    assert len(rows) == 1007
    with open("summary.csv", newline="") as fh:
        assert sum(int(row["count"]) for row in csv.DictReader(fh)) == 1007
    # README: each manifest records the command, the configuration and
    # the stream version.
    for name, command in (("codes.csv", "enumerate"), ("summary.csv", "enumerate-summary")):
        got = manifest(name)
        assert got["command"] == command
        assert got["config"] == {"command": "enumerate", "n": 7, "K": 64,
                                 "out": "codes.csv", "summary_out": "summary.csv"}


def test_analyze_command_runs_as_written(tmp_path, monkeypatch, capsys):
    argv = run_as_written("analyze", tmp_path, monkeypatch)
    assert argv == ["analyze", "--spec", "code.json"]
    # Block structure, exact and rounded group size, minimal generators;
    # with no --out, on stdout only.
    report = json.loads(capsys.readouterr().out)
    assert report == {"s": [5, 3], "aut_size": "14091959496867840",
                      "aut_size_sci": "1.41e16", "generators": [31, 99]}
    assert [p.name for p in tmp_path.iterdir()] == ["code.json"]


def test_sweep_command_runs_as_written(tmp_path, monkeypatch):
    argv = run_as_written("sweep-epsilon", tmp_path, monkeypatch)
    assert argv == ["sweep-epsilon", "--n", "7", "--K", "64", "--out", "sweep.csv"]
    with open("sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["epsilon", "aut_size", "aut_size_sci", "s", "i_min"]
    # The default grid has 25 points; the group is largest at Reed-Muller,
    # one block of 7, and smaller at the far end.
    assert len(rows) == 25
    sizes = [int(row["aut_size"]) for row in rows]
    assert rows[0]["s"] == "7" and sizes[0] == max(sizes) > sizes[-1]
    got = manifest("sweep.csv")
    assert got["command"] == "sweep-epsilon"
    assert got["config"] == {"command": "sweep-epsilon", "n": 7, "K": 64, "grid": None,
                             "out": "sweep.csv"}


def test_sample_command_runs_as_written(tmp_path, monkeypatch):
    argv = run_as_written("sample", tmp_path, monkeypatch)
    assert argv == ["sample", "--spec", "code.json", "--count", "10", "--seed", "7",
                    "--out", "sample.json"]
    doc = json.loads(Path("sample.json").read_text())
    assert doc["s"] == [5, 3] and doc["count"] == 10 and len(doc["samples"]) == 10
    for sample in doc["samples"]:
        assert len(sample["A"]) == 8 and all(len(row) == 8 for row in sample["A"])
        assert len(sample["b"]) == 8
    got = manifest("sample.json")
    assert got["command"] == "sample" and got["master_seed"] == 7
    assert got["config"] == {"command": "sample", "spec": "code.json", "count": 10,
                             "seed": 7, "out": "sample.json"}


def test_simulate_command_runs_as_written(tmp_path, monkeypatch):
    # As written it runs each point to 100 errors; the test caps each
    # point at one 256-frame block, which leaves every other argument.
    argv = run_as_written("simulate", tmp_path, monkeypatch, ("--max-frames", "256"))
    assert argv == ["simulate", "sc", "scl-8", "aut-8-sc", "--spec", "code.json",
                    "--ebn0", "1.0,1.5,2.0,2.5", "--seed", "42", "--workers", "4",
                    "--out", "bler.csv"]
    assert multiprocessing.active_children() == []
    with open("bler.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["decoder"], row["ebn0_db"]) for row in rows] == [
        (decoder, ebn0) for decoder in ("sc", "scl-8", "aut-8-sc")
        for ebn0 in ("1.0", "1.5", "2.0", "2.5")
    ]
    for row in rows:
        assert row["code_id"] == "N256_K128_gen31-99" and row["seed"] == "42"
        assert row["frames"] == "256" and 0 <= int(row["block_errors"]) <= 256
    got = manifest("bler.csv")
    assert got["command"] == "simulate" and got["master_seed"] == 42
    assert got["config"] == {
        "command": "simulate", "decoders": ["sc", "scl-8", "aut-8-sc"], "spec": "code.json",
        "ebn0": "1.0,1.5,2.0,2.5", "seed": 42, "workers": 4, "max_frames": 256,
        "target_errors": 100, "out": "bler.csv",
    }
