"""README.md's examples, run as written.

The `## Library` Python block runs in a temporary directory, and every
line whose comment states a value is checked against it: an expression
against its value, an assignment against the name it binds, and an array
against its shape, with N the example code's length.  The census command
runs through `cli.main` as written, in a temporary directory too.
"""

import ast
import csv
import json
import re
import shlex
from pathlib import Path

import numpy as np

from polaraut import cli
from polaraut.automorphisms import BlockStructure
from polaraut.channel import STREAM_VERSION

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


def test_census_command_runs_as_written(tmp_path, monkeypatch):
    (argv,) = [words for words in polaraut_commands() if words[0] == "enumerate"]
    assert argv == ["enumerate", "--n", "7", "--K", "64",
                    "--out", "codes.csv", "--summary-out", "summary.csv"]
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    with open("codes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # README: "the 1007-code census at (7, 64)".
    assert len(rows) == 1007
    with open("summary.csv", newline="") as fh:
        assert sum(int(row["count"]) for row in csv.DictReader(fh)) == 1007
    # README: each manifest records the command, the configuration and
    # the stream version.
    for name, command in (("codes.csv", "enumerate"), ("summary.csv", "enumerate-summary")):
        manifest = json.loads(Path(name + ".manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["config"] == {"command": "enumerate", "n": 7, "K": 64,
                                      "out": "codes.csv", "summary_out": "summary.csv"}
        assert manifest["stream_version"] == STREAM_VERSION
