"""README.md's examples, run as written.

The `## Library` Python block runs in a temporary directory, and every
line whose comment states a value is checked against it: an expression
against its value, an assignment against the name it binds, and an array
against its shape, with N the example code's length.
"""

import ast
import re
from pathlib import Path

import numpy as np

from polaraut.automorphisms import BlockStructure

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
