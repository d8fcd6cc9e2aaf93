"""Module boundaries: the theory-verification code stays in `polaraut.verify`,
off the modules the decoders and the census run, and the command line in
`polaraut.cli` sits above every other module.  The BLER entry points take a
pinned set of options, and SC a pinned set of node kinds."""

import argparse
import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polaraut
import polaraut.verify as verify
from polaraut import cli

PACKAGE = Path(polaraut.__file__).parent

MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

HOT_MODULES = (
    "__init__", "automorphisms", "channel", "codec", "cli", "monomials", "construction",
)

# What `import polaraut` exposes: the hot API.  The verification helpers
# are reached as `polaraut.verify` only.
PUBLIC_NAMES = (
    "BlockStructure", "CapabilityError", "ChannelParams", "ConstructionSpec",
    "Monomial", "MonomialCode", "SimResult", "SpecError", "aut_sc_decode_batch",
    "bec_bhattacharyya", "bhattacharyya_bec_design", "blta_size",
    "decreasing_closure", "encode_batch", "enumerate_decreasing_codes",
    "find_block_structure", "frozen_mask", "is_decreasing", "minimal_generators",
    "monomial_to_row", "partial_order_leq", "polar_transform", "rm_code",
    "row_to_monomial", "run_bler", "sc_decode_batch", "scl_decode_batch",
    "transmit", "wilson_interval",
)


def imported_modules(name: str, source: str | None = None) -> set[str]:
    """Absolute names of the polaraut modules a package module imports, or
    that source would import as one."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text() if source is None else source)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "polaraut" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            out.add(module)
            # `from . import verify` names the module in its aliases
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return out


@pytest.mark.parametrize("name", HOT_MODULES)
def test_hot_modules_do_not_import_verify(name):
    assert not any(
        m == "polaraut.verify" or m.startswith("polaraut.verify.")
        for m in imported_modules(name)
    )


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli"])
def test_only_cli_imports_cli(name):
    assert "polaraut.cli" not in imported_modules(name)


def test_import_scan_sees_verify():
    # No package module imports verify, so the scan is checked on source
    # that does: test_hot_modules_do_not_import_verify cannot pass vacuously.
    for source in (
        "from . import verify", "from .verify import stabilizes", "import polaraut.verify",
        "def f():\n    from .verify import Permutation",
    ):
        assert "polaraut.verify" in imported_modules("__init__", source), source


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_version_matches_pyproject():
    # Manifests and --version stamp __version__; the build stamps pyproject's.
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == polaraut.__version__


def test_gf2_is_gone():
    assert not (PACKAGE / "gf2.py").exists()
    assert importlib.util.find_spec("polaraut.gf2") is None


def test_automorphisms_holds_only_the_hot_path():
    tree = ast.parse((PACKAGE / "automorphisms.py").read_text())
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert defined == {
        "BlockStructure", "find_block_structure", "_gl2_order", "blta_size",
        "blta_bounds", "sample_blta_batch", "position_tables_batch",
    }


def test_sc_node_kinds_are_pinned():
    # A new node rule (an SPC kind, say) needs a deliberate edit here, and
    # in the tests that walk the plan.
    tree = ast.parse((PACKAGE / "codec.py").read_text())
    (func,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_plan"
    ]
    returns = [node for node in ast.walk(func) if isinstance(node, ast.Return)]
    kinds = {ast.literal_eval(node.value.elts[0]) for node in returns}
    assert kinds == {"rate0", "rate1", "leaf", "left-rate0", "generic"}


def test_run_bler_takes_only_its_options():
    # Decoder properties live in the decoder's name (see channel._decoder),
    # not in run_bler keywords; a new knob needs a deliberate edit here.
    params = inspect.signature(polaraut.run_bler).parameters.values()
    keywords = {p.name for p in params if p.kind is inspect.Parameter.KEYWORD_ONLY}
    assert [p.name for p in params if p.kind is not inspect.Parameter.KEYWORD_ONLY] == [
        "code", "decoder", "ebn0_list",
    ]
    assert keywords == {"master_seed", "target_errors", "max_frames", "workers"}


def test_simulate_takes_only_its_options():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = commands.choices["simulate"]._actions
    assert {a.dest for a in actions if not a.option_strings} == {"decoders"}
    assert {opt for a in actions for opt in a.option_strings} == {
        "-h", "--help", "--spec", "--ebn0", "--seed", "--workers", "--max-frames",
        "--target-errors", "--out",
    }


# Names the root once aliased from polaraut.verify: the package keeps them
# in polaraut.verify alone.
VERIFY_NAMES = (
    "AffineAutomorphism", "Permutation", "block_reversal_matrix",
    "brute_force_stabilizer", "interval_disjoint_decomposition",
    "is_code_automorphism", "lemma1_decompose", "position_action", "sample_blta",
    "stabilizes",
)


@pytest.mark.parametrize("name", PUBLIC_NAMES + VERIFY_NAMES)
def test_package_root_keeps_its_names(name):
    if name in VERIFY_NAMES:
        assert name in verify.__all__ and hasattr(verify, name)
        assert not hasattr(polaraut, name)
    else:
        assert hasattr(polaraut, name)


def fresh(code: str) -> list[str]:
    """The stdout lines of code run in a fresh interpreter that imports
    this package."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return done.stdout.splitlines()


def test_import_leaves_verify_multiprocessing_and_logging_unloaded():
    assert fresh(
        "import sys, polaraut, polaraut.cli\n"
        "for m in ('polaraut.verify', 'multiprocessing', 'logging'):\n"
        "    print(m, m in sys.modules)"
    ) == ["polaraut.verify False", "multiprocessing False", "logging False"]


@pytest.fixture(scope="module")
def verify_first_use() -> dict[str, list[str]]:
    """One fresh interpreter that imports the root, then polaraut.verify:
    whether verify loaded with the root, whether the root then holds the
    module, and per verify name whether the root and verify hold it."""
    lines = fresh(
        "import sys, polaraut\n"
        "print('with-root', 'polaraut.verify' in sys.modules)\n"
        "import polaraut.verify as verify\n"
        "print('module', polaraut.verify is sys.modules['polaraut.verify'])\n"
        "for name in verify.__all__:\n"
        "    print(name, hasattr(polaraut, name), hasattr(verify, name))"
    )
    return {key: rest for key, *rest in map(str.split, lines)}


@pytest.mark.parametrize("name", verify.__all__)
def test_verify_names_load_on_first_use(name, verify_first_use):
    # verify is reached one way: its names load with `import polaraut.verify`,
    # not with the root, which names none of them.
    assert verify_first_use["with-root"] == ["False"]
    assert verify_first_use[name] == ["False", "True"]
    assert len(verify_first_use) == 2 + len(verify.__all__)


def test_verify_module_is_an_attribute_of_the_root(verify_first_use):
    # Once imported; the root has no module __getattr__ to load it earlier.
    assert verify_first_use["module"] == ["True"]
    assert not {"__getattr__", "__dir__"} & vars(polaraut).keys()
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        polaraut.no_such_name  # noqa: B018


@pytest.mark.parametrize("workers", [1, 2])
def test_multiprocessing_loads_with_the_first_worker_process(workers):
    assert fresh(
        "import sys, polaraut\n"
        f"polaraut.run_bler(polaraut.rm_code(1, 4), 'sc', [1.0], master_seed=0, "
        f"max_frames=512, workers={workers})\n"
        "print('multiprocessing' in sys.modules)"
    ) == [str(workers > 1)]
