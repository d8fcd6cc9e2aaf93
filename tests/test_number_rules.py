"""Every number a caller passes in meets one of two rules, stated once in
`monomials`: `_int_in` (a plain int in a range) and `_real` (a finite real).

One table row per public entry and slot that takes an int or a real, and
one per integer command-line option.  A refused value raises ValueError
with the one message form, "<name> must be <rule>, got <value>"; a numpy
scalar gives what the plain number gives, with the same types throughout."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from polaraut import (
    BlockStructure,
    ChannelParams,
    ConstructionSpec,
    Monomial,
    MonomialCode,
    SimResult,
    bec_bhattacharyya,
    bhattacharyya_bec_design,
    enumerate_decreasing_codes,
    monomial_to_row,
    rm_code,
    row_to_monomial,
    run_bler,
    scl_decode_batch,
    wilson_interval,
)
from polaraut.automorphisms import sample_blta_batch
from polaraut.cli import main
from polaraut.monomials import _int_in

CODE = rm_code(1, 3)
LLRS = np.linspace(-2.0, 2.0, 16).reshape(2, 8)


def bler(**kwargs):
    """A small run_bler call, kwargs over its defaults here."""
    args = dict(master_seed=3, target_errors=None, max_frames=8, workers=1)
    return run_bler(CODE, "sc", [2.0], **{**args, **kwargs})


# (entry, name in the message, lo, hi, a valid value, call with the value)
INT_ENTRIES = [
    ("Monomial", "monomial mask", 0, (1 << 16) - 1, 5, lambda v: Monomial(v)),
    ("Monomial.from_indices", "variable index", 0, 15, 3,
     lambda v: Monomial.from_indices([0, v])),
    ("row_to_monomial row", "row index", 0, 7, 6, lambda v: row_to_monomial(v, 3)),
    ("row_to_monomial n", "variable count", 1, 16, 3, lambda v: row_to_monomial(0, v)),
    ("monomial_to_row n", "variable count", 1, 16, 3,
     lambda v: monomial_to_row(Monomial(1), v)),
    ("MonomialCode n", "variable count", 1, 16, 3, lambda v: MonomialCode(v, [Monomial(0)])),
    ("enumerate_decreasing_codes n", "variable count", 1, 16, 3,
     lambda v: list(enumerate_decreasing_codes(v, 1))),
    ("enumerate_decreasing_codes dimension", "dimension", 1, 8, 4,
     lambda v: list(enumerate_decreasing_codes(3, v))),
    ("bec_bhattacharyya n", "variable count", 1, 16, 3, lambda v: bec_bhattacharyya(v, 0.3)),
    ("bhattacharyya_bec_design dimension", "dimension", 1, 8, 4,
     lambda v: bhattacharyya_bec_design(0.3, v, 3)),
    ("rm_code order", "order", 0, 3, 1, lambda v: rm_code(v, 3)),
    ("rm_code n", "variable count", 1, 16, 3, lambda v: rm_code(0, v)),
    ("ConstructionSpec n", "'n'", 1, 16, 3, lambda v: ConstructionSpec(n=v, kind="reed_muller", r=1)),
    ("ConstructionSpec K", "'K'", 1, 8, 4,
     lambda v: ConstructionSpec(n=3, kind="bhattacharyya_bec", epsilon=0.3, dimension=v)),
    ("ConstructionSpec r", "'r'", 0, 3, 1, lambda v: ConstructionSpec(n=3, kind="reed_muller", r=v)),
    ("ConstructionSpec generators", "'generators'[1]", 0, 7, 5,
     lambda v: ConstructionSpec(n=3, kind="generators", generators=(3, v))),
    ("wilson_interval trials", "trials", 1, None, 4, lambda v: wilson_interval(1, v)),
    ("wilson_interval errors", "errors", 0, 4, 1, lambda v: wilson_interval(v, 4)),
    ("SimResult frames", "frames", 1, None, 10, lambda v: SimResult("sc", 1.0, v, 0)),
    ("SimResult block_errors", "block_errors", 0, 10, 3, lambda v: SimResult("sc", 1.0, 10, v)),
    ("run_bler master_seed", "master_seed", 0, None, 3, lambda v: bler(master_seed=v)),
    ("run_bler max_frames", "max_frames", 1, None, 8, lambda v: bler(max_frames=v)),
    ("run_bler workers", "workers", 1, None, 1, lambda v: bler(workers=v)),
    ("run_bler target_errors", "target_errors", 1, None, 1, lambda v: bler(target_errors=v)),
    ("scl_decode_batch list size", "list size", 1, None, 2,
     lambda v: scl_decode_batch(CODE, LLRS, v)),
    ("BlockStructure", "block size", 1, None, 2, lambda v: BlockStructure((v, 1))),
    ("sample_blta_batch count", "count", 1, None, 3,
     lambda v: sample_blta_batch(BlockStructure((2, 1)), v, np.random.default_rng(0))),
]

# (entry, name in the message, a valid value, (out-of-range value, the
# range message) pairs, call with the value).  Ranges stay with each entry.
REAL_ENTRIES = [
    ("ChannelParams ebn0_db", "Eb/N0", 1.5, (), lambda v: ChannelParams(v, 0.5)),
    ("ChannelParams rate", "rate", 0.5,
     ((0.0, "rate must be in (0, 1], got 0.0"), (1.5, "rate must be in (0, 1], got 1.5")),
     lambda v: ChannelParams(1.0, v)),
    ("run_bler ebn0_list", "Eb/N0", 1.5, (),
     lambda v: run_bler(CODE, "sc", [v], master_seed=1, target_errors=None, max_frames=8)),
    ("bec_bhattacharyya epsilon", "erasure probability", 0.25,
     ((-0.5, "erasure probability must be in [0, 1], got -0.5"),
      (1.5, "erasure probability must be in [0, 1], got 1.5")),
     lambda v: bec_bhattacharyya(3, v)),
    ("bhattacharyya_bec_design epsilon", "erasure probability", 0.25,
     ((-0.5, "erasure probability must be in [0, 1], got -0.5"),
      (1.5, "erasure probability must be in [0, 1], got 1.5")),
     lambda v: bhattacharyya_bec_design(v, 4, 3)),
    ("ConstructionSpec epsilon", "'epsilon'", 0.25,
     ((-0.5, "epsilon must be in [0, 1], got -0.5"), (1.5, "epsilon must be in [0, 1], got 1.5")),
     lambda v: ConstructionSpec(n=3, kind="bhattacharyya_bec", epsilon=v, dimension=2)),
]


def rule(lo, hi):
    """The message's rule for lo..hi, stated apart from the code under test."""
    if hi is not None:
        return f"an int in {lo}..{hi}"
    return {0: "a non-negative int", 1: "a positive int"}[lo]


def refused(name, rule_text, value):
    """pytest.raises for the one message form, matched whole."""
    message = f"{name} must be {rule_text}, got {value!r}"
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def same(a, b):
    """a == b, with the same types all the way down: arrays by dtype and
    value, sequences and dataclasses element by element."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return a == b


@pytest.mark.parametrize(
    "name, lo, hi, valid, call", [row[1:] for row in INT_ENTRIES],
    ids=[row[0] for row in INT_ENTRIES],
)
class TestIntEntries:
    def test_refused_with_the_one_message(self, name, lo, hi, valid, call):
        bad = [True, np.bool_(True), float(valid), lo - 1] + ([hi + 1] if hi is not None else [])
        for value in bad:
            with refused(name, rule(lo, hi), value):
                call(value)

    def test_numpy_ints_give_the_plain_result(self, name, lo, hi, valid, call):
        plain = call(valid)
        for kind in (np.int64, np.uint8):
            assert same(call(kind(valid)), plain)


@pytest.mark.parametrize(
    "name, valid, ranges, call", [row[1:] for row in REAL_ENTRIES],
    ids=[row[0] for row in REAL_ENTRIES],
)
class TestRealEntries:
    def test_refused_with_the_one_message(self, name, valid, ranges, call):
        for value in (True, np.bool_(False), "1", 1j, math.nan, math.inf, -math.inf):
            with refused(name, "a finite real number", value):
                call(value)

    def test_range_checked_after_the_rule(self, name, valid, ranges, call):
        for value, message in ranges:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(value)

    def test_numpy_and_fraction_reals_give_the_plain_result(self, name, valid, ranges, call):
        plain = call(valid)
        for kind in (np.float32, np.float64, Fraction):
            assert same(call(kind(valid)), plain)


def test_the_real_number_rules_that_disagreed():
    # ChannelParams(True, True) built, bec_bhattacharyya(3, True) returned
    # eight 1.0s, a float32 epsilon was "not a number" to a spec, and
    # ChannelParams("1", 0.5) raised TypeError.
    with refused("Eb/N0", "a finite real number", True):
        ChannelParams(True, True)
    with refused("erasure probability", "a finite real number", True):
        bec_bhattacharyya(3, True)
    spec = ConstructionSpec(n=3, kind="bhattacharyya_bec", epsilon=np.float32(0.3), dimension=2)
    assert type(spec.epsilon) is float
    assert spec.build() == bhattacharyya_bec_design(float(np.float32(0.3)), 2, 3)
    with refused("Eb/N0", "a finite real number", "1"):
        ChannelParams("1", 0.5)


def test_a_lower_bound_other_than_0_or_1_is_stated():
    with refused("x", "an int >= 2", 1):
        _int_in("x", 1, 2)
    assert _int_in("x", np.int16(2), 2) == 2


def cli_base(command, spec):
    return {
        "simulate": ["simulate", "sc", "--spec", spec, "--ebn0", "1.0", "--max-frames", "256"],
        "sample": ["sample", "--spec", spec],
        "enumerate": ["enumerate", "--n", "3", "--K", "2"],
        "sweep-epsilon": ["sweep-epsilon", "--n", "3", "--K", "2", "--grid", "0.3"],
    }[command]


CLI_OPTIONS = [
    ("simulate", "--seed", 0, None),
    ("simulate", "--workers", 1, None),
    ("simulate", "--max-frames", 1, None),
    ("simulate", "--target-errors", 1, None),
    ("sample", "--seed", 0, None),
    ("sample", "--count", 1, None),
    ("enumerate", "--n", 1, 16),
    ("enumerate", "--K", 1, 8),
    ("sweep-epsilon", "--n", 1, 16),
    ("sweep-epsilon", "--K", 1, 8),
]


@pytest.mark.parametrize("command, option, lo, hi", CLI_OPTIONS)
def test_cli_options_out_of_range(tmp_path, capsys, command, option, lo, hi):
    # --K's bound is 2**n for --n 3.  The parser itself refuses a value that
    # is not an int, before this rule, also with exit 2.
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "reed_muller", "n": 4, "r": 1}')
    out = str(tmp_path / "out.txt")
    args = cli_base(command, str(spec))
    for value in [lo - 1] + ([hi + 1] if hi is not None else []):
        assert main([*args, option, str(value), "--out", out]) == 2
        assert capsys.readouterr() == ("", f"error: {option} must be {rule(lo, hi)}, got {value}\n")
    with pytest.raises(SystemExit) as exit_:
        main([*args, option, "1.5", "--out", out])
    assert exit_.value.code == 2
    assert "invalid int value: '1.5'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]
