"""tools/ab_decode.py on two exports of HEAD: one table row per decoder,
and a non-zero exit once one side's words differ."""

import dataclasses
import importlib.util
import subprocess
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("ab_decode", _ROOT / "tools" / "ab_decode.py")
ab_decode = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_decode)

_HAS_HEAD = subprocess.run(
    ["git", "-C", str(_ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True
).returncode == 0
pytestmark = pytest.mark.skipif(not _HAS_HEAD, reason="needs a git checkout with a commit")

DECODERS = ["sc", "scl-2", "scl-3-min-sum", "aut-2-sc", "aut-2-sc-lta-fixed",
            "AUT-02-SC-LTA-FIXED"]
ARGS = ["--base", "HEAD", "--change", "HEAD", "--code",
        '{"kind": "generators", "n": 5, "generators": [11, 12]}',
        "--frames", "8", "--rounds", "2"]
for name in DECODERS:
    ARGS += ["--decoder", name]


def test_head_against_head_prints_every_decoder(capsys):
    assert ab_decode.main(ARGS) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:-1]}
    assert list(rows) == DECODERS
    for base_ms, change_ms, ratio, wins in rows.values():
        assert float(base_ms) > 0 and float(change_ms) > 0 and float(ratio) > 0
        assert wins in ("0/2", "1/2", "2/2")
    assert lines[-1] == "all words identical"


def test_one_differing_word_exits_non_zero(capsys, monkeypatch):
    load = ab_decode.load

    def flipping(tree, name):
        # The change side's SCL flips one bit of the first frame's word.
        pkg = load(tree, name)
        if name == "polaraut_change":
            decode = pkg.codec.scl_decode_batch

            def flipped(*args):
                messages, words = decode(*args)
                words = words.copy()
                words[0, 0] ^= 1
                return messages, words

            monkeypatch.setattr(pkg.codec, "scl_decode_batch", flipped)
        return pkg

    monkeypatch.setattr(ab_decode, "load", flipping)
    assert ab_decode.main(ARGS) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "words differ: scl-2, scl-3-min-sum"


def test_jobs_mode_times_run_bler_and_exits_non_zero_on_a_count_change(capsys, monkeypatch):
    # --jobs times whole run_bler calls; HEAD against HEAD agrees, and a
    # change side that counts one frame more in every result fails.
    args = ARGS[:-2 * len(DECODERS)] + ["--decoder", "sc", "--decoder", "scl-2", "--jobs"]
    assert ab_decode.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "run_bler jobs, master seeds 10000..10001" in lines[0]
    assert [line.split()[0] for line in lines[2:-1]] == ["sc", "scl-2"]
    assert lines[-1] == "all counts identical"
    load = ab_decode.load
    seeds = []

    def counting_one_more(tree, name):
        pkg = load(tree, name)
        if name == "polaraut_change":
            run_bler = pkg.channel.run_bler

            def more(code, decoder, ebn0, **kwargs):
                seeds.append(kwargs["master_seed"])
                return [dataclasses.replace(r, frames=r.frames + 1)
                        for r in run_bler(code, decoder, ebn0, **kwargs)]

            monkeypatch.setattr(pkg.channel, "run_bler", more)
        return pkg

    monkeypatch.setattr(ab_decode, "load", counting_one_more)
    assert ab_decode.main(args) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "counts differ: sc, scl-2"
    assert seeds == [0, 10000, 10001] * 2
