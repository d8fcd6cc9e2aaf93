"""Counter-based frame streams: the words against numpy's Philox, keyed per
frame; batch invariance; message, noise and bounded-integer distributions;
the exact rejection path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaraut import channel
from polaraut.automorphisms import BlockStructure, blta_bounds, find_block_structure
from polaraut.construction import ConstructionSpec

ONES = (1 << 64) - 1
KEY = channel._frame_key(31, 2)


def frame_oracle(part, frame, width):
    """A frame's words from its own Philox, the counter set word by word:
    the block index low, the range in the top word, one step below the
    frame's first block because numpy steps before each block."""
    blocks = -(-width // 4)
    first = frame * blocks
    if first == 0:
        low = [ONES, ONES, ONES, part - 1] if part else [ONES] * 4
    else:
        low = [first - 1, 0, 0, part]
    counter = np.array(low, dtype=np.uint64)
    return np.random.Philox(key=KEY, counter=counter).random_raw(4 * blocks)[:width]


def lemire_oracle(word, bound):
    """Lemire's map in Python integers; None when the word is rejected."""
    product = int(word) * bound
    if product % (1 << 64) < (1 << 64) % bound:
        return None
    return product >> 64


class TestWordsMatchPhilox:
    @pytest.mark.parametrize("part", [0, 1, 2])
    @pytest.mark.parametrize("lo, hi", [(0, 5), (3, 9), (256, 260)])
    @pytest.mark.parametrize("width", [1, 4, 7, 130])
    def test_batch_words_equal_per_frame_philox(self, part, lo, hi, width):
        words = channel._frame_words(KEY, part, lo, hi, width)
        assert words.shape == (hi - lo, width) and words.dtype == np.uint64
        for f in range(lo, hi):
            assert np.array_equal(words[f - lo], frame_oracle(part, f, width))

    def test_numpy_steps_the_counter_before_each_block(self):
        bitgen = np.random.Philox(key=KEY, counter=np.full(4, ONES, dtype=np.uint64))
        bitgen.random_raw(4)
        assert bitgen.state["state"]["counter"].tolist() == [0, 0, 0, 0]

    def test_keys_differ_by_seed_and_snr_index_and_from_the_ensemble(self):
        keys = {tuple(channel._frame_key(s, i)) for s in (0, 1) for i in (0, 1, 0x175A)}
        assert len(keys) == 6
        for seed in (0, 1):
            seq = np.random.SeedSequence(seed, spawn_key=(channel._ENSEMBLE_TAG,))
            ensemble = np.random.Philox(seq).state["state"]["key"]
            assert tuple(ensemble) not in keys


class TestRunBatchDraws:
    """_run_batch's messages, noise and automorphism integers, read where it
    hands them on, against the per-frame oracle words."""

    def spy(self, monkeypatch, name, seen):
        real = getattr(channel, name)

        def wrapper(*args):
            seen[name] = args
            return real(*args)

        monkeypatch.setattr(channel, name, wrapper)

    @pytest.mark.parametrize("lo, hi", [(0, 6), (250, 259)])
    def test_messages_noise_and_integers(self, monkeypatch, lo, hi):
        code = ConstructionSpec.from_dict(
            {"kind": "generators", "n": 7, "generators": [27, 56]}
        ).build()
        dim, size = code.dimension, code.block_length
        structure = find_block_structure(code)
        seen = {}
        for name in ("encode_batch", "transmit", "sample_blta_batch"):
            self.spy(monkeypatch, name, seen)
        args = (code, channel._decoder("aut-3-sc"), structure, 2.0, KEY, lo, hi, None)
        assert channel._run_batch(args)[0] == hi - lo

        msgs = seen["encode_batch"][1]
        noise = seen["transmit"][2]
        got_structure, count, draws = seen["sample_blta_batch"]
        assert got_structure == structure and count == 3 * (hi - lo)
        bounds = blta_bounds(structure).tolist()
        half = size // 2
        for f in range(lo, hi):
            words = frame_oracle(0, f, 1 + size)
            bits = [(int(words[0]) >> j) & 1 for j in range(dim)]
            assert msgs[f - lo].tolist() == bits
            u = (words[1 : 1 + half] >> 11) * 2.0**-53
            v = (words[1 + half :] >> 11) * 2.0**-53
            radius = np.sqrt(-2.0 * np.log(1.0 - u))
            angle = 2.0 * np.pi * v - np.pi
            want = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
            np.testing.assert_allclose(noise[f - lo], want, rtol=1e-12, atol=1e-12)
            aut_words = frame_oracle(1, f, 3 * len(bounds)).reshape(3, len(bounds))
            want_ints = [
                [lemire_oracle(w, b) for w, b in zip(row, bounds)] for row in aut_words
            ]
            assert draws[3 * (f - lo) : 3 * (f - lo + 1)].tolist() == want_ints


@st.composite
def splits(draw):
    frames = draw(st.integers(1, 40))
    cuts = draw(st.sets(st.integers(1, frames - 1), max_size=6)) if frames > 1 else set()
    edges = [0, *sorted(cuts), frames]
    return frames, list(zip(edges, edges[1:]))


@settings(max_examples=40, deadline=None)
@given(splits())
def test_any_batch_split_gives_the_same_frames(split):
    frames, batches = split
    bounds = blta_bounds(BlockStructure((3, 5)))
    whole_msgs, whole_noise = channel._channel_draw(KEY, 0, frames, 70, 32)
    whole_ints = channel._automorphism_draw(KEY, 0, frames, bounds, 3)
    parts = [channel._channel_draw(KEY, lo, hi, 70, 32) for lo, hi in batches]
    ints = [channel._automorphism_draw(KEY, lo, hi, bounds, 3) for lo, hi in batches]
    assert np.array_equal(np.concatenate([m for m, _ in parts]), whole_msgs)
    assert np.array_equal(np.concatenate([z for _, z in parts]), whole_noise)
    assert np.array_equal(np.concatenate(ints), whole_ints)


class TestDistributions:
    def test_message_bits_are_fair(self):
        frames = 4000
        msgs, _ = channel._channel_draw(KEY, 0, frames, 100, 2)
        assert msgs.dtype == np.uint8 and set(np.unique(msgs)) <= {0, 1}
        se = 0.5 / np.sqrt(frames)
        assert np.abs(msgs.mean(axis=0) - 0.5).max() < 5 * se

    def test_noise_is_standard_normal(self):
        _, noise = channel._channel_draw(KEY, 0, 2000, 1, 64)
        # Both Box-Muller halves, the cos columns and the sin columns.
        for z in (noise[:, :32].ravel(), noise[:, 32:].ravel()):
            n = z.size
            assert abs(z.mean()) < 5 / np.sqrt(n)
            assert abs(z.var() - 1.0) < 5 * np.sqrt(2.0 / n)
            tail = 0.024997895148220435  # P(Z > 1.96)
            se = np.sqrt(tail * (1 - tail) / n)
            assert abs((z > 1.96).mean() - tail) < 5 * se
            assert abs((z < -1.96).mean() - tail) < 5 * se

    def test_log_never_sees_zero(self):
        # The largest word gives u = 1 - 2**-53, so 1 - u = 2**-53 > 0 and
        # the radius is at its largest; the smallest word gives radius 0.
        words = np.array([[ONES, 0]], dtype=np.uint64)
        z = channel._box_muller(words, np.zeros_like(words))
        assert np.all(np.isfinite(z))
        assert abs(z[0, 0]) == pytest.approx(np.sqrt(106 * np.log(2.0)))
        assert z[0, 1] == 0.0

    @pytest.mark.parametrize("bound", sorted(set(blta_bounds(BlockStructure((3, 5))).tolist())))
    def test_lemire_accepts_equally_many_words_per_value(self, bound):
        # The words that map to r are the interval [x_r, x_(r+1)), with
        # x_r = ceil(r 2**64 / bound).  Along it the low product word climbs
        # by `bound` from below `bound`, past every threshold (< bound), so
        # only x_r can be rejected; the map is checked at x_r, x_r + 1 and
        # x_(r+1) - 1, and the accepted words of every r are counted.
        edges = [-(-(r << 64) // bound) for r in range(bound + 1)]
        probe = [x for lo, hi in zip(edges, edges[1:]) for x in (lo, lo + 1, hi - 1)]
        values, accepted = channel._lemire(np.array(probe, dtype=np.uint64), bound)
        values = values.reshape(bound, 3)
        accepted = accepted.reshape(bound, 3)
        assert np.array_equal(values, np.repeat(np.arange(bound)[:, None], 3, axis=1))
        assert accepted[:, 1:].all()
        for r in range(bound):
            assert accepted[r, 0] == (lemire_oracle(edges[r], bound) is not None)
        counts = {edges[r + 1] - edges[r] - (not accepted[r, 0]) for r in range(bound)}
        assert counts == {(1 << 64) // bound}
        assert int((~accepted[:, 0]).sum()) == (1 << 64) % bound

    def test_lemire_rejects_bounds_above_2_32(self):
        # (x >> 32) * h fits in 64 bits only while h <= 2**32.
        words = np.array([1, ONES], dtype=np.uint64)
        values, accepted = channel._lemire(words, [1 << 32])
        assert values.tolist() == [0, (1 << 32) - 1] and accepted.all()
        with pytest.raises(ValueError, match="above 2"):
            channel._lemire(words, [(1 << 32) + 1])

    def test_rejected_integers_are_redrawn_from_the_spare_ranges(self, monkeypatch):
        # Word 0 is rejected under every bound that is not a power of two.
        # Range 1 is all zeros and range 2 zero in its first column, so
        # those entries fall through to range 3.
        real = channel._frame_words
        asked = []

        def stub(key, part, lo, hi, width):
            asked.append(part)
            words = real(key, part, lo, hi, width).copy()
            if part == 1:
                words[:] = 0
            elif part == 2:
                words.reshape(-1, 9)[:, 0] = 0
            return words

        monkeypatch.setattr(channel, "_frame_words", stub)
        bounds = blta_bounds(BlockStructure((3, 5)))
        got = channel._automorphism_draw(KEY, 4, 10, bounds, 2)
        assert asked == [1, 2, 3]
        assert got.shape == (12, 9) and np.all((got >= 0) & (got < bounds))
        spare = {k: real(KEY, k, 4, 10, 18).reshape(12, 9) for k in (2, 3)}
        for j, b in enumerate(bounds.tolist()):
            if b & (b - 1) == 0:
                assert np.all(got[:, j] == 0)
                continue
            source = spare[3] if j == 0 else spare[2]
            want = [lemire_oracle(w, b) for w in source[:, j]]
            assert got[:, j].tolist() == want
