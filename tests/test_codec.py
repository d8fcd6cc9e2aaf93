"""Encoder against the Kronecker-product reference, decoder reductions,
and the list/ensemble decoders on clean and noisy frames."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kron_generator_matrix, random_decreasing_code
from polaraut import codec
from polaraut.automorphisms import (
    BlockStructure,
    find_block_structure,
    position_tables_batch,
    sample_blta_batch,
)
from polaraut.channel import ChannelParams
from polaraut.codec import (
    KERNELS,
    aut_sc_decode_batch,
    encode_batch,
    frozen_mask,
    polar_transform,
    sc_decode_batch,
    scl_decode_batch,
)
from polaraut.construction import ConstructionSpec, bhattacharyya_bec_design
from polaraut.monomials import (
    Monomial,
    MonomialCode,
    decreasing_closure,
    enumerate_decreasing_codes,
    row_to_monomial,
)
from polaraut.verify import position_table, sample_blta
import reference_codec
from reference_codec import (
    REFERENCE_KERNELS,
    _sc_batch,
    aut_sc_reference,
    correlations_reference,
    polar_transform_reference,
    sc_reference,
    scl_reference,
)


def noisy_llrs(code, rng, frames, sigma):
    msgs = rng.integers(0, 2, size=(frames, code.dimension), dtype=np.uint8)
    words = encode_batch(code, msgs)
    y = (1.0 - 2.0 * words) + sigma * rng.standard_normal(words.shape)
    return msgs, words, 2.0 * y / (sigma * sigma)


def all_codewords(code):
    k = code.dimension
    msgs = np.array(
        [[m >> i & 1 for i in range(k)] for m in range(1 << k)], dtype=np.uint8
    )
    return msgs, encode_batch(code, msgs)


class TestPolarTransform:
    def test_two_bit_cases(self):
        assert polar_transform(np.array([0, 1], dtype=np.uint8)).tolist() == [1, 1]
        assert polar_transform(np.array([1, 0], dtype=np.uint8)).tolist() == [1, 0]
        assert polar_transform(np.array([1, 1], dtype=np.uint8)).tolist() == [0, 1]

    def test_involution(self):
        rng = np.random.default_rng(60)
        for n in range(1, 9):
            bits = rng.integers(0, 2, size=(4, 1 << n), dtype=np.uint8)
            assert np.array_equal(polar_transform(polar_transform(bits)), bits)

    def test_input_left_untouched(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        kept = bits.copy()
        polar_transform(bits)
        assert np.array_equal(bits, kept)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            polar_transform(np.array([1, 0, 1], dtype=np.uint8))

    def test_matches_last_axis_staging(self):
        rng = np.random.default_rng(63)
        for shape in [(1,), (16,), (5, 32), (3, 4, 64), (2, 256), (256, 128)]:
            bits = rng.integers(0, 2, size=shape, dtype=np.uint8)
            assert np.array_equal(polar_transform(bits), polar_transform_reference(bits))
        view = rng.integers(0, 2, size=(64, 8), dtype=np.uint8).T[:, ::-1]
        assert np.array_equal(polar_transform(view), polar_transform_reference(view))


def test_frozen_mask_complements_rows():
    code = MonomialCode.from_rows(3, [3, 5, 6, 7])
    mask = frozen_mask(code)
    assert mask.tolist() == [True, True, True, False, True, False, False, False]


class TestEncode:
    def test_matches_kronecker_reference(self):
        # Codeword = message-expanded vector times the Kronecker power,
        # read out in reversed index order.
        rng = np.random.default_rng(61)
        for n in range(1, 6):
            g = kron_generator_matrix(n)
            code = random_decreasing_code(rng, n)
            msgs = rng.integers(0, 2, size=(16, code.dimension), dtype=np.uint8)
            u = np.zeros((16, 1 << n), dtype=np.uint8)
            u[:, list(code.rows)] = msgs
            expected = ((u @ g) % 2)[:, ::-1]
            assert np.array_equal(encode_batch(code, msgs), expected)

    def test_single_monomial_is_pointwise_product(self):
        # The codeword of one monomial evaluates it at every point: position j
        # is 1 exactly when j has all the monomial's variable bits set.
        for n in range(1, 5):
            for m in range(1 << n):
                code = MonomialCode(n, frozenset({Monomial(m)}))
                word = encode_batch(code, np.ones((1, 1), dtype=np.uint8))[0]
                expected = [1 if j & m == m else 0 for j in range(1 << n)]
                assert word.tolist() == expected

    def test_linearity(self):
        rng = np.random.default_rng(62)
        code = random_decreasing_code(rng, 5)
        a = rng.integers(0, 2, size=(8, code.dimension), dtype=np.uint8)
        b = rng.integers(0, 2, size=(8, code.dimension), dtype=np.uint8)
        assert np.array_equal(
            encode_batch(code, a ^ b), encode_batch(code, a) ^ encode_batch(code, b)
        )

    def test_zero_message(self):
        code = decreasing_closure([Monomial.from_indices([0, 1])], 3)
        word = encode_batch(code, np.zeros((1, code.dimension), dtype=np.uint8))
        assert not word.any()

    def test_shape_validation(self):
        code = MonomialCode.from_rows(2, [3])
        with pytest.raises(ValueError):
            encode_batch(code, np.zeros((2, 2), dtype=np.uint8))


class TestMessageTypes:
    def test_message_word_round_trip(self):
        # Message bit i is the coefficient of the monomial of row code.rows[i]:
        # the codeword is that polynomial evaluated at every point, and
        # decoding the clean word gives the coefficients back.
        code = decreasing_closure([Monomial.from_indices([0, 1])], 2)
        coeffs = {Monomial(m): 1 if m in (0b11, 0) else 0 for m in range(4)}
        msg = np.array([[coeffs[row_to_monomial(r, 2)] for r in code.rows]], np.uint8)
        word = encode_batch(code, msg)
        # 1 + x0 x1 is 0 exactly at the point x0 = x1 = 1
        assert word.tolist() == [[1, 1, 1, 0]]
        got_msg, got_word = sc_decode_batch(code, 4.0 * (1.0 - 2.0 * word))
        assert np.array_equal(got_msg, msg)
        assert np.array_equal(got_word, word)

    def test_message_word_validation(self):
        code = MonomialCode.from_rows(2, [3])
        with pytest.raises(ValueError):
            encode_batch(code, np.array([[0, 1]], dtype=np.uint8))
        with pytest.raises(ValueError):
            encode_batch(code, np.array([[2]], dtype=np.uint8))

    @pytest.mark.parametrize("bad", [0.7, 1.9, -1, 2, np.nan])
    def test_message_values_other_than_0_or_1_rejected(self, bad):
        # Cast to uint8, 0.7 would encode as 0 and 1.9 as 1.
        code = MonomialCode.from_rows(2, [2, 3])
        with pytest.raises(ValueError, match="must be 0 or 1"):
            encode_batch(code, np.array([[1, bad]]))

    def test_any_dtype_of_zeros_and_ones_encodes_alike(self, monkeypatch):
        code = MonomialCode.from_rows(2, [1, 2, 3])
        msgs = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        want = encode_batch(code, msgs)
        for dtype in (np.int64, np.float64, np.int8):
            assert np.array_equal(encode_batch(code, msgs.astype(dtype)), want)
        # uint8, which the harness passes, and bool take no extra pass.
        monkeypatch.setattr(np, "isin", None)
        assert np.array_equal(encode_batch(code, msgs.astype(bool)), want)
        assert np.array_equal(encode_batch(code, msgs), want)

    def test_llr_frame_rejects_non_finite(self):
        code = MonomialCode.from_rows(1, [1])
        with pytest.raises(ValueError):
            sc_decode_batch(code, np.array([[1.0, np.inf]]))

    def test_bad_kernel_or_list_size_rejected(self):
        code = MonomialCode.from_rows(1, [1])
        llrs = np.array([[1.0, -1.0]])
        tables = np.arange(2)[None, :]
        for decode in (
            lambda **kw: sc_decode_batch(code, llrs, **kw),
            lambda **kw: scl_decode_batch(code, llrs, 2, **kw),
            lambda **kw: aut_sc_decode_batch(code, llrs, tables, **kw),
        ):
            with pytest.raises(ValueError, match="unknown kernel"):
                decode(kernel="fast")
        with pytest.raises(ValueError, match="list size"):
            scl_decode_batch(code, llrs, 0)
        for bad in (2.5, 2.0, True, np.bool_(True), np.float64(2.0), None, "3"):
            with pytest.raises(ValueError, match="list size must be an int"):
                scl_decode_batch(code, llrs, bad)
        with pytest.raises(ValueError, match="list size must be positive"):
            scl_decode_batch(code, llrs, np.int64(-1))
        # numpy ints are ints.
        for size in (np.int64(2), np.int32(2), np.uint8(2)):
            assert scl_decode_batch(code, llrs, size)[1].shape == (1, 2)


class TestScDecode:
    def test_tiny_g_node_case(self):
        # One frozen leaf, then an information leaf seen through the g update:
        # llrs (+2, +3) give 3 + 2 = 5 > 0, so the bit decodes to 0.
        code = MonomialCode.from_rows(1, [1])
        msgs, words = sc_decode_batch(code, np.array([[2.0, 3.0]]))
        assert msgs.tolist() == [[0]]
        assert words.tolist() == [[0, 0]]

    def test_noiseless_round_trip(self):
        rng = np.random.default_rng(63)
        for n in range(1, 7):
            code = random_decreasing_code(rng, n)
            msgs = rng.integers(0, 2, size=(32, code.dimension), dtype=np.uint8)
            words = encode_batch(code, msgs)
            llrs = 10.0 * (1.0 - 2.0 * words.astype(np.float64))
            got_msgs, got_words = sc_decode_batch(code, llrs)
            assert np.array_equal(got_msgs, msgs)
            assert np.array_equal(got_words, words)

    def test_decoded_word_reencodes(self):
        # Whatever SC outputs, the pair (message, codeword) is consistent.
        rng = np.random.default_rng(64)
        code = random_decreasing_code(rng, 6)
        _, _, llrs = noisy_llrs(code, rng, 64, sigma=1.2)
        msgs, words = sc_decode_batch(code, llrs)
        assert np.array_equal(encode_batch(code, msgs), words)

    def test_min_sum_agrees_on_clean_frames(self):
        rng = np.random.default_rng(65)
        code = random_decreasing_code(rng, 5)
        msgs = rng.integers(0, 2, size=(16, code.dimension), dtype=np.uint8)
        words = encode_batch(code, msgs)
        llrs = 7.5 * (1.0 - 2.0 * words.astype(np.float64))
        exact = sc_decode_batch(code, llrs, kernel="exact_boxplus")
        minsum = sc_decode_batch(code, llrs, kernel="min_sum")
        assert np.array_equal(exact[0], minsum[0])

    def test_single_frame_wrapper(self):
        code = MonomialCode.from_rows(2, [1, 3])
        msgs, words = sc_decode_batch(code, np.array([[4.0, -4.0, 4.0, -4.0]]))
        assert msgs.shape == (1, 2)
        assert np.array_equal(encode_batch(code, msgs), words)


class TestSclDecode:
    def test_list_one_equals_sc(self):
        rng = np.random.default_rng(66)
        for n in (4, 6):
            code = random_decreasing_code(rng, n)
            _, _, llrs = noisy_llrs(code, rng, 500, sigma=1.0)
            sc_msgs, sc_words = sc_decode_batch(code, llrs)
            scl_msgs, scl_words = scl_decode_batch(code, llrs, 1)
            assert np.array_equal(sc_msgs, scl_msgs)
            assert np.array_equal(sc_words, scl_words)

    def test_list_one_equals_sc_on_rounding_tie(self):
        # Adding a tiny penalty to a large path metric can round to the same
        # float; a per-leaf list of one path then keeps bit 0 by tie order
        # where SC decides 1.  Frame 16 here is such a frame.
        code = decreasing_closure([row_to_monomial(27, 7), row_to_monomial(56, 7)], 7)
        rng = np.random.default_rng(5)
        msgs = rng.integers(0, 2, (1500, 64), dtype=np.uint8)
        words = encode_batch(code, msgs)
        sigma2 = ChannelParams(1.5, 0.5).noise_variance
        y = (1.0 - 2.0 * words) + np.sqrt(sigma2) * rng.standard_normal(words.shape)
        llrs = np.round(2.0 * y / sigma2)
        sc = sc_decode_batch(code, llrs)
        scl = scl_decode_batch(code, llrs, 1)
        assert np.array_equal(sc[0], scl[0])
        assert np.array_equal(sc[1], scl[1])
        _, per_leaf = scl_reference(code, llrs[16:17], 1)
        assert not np.array_equal(per_leaf, sc[1][16:17])

    def test_big_list_is_maximum_likelihood(self):
        # With the list covering the whole codebook the pick must be the
        # correlation maximiser.
        code = MonomialCode.from_rows(4, [7, 11, 13, 14, 15])
        rng = np.random.default_rng(67)
        _, _, llrs = noisy_llrs(code, rng, 500, sigma=1.1)
        _, book = all_codewords(code)
        signs = 1.0 - 2.0 * book.astype(np.float64)
        ml_scores = llrs @ signs.T
        _, got_words = scl_decode_batch(code, llrs, 32)
        got_scores = np.einsum("ij,ij->i", llrs, 1.0 - 2.0 * got_words)
        assert np.allclose(got_scores, ml_scores.max(axis=1))

    def test_never_worse_than_sc_in_ml_metric(self):
        rng = np.random.default_rng(68)
        code = random_decreasing_code(rng, 6)
        _, _, llrs = noisy_llrs(code, rng, 200, sigma=1.3)
        _, sc_words = sc_decode_batch(code, llrs)
        _, scl_words = scl_decode_batch(code, llrs, 8)
        sc_scores = np.einsum("ij,ij->i", llrs, 1.0 - 2.0 * sc_words)
        scl_scores = np.einsum("ij,ij->i", llrs, 1.0 - 2.0 * scl_words)
        assert np.all(scl_scores >= sc_scores - 1e-9)

    def test_decoded_word_reencodes(self):
        rng = np.random.default_rng(69)
        code = random_decreasing_code(rng, 5)
        _, _, llrs = noisy_llrs(code, rng, 100, sigma=1.4)
        msgs, words = scl_decode_batch(code, llrs, 4)
        assert np.array_equal(encode_batch(code, msgs), words)

    def test_single_frame_wrapper(self):
        code = MonomialCode.from_rows(3, [3, 5, 6, 7])
        rng = np.random.default_rng(70)
        _, _, llrs = noisy_llrs(code, rng, 1, sigma=0.4)
        msgs, words = scl_decode_batch(code, llrs, 4)
        assert msgs.shape == (1, 4)
        assert np.array_equal(encode_batch(code, msgs), words)


class TestAutScDecode:
    def test_identity_ensemble_is_sc(self):
        rng = np.random.default_rng(71)
        code = random_decreasing_code(rng, 6)
        _, _, llrs = noisy_llrs(code, rng, 300, sigma=1.2)
        table = np.arange(code.block_length, dtype=np.int64)[None, :]
        aut_msgs, aut_words = aut_sc_decode_batch(code, llrs, table)
        sc_msgs, sc_words = sc_decode_batch(code, llrs)
        assert np.array_equal(aut_msgs, sc_msgs)
        assert np.array_equal(aut_words, sc_words)

    def test_noiseless_with_sampled_ensemble(self):
        rng = np.random.default_rng(72)
        code = random_decreasing_code(rng, 5)
        structure = find_block_structure(code)
        rows, offsets = sample_blta_batch(structure, 4, rng)
        tables = position_tables_batch(rows, offsets)
        msgs = rng.integers(0, 2, size=(32, code.dimension), dtype=np.uint8)
        words = encode_batch(code, msgs)
        llrs = 9.0 * (1.0 - 2.0 * words.astype(np.float64))
        got_msgs, got_words = aut_sc_decode_batch(code, llrs, tables)
        assert np.array_equal(got_msgs, msgs)
        assert np.array_equal(got_words, words)

    def test_picks_best_branch_by_correlation(self):
        rng = np.random.default_rng(73)
        code = random_decreasing_code(rng, 6)
        structure = find_block_structure(code)
        rows, offsets = sample_blta_batch(structure, 8, rng)
        tables = position_tables_batch(rows, offsets)
        _, _, llrs = noisy_llrs(code, rng, 100, sigma=1.3)
        _, words = aut_sc_decode_batch(code, llrs, tables)
        # every branch correlation is at most the winner's
        for i in (0, 17, 63, 99):
            frame = llrs[i]
            winner = float(frame @ (1.0 - 2.0 * words[i]))
            for m in range(8):
                perm = tables[m]
                branch_msgs, _ = sc_decode_batch(code, frame[perm][None, :])
                branch_word = encode_batch(code, branch_msgs)[0]
                restored = np.empty_like(branch_word)
                restored[perm] = branch_word
                score = float(frame @ (1.0 - 2.0 * restored))
                assert score <= winner + 1e-9

    def test_decoded_word_reencodes(self):
        rng = np.random.default_rng(74)
        code = random_decreasing_code(rng, 5)
        structure = find_block_structure(code)
        rows, offsets = sample_blta_batch(structure, 4, rng)
        tables = position_tables_batch(rows, offsets)
        _, _, llrs = noisy_llrs(code, rng, 80, sigma=1.5)
        msgs, words = aut_sc_decode_batch(code, llrs, tables)
        assert np.array_equal(encode_batch(code, msgs), words)

    def test_single_frame_wrapper(self):
        rng = np.random.default_rng(75)
        code = random_decreasing_code(rng, 4)
        structure = find_block_structure(code)
        tables = np.stack([position_table(sample_blta(structure, rng)) for _ in range(3)])
        _, _, llrs = noisy_llrs(code, rng, 1, sigma=0.3)
        msgs, words = aut_sc_decode_batch(code, llrs, tables)
        assert msgs.shape == (1, code.dimension)
        assert np.array_equal(encode_batch(code, msgs), words)


    def test_table_dtypes_and_layouts_give_the_same_words(self):
        # position_tables_batch's uint8 width-major view, other integer
        # dtypes, read-only, non-contiguous and shared (M, N) tables: one
        # word per frame, whatever the tables' dtype or layout.
        code = generator_code(8, [31, 57])
        rng = np.random.default_rng(76)
        frames = 24
        _, _, llrs = noisy_llrs(code, rng, frames, sigma=0.9)
        rows, offsets = sample_blta_batch(find_block_structure(code), 8 * frames, rng)
        wide = position_tables_batch(rows, offsets).reshape(frames, 8, -1)
        assert wide.dtype == np.uint8
        tables = wide[:, ::2]
        assert not tables.flags.c_contiguous and not tables.T.flags.c_contiguous
        frozen = tables.copy()
        frozen.setflags(write=False)
        shared = position_tables_batch(rows[:4], offsets[:4])
        for given, plain in ((tables, tables.astype(np.int64)), (shared, shared.astype(np.int64))):
            want = aut_sc_decode_batch(code, llrs, np.ascontiguousarray(plain))
            ref = aut_sc_reference(code, llrs, plain)
            assert np.array_equal(want[1], ref[1])
            layouts = [given] + [given.astype(t) for t in (np.uint16, np.int32, np.int64)]
            layouts += [frozen] if given is tables else [np.broadcast_to(given, (frames, 4, 256))]
            for t in layouts:
                got = aut_sc_decode_batch(code, llrs, t)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestLtaInvariance:
    def test_lta_permuted_frames_decode_identically(self):
        # Permuting the channel output by a lower-triangular affine map, SC
        # decoding, and undoing the permutation reproduces plain SC exactly.
        rng = np.random.default_rng(76)
        code = decreasing_closure(
            [Monomial.from_indices([0, 3]), Monomial.from_indices([1, 2])], 6
        )
        lta = BlockStructure((1,) * 6)
        _, _, llrs = noisy_llrs(code, rng, 50, sigma=1.2)
        _, base_words = sc_decode_batch(code, llrs)
        for _ in range(20):
            aut = sample_blta(lta, rng)
            table = position_table(aut)
            _, perm_words = sc_decode_batch(code, llrs[:, table])
            restored = np.empty_like(perm_words)
            restored[:, table] = perm_words
            assert np.array_equal(restored, base_words)


class TestInputChecks:
    @pytest.fixture
    def code(self):
        return MonomialCode.from_rows(3, [3, 5, 6, 7])

    def decoders(self, code):
        tables = np.arange(code.block_length)[None, :]
        return [
            lambda llrs: sc_decode_batch(code, llrs),
            lambda llrs: scl_decode_batch(code, llrs, 8),
            lambda llrs: scl_decode_batch(code, llrs, 4),
            lambda llrs: aut_sc_decode_batch(code, llrs, tables),
        ]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, code, bad):
        llrs = np.ones((3, 8))
        llrs[1, 5] = bad
        for decode in self.decoders(code):
            with pytest.raises(ValueError, match="finite"):
                decode(llrs)

    @pytest.mark.parametrize("shape", [(3, 4), (3, 16), (8,), (1, 3, 8)])
    def test_wrong_shape_rejected(self, code, shape):
        for decode in self.decoders(code):
            with pytest.raises(ValueError, match="shape"):
                decode(np.ones(shape))

    @pytest.mark.parametrize("shape", [(8,), (2, 4), (2, 16), (0, 8), (2, 2, 8), (3, 0, 8), (1, 3, 2, 8)])
    def test_wrong_table_shape_rejected(self, code, shape):
        with pytest.raises(ValueError, match="shape"):
            aut_sc_decode_batch(code, np.ones((3, 8)), np.zeros(shape, dtype=np.int64))

    @pytest.mark.parametrize("bad", [-1, 8, 100])
    def test_table_entries_out_of_range_rejected(self, code, bad):
        tables = np.tile(np.arange(8), (3, 2, 1))
        tables[1, 0, 3] = bad
        for shaped in (tables, tables[1]):
            with pytest.raises(ValueError, match=r"\[0, 8\)"):
                aut_sc_decode_batch(code, np.ones((3, 8)), shaped)

    @pytest.mark.parametrize("dtype, bad", [(np.uint16, 256), (np.int64, -1), (np.int32, 256)])
    def test_table_entries_out_of_range_rejected_at_n256(self, dtype, bad):
        code = generator_code(8, [31, 57])
        tables = np.tile(np.arange(256, dtype=dtype), (2, 1))
        tables[1, 7] = bad
        with pytest.raises(ValueError, match=r"\[0, 256\)"):
            aut_sc_decode_batch(code, np.ones((3, 256)), tables)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32])
    def test_narrow_non_permutations_rejected(self, dtype):
        code = generator_code(8, [31, 57])
        tables = np.tile(np.arange(256, dtype=dtype), (3, 2, 1))
        tables[2, 1, 9] = tables[2, 1, 200]
        with pytest.raises(ValueError, match="permutation"):
            aut_sc_decode_batch(code, np.ones((3, 256)), tables)

    @pytest.mark.parametrize("case", ["all zero", "repeated entry", "one bad shared row"])
    def test_non_permutation_tables_rejected(self, code, case):
        tables = np.tile(np.arange(8), (3, 2, 1))
        if case == "all zero":
            tables = np.zeros((1, 8), dtype=np.int64)
        elif case == "repeated entry":
            tables[2, 1, 4] = tables[2, 1, 5]
        else:
            tables = tables[0]
            tables[1] = [0, 1, 2, 3, 4, 5, 6, 6]
        with pytest.raises(ValueError, match="permutation"):
            aut_sc_decode_batch(code, np.ones((3, 8)), tables)

    def test_non_integer_tables_rejected(self, code):
        with pytest.raises(ValueError, match="integers"):
            aut_sc_decode_batch(code, np.ones((3, 8)), np.arange(8.0)[None, :])

    def test_empty_batch_gives_empty_outputs(self, code):
        tables = np.zeros((0, 2, 8), dtype=np.uint8)
        for decode in [*self.decoders(code), lambda llrs: aut_sc_decode_batch(code, llrs, tables)]:
            msgs, words = decode(np.ones((0, 8)))
            assert msgs.shape == (0, code.dimension) and words.shape == (0, 8)


def generator_code(n, gens):
    return ConstructionSpec.from_dict({"kind": "generators", "n": n, "generators": gens}).build()


class TestKernels:
    """The check-node kernels equal the pinned originals bit for bit."""

    # Signed zeros, subnormals, the edge of exp underflow, magnitudes whose
    # products underflow (1e-200) or overflow (1e200, 1e300), and near the
    # largest float, where a + b overflows too.
    SPECIAL = [0.0, 5e-324, 1e-310, 2.2e-308, 1e-200, 0.3, 1.0, 2.5, 744.0, 745.0,
               746.0, 1e200, 1e300, 1.7e308]

    @pytest.mark.parametrize("kernel", ["exact_boxplus", "min_sum"])
    def test_bitwise_on_special_values(self, kernel):
        values = np.array(self.SPECIAL)
        values = np.concatenate([values, -values])
        a, b = np.meshgrid(values, values)
        with np.errstate(over="ignore", invalid="ignore"):
            got = KERNELS[kernel](a, b)
            want = REFERENCE_KERNELS[kernel](a, b)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("kernel", ["exact_boxplus", "min_sum"])
    def test_bitwise_on_random_values(self, kernel):
        rng = np.random.default_rng(82)
        x = rng.standard_normal((64, 40, 8)) * 10.0 ** rng.integers(-8, 4, (64, 40, 8))
        x[rng.random(x.shape) < 0.02] = -0.0
        a, b = x[:32], x[32:]  # a node's two halves, as the walker passes them
        got = KERNELS[kernel](a, b)
        want = REFERENCE_KERNELS[kernel](a, b)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_inputs_left_untouched(self):
        a, b = np.array([[1.5, -0.0, 3.0]]), np.array([[-2.0, 4.0, 0.5]])
        for kernel in KERNELS.values():
            kernel(a, b)
            assert a.tolist() == [[1.5, -0.0, 3.0]] and b.tolist() == [[-2.0, 4.0, 0.5]]

    @staticmethod
    def check_g(a, b, rng):
        """codec._g against the reference for x all 0, all 1 and random,
        leaving a, b and x untouched."""
        for x in (
            np.zeros(a.shape, dtype=np.uint8),
            np.ones(a.shape, dtype=np.uint8),
            rng.integers(0, 2, a.shape, dtype=np.uint8),
        ):
            before = [v.copy() for v in (a, b, x)]
            with np.errstate(over="ignore"):
                got = codec._g(a, b, x)
                want = reference_codec._g(a, b, x)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            for v, old in zip((a, b, x), before):
                assert np.array_equal(v.view(np.uint8), old.view(np.uint8))

    def test_g_bitwise_on_special_values(self):
        values = np.array(self.SPECIAL)
        values = np.concatenate([values, -values])
        a, b = np.meshgrid(values, values)
        self.check_g(a, b, np.random.default_rng(83))

    def test_g_bitwise_on_random_values(self):
        rng = np.random.default_rng(84)
        x = rng.standard_normal((64, 40, 8)) * 10.0 ** rng.integers(-8, 4, (64, 40, 8))
        x[rng.random(x.shape) < 0.02] = -0.0
        self.check_g(x[:32], x[32:], rng)


class TestCorrelation:
    """codec._correlations flips each llr's sign bit where a candidate holds
    a 1; the np.where form it replaced is the oracle, bit for bit."""

    # TestKernels' values, the smallest normal and 1e308, whose sums
    # overflow to inf and, with both signs, to NaN.
    VALUES = TestKernels.SPECIAL + [float(np.finfo(np.float64).tiny), 1e308]

    @staticmethod
    def check(cands, llrs):
        before = [cands.copy(), llrs.copy()]
        with np.errstate(over="ignore", invalid="ignore"):
            got = codec._correlations(cands, llrs)
            want = correlations_reference(cands, llrs)
            best = codec._most_correlated(cands, llrs)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(best, cands[np.arange(len(cands)), want.argmax(axis=1)])
        for x, old in zip((cands, llrs), before):
            assert x.tobytes() == old.tobytes()

    def test_each_term_bitwise_on_special_values(self):
        # One position per frame: the correlations are the terms themselves,
        # llr and -llr, signed zeros and subnormals included.
        values = np.array(self.VALUES)
        llrs = np.concatenate([values, -values])[:, None]
        cands = np.broadcast_to(np.array([[0], [1]], dtype=np.uint8), (len(llrs), 2, 1))
        self.check(np.array(cands), llrs)

    def test_sums_bitwise_on_special_values(self):
        rng = np.random.default_rng(88)
        values = np.array(self.VALUES)
        llrs = rng.choice(np.concatenate([values, -values]), size=(64, 32))
        cands = rng.integers(0, 2, (64, 6, 32), dtype=np.uint8)
        self.check(cands, llrs)

    def test_sums_bitwise_on_random_values(self):
        rng = np.random.default_rng(89)
        llrs = rng.standard_normal((40, 256)) * 10.0 ** rng.integers(-8, 4, (40, 256))
        llrs[rng.random(llrs.shape) < 0.02] = -0.0
        cands = rng.integers(0, 2, (40, 8, 256), dtype=np.uint8)
        self.check(cands, llrs)
        # The layouts SCL passes: a transposed view of the walker's
        # (N, B, P) words and of its (N, B) channel.
        self.check(
            np.ascontiguousarray(cands.transpose(2, 0, 1)).transpose(1, 2, 0),
            np.ascontiguousarray(llrs.T).T,
        )

    def test_pick_on_repeated_and_tied_words(self):
        rng = np.random.default_rng(90)
        # Frames whose 8 words are one word, and frames of one branch.
        words = np.repeat(rng.integers(0, 2, (30, 1, 64), dtype=np.uint8), 8, axis=1)
        self.check(words, rng.standard_normal((30, 64)))
        self.check(rng.integers(0, 2, (20, 1, 32), dtype=np.uint8), rng.standard_normal((20, 32)))
        # Integer LLRs on 8 positions and words drawn from 4 per frame: many
        # distinct words tie exactly, and the lowest branch must win.
        pool = rng.integers(0, 2, (200, 4, 8), dtype=np.uint8)
        words = np.take_along_axis(pool, rng.integers(0, 4, (200, 8, 1)), axis=1)
        llrs = rng.integers(-2, 3, (200, 8)).astype(float)
        self.check(words, llrs)
        want = correlations_reference(words, llrs)
        tied = [len({w.tobytes() for w in frame[row == row.max()]}) > 1
                for frame, row in zip(words, want)]
        assert sum(tied) > 10


class TestCheckNodeSlabs:
    """codec._check_node runs a kernel on row slabs of at most _F_BLOCK
    elements and returns, bit for bit, what one call on the whole operands
    returns; the budget is patched small here so that small arrays cross it."""

    @staticmethod
    def check(monkeypatch, kernel, a, b, budget):
        """_check_node against the reference kernel; returns the operand
        shapes the kernel was called on."""
        monkeypatch.setattr(codec, "_F_BLOCK", budget)
        before = [a.copy(), b.copy()]
        shapes = TestNodeSchedule.counting_f(monkeypatch, kernel)
        with np.errstate(over="ignore", invalid="ignore"):
            got = codec._check_node(KERNELS[kernel], a, b)
            want = REFERENCE_KERNELS[kernel](a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for x, old in zip((a, b), before):
            assert np.array_equal(x.view(np.uint64), old.view(np.uint64))
        return shapes

    @pytest.mark.parametrize("kernel", ["exact_boxplus", "min_sum"])
    def test_special_values_in_slabs(self, monkeypatch, kernel):
        values = np.array(TestKernels.SPECIAL)
        values = np.concatenate([values, -values])
        a, b = np.meshgrid(values, values)
        shapes = self.check(monkeypatch, kernel, a, b, budget=3 * len(values))
        assert shapes == [(3, len(values))] * 9 + [(1, len(values))]

    @pytest.mark.parametrize("kernel", ["exact_boxplus", "min_sum"])
    @pytest.mark.parametrize(
        "shape, budget, slabs",
        [
            ((32, 40), 80, [2] * 16),  # SC and Aut-SC: (width, columns)
            ((10, 7), 21, [3, 3, 3, 1]),  # a short last slab
            ((16, 5, 4), 50, [2] * 8),  # SCL: (width, frames, paths)
            ((13, 3, 8), 100, [4, 4, 4, 1]),
            ((4, 100), 30, [1] * 4),  # a row wider than the budget
            ((1, 2, 9), 5, [1]),
            ((8, 9), 72, [8]),  # within the budget: one call
        ],
    )
    def test_slabs_cover_every_row_once(self, monkeypatch, kernel, shape, budget, slabs):
        rng = np.random.default_rng(87)
        x = rng.standard_normal((2,) + shape) * 10.0 ** rng.integers(-8, 4, (2,) + shape)
        x[rng.random(x.shape) < 0.05] = -0.0
        x[rng.random(x.shape) < 0.05] = 0.0
        shapes = self.check(monkeypatch, kernel, x[0], x[1], budget)
        assert shapes == [(rows,) + shape[1:] for rows in slabs]

    def test_within_the_budget_the_kernel_result_is_returned(self):
        a, b = np.ones((4, 8)), -np.ones((4, 8))
        out = np.empty((4, 8))
        assert codec._check_node(lambda x, y: out, a, b) is out


def sc_f_widths(frozen):
    """The half-width of every f call SC makes when no frame falls below a
    Rate-1 floor, in call order, from the frozen-row counts of each node and
    of its left half: a node with no row or every row frozen calls no f, one
    whose left half is all frozen walks only its right half, and any other
    node calls f once and walks both halves."""

    def walk(rows):
        h = len(rows) // 2
        if rows.sum() in (0, len(rows)):
            return []
        if rows[:h].sum() == h:
            return walk(rows[h:])
        return [h] + walk(rows[:h]) + walk(rows[h:])

    return walk(np.asarray(frozen, dtype=int))


def generic_f_widths(size):
    """The half-width of every f call of the generic tree over size rows, in
    call order: one per internal node, in preorder."""
    if size == 1:
        return []
    h = size // 2
    return [h] + generic_f_widths(h) + generic_f_widths(h)


def plan_calls(plan, width, listing):
    """The half-widths of the f and g calls, each in call order, of a walk
    of codec's node plan over width rows with no frame below a Rate-1 floor.
    SCL adds a Rate-0 subtree's penalties through the generic tree's f."""
    kind, *halves = plan
    h = width // 2
    if kind == "rate0":
        return (generic_f_widths(width) if listing else []), []
    if kind in ("rate1", "leaf"):
        return [], []
    if kind == "left-rate0":
        f, g = plan_calls(halves[0], h, listing)
        return ([h] + generic_f_widths(h) if listing else []) + f, g
    (left_f, left_g), (right_f, right_g) = (plan_calls(p, h, listing) for p in halves)
    return [h] + left_f + right_f, left_g + [h] + right_g


def plan_kinds(plan):
    """Every node kind in a plan."""
    return {plan[0]}.union(*map(plan_kinds, plan[1:]))


class TestNodeSchedule:
    """SC visits Rate-0 and Rate-1 nodes whole and skips f for a left half
    that is all frozen, so a repetition node costs one a + b per level; SCL
    keeps every f call of the generic tree, in its order, since a frozen
    leaf's penalty needs its LLR."""

    @staticmethod
    def counting_f(monkeypatch, kernel):
        """f widths as the walker calls them, for the named kernel."""
        shapes = []
        f_kernel = KERNELS[kernel]

        def counting(a, b):
            shapes.append(a.shape)
            return f_kernel(a, b)

        monkeypatch.setitem(KERNELS, kernel, counting)
        return shapes

    @pytest.mark.parametrize(
        "n, gens, f_calls, f_elements", [(8, [31, 57], 44, 636), (7, [27, 56], 21, 236)]
    )
    def test_f_calls_follow_node_kinds(self, monkeypatch, n, gens, f_calls, f_elements):
        code = generator_code(n, gens)
        shapes = self.counting_f(monkeypatch, "exact_boxplus")
        rng = np.random.default_rng(79)
        # Clean frames keep every node's LLRs above its Rate-1 floor, so no
        # frame falls back inside a Rate-1 node and the frozen mask alone
        # fixes the f calls.
        _, _, llrs = noisy_llrs(code, rng, 4, sigma=0.2)
        sc_decode_batch(code, llrs)
        widths = sc_f_widths(frozen_mask(code))
        assert shapes == [(w, 4) for w in widths]
        assert (len(widths), sum(widths)) == (f_calls, f_elements)
        # SCL's Rate-0 rules drop g, XOR and concatenation, not f: one
        # _check_node call per internal node, with the generic tree's widths.
        calls = []
        check_node = codec._check_node

        def spy(f_kernel, a, b):
            calls.append(a.shape)
            return check_node(f_kernel, a, b)

        monkeypatch.setattr(codec, "_check_node", spy)
        for list_size in (2, 8):
            calls.clear()
            shapes.clear()
            scl_decode_batch(code, llrs, list_size)
            assert len(calls) == code.block_length - 1
            assert [c[:2] for c in calls] == [(w, 4) for w in generic_f_widths(code.block_length)]
            assert shapes == calls

    def test_plan_walk_follows_the_oracles(self):
        # SC's plan calls f where sc_f_widths does and g once per generic
        # node; SCL's calls every f of the generic tree.
        codes = [
            code
            for n in range(1, 6)
            for k in range(1, (1 << n) + 1)
            for code in enumerate_decreasing_codes(n, k)
        ]
        codes += [generator_code(8, [31, 57]), generator_code(7, [27, 56])]
        for code in codes:
            frozen, size = frozen_mask(code), code.block_length
            sc, scl = (codec._plan(frozen.tobytes(), listing) for listing in (False, True))
            f, g = plan_calls(sc, size, False)
            assert f == sc_f_widths(frozen), code
            assert sorted(g) == sorted(f), code
            assert plan_calls(scl, size, True)[0] == generic_f_widths(size), code
            assert "leaf" not in plan_kinds(sc) and "rate1" not in plan_kinds(scl)
        assert len(codes) == 159 + 2

    @pytest.mark.parametrize("n, gens", [(8, [31, 57]), (7, [27, 56])])
    def test_plan_is_built_once_per_mask(self, monkeypatch, n, gens):
        code = generator_code(n, gens)
        rng = np.random.default_rng(88)
        _, _, llrs = noisy_llrs(code, rng, 4, sigma=0.2)
        g_calls = []
        g = codec._g

        def spy(a, b, x):
            g_calls.append(len(a))
            return g(a, b, x)

        monkeypatch.setattr(codec, "_g", spy)
        tables = np.tile(np.arange(code.block_length), (2, 1))
        decode = [
            lambda: sc_decode_batch(code, llrs),
            lambda: scl_decode_batch(code, llrs, 4),
            lambda: aut_sc_decode_batch(code, llrs, tables),
        ]
        for run in decode:
            run()
        before = codec._plan.cache_info()
        g_calls.clear()
        for run in decode:
            run()
        # One lookup per decode, and nothing built.
        after = codec._plan.cache_info()
        assert (after.hits, after.misses) == (before.hits + len(decode), before.misses)
        # Clean frames: each decoder's g calls are those of its plan's walk,
        # one per generic node.
        sc_g, scl_g = (
            plan_calls(codec._plan(frozen_mask(code).tobytes(), listing), code.block_length, listing)[1]
            for listing in (False, True)
        )
        assert g_calls == sc_g + scl_g + sc_g

    def test_no_decreasing_code_has_a_lone_right_rate0_half(self):
        # A right-half row's monomial divides its left partner's, so in a
        # decreasing code a node whose right half is all frozen is all
        # frozen, and SC needs no rule for a Rate-0 right half.
        checked = 0
        for n in range(1, 7):
            for k in range(1, (1 << n) + 1):
                for code in enumerate_decreasing_codes(n, k):
                    frozen = frozen_mask(code)
                    for depth in range(1, n + 1):
                        halves = frozen.reshape(-1, 2, 1 << depth - 1).all(axis=2)
                        assert not (halves[:, 1] & ~halves[:, 0]).any(), (code, depth)
                    checked += 1
        assert checked == 1331

    @pytest.mark.parametrize("kernel", ["exact_boxplus", "min_sum"])
    def test_weak_frame_in_rate1_node_costs_its_depth(self, monkeypatch, kernel):
        # One zero LLR in one frame of a width-64 Rate-1 node: that frame
        # alone takes one generic level per depth, and only the half holding
        # the zero stays below its floor, so f runs once per depth on one
        # column, not 63 times.
        depth = 6
        width = 1 << depth
        frozen = np.zeros(width, dtype=bool)
        rng = np.random.default_rng(85)
        llrs = 20.0 * rng.choice([-1.0, 1.0], size=(width, 50))
        llrs[37, 11] = 0.0
        shapes = self.counting_f(monkeypatch, kernel)
        got = codec._tree(llrs, frozen, kernel, 1)[:, :, 0]
        assert shapes == [(width >> d, 1) for d in range(1, depth + 1)]
        _, want = _sc_batch(llrs.T, frozen, REFERENCE_KERNELS[kernel])
        assert np.array_equal(got.T, want)

    @settings(max_examples=150, deadline=None)
    @given(
        frozen=st.integers(1, 7).flatmap(
            lambda d: st.lists(st.booleans(), min_size=1 << d, max_size=1 << d)
        ),
        kernel=st.sampled_from(["exact_boxplus", "min_sum"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sc_walker_matches_reference(self, frozen, kernel, seed):
        # Any frozen mask, with each frame's magnitudes at 0.5-2x one
        # depth's exact-boxplus floor (tiny and subnormal ones for min-sum's
        # ulp floor among them) and exact zeros of both signs, so Rate-1
        # nodes at every depth send frames back through their halves.
        frozen = np.array(frozen)
        width, frames = len(frozen), 16
        rng = np.random.default_rng(seed)
        floors = np.array(codec._RATE1_FLOORS["exact_boxplus"])
        depth = rng.integers(1, width.bit_length(), frames)
        scale = np.where(rng.random(frames) < 0.2, 5e-324, floors[depth])
        llrs = scale * rng.uniform(0.5, 2.0, (width, frames))
        llrs *= rng.choice([-1.0, 1.0], (width, frames))
        llrs[rng.random(llrs.shape) < 0.05] = 0.0
        llrs[rng.random(llrs.shape) < 0.05] = -0.0
        _, want = _sc_batch(llrs.T, frozen, REFERENCE_KERNELS[kernel])
        got = codec._tree(llrs, frozen, kernel, 1)[:, :, 0]
        assert np.array_equal(got.T, want)

    @pytest.mark.parametrize("kernel", ["exact_boxplus", "min_sum"])
    def test_rate1_floor_is_safe(self, kernel):
        # Inputs sitting exactly on a width's floor, with random signs, are
        # the worst case for the hard-decision shortcut: generic SC must
        # still return the hard decision there.
        rng = np.random.default_rng(80)
        floors = codec._RATE1_FLOORS[kernel]
        for depth in range(1, 10):
            width = 1 << depth
            frozen = np.zeros(width, dtype=bool)
            llrs = floors[depth] * rng.choice([-1.0, 1.0], size=(width, 300))
            hard = (llrs < 0).astype(np.uint8)
            _, generic = _sc_batch(llrs.T, frozen, REFERENCE_KERNELS[kernel])
            assert np.array_equal(generic.T, hard)
            assert np.array_equal(codec._tree(llrs, frozen, kernel, 1)[:, :, 0], hard)

    def test_any_frozen_mask_matches_generic_sc(self):
        # Arbitrary masks, not only decreasing codes, give nodes with one
        # free row that is not the last.
        rng = np.random.default_rng(81)
        for _ in range(60):
            width = 1 << int(rng.integers(1, 7))
            frozen = rng.random(width) < rng.random()
            llrs = 3.0 * rng.standard_normal((width, 40))
            llrs[rng.random(llrs.shape) < 0.05] = 0.0
            for kernel in KERNELS:
                _, generic = _sc_batch(llrs.T, frozen, REFERENCE_KERNELS[kernel])
                assert np.array_equal(codec._tree(llrs, frozen, kernel, 1)[:, :, 0].T, generic)

    def test_any_frozen_mask_matches_scl_reference(self):
        # The SCL twin of the test above.  Arbitrary masks, unlike decreasing
        # codes, put Rate-0 nodes after the list has split, where each path
        # pays for the frozen bits its LLRs disagree with.  Rounded LLRs
        # and zeros tie candidate metrics.
        rng = np.random.default_rng(82)
        for _ in range(24):
            n = int(rng.integers(1, 7))
            info = np.flatnonzero(rng.random(1 << n) < rng.random())
            members = sum(1 << ((1 << n) - 1 ^ int(row)) for row in info) or 1
            code = MonomialCode.from_members(n, members)
            llrs = np.round(3.0 * rng.standard_normal((24, 1 << n)))
            llrs[rng.random(llrs.shape) < 0.05] = 0.0
            for list_size in (2, 4, 8):
                for kernel in KERNELS:
                    got = scl_decode_batch(code, llrs, list_size, kernel)
                    want = scl_reference(code, llrs, list_size, kernel)
                    assert np.array_equal(got[0], want[0]), (code, list_size, kernel)
                    assert np.array_equal(got[1], want[1]), (code, list_size, kernel)

    def test_repetition_sums_in_g_chain_order(self):
        # In the g chain 1e16 and -1e16 cancel before -1 and 0.5 are added;
        # summed left to right, -1 is lost to rounding and the sign flips.
        frozen = np.array([True, True, True, False])
        llrs = np.array([[1e16], [-1.0], [-1e16], [0.5]])
        _, generic = _sc_batch(llrs.T, frozen, REFERENCE_KERNELS["exact_boxplus"])
        assert generic.tolist() == [[1, 1, 1, 1]]
        assert np.array_equal(codec._tree(llrs, frozen, "exact_boxplus", 1)[:, :, 0].T, generic)

    def test_boxplus_floors(self):
        floors = codec._RATE1_FLOORS["exact_boxplus"]
        expected = [0.001, 0.053, 0.33, 0.86, 1.50, 2.18, 2.87, 3.56]
        assert np.allclose(floors[1:9], expected, rtol=0.02, atol=5e-4)
        assert all(np.diff(floors) > 0)


class TestAgainstReference:
    """Bit-exact against the per-leaf SCL and recursive SC in reference_codec."""

    @pytest.mark.parametrize("kernel", ["exact_boxplus", "min_sum"])
    @pytest.mark.parametrize("rounded", [False, True])
    def test_bit_exact(self, kernel, rounded):
        code = bhattacharyya_bec_design(0.3, 32, 6)
        self.check(code, kernel, rounded, scale=1.0, zeros=0.0, list_sizes=(2, 4, 8, 32))

    @pytest.mark.parametrize("kernel", ["exact_boxplus", "min_sum"])
    @pytest.mark.parametrize("rounded", [False, True])
    def test_bit_exact_on_weak_llrs(self, kernel, rounded):
        # Tiny LLRs and exact zeros fall below the Rate-1 floors of both
        # kernels, so SC and Aut-SC send those frames through the halves of
        # those nodes.
        code = generator_code(7, [27, 56])
        self.check(code, kernel, rounded, scale=1e-3, zeros=0.05, list_sizes=(4,))

    @pytest.mark.parametrize("kernel", ["exact_boxplus", "min_sum"])
    def test_scl_bit_exact_on_huge_llrs(self, kernel):
        # +-1e308 LLRs overflow g to inf and then to NaN, so path metrics
        # hold infs and NaNs: the pruning sort must rank them as the stable
        # sort does, NaN last.
        code = generator_code(6, [11, 22])
        rng = np.random.default_rng(90)
        llrs = 1e308 * rng.choice([-1.0, 1.0], (200, code.block_length))
        for size in (2, 4, 8, 32):
            with np.errstate(over="ignore", invalid="ignore"):
                got = scl_decode_batch(code, llrs, size, kernel)
                want = scl_reference(code, llrs, size, kernel)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 6),
        list_size=st.sampled_from([2, 3, 4, 8, 32]),
        kernel=st.sampled_from(["exact_boxplus", "min_sum"]),
        llr_kind=st.sampled_from(["gaussian", "rounded", "zeros", "huge"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scl_matches_reference_on_random_codes(self, n, list_size, kernel, llr_kind, seed):
        # Integer-rounded LLRs tie candidate metrics, exact zeros (of both
        # signs) tie a leaf's two candidates, and +-1e308 ones make
        # infinite and NaN metrics.
        rng = np.random.default_rng(seed)
        code = random_decreasing_code(rng, n)
        _, _, llrs = noisy_llrs(code, rng, 24, sigma=rng.uniform(0.5, 1.5))
        if llr_kind != "gaussian":
            llrs = np.round(llrs)
        if llr_kind == "zeros":
            llrs[rng.random(llrs.shape) < 0.3] = 0.0
            llrs[rng.random(llrs.shape) < 0.1] = -0.0
        elif llr_kind == "huge":
            llrs = np.where(rng.random(llrs.shape) < 0.5, np.copysign(1e308, llrs), llrs)
        with np.errstate(over="ignore", invalid="ignore"):
            got = scl_decode_batch(code, llrs, list_size, kernel)
            want = scl_reference(code, llrs, list_size, kernel)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("kernel", ["exact_boxplus", "min_sum"])
    def test_bit_exact_across_the_f_block(self, monkeypatch, kernel):
        # 128 frames of 8 Aut-SC branches or 8 SCL paths at N = 256: Aut-SC's
        # top f call holds 128 rows of 1,024 columns, and SCL's widest, once
        # 8 paths live, 64 rows of 1,024, so the walker runs both in slabs.
        code = generator_code(8, [31, 57])
        rng = np.random.default_rng(86)
        frames = 128
        _, _, llrs = noisy_llrs(code, rng, frames, sigma=0.9)
        rows, offsets = sample_blta_batch(find_block_structure(code), 8 * frames, rng)
        tables = position_tables_batch(rows, offsets).reshape(frames, 8, -1)
        sizes = []
        check_node = codec._check_node

        def spy(f_kernel, a, b):
            sizes.append(a.size)
            return check_node(f_kernel, a, b)

        monkeypatch.setattr(codec, "_check_node", spy)
        for decode, reference in (
            (aut_sc_decode_batch, aut_sc_reference),
            (scl_decode_batch, scl_reference),
        ):
            arg = tables if decode is aut_sc_decode_batch else 8
            sizes.clear()
            got = decode(code, llrs, arg, kernel)
            assert max(sizes) > codec._F_BLOCK
            want = reference(code, llrs, arg, kernel)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def check(self, code, kernel, rounded, scale, zeros, list_sizes):
        rng = np.random.default_rng(77)
        frames = 200
        _, _, llrs = noisy_llrs(code, rng, frames, sigma=1.1)
        if rounded:
            llrs = np.round(llrs)
        llrs = scale * llrs
        if zeros:
            llrs[rng.random(llrs.shape) < zeros] = 0.0
        rows, offsets = sample_blta_batch(find_block_structure(code), 4 * frames, rng)
        pairs = [(sc_decode_batch(code, llrs, kernel), sc_reference(code, llrs, kernel))]
        # Aut-SC on every table layout: the width-major view that
        # position_tables_batch returns, a C-contiguous copy, a read-only
        # second build of that view, other integer dtypes (unsigned too)
        # and a shared (M, N) ensemble.
        tables, frozen = (
            position_tables_batch(rows, offsets).reshape(frames, 4, -1) for _ in range(2)
        )
        frozen.setflags(write=False)
        per_frame = [tables, np.ascontiguousarray(tables), frozen]
        per_frame += [tables.astype(t) for t in (np.int32, np.uint8, np.uint64)]
        shared = position_tables_batch(rows[:4], offsets[:4])
        for layouts in (per_frame, [shared]):
            want = aut_sc_reference(code, llrs, layouts[0], kernel)
            pairs += [(aut_sc_decode_batch(code, llrs, t, kernel), want) for t in layouts]
        assert np.array_equal(frozen, tables)
        for size in list_sizes:
            pairs.append(
                (
                    scl_decode_batch(code, llrs, size, kernel),
                    scl_reference(code, llrs, size, kernel),
                )
            )
        for got, want in pairs:
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


class TestFullListLeaf:
    """A full-list SCL leaf where every frame's metrics rise strictly and
    every flipped bit costs more than the worst kept metric keeps its
    paths without a sort; any other full-list leaf sorts.  Each case below
    is built to reach the sort, and the words stay bit for bit those of
    scl_reference."""

    @staticmethod
    def sorts(patch, code, llrs, list_size, kernel="exact_boxplus"):
        """The decoded words, and the input of each default-kind np.argsort
        call the decode makes: the leaf's first sort (a tie adds a stable
        one, not kept here)."""
        inputs = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            if kwargs.get("kind") is None:
                inputs.append(a.copy())
            return argsort(a, *args, **kwargs)

        with patch.context() as m:
            m.setattr(np, "argsort", spy)
            return scl_decode_batch(code, llrs, list_size, kernel), inputs

    def sorted_leaves(self, monkeypatch, code, llrs, list_size, kernel):
        """Per frame, decoded alone, the (L, 2) candidate metrics of each
        full-list leaf that sorted; the words of those decodes, and of one
        decode of the whole batch, must equal scl_reference's."""
        leaves, alone = [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for frame in llrs:
                got, inputs = self.sorts(monkeypatch, code, frame[None], list_size, kernel)
                alone.append(got)
                leaves.append([
                    a.reshape(list_size, 2) for a in inputs if a.shape[1] == 2 * list_size
                ])
            whole = scl_decode_batch(code, llrs, list_size, kernel)
            want = scl_reference(code, llrs, list_size, kernel)
        for got in ([np.concatenate(part) for part in zip(*alone)], whole):
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        return leaves

    @staticmethod
    def tied_llrs(rng, code):
        """Integer LLRs times 2**60.  Every kernel output is then an
        integer multiple of 2**60: exact boxplus adds corrections below
        log 2 to values whose spacing is 256 or more, so it rounds to
        min-sum exactly, and path metrics tie as integers do."""
        _, _, llrs = noisy_llrs(code, rng, 64, sigma=1.0)
        return 2.0**60 * np.round(3.0 * llrs)

    # Each case's test on one sorted leaf's (L, 2) candidates, with kept
    # and flipped the lower and higher candidate of each path.
    CASES = {
        # Every frame would pass but for a flipped bit that costs exactly
        # the worst kept metric; the stable sort keeps that flip.
        "flip-ties-worst-kept": lambda kept, flipped: (
            (flipped > kept).all()
            and (np.diff(kept) > 0).all()
            and flipped.min() == kept[-1]
        ),
        "kept-paths-tie": lambda kept, flipped: (
            (flipped > kept).all()
            and flipped.min() > kept.max()
            and len(np.unique(kept)) < len(kept)
        ),
        "zero-llr": lambda kept, flipped: (flipped == kept).any(),
        "non-finite": lambda kept, flipped: not np.isfinite(flipped).all(),
    }

    @pytest.mark.parametrize("kernel", ["exact_boxplus", "min_sum"])
    @pytest.mark.parametrize("list_size", [2, 3, 4, 8])
    @pytest.mark.parametrize("case", list(CASES))
    def test_boundary_cases_sort_and_match_reference(
        self, monkeypatch, kernel, list_size, case
    ):
        code = bhattacharyya_bec_design(0.5, 16, 5)
        rng = np.random.default_rng(3201)
        llrs = self.tied_llrs(rng, code)
        if case == "zero-llr":
            llrs[rng.random(llrs.shape) < 0.1] = 0.0
            llrs[rng.random(llrs.shape) < 0.1] = -0.0
        elif case == "non-finite":
            # g overflows +-1e308 to infinity, and infinities to NaN.
            llrs = np.where(rng.random(llrs.shape) < 0.5, np.copysign(1e308, llrs), llrs)
        leaves = self.sorted_leaves(monkeypatch, code, llrs, list_size, kernel)
        seen = [
            any(self.CASES[case](c.min(axis=1), c.max(axis=1)) for c in frame)
            for frame in leaves
        ]
        assert any(seen)

    def test_most_full_list_leaves_skip_the_sort(self, monkeypatch):
        # (256,128) holds 128 information leaves; SCL-8's list is full from
        # the fourth on, so 125 leaves could sort.
        code = generator_code(8, [31, 57])
        rng = np.random.default_rng(3202)
        sigma = ChannelParams(2.5, code.dimension / code.block_length).noise_variance ** 0.5
        _, _, llrs = noisy_llrs(code, rng, 256, sigma)
        _, sorts = self.sorts(monkeypatch, code, llrs, 8)
        assert all(a.shape == (256, 16) for a in sorts)
        assert len(sorts) < 125 / 2
        # Zero LLRs tie both candidates of every path at every leaf.
        _, sorts = self.sorts(monkeypatch, code, np.zeros_like(llrs), 8)
        assert [a.shape for a in sorts] == [(256, 16)] * 125
