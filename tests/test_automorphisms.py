"""Stabilizer blocks, affine group sizing and sampling, and the
permutation-triangular factorization of block lower triangular matrices."""

import functools
import itertools
import math
import operator
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_group, gl_full_rank_mask, random_decreasing_code, stabilizer_size
from reference_blocks import greedy_block_structure
from polaraut import channel
from polaraut.automorphisms import (
    BlockStructure,
    blta_bounds,
    blta_size,
    find_block_structure,
    position_tables_batch,
    sample_blta_batch,
)
from polaraut.construction import bhattacharyya_bec_design, rm_code
from polaraut.verify import (
    AffineAutomorphism,
    BinaryMatrix,
    Permutation,
    _row_reduce,
    _swap_variables,
    block_reversal_matrix,
    brute_force_stabilizer,
    from_lists,
    identity,
    interval_disjoint_decomposition,
    is_block_lower_triangular,
    is_code_automorphism,
    lemma1_decompose,
    position_action,
    position_table,
    sample_blta,
    stabilizes,
)
from polaraut.monomials import (
    CapabilityError,
    Monomial,
    MonomialCode,
    _adjacent_up,
    _variable_members,
    decreasing_closure,
    enumerate_decreasing_codes,
)


def blta_linear_size_rowwise(structure):
    """Invertible block lower triangular count, row by row: the oracle.

    Row i contributes (free bits left of its block) x (choices completing its
    diagonal block to full rank).
    """
    out = 1
    for k, s in enumerate(structure.sizes):
        start = structure.starts[k]
        for local in range(s):
            out <<= start
            out *= (1 << s) - (1 << local)
    return out


def parity_position_tables(rows, offsets):
    """Position tables from per-bit parities of j & row: the oracle."""
    count, n = rows.shape
    parity = np.zeros(1 << 16, dtype=np.uint8)
    size = 1
    while size < parity.size:
        parity[size : 2 * size] = parity[:size] ^ 1
        size *= 2
    j = np.arange(1 << n, dtype=np.uint32)[None, :]
    out = np.repeat(offsets.astype(np.uint32)[:, None], 1 << n, axis=1)
    for i in range(n):
        masked = j & rows[:, i : i + 1].astype(np.uint32)
        out ^= parity[masked].astype(np.uint32) << np.uint32(i)
    return out.astype(np.int64)


def is_code_automorphism_by_codewords(aut, code):
    """Aut(C) membership over all 2**K codewords: the oracle."""
    size = 1 << code.n
    has = _variable_members(code.n)
    basis = [
        functools.reduce(operator.and_, (has[i] for i in f.indices), (1 << size) - 1)
        for f in code.info_set
    ]
    words = np.zeros(1, dtype=np.int64)
    for b in basis:
        words = np.concatenate([words, words ^ np.int64(b)])
    table = position_table(aut)
    permuted = np.zeros_like(words)
    for pos in range(size):
        permuted |= ((words >> np.int64(pos)) & np.int64(1)) << np.int64(table[pos])
    return set(permuted.tolist()) == set(words.tolist())


def is_code_automorphism_by_basis(aut, code):
    """Aut(C) membership on a basis, in Python ints at any n: the oracle.

    A permutation maps a linear code into itself exactly when it maps a
    basis into it, so the K evaluation words are moved through the position
    table and each image must reduce to zero against the reduced basis.
    """
    has = _variable_members(code.n)
    full = (1 << (1 << code.n)) - 1
    basis = [functools.reduce(operator.and_, (has[i] for i in f.indices), full)
             for f in code.info_set]
    table = position_table(aut).tolist()
    reduced, _, pivots = _row_reduce(basis)
    for word in basis:
        image = sum(1 << table[pos] for pos in range(1 << code.n) if word >> pos & 1)
        for b, p in zip(reduced, pivots):
            if image & p:
                image ^= b
        if image:
            return False
    return True


def coset_key(matrix):
    """The right coset A LT of A, LT the unit lower triangular group: each
    column of A reduced modulo the span of the columns after it (column j of
    A L is column j of A plus a combination of the later columns)."""
    cols = matrix.transpose().rows
    key = []
    for j, col in enumerate(cols):
        reduced, _, pivots = _row_reduce(cols[j + 1 :])
        for b, p in zip(reduced, pivots):
            if col & p:
                col ^= b
        key.append(col)
    return tuple(key)


@functools.lru_cache(maxsize=None)
def coset_representatives(n):
    """One invertible n x n matrix per right coset A LT, picked by coset_key."""
    picked = {}
    for rows in itertools.product(range(1 << n), repeat=n):
        m = BinaryMatrix(n, rows)
        if m.is_invertible():
            picked.setdefault(coset_key(m), m)
    return tuple(picked.values())


def chi_square(keys, cells):
    """Chi-square statistic of the observed keys against uniform over cells."""
    counts = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == cells
    expected = len(keys) / cells
    return sum((c - expected) ** 2 / expected for c in counts.values())


def relabelled_members(perm, code):
    """Membership integer of the information set relabelled mask by mask."""
    return sum(1 << perm.apply_mask(f.mask) for f in code.info_set)


def stabilizes_per_mask(perm, code):
    """The per-mask relabelling loop: the oracle for stabilizes."""
    masks = {f.mask for f in code.info_set}
    return all(perm.apply_mask(m) in masks for m in masks)


def random_info_set(rng, n):
    """A random, usually not decreasing, non-empty information set."""
    size = int(rng.integers(1, (1 << n) + 1))
    masks = rng.choice(1 << n, size=size, replace=False)
    return MonomialCode(n, frozenset(Monomial(int(m)) for m in masks))


def code_from_generator_rows(n, rows):
    from polaraut.monomials import row_to_monomial

    return decreasing_closure([row_to_monomial(r, n) for r in rows], n)


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    @pytest.mark.parametrize("call, message", [
        (lambda: Permutation.identity(2) * Permutation.identity(3), "size mismatch"),
        (lambda: stabilizes(Permutation.identity(3), rm_code(1, 4)), "permutation size"),
        (lambda: lemma1_decompose(identity(3), BlockStructure((2, 2))), "structure size"),
        (lambda: AffineAutomorphism(identity(2), 4), "offset out of range"),
        (lambda: AffineAutomorphism(identity(2), -1), "offset out of range"),
    ])
    def test_size_and_range_errors(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_composition_is_self_after_other(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            p = Permutation(tuple(int(i) for i in rng.permutation(n)))
            q = Permutation(tuple(int(i) for i in rng.permutation(n)))
            r = p * q
            for i in range(n):
                assert r(i) == p(q(i))

    def test_inverse(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            p = Permutation(tuple(int(i) for i in rng.permutation(n)))
            assert (p * p.inverse()).is_identity()
            assert (p.inverse() * p).is_identity()

    def test_transposition_and_cycles(self):
        t = Permutation.transposition(5, 1, 3)
        assert t.cycles() == [(1, 3)]
        assert Permutation.identity(4).cycles() == []
        three = Permutation((1, 2, 0))
        assert three.cycles() == [(0, 1, 2)]

    def test_apply_mask_relabels(self):
        p = Permutation((2, 0, 1))
        assert p.apply_mask(0b011) == 0b101  # {0,1} -> {2,0}
        assert p.apply_mask(0) == 0

    def test_to_matrix_is_homomorphism(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            p = Permutation(tuple(int(i) for i in rng.permutation(n)))
            q = Permutation(tuple(int(i) for i in rng.permutation(n)))
            assert (p * q).to_matrix() == p.to_matrix() @ q.to_matrix()
            assert p.to_matrix().is_permutation()
            for i in range(n):
                assert p.to_matrix().apply(1 << i) == 1 << p(i)


class TestStabilizes:
    def test_positive_and_negative(self):
        code = decreasing_closure([Monomial.from_indices([0, 2])], 3)
        assert not stabilizes(Permutation.transposition(3, 0, 1), code)
        assert stabilizes(Permutation.identity(3), code)

    def test_reed_muller_admits_everything(self):
        code = rm_code(2, 4)
        for images in itertools.permutations(range(4)):
            assert stabilizes(Permutation(images), code)

    def test_matches_per_mask_loop_on_every_decreasing_code(self):
        for n in range(1, 5):
            perms = [Permutation(p) for p in itertools.permutations(range(n))]
            for k in range(1, (1 << n) + 1):
                for code in enumerate_decreasing_codes(n, k):
                    for p in perms:
                        assert stabilizes(p, code) == stabilizes_per_mask(p, code)

    def test_matches_per_mask_loop_on_random_sets(self):
        rng = np.random.default_rng(46)
        for n in (5, 6):
            for _ in range(60):
                code = random_info_set(rng, n)
                p = Permutation(tuple(int(i) for i in rng.permutation(n)))
                # The union of the orbit of the set under p is stabilized by
                # p, so both answers occur.
                orbit, q = set(code.info_set), p
                while not q.is_identity():
                    orbit |= {Monomial(q.apply_mask(f.mask)) for f in code.info_set}
                    q = q * p
                closed = MonomialCode(n, frozenset(orbit))
                assert stabilizes(p, closed)
                others = [
                    Permutation(tuple(int(i) for i in rng.permutation(n))) for _ in range(8)
                ]
                for c in (code, closed):
                    for r in [p, p * p, p.inverse()] + others:
                        assert stabilizes(r, c) == stabilizes_per_mask(r, c)

    def test_swap_matches_per_mask_loop_on_census_codes(self):
        codes = list(enumerate_decreasing_codes(7, 32))
        assert len(codes) == 218
        for i, j in itertools.combinations(range(7), 2):
            t = Permutation.transposition(7, i, j)
            for code in codes:
                assert _swap_variables(code.members, 7, i, j) == relabelled_members(t, code)


class TestBlockStructure:
    def test_starts_are_prefix_sums(self):
        s = BlockStructure((2, 3, 1))
        assert s.starts == (0, 2, 5)
        assert s.n == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockStructure(())
        with pytest.raises(ValueError):
            BlockStructure((2, 0))
        # (2.5, 1) gave n == 3.5; a bool is no block size either.
        for sizes in ((2.5, 1), (True, 2), (np.bool_(True),)):
            with pytest.raises(ValueError, match="block size must be an int"):
                BlockStructure(sizes)
        plain = BlockStructure((np.int64(2), np.int32(1)))
        assert plain == BlockStructure((2, 1))
        assert all(type(s) is int for s in plain.sizes + (plain.n,))

    def test_checks_fail_the_same_after_a_plain_prefix(self):
        # A size after plain positive ints that is not one fails with the
        # same message as a first size, and a list becomes a tuple.
        for sizes, match in (((2, 0), "positive"), ((3, -1), "positive"), ((1, 2, 2.0), "an int"),
                             ((1, True), "an int"), ([0], "positive")):
            with pytest.raises(ValueError, match=f"block size must be {match}"):
                BlockStructure(sizes)
        with pytest.raises(ValueError, match="at least one block"):
            BlockStructure([])
        listed = BlockStructure([2, np.int64(1)])
        assert listed.sizes == (2, 1) and type(listed.sizes) is tuple
        assert all(type(s) is int for s in listed.sizes)


class TestFindBlockStructure:
    def test_reed_muller_is_one_block(self):
        for n, r in ((4, 2), (5, 1), (7, 3)):
            assert find_block_structure(rm_code(r, n)).sizes == (n,)

    def test_rejects_non_decreasing_codes(self):
        with pytest.raises(ValueError, match="decreasing"):
            find_block_structure(MonomialCode(3, {Monomial(0b10)}))

    def test_known_designs(self):
        assert find_block_structure(code_from_generator_rows(8, [31, 99])).sizes == (5, 3)
        assert find_block_structure(code_from_generator_rows(7, [27, 56])).sizes == (3, 4)

    def test_matches_brute_force_stabilizer(self):
        codes = [
            code
            for n in range(1, 6)
            for k in range(1, (1 << n) + 1)
            for code in enumerate_decreasing_codes(n, k)
        ]
        assert len(codes) == 159
        for code in codes:
            structure = find_block_structure(code)
            assert brute_force_stabilizer(code) == block_group(structure), code

    def test_matches_greedy_scan_on_every_code_up_to_n6(self):
        checked = 0
        for n in range(1, 7):
            for k in range(1, (1 << n) + 1):
                for code in enumerate_decreasing_codes(n, k):
                    assert find_block_structure(code) == greedy_block_structure(code), code
                    checked += 1
        assert checked == 1331

    @pytest.mark.parametrize("k", [32, 64, 96])
    def test_matches_greedy_scan_on_the_n7_census(self, k):
        for code in enumerate_decreasing_codes(7, k):
            assert find_block_structure(code) == greedy_block_structure(code), code

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_adjacent_compare_is_the_swap_test(self, data):
        # find_block_structure's shift-compare against the swap itself, on
        # any membership integer, decreasing or not.
        n = data.draw(st.integers(2, 7))
        members = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        for i, up in enumerate(_adjacent_up(n)):
            shifted = (members & up) << (1 << i) == members & up << (1 << i)
            assert shifted == (_swap_variables(members, n, i, i + 1) == members), (n, i)

    def test_codes_with_one_structure_share_it(self):
        # The codes of a census share one frozen BlockStructure per size
        # tuple, equal to a freshly built one.
        seen = {}
        for code in enumerate_decreasing_codes(6, 24):
            structure = find_block_structure(code)
            assert structure == BlockStructure(structure.sizes)
            assert seen.setdefault(structure.sizes, structure) is structure
        assert len(seen) > 1
        twin = MonomialCode.from_members(6, next(enumerate_decreasing_codes(6, 24)).members)
        assert find_block_structure(twin) is seen[find_block_structure(twin).sizes]

    def test_blocks_partition_the_variables(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            code = random_decreasing_code(rng, int(rng.integers(3, 8)))
            structure = find_block_structure(code)
            assert sum(structure.sizes) == code.n


class TestBruteForceStabilizer:
    def test_is_a_group(self):
        code = decreasing_closure([Monomial.from_indices([0, 2])], 4)
        group = brute_force_stabilizer(code)
        assert Permutation.identity(4) in group
        for p in group:
            assert p.inverse() in group
            for q in group:
                assert p * q in group

    def test_size_formula(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            code = random_decreasing_code(rng, int(rng.integers(3, 6)))
            structure = find_block_structure(code)
            assert len(brute_force_stabilizer(code)) == stabilizer_size(structure)

    def test_large_n_guarded(self):
        with pytest.raises(CapabilityError):
            brute_force_stabilizer(rm_code(3, 7))


def test_stabilizer_size_is_factorial_product():
    assert stabilizer_size(BlockStructure((5, 3))) == math.factorial(5) * math.factorial(3)
    assert stabilizer_size(BlockStructure((7,))) == 5040
    assert stabilizer_size(BlockStructure((2, 2, 1, 1, 1))) == 4


class TestIntervalDisjointDecomposition:
    def test_identity_has_no_parts(self):
        assert interval_disjoint_decomposition(Permutation.identity(5)) == frozenset()

    def test_single_transposition(self):
        t = Permutation.transposition(4, 1, 2)
        assert interval_disjoint_decomposition(t) == frozenset({t})

    def test_disjoint_intervals_split(self):
        p = Permutation.transposition(5, 0, 1) * Permutation.transposition(5, 3, 4)
        parts = interval_disjoint_decomposition(p)
        assert parts == frozenset(
            {Permutation.transposition(5, 0, 1), Permutation.transposition(5, 3, 4)}
        )

    def test_interlocked_cycles_merge(self):
        # (0 2) and (1 3) share no points but their index intervals overlap.
        p = Permutation.transposition(4, 0, 2) * Permutation.transposition(4, 1, 3)
        parts = interval_disjoint_decomposition(p)
        assert len(parts) == 1
        assert next(iter(parts)) == p

    def test_parts_multiply_back_and_have_disjoint_spans(self):
        rng = np.random.default_rng(46)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            p = Permutation(tuple(int(i) for i in rng.permutation(n)))
            parts = interval_disjoint_decomposition(p)
            product = Permutation.identity(n)
            spans = []
            for part in parts:
                product = product * part
                moved = [i for i in range(n) if part(i) != i]
                assert moved, "parts must be nontrivial"
                spans.append((min(moved), max(moved)))
            assert product == p
            spans.sort()
            for (_, hi), (lo, _) in zip(spans, spans[1:]):
                assert hi < lo, "interval spans must be disjoint"


class TestBltaSize:
    def test_frozen_group_sizes(self):
        assert blta_size(BlockStructure((5, 3))) == 14091959496867840
        assert blta_size(BlockStructure((3, 5))) == 14091959496867840
        assert blta_size(BlockStructure((3, 4))) == 1775700541440
        assert blta_size(BlockStructure((4, 3))) == 1775700541440
        assert blta_size(BlockStructure((7,))) == 20972799094947840
        assert blta_size(BlockStructure((2, 1, 1, 1, 1, 1, 1))) == 206158430208
        assert blta_size(BlockStructure((2, 2, 1, 1, 1))) == 2415919104

    def test_single_block_is_full_affine_group(self):
        for n in range(1, 8):
            gl = 1
            for i in range(n):
                gl *= (1 << n) - (1 << i)
            assert blta_size(BlockStructure((n,))) == gl << n

    def test_all_singletons_is_triangular_affine_group(self):
        for n in range(1, 9):
            assert blta_size(BlockStructure((1,) * n)) == 1 << (n * (n + 1) // 2)

    def test_matches_exhaustive_count(self):
        # Count invertible block lower triangular matrices directly.
        for sizes in ((2, 1), (1, 2), (2, 2), (1, 1, 2)):
            structure = BlockStructure(sizes)
            n = structure.n
            count = 0
            for bits in range(1 << (n * n)):
                rows = tuple(
                    bits >> (n * i) & ((1 << n) - 1) for i in range(n)
                )
                m = BinaryMatrix(n, rows)
                if is_block_lower_triangular(m, structure) and m.is_invertible():
                    count += 1
            assert blta_size(structure) == count << n

    def test_matches_rowwise_count_on_every_composition(self):
        for n in range(1, 11):
            for cuts in itertools.product((False, True), repeat=n - 1):
                sizes, size = [], 1
                for cut in cuts:
                    if cut:
                        sizes.append(size)
                        size = 0
                    size += 1
                structure = BlockStructure(tuple(sizes + [size]))
                assert blta_size(structure) == blta_linear_size_rowwise(structure) << n


class TestBlockReversal:
    def test_reverses_each_block(self):
        pbr = block_reversal_matrix(BlockStructure((2, 3)))
        images = [pbr.apply(1 << i).bit_length() - 1 for i in range(5)]
        assert images == [1, 0, 4, 3, 2]

    def test_is_a_permutation_involution(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            sizes = tuple(int(s) for s in rng.integers(1, 4, size=rng.integers(1, 4)))
            pbr = block_reversal_matrix(BlockStructure(sizes))
            assert pbr.is_permutation()
            assert pbr @ pbr == identity(sum(sizes))


class TestIsBlockLowerTriangular:
    def test_single_block_accepts_anything(self):
        m = from_lists([[0, 1], [1, 0]])
        assert is_block_lower_triangular(m, BlockStructure((2,)))

    def test_singleton_blocks_mean_lower_triangular(self):
        assert is_block_lower_triangular(
            from_lists([[1, 0], [1, 1]]), BlockStructure((1, 1))
        )
        assert not is_block_lower_triangular(
            from_lists([[1, 1], [0, 1]]), BlockStructure((1, 1))
        )

    def test_above_block_entry_rejected(self):
        m = from_lists([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
        assert not is_block_lower_triangular(m, BlockStructure((2, 1)))
        assert is_block_lower_triangular(m, BlockStructure((3,)))


class TestFactorization:
    def assert_contract(self, m, structure, factors):
        p1, l1, p2, l2, p3 = factors
        assert p1 @ l1 @ p2 @ l2 @ p3 == m
        pbr = block_reversal_matrix(structure)
        assert p2 == pbr and p3 == pbr
        for p in (p1, p2, p3):
            assert p.is_permutation()
            # block-diagonal: the permutation and its inverse both stay inside
            assert is_block_lower_triangular(p, structure)
            assert is_block_lower_triangular(p.transpose(), structure)
        for lower in (l1, l2):
            assert lower.is_unit_lower_triangular()
            assert is_block_lower_triangular(lower, structure)

    def test_random_matrices_recompose(self):
        rng = np.random.default_rng(48)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            sizes = []
            left = n
            while left:
                s = int(rng.integers(1, left + 1))
                sizes.append(s)
                left -= s
            structure = BlockStructure(tuple(sizes))
            rows, _ = sample_blta_batch(structure, 1, rng)
            m = BinaryMatrix(n, tuple(int(r) for r in rows[0]))
            self.assert_contract(m, structure, lemma1_decompose(m, structure))

    def test_identity_decomposes(self):
        structure = BlockStructure((2, 2))
        self.assert_contract(
            identity(4), structure, lemma1_decompose(identity(4), structure)
        )

    def test_rejects_non_blt_input(self):
        m = from_lists([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError):
            lemma1_decompose(m, BlockStructure((2, 1)))

    def test_rejects_singular_input(self):
        m = from_lists([[1, 0], [1, 0]])
        with pytest.raises(ValueError):
            lemma1_decompose(m, BlockStructure((1, 1)))


class TestAffineAutomorphism:
    def test_compose_matches_pointwise_action(self):
        rng = np.random.default_rng(49)
        structure = BlockStructure((2, 2))
        for _ in range(20):
            a = sample_blta(structure, rng)
            b = sample_blta(structure, rng)
            ab = a.compose(b)
            for j in range(16):
                assert position_action(ab, j) == position_action(
                    a, position_action(b, j)
                )

    def test_inverse_action(self):
        rng = np.random.default_rng(50)
        structure = BlockStructure((1, 3))
        for _ in range(20):
            a = sample_blta(structure, rng)
            inv = a.inverse()
            for j in range(16):
                assert position_action(inv, position_action(a, j)) == j

    def test_position_table_matches_action(self):
        rng = np.random.default_rng(51)
        structure = BlockStructure((3, 2))
        for _ in range(10):
            a = sample_blta(structure, rng)
            table = position_table(a)
            assert sorted(table.tolist()) == list(range(32))
            for j in range(32):
                assert table[j] == position_action(a, j)

    def test_batch_tables_match_singles(self):
        rng = np.random.default_rng(52)
        structure = BlockStructure((2, 3))
        rows, offsets = sample_blta_batch(structure, 6, rng)
        tables = position_tables_batch(rows, offsets)
        assert tables.shape == (6, 32)
        for i in range(6):
            mat = BinaryMatrix(5, tuple(int(r) for r in rows[i]))
            aut = AffineAutomorphism(mat, int(offsets[i]))
            assert np.array_equal(tables[i], position_table(aut))

    def test_batch_tables_are_width_major(self):
        # aut_sc_decode_batch reads the walker's rows straight from this
        # layout, and _run_batch's reshape of it must stay a view.
        rng = np.random.default_rng(57)
        batch, m = 6, 4
        rows, offsets = sample_blta_batch(BlockStructure((2, 3)), batch * m, rng)
        tables = position_tables_batch(rows, offsets)
        assert tables.T.flags.c_contiguous
        assert np.shares_memory(tables, tables.reshape(batch, m, 32))

    def test_batch_tables_match_parity_oracle(self):
        rng = np.random.default_rng(56)
        for n in range(1, 11):
            rows, offsets = sample_blta_batch(BlockStructure((n,)), 20, rng)
            assert np.array_equal(
                position_tables_batch(rows, offsets),
                parity_position_tables(rows, offsets),
            )

    @pytest.mark.parametrize(
        "rows, offsets, match",
        [
            # Offset 9 at n = 3 gave positions 8..15.
            ([[1, 2, 4]], [9], "every offset must lie in \\[0, 8\\)"),
            ([[1, 2, 4]], [-1], "every offset must lie"),
            # Row 9 was read as row 1.
            ([[9, 2, 4]], [0], "every row must lie in \\[0, 8\\)"),
            ([[1, 2, -4]], [0], "every row must lie"),
            # Mismatched counts raised numpy's broadcast error.
            ([[1, 2, 4]], [0, 1], "expected \\(count, n\\) integer rows"),
            ([[1, 2, 4], [1, 2, 4]], [0], "expected \\(count, n\\) integer rows"),
            ([1, 2, 4], [0], "expected \\(count, n\\) integer rows"),
            ([[1, 2, 4]], 0, "expected \\(count, n\\) integer rows"),
            ([[1.0, 2.0, 4.0]], [0], "expected \\(count, n\\) integer rows"),
            ([[1, 2, 4]], [0.0], "expected \\(count, n\\) integer rows"),
            ([[True, False, False]], [0], "expected \\(count, n\\) integer rows"),
        ],
        ids=["offset-9", "offset-negative", "row-9", "row-negative", "more-offsets",
             "more-rows", "rows-1d", "offsets-0d", "rows-float", "offsets-float", "rows-bool"],
    )
    def test_batch_tables_reject_bad_input(self, rows, offsets, match):
        with pytest.raises(ValueError, match=match):
            position_tables_batch(np.array(rows), np.array(offsets))

    def test_batch_tables_take_any_integer_dtype(self):
        rows, offsets = np.array([[1, 2, 4]]), np.array([7])
        want = position_tables_batch(rows.astype(np.uint32), offsets.astype(np.uint32))
        for t in (np.int8, np.uint8, np.int64, np.uint64):
            got = position_tables_batch(rows.astype(t), offsets.astype(t))
            assert got.tolist() == want.tolist() == [[7, 6, 5, 4, 3, 2, 1, 0]]


class TestSampling:
    def test_samples_live_in_the_group(self):
        rng = np.random.default_rng(53)
        for sizes in ((3,), (1, 1, 1), (2, 3), (4, 2, 1)):
            structure = BlockStructure(sizes)
            rows, offsets = sample_blta_batch(structure, 50, rng)
            n = structure.n
            assert np.all(offsets < (1 << n))
            for i in range(50):
                m = BinaryMatrix(n, tuple(int(r) for r in rows[i]))
                assert is_block_lower_triangular(m, structure)
                assert m.is_invertible()

    def test_deterministic_under_seed(self):
        structure = BlockStructure((2, 2, 1))
        draw = lambda: sample_blta_batch(
            structure, 8, np.random.default_rng(99)
        )
        rows_a, offs_a = draw()
        rows_b, offs_b = draw()
        assert np.array_equal(rows_a, rows_b)
        assert np.array_equal(offs_a, offs_b)

    def test_integer_array_matches_generator_call(self):
        structure = BlockStructure((3, 2, 1))
        draws = np.random.default_rng(7).integers(0, blta_bounds(structure), size=(20, 7))
        rows, offsets = sample_blta_batch(structure, 20, draws)
        want_rows, want_offsets = sample_blta_batch(structure, 20, np.random.default_rng(7))
        assert rows.shape == (20, 6)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(offsets, want_offsets)

    def test_integer_array_is_checked(self):
        structure = BlockStructure((2, 1))
        highs = blta_bounds(structure)
        good = np.zeros((3, 4), dtype=np.int64)
        with pytest.raises(ValueError):
            sample_blta_batch(structure, 2, good)
        with pytest.raises(ValueError):
            sample_blta_batch(structure, 3, good.astype(float))
        for bad in (-1, highs):
            with pytest.raises(ValueError):
                sample_blta_batch(structure, 3, good + bad)

    @pytest.mark.parametrize("count", [0, -1, True, 2.0])
    def test_count_must_be_positive(self, count):
        for rng in (np.random.default_rng(8), np.zeros((0, 4), dtype=np.int64)):
            with pytest.raises(ValueError, match="count"):
                sample_blta_batch(BlockStructure((2, 1)), count, rng)

    def test_uniform_over_gl_3_2(self):
        rows, _ = sample_blta_batch(
            BlockStructure((3,)), 168 * 200, np.random.default_rng(57)
        )
        chi2 = chi_square([tuple(r) for r in rows.tolist()], 168)
        assert chi2 < 212.43129395391728, chi2  # 0.99 quantile, 167 dof

    def test_uniform_over_full_group(self):
        structure = BlockStructure((2, 1))
        cells = blta_size(structure)
        assert cells == 192
        rows, offsets = sample_blta_batch(structure, cells * 200, np.random.default_rng(58))
        keys = [(*r, o) for r, o in zip(rows.tolist(), offsets.tolist())]
        chi2 = chi_square(keys, cells)
        assert chi2 < 239.38562055019008, chi2  # 0.99 quantile, 191 dof

    # The same two chi-square checks, fed the simulation's own integers:
    # Philox frame words through Lemire's bounded draw into the integer core.
    @staticmethod
    def frame_stream(structure, count, seed):
        key = channel._frame_key(seed, 0)
        draws = channel._automorphism_draw(key, 0, count, blta_bounds(structure), 1)
        return sample_blta_batch(structure, count, draws)

    def test_frame_stream_uniform_over_gl_3_2(self):
        rows, _ = self.frame_stream(BlockStructure((3,)), 168 * 200, 57)
        chi2 = chi_square([tuple(r) for r in rows.tolist()], 168)
        assert chi2 < 212.43129395391728, chi2  # 0.99 quantile, 167 dof

    def test_frame_stream_uniform_over_full_group(self):
        structure = BlockStructure((2, 1))
        cells = blta_size(structure)
        rows, offsets = self.frame_stream(structure, cells * 200, 58)
        keys = [(*r, o) for r, o in zip(rows.tolist(), offsets.tolist())]
        chi2 = chi_square(keys, cells)
        assert chi2 < 239.38562055019008, chi2  # 0.99 quantile, 191 dof

    def test_every_draw_tuple_gives_a_distinct_matrix(self):
        for sizes in ((4,), (2, 1), (1, 2, 2)):
            structure = BlockStructure(sizes)
            highs = [
                ((1 << s) - (1 << i)) << start
                for s, start in zip(structure.sizes, structure.starts)
                for i in range(s)
            ]
            draws = np.array(
                [(*t, 0) for t in itertools.product(*map(range, highs))],
                dtype=np.int64,
            )
            assert len(draws) == blta_linear_size_rowwise(structure)
            assert blta_bounds(structure).tolist() == highs + [1 << structure.n]
            rows, _ = sample_blta_batch(structure, len(draws), draws)
            assert len({tuple(r) for r in rows.tolist()}) == len(draws)

    def test_large_block_is_cheap(self):
        structure = BlockStructure((16,))
        tracemalloc.start()
        began = time.perf_counter()
        rows, offsets = sample_blta_batch(structure, 300, np.random.default_rng(59))
        elapsed = time.perf_counter() - began
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert gl_full_rank_mask(rows).all()
        assert np.all(offsets < (1 << 16))
        assert elapsed < 2.0, elapsed
        assert peak < 4 << 20, peak

    def test_single_sample_wraps_batch_types(self):
        aut = sample_blta(BlockStructure((2, 1)), np.random.default_rng(3))
        assert aut.matrix.is_invertible()
        assert 0 <= aut.offset < 8


def test_gl_full_rank_mask_matches_matrix_rank():
    rng = np.random.default_rng(54)
    for n in range(1, 9):
        rows = rng.integers(0, 1 << n, size=(200, n), dtype=np.uint32)
        mask = gl_full_rank_mask(rows.copy())
        for i in range(200):
            m = BinaryMatrix(n, tuple(int(r) for r in rows[i]))
            assert bool(mask[i]) == m.is_invertible()


class TestIsCodeAutomorphism:
    def test_sampled_group_elements_accepted(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            code = random_decreasing_code(rng, 4)
            structure = find_block_structure(code)
            for _ in range(5):
                aut = sample_blta(structure, rng)
                assert is_code_automorphism(aut, code)

    def test_non_stabilizing_swap_rejected(self):
        code = decreasing_closure([Monomial.from_indices([0, 2])], 3)
        swap = Permutation.transposition(3, 0, 1)
        aut = AffineAutomorphism(swap.to_matrix(), 0)
        assert not is_code_automorphism(aut, code)

    def test_translations_always_accepted(self):
        rng = np.random.default_rng(56)
        code = random_decreasing_code(rng, 4)
        for offset in range(16):
            aut = AffineAutomorphism(identity(4), offset)
            assert is_code_automorphism(aut, code)

    def test_matches_codeword_enumeration(self):
        # The decreasing codes at n = 2..5 with K <= 12: the oracle walks all
        # 2**K codewords.
        codes = [
            code
            for n in range(2, 6)
            for k in range(1, min(12, 1 << n) + 1)
            for code in enumerate_decreasing_codes(n, k)
        ]
        rng = np.random.default_rng(58)
        answers = []
        for i in rng.integers(len(codes), size=200):
            code = codes[i]
            # The code's own group gives automorphisms; the full affine group
            # mostly gives maps that are not, unless the code has one block.
            for structure in (find_block_structure(code), BlockStructure((code.n,))):
                aut = sample_blta(structure, rng)
                answer = is_code_automorphism(aut, code)
                assert answer == is_code_automorphism_by_codewords(aut, code), (code, aut)
                answers.append(answer)
        assert 100 < sum(answers) < 300, sum(answers)

    def test_non_decreasing_codes_match_codeword_enumeration(self):
        # Translations preserve every decreasing code, not these, so here the
        # offset counts.
        rng = np.random.default_rng(59)
        answers = []
        for _ in range(150):
            code = random_info_set(rng, int(rng.integers(2, 5)))
            affine = sample_blta(BlockStructure((code.n,)), rng)
            for aut in (affine, AffineAutomorphism(identity(code.n), affine.offset)):
                answer = is_code_automorphism(aut, code)
                assert answer == is_code_automorphism_by_codewords(aut, code), (code, aut)
                answers.append(answer)
        assert 10 < sum(answers) < 290, sum(answers)
        x0x1 = MonomialCode(2, [Monomial(0b11)])
        assert not is_code_automorphism(AffineAutomorphism(identity(2), 1), x0x1)

    def test_guards(self):
        # No size guard: n = 6 gets an answer.  RM(1, 6) is one block, so
        # every affine map is in its group.
        big_n = rm_code(1, 6)
        assert is_code_automorphism(AffineAutomorphism(identity(6), 0), big_n)
        full_affine = sample_blta(BlockStructure((6,)), np.random.default_rng(5))
        assert is_code_automorphism(full_affine, big_n)
        big_k = code_from_generator_rows(5, [5])
        assert big_k.dimension == 25 and find_block_structure(big_k).sizes == (2, 3)
        assert is_code_automorphism(AffineAutomorphism(identity(5), 0), big_k)
        swap = Permutation.transposition(5, 1, 2).to_matrix()
        assert not is_code_automorphism(AffineAutomorphism(swap, 0), big_k)
        with pytest.raises(ValueError):
            is_code_automorphism(
                AffineAutomorphism(identity(3), 0), rm_code(1, 4)
            )

    def test_matches_basis_oracle_past_n5(self):
        rng = np.random.default_rng(60)
        answers = []
        for n in (6, 7, 8):
            for _ in range(4):
                code = random_decreasing_code(rng, n)
                for structure in (find_block_structure(code), BlockStructure((n,))):
                    aut = sample_blta(structure, rng)
                    answer = is_code_automorphism(aut, code)
                    assert answer == is_code_automorphism_by_basis(aut, code), (code, aut)
                    answers.append(answer)
        assert 12 <= sum(answers) < 24, sum(answers)

    @pytest.mark.parametrize("n, generators, sizes", [(8, [31, 57], (3, 5)), (7, [27, 56], (3, 4))])
    def test_decoder_codes(self, n, generators, sizes):
        # The codes the decoders and the benchmark run: their BLTA maps are
        # automorphisms, and the swap x2 <-> x3 across the first block
        # boundary is not.
        code = code_from_generator_rows(n, generators)
        structure = find_block_structure(code)
        assert structure.sizes == sizes
        rng = np.random.default_rng(n)
        for _ in range(5):
            aut = sample_blta(structure, rng)
            assert is_code_automorphism(aut, code) and is_code_automorphism_by_basis(aut, code)
        swap = Permutation.transposition(n, 2, 3).to_matrix()
        assert not is_code_automorphism(AffineAutomorphism(swap, 0), code)
        assert not is_code_automorphism_by_basis(AffineAutomorphism(swap, 0), code)


class TestAffineAutomorphismGroup:
    """BLTA is the whole affine part of Aut(C) for a decreasing code (Li et
    al., GLOBECOM 2021), checked exhaustively at n <= 4.

    Translations are automorphisms, so only the linear part A is tested, one
    A per right coset A LT: LT lies in BLTA, inside Aut(C), so a coset is in
    Aut(C) whole or not at all.
    """

    @pytest.mark.parametrize("n, cosets", [(1, 1), (2, 3), (3, 21), (4, 315)])
    def test_coset_key_splits_gl(self, n, cosets):
        # |GL(n, 2)| / |LT|, with |LT| = 2**(n(n-1)/2)
        assert len(coset_representatives(n)) == cosets

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_every_affine_automorphism(self, n):
        lt_order = 1 << n * (n - 1) // 2
        for k in range(1, (1 << n) + 1):
            for code in enumerate_decreasing_codes(n, k):
                structure = find_block_structure(code)
                count = sum(
                    is_code_automorphism(AffineAutomorphism(m, 0), code)
                    for m in coset_representatives(n)
                )
                assert count * lt_order == blta_size(structure) >> n, code
                # The count tells the blocks apart: splitting the first one
                # or merging the first two gives a different group order.
                if n > 1:
                    s = structure.sizes
                    wrong = (1, s[0] - 1, *s[1:]) if s[0] > 1 else (1 + s[1], *s[2:])
                    assert count * lt_order != blta_size(BlockStructure(wrong)) >> n, code
