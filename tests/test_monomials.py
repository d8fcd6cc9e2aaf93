"""Monomial arithmetic, the reliability partial order, and down-set codes."""

import itertools
import pickle
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_decreasing_code, random_monomial
from polaraut import monomials
from polaraut.monomials import (
    MAX_VARS,
    CapabilityError,
    Monomial,
    MonomialCode,
    decreasing_closure,
    enumerate_decreasing_codes,
    is_decreasing,
    minimal_generators,
    monomial_to_row,
    partial_order_leq,
    row_to_monomial,
    _extension,
)
from reference_census import reference_census


def brute_leq(f: Monomial, g: Monomial) -> bool:
    # Reference order: equal degrees compare sorted index vectors pointwise;
    # lower degree defers to some equal-degree divisor of g.
    if f.degree > g.degree:
        return False
    if f.degree == g.degree:
        return all(a <= b for a, b in zip(f.indices, g.indices))
    return any(
        brute_leq(f, Monomial.from_indices(sub))
        for sub in itertools.combinations(g.indices, f.degree)
    )


def brute_closure(generators, n: int) -> frozenset[Monomial]:
    space = [Monomial(m) for m in range(1 << n)]
    return frozenset(f for f in space if any(partial_order_leq(f, g) for g in generators))


def down_neighbours(mask: int):
    """Immediate predecessors: remove one variable, or move one index down."""
    m = mask
    while m:
        bit = m & -m
        yield mask ^ bit
        if bit > 1 and not mask & bit >> 1:
            yield mask ^ bit | bit >> 1
        m ^= bit


def up_neighbours(mask: int, n: int):
    """Immediate successors within n variables: inverse moves of down_neighbours."""
    for i in range(n):
        bit = 1 << i
        if not mask & bit:
            yield mask | bit
        elif i + 1 < n and not mask & bit << 1:
            yield mask ^ bit | bit << 1


def code_from_bits(bits: int, n: int) -> MonomialCode:
    return MonomialCode(n, frozenset(Monomial(m) for m in range(1 << n) if bits >> m & 1))


def all_downsets(n: int):
    # Every downward-closed subset of the 2**n monomials, by lower-set masks.
    total = 1 << n
    lower = [0] * total
    for g in range(total):
        for f in range(total):
            if partial_order_leq(Monomial(f), Monomial(g)):
                lower[g] |= 1 << f
    full = (1 << total) - 1
    for bits in range(1, 1 << total):
        b = bits
        ok = True
        while b:
            g = (b & -b).bit_length() - 1
            if lower[g] & ~bits & full:
                ok = False
                break
            b &= b - 1
        if ok:
            yield bits


@lru_cache(maxsize=None)
def downset_counts(n: int) -> dict[int, int]:
    """Number of down-sets per size on n variables."""
    counts: dict[int, int] = {}
    for bits in all_downsets(n):
        k = bits.bit_count()
        counts[k] = counts.get(k, 0) + 1
    return counts


class TestMonomial:
    def test_from_indices_round_trip(self):
        f = Monomial.from_indices([0, 2, 5])
        assert f.mask == 0b100101
        assert f.indices == (0, 2, 5)
        assert f.degree == 3

    def test_constant_monomial(self):
        one = Monomial(0)
        assert one.degree == 0
        assert one.indices == ()
        assert str(one) == "1"

    def test_str_lists_variables(self):
        assert str(Monomial.from_indices([1, 3])) == "x1x3"

    def test_divides(self):
        assert Monomial(0b011).divides(Monomial(0b111))
        assert not Monomial(0b100).divides(Monomial(0b011))
        assert Monomial(0).divides(Monomial(0b101))

    def test_mask_range_checked(self):
        with pytest.raises(ValueError):
            Monomial(-1)
        with pytest.raises(ValueError):
            Monomial(1 << MAX_VARS)
        with pytest.raises(ValueError):
            Monomial.from_indices([MAX_VARS])

    def test_mask_is_an_int(self):
        # True built x0, and 2.0 built a monomial whose str() raised
        # AttributeError.
        for mask in (True, np.bool_(False), 2.0, "3", None):
            with pytest.raises(ValueError, match="monomial mask must be an int"):
                Monomial(mask)
        f = Monomial(np.int64(5))
        assert type(f.mask) is int and f == Monomial(5) and str(f) == "x0x2"
        with pytest.raises(ValueError, match="out of range"):
            Monomial(np.int64(-1))

    def test_ordering_is_by_mask(self):
        assert Monomial(3) < Monomial(4)
        assert sorted([Monomial(5), Monomial(2)])[0] == Monomial(2)


class TestRowMap:
    def test_row_is_complement_mask(self):
        n = 3
        # x0x2 has mask 0b101; its row clears exactly those bits.
        assert monomial_to_row(Monomial(0b101), n) == 0b010

    def test_extremes(self):
        for n in (1, 4, 7):
            full = (1 << n) - 1
            assert monomial_to_row(Monomial(0), n) == full
            assert monomial_to_row(Monomial(full), n) == 0

    def test_round_trip_all_rows(self):
        n = 6
        for row in range(1 << n):
            assert monomial_to_row(row_to_monomial(row, n), n) == row

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            row_to_monomial(8, 3)
        with pytest.raises(ValueError):
            monomial_to_row(Monomial(0b1000), 3)


class TestPartialOrder:
    def test_matches_divisor_oracle_exhaustively(self):
        n = 5
        for fm in range(1 << n):
            for gm in range(1 << n):
                f, g = Monomial(fm), Monomial(gm)
                assert partial_order_leq(f, g) == brute_leq(f, g), (f, g)

    def test_known_comparisons(self):
        x0, x1, x2 = (Monomial.from_indices([i]) for i in range(3))
        assert partial_order_leq(x0, x1)
        assert not partial_order_leq(x1, x0)
        assert partial_order_leq(x2, Monomial.from_indices([1, 2]))
        # x2 exceeds every degree-1 divisor of x0x1, so the pair is incomparable.
        assert not partial_order_leq(x2, Monomial.from_indices([0, 1]))
        assert partial_order_leq(Monomial(0), x2)

    def test_is_partial_order(self):
        monos = [Monomial(m) for m in range(16)]
        for f in monos:
            assert partial_order_leq(f, f)
        for f, g in itertools.permutations(monos, 2):
            if partial_order_leq(f, g) and partial_order_leq(g, f):
                pytest.fail(f"antisymmetry broken: {f}, {g}")
        for f, g, h in itertools.product(monos, repeat=3):
            if partial_order_leq(f, g) and partial_order_leq(g, h):
                assert partial_order_leq(f, h)

    def test_degree_never_increases_downward(self):
        for fm in range(32):
            for gm in range(32):
                if partial_order_leq(Monomial(fm), Monomial(gm)):
                    assert Monomial(fm).degree <= Monomial(gm).degree


class TestClosure:
    def test_matches_filter_oracle_random(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            gens = [random_monomial(rng, n) for _ in range(int(rng.integers(1, 4)))]
            code = decreasing_closure(gens, n)
            assert code.info_set == brute_closure(gens, n)

    def test_single_top_monomial(self):
        code = decreasing_closure([Monomial.from_indices([5, 6, 7])], 8)
        assert code.dimension == 93

    def test_closure_is_decreasing_and_idempotent(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            code = random_decreasing_code(rng, int(rng.integers(2, 7)))
            assert is_decreasing(code)
            again = decreasing_closure(code.info_set, code.n)
            assert again == code

    def test_constant_only(self):
        code = decreasing_closure([Monomial(0)], 4)
        assert code.info_set == frozenset({Monomial(0)})


class TestIsDecreasing:
    def test_detects_violations_exhaustively(self):
        n = 4
        downsets = {bits for bits in all_downsets(n)}
        for bits in range(1, 1 << (1 << n)):
            code = code_from_bits(bits, n)
            assert is_decreasing(code) == (bits in downsets), bits

    def test_removing_interior_element_breaks(self):
        code = decreasing_closure([Monomial.from_indices([0, 1])], 3)
        broken = MonomialCode(3, code.info_set - {Monomial.from_indices([0])})
        assert not is_decreasing(broken)

    def test_matches_down_neighbour_walk(self):
        rng = np.random.default_rng(80)
        for _ in range(60):
            code = random_decreasing_code(rng, int(rng.integers(5, 8)))
            # Removing one member breaks the closure unless it was maximal.
            drop = sorted(code.info_set)[int(rng.integers(code.dimension))]
            cases = [code]
            if code.dimension > 1:
                cases.append(MonomialCode(code.n, code.info_set - {drop}))
            for c in cases:
                masks = {f.mask for f in c.info_set}
                walk = all(nb in masks for m in masks for nb in down_neighbours(m))
                assert is_decreasing(c) == walk


class TestMinimalGenerators:
    def test_regenerates_the_code(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            code = random_decreasing_code(rng, int(rng.integers(2, 7)))
            gens = minimal_generators(code)
            assert decreasing_closure(gens, code.n) == code

    def test_is_an_antichain(self):
        rng = np.random.default_rng(78)
        for _ in range(30):
            code = random_decreasing_code(rng, int(rng.integers(2, 7)))
            gens = sorted(minimal_generators(code))
            for f, g in itertools.permutations(gens, 2):
                assert not partial_order_leq(f, g)

    def test_matches_maximal_element_definition(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            code = random_decreasing_code(rng, int(rng.integers(2, 6)))
            expected = frozenset(
                f
                for f in code.info_set
                if not any(
                    g != f and partial_order_leq(f, g) for g in code.info_set
                )
            )
            assert minimal_generators(code) == expected

    def test_matches_up_neighbour_walk_on_every_downset(self):
        for n in range(1, 5):
            for bits in all_downsets(n):
                code = code_from_bits(bits, n)
                masks = {f.mask for f in code.info_set}
                walk = frozenset(
                    Monomial(m)
                    for m in masks
                    if not any(nb in masks for nb in up_neighbours(m, n))
                )
                assert minimal_generators(code) == walk, bits

    def test_rejects_non_decreasing_codes(self):
        with pytest.raises(ValueError):
            minimal_generators(MonomialCode(3, frozenset({Monomial(0b10)})))


class TestMonomialCode:
    def test_rows_round_trip(self):
        code = decreasing_closure([Monomial.from_indices([0, 2])], 4)
        assert MonomialCode.from_rows(4, code.rows) == code

    def test_dimensions(self):
        code = MonomialCode.from_rows(3, [7, 6, 5])
        assert code.block_length == 8
        assert code.dimension == 3
        assert code.rows == (5, 6, 7)

    def test_contains(self):
        code = MonomialCode.from_rows(3, [7])
        assert Monomial(0) in code
        assert Monomial(1) not in code

    def test_validation(self):
        with pytest.raises(ValueError):
            MonomialCode(3, frozenset())
        with pytest.raises(ValueError):
            MonomialCode(3, frozenset({Monomial(0b1000)}))
        with pytest.raises(ValueError, match="x3"):
            MonomialCode(3, frozenset({Monomial(0), Monomial(0b1010)}))

    def test_from_members_round_trip(self):
        rng = np.random.default_rng(82)
        cases = [random_decreasing_code(rng, int(rng.integers(1, 9))) for _ in range(20)]
        for n in (1, 3, 5):
            for bits in map(int, rng.integers(1, 1 << min(1 << n, 62), size=10)):
                cases.append(code_from_bits(bits, n))
        for code in cases:
            n = code.n
            twin = MonomialCode.from_members(n, code.members)
            assert twin == code and hash(twin) == hash(code)
            assert twin.info_set == code.info_set
            assert twin.dimension == code.dimension == len(code.info_set)
            assert twin.rows == code.rows
            assert twin.rows == tuple(sorted(monomial_to_row(f, n) for f in code.info_set))
            for m in range(1 << n):
                assert (Monomial(m) in twin) == (Monomial(m) in code.info_set), m
            assert Monomial(1 << n) not in twin
            assert MonomialCode(n, twin.info_set) == twin

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_down_images_match_the_per_move_formula(self, data):
        # The formula the cached (mask, shift) moves replaced, mask by mask.
        n = data.draw(st.integers(1, 7))
        members = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        has = monomials._variable_members(n)
        want = (members & has[0]) >> 1
        for i in range(1, n):
            want |= (members & has[i] & ~has[i - 1]) >> (1 << i - 1)
        assert monomials._down_images(members, n) == want

    def test_down_images_are_computed_once(self, monkeypatch):
        # The decreasing check and the generators share one pass of the
        # down moves over a code.
        gens = {Monomial.from_indices([0, 2]), Monomial.from_indices([3])}
        code = decreasing_closure(gens, 5)
        calls = []
        down_images = monomials._down_images
        monkeypatch.setattr(
            monomials, "_down_images", lambda m, n: calls.append(m) or down_images(m, n)
        )
        assert is_decreasing(code)
        assert minimal_generators(code) == gens
        assert calls == [code.members]

    def test_derived_fields_are_computed_once_per_code(self, monkeypatch):
        # info_set and rows each read the member masks once, down_images runs
        # the down moves once, and two codes with equal members share none
        # of it: each computes its own on its first read.
        members = decreasing_closure({Monomial.from_indices([0, 2]), Monomial(0b1000)}, 5).members
        masks_calls, down_calls = [], []
        member_masks, down_images = monomials._member_masks, monomials._down_images
        monkeypatch.setattr(
            monomials, "_member_masks", lambda m: masks_calls.append(m) or member_masks(m)
        )
        monkeypatch.setattr(
            monomials, "_down_images", lambda m, n: down_calls.append(m) or down_images(m, n)
        )
        fields = ("info_set", "dimension", "rows", "down_images")

        def read_all(code):
            return tuple(getattr(code, name) for name in fields)

        a, b = MonomialCode.from_members(5, members), MonomialCode.from_members(5, members)
        assert a == b and set(a.__dict__) == set(b.__dict__) == {"n", "members"}
        first = read_all(a)
        assert masks_calls == [members] * 2 and down_calls == [members]
        assert read_all(a) == first and masks_calls == [members] * 2
        assert set(a.__dict__) == {"n", "members", *fields}
        assert set(b.__dict__) == {"n", "members"}
        assert read_all(b) == first
        assert masks_calls == [members] * 4 and down_calls == [members] * 2
        assert a.info_set is not b.info_set
        assert first == (
            frozenset(map(Monomial, member_masks(members))), members.bit_count(),
            tuple(sorted(31 ^ m for m in member_masks(members))), down_images(members, 5),
        )
        # An unpickled code carries its identity only and derives again.
        copy = pickle.loads(pickle.dumps(a))
        assert copy == a and set(copy.__dict__) == {"n", "members"}
        assert read_all(copy) == first
        assert masks_calls == [members] * 6 and down_calls == [members] * 3
        # The class attribute is the descriptor, documented as its function.
        assert MonomialCode.down_images.__doc__.startswith("Membership integer")

    def test_codes_differ_by_members_or_n(self):
        a = MonomialCode.from_members(3, 0b111)
        assert a != MonomialCode.from_members(3, 0b1011)
        assert a != MonomialCode.from_members(4, 0b111)
        twins = [MonomialCode.from_members(3, 0b111), MonomialCode.from_rows(3, [7, 6, 5])]
        assert len({a, *twins}) == 1

    def test_from_members_validation(self):
        with pytest.raises(ValueError):
            MonomialCode.from_members(3, 0)
        with pytest.raises(ValueError):
            MonomialCode.from_members(3, -1)
        with pytest.raises(ValueError):
            MonomialCode.from_members(3, 1 << 8)
        with pytest.raises(ValueError):
            MonomialCode.from_members(3, 1 | 1 << 9)
        MonomialCode.from_members(3, (1 << 8) - 1)
        # A bool or a float is no variable count: True built a code whose n
        # was True, and 7.0 failed in a shift with TypeError.
        for n in (0, MAX_VARS + 1, True, np.bool_(True), 7.0, "3"):
            with pytest.raises(ValueError, match="variable count"):
                MonomialCode.from_members(n, 1)
        code = MonomialCode.from_members(np.int64(3), 1)
        assert type(code.n) is int and code == MonomialCode.from_members(3, 1)
        # True kept a bool membership integer, whose repr read members=0x1.
        for members in (True, np.bool_(True), 1.0, "1", None):
            with pytest.raises(ValueError, match="members must be an int"):
                MonomialCode.from_members(3, members)
        code = MonomialCode.from_members(3, np.int64(0b111))
        assert type(code.members) is int and code == MonomialCode.from_members(3, 0b111)
        with pytest.raises(ValueError, match="nonzero subset"):
            MonomialCode.from_members(3, np.uint16(1 << 8))

    def test_repr_of_a_large_code(self):
        # A decimal str of the 2**16-bit integer would exceed int's digit limit.
        code = MonomialCode.from_members(MAX_VARS, (1 << (1 << MAX_VARS)) - 1)
        assert repr(code).startswith(f"MonomialCode(n={MAX_VARS}, members=0xfff")

    def test_members_has_one_bit_per_monomial(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            code = random_decreasing_code(rng, int(rng.integers(1, 9)))
            assert code.members == sum(1 << f.mask for f in code.info_set)
            assert code_from_bits(code.members, code.n) == code


class TestEnumerate:
    def test_census_matches_brute_force_n3(self):
        total = 1 << 3
        expected = {}
        for bits in all_downsets(3):
            k = bin(bits).count("1")
            expected.setdefault(k, set()).add(bits)
        for k in range(1, total + 1):
            got = {
                sum(1 << f.mask for f in code.info_set)
                for code in enumerate_decreasing_codes(3, k)
            }
            assert got == expected.get(k, set()), k

    def test_census_counts_n4(self):
        counts = [
            sum(1 for _ in enumerate_decreasing_codes(4, k)) for k in range(1, 17)
        ]
        assert counts == [1, 1, 1, 2, 2, 2, 2, 3, 2, 2, 2, 2, 1, 1, 1, 1]

    def test_all_results_are_valid(self):
        for k in (3, 9, 14):
            for code in enumerate_decreasing_codes(4, k):
                assert code.dimension == k
                assert is_decreasing(code)

    def test_codes_match_checked_codes(self):
        # The search builds its codes unchecked; each is the code
        # from_members builds from the same integer, and a decreasing one.
        for n in range(1, 6):
            for k in range(1, (1 << n) + 1):
                for code in enumerate_decreasing_codes(n, k):
                    twin = MonomialCode.from_members(n, code.members)
                    assert code == twin and hash(code) == hash(twin)
                    assert repr(code) == repr(twin)
                    assert type(code.n) is int and type(code.members) is int
                    assert is_decreasing(code) and code.dimension == k

    def test_order_matches_reference(self):
        for n in range(1, 7):
            for k in range(1, (1 << n) + 1):
                got = [code.members for code in enumerate_decreasing_codes(n, k)]
                assert got == list(reference_census(n, k)), (n, k)

    def test_up_sets_match_partial_order(self):
        for n in range(1, 8):
            order, up = _extension(n)
            assert sorted(order) == list(range(1 << n))
            for m in range(1 << n):
                want = sum(
                    1 << h
                    for h in range(1 << n)
                    if partial_order_leq(Monomial(m), Monomial(h))
                )
                assert up[m] == want, (n, m)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 2**n))))
    def test_codes_are_distinct_down_sets(self, case):
        n, k = case
        codes = list(enumerate_decreasing_codes(n, k))
        assert all(is_decreasing(c) and c.dimension == k and c.n == n for c in codes)
        assert len(set(codes)) == len({c.members for c in codes}) == len(codes)
        assert len(codes) == downset_counts(n).get(k, 0)

    def test_large_n_rejected(self):
        with pytest.raises(CapabilityError):
            next(enumerate_decreasing_codes(8, 128))

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            next(enumerate_decreasing_codes(3, 0))
        with pytest.raises(ValueError):
            next(enumerate_decreasing_codes(3, 9))
        # True ran the K = 1 census, and 2.0 the K = 2 one.
        for bad in (True, np.bool_(True), 2.0):
            with pytest.raises(ValueError, match="dimension must be an int"):
                next(enumerate_decreasing_codes(3, bad))
        assert list(enumerate_decreasing_codes(np.int64(3), np.int64(4))) == list(
            enumerate_decreasing_codes(3, 4)
        )
