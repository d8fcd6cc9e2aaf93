"""Bit-packed binary matrices: products, rank, inverse, shape predicates."""

import numpy as np
import pytest

from polaraut.verify import BinaryMatrix, from_lists, identity, parity


def random_matrix(rng: np.random.Generator, n: int) -> BinaryMatrix:
    return BinaryMatrix(n, tuple(int(r) for r in rng.integers(0, 1 << n, size=n)))


def naive_product(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    n = a.n
    rows = []
    for i in range(n):
        acc = 0
        for j in range(n):
            bit = 0
            for k in range(n):
                bit ^= a.entry(i, k) & b.entry(k, j)
            acc |= bit << j
        rows.append(acc)
    return BinaryMatrix(n, tuple(rows))


def naive_rank(m: BinaryMatrix) -> int:
    rows = list(m.rows)
    rank = 0
    for col in range(m.n):
        piv = next(
            (i for i in range(rank, m.n) if rows[i] >> col & 1), None
        )
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(m.n):
            if i != rank and rows[i] >> col & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def test_parity():
    assert [parity(x) for x in (0, 1, 2, 3, 0b1011, 0xFFFF)] == [0, 1, 1, 0, 1, 0]


def test_entry_and_lists_round_trip():
    m = from_lists([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    assert m.entry(0, 2) == 1
    assert m.entry(1, 0) == 0
    assert m.to_lists() == [[1, 0, 1], [0, 1, 1], [0, 0, 1]]


def test_product_matches_naive():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        assert a @ b == naive_product(a, b)


def test_identity_is_neutral():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(1, 8))
        a = random_matrix(rng, n)
        assert a @ identity(n) == a
        assert identity(n) @ a == a


def test_product_associative():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        a, b, c = (random_matrix(rng, n) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)


def test_transpose():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        assert a.transpose().transpose() == a
        assert (a @ b).transpose() == b.transpose() @ a.transpose()
        for i in range(n):
            for j in range(n):
                assert a.transpose().entry(i, j) == a.entry(j, i)


def test_rank_matches_naive():
    rng = np.random.default_rng(9)
    for _ in range(80):
        n = int(rng.integers(1, 8))
        a = random_matrix(rng, n)
        assert a.rank() == naive_rank(a)


def test_inverse():
    rng = np.random.default_rng(10)
    found = 0
    while found < 30:
        n = int(rng.integers(1, 8))
        a = random_matrix(rng, n)
        if not a.is_invertible():
            continue
        found += 1
        inv = a.inverse()
        assert a @ inv == identity(n)
        assert inv @ a == identity(n)


def test_singular_inverse_raises():
    with pytest.raises(ValueError):
        BinaryMatrix(2, (0b11, 0b11)).inverse()


def test_apply_matches_entrywise():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        a = random_matrix(rng, n)
        x = int(rng.integers(0, 1 << n))
        y = a.apply(x)
        for i in range(n):
            # y_i = sum_j a_ij x_j over GF(2)
            acc = 0
            for j in range(n):
                acc ^= a.entry(i, j) & (x >> j & 1)
            assert y >> i & 1 == acc


def test_apply_respects_products():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        x = int(rng.integers(0, 1 << n))
        assert (a @ b).apply(x) == a.apply(b.apply(x))


def test_is_permutation():
    assert identity(4).is_permutation()
    assert from_lists([[0, 1], [1, 0]]).is_permutation()
    assert not from_lists([[1, 1], [0, 1]]).is_permutation()
    assert not from_lists([[1, 0], [1, 0]]).is_permutation()


def test_is_unit_lower_triangular():
    assert identity(3).is_unit_lower_triangular()
    assert from_lists([[1, 0], [1, 1]]).is_unit_lower_triangular()
    assert not from_lists([[1, 1], [0, 1]]).is_unit_lower_triangular()
    assert not from_lists([[0, 0], [1, 1]]).is_unit_lower_triangular()


def test_row_width_validated():
    with pytest.raises(ValueError):
        BinaryMatrix(2, (0b100, 0b01))
    with pytest.raises(ValueError):
        BinaryMatrix(2, (0b11,))


@pytest.mark.parametrize("call, message", [
    (lambda: BinaryMatrix(0, ()), "size must be positive"),
    (lambda: identity(2) @ identity(3), "size mismatch"),
    (lambda: identity(2).apply(4), "vector out of range"),
    (lambda: identity(2).apply(-1), "vector out of range"),
    (lambda: from_lists([[1, 0], [1]]), "must be square"),
])
def test_size_and_range_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
