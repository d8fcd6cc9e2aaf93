"""Dense GF(2) matrices stored as integer bitmasks, one int per row.

Bit j of rows[i] is the entry in row i, column j.  Sizes stay small (at most
MAX_VARS), so plain Python ints beat any packed array representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["BinaryMatrix", "identity", "from_lists", "parity"]


def parity(x: int) -> int:
    return x.bit_count() & 1


@dataclass(frozen=True)
class BinaryMatrix:
    """A square matrix over GF(2)."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("matrix size must be positive")
        if len(self.rows) != self.n:
            raise ValueError("row count does not match size")
        limit = 1 << self.n
        if any(not 0 <= r < limit for r in self.rows):
            raise ValueError("row bitmask out of range")

    def entry(self, i: int, j: int) -> int:
        return self.rows[i] >> j & 1

    def to_lists(self) -> list[list[int]]:
        return [[r >> j & 1 for j in range(self.n)] for r in self.rows]

    def __matmul__(self, other: "BinaryMatrix") -> "BinaryMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        out = []
        for r in self.rows:
            acc = 0
            k = r
            while k:
                bit = k & -k
                acc ^= other.rows[bit.bit_length() - 1]
                k ^= bit
            out.append(acc)
        return BinaryMatrix(self.n, tuple(out))

    def apply(self, x: int) -> int:
        """Matrix-vector product; x and the result are column-vector bitmasks."""
        if not 0 <= x < 1 << self.n:
            raise ValueError("vector out of range")
        out = 0
        for i, r in enumerate(self.rows):
            out |= parity(r & x) << i
        return out

    def transpose(self) -> "BinaryMatrix":
        out = [0] * self.n
        for i, r in enumerate(self.rows):
            for j in range(self.n):
                out[j] |= (r >> j & 1) << i
        return BinaryMatrix(self.n, tuple(out))

    def rank(self) -> int:
        rows = list(self.rows)
        rk = 0
        for j in range(self.n):
            piv = next((i for i in range(rk, self.n) if rows[i] >> j & 1), None)
            if piv is None:
                continue
            rows[rk], rows[piv] = rows[piv], rows[rk]
            for i in range(self.n):
                if i != rk and rows[i] >> j & 1:
                    rows[i] ^= rows[rk]
            rk += 1
        return rk

    def is_invertible(self) -> bool:
        return self.rank() == self.n

    def inverse(self) -> "BinaryMatrix":
        n = self.n
        rows = list(self.rows)
        aug = [1 << i for i in range(n)]
        for j in range(n):
            piv = next((i for i in range(j, n) if rows[i] >> j & 1), None)
            if piv is None:
                raise ValueError("matrix is singular")
            rows[j], rows[piv] = rows[piv], rows[j]
            aug[j], aug[piv] = aug[piv], aug[j]
            for i in range(n):
                if i != j and rows[i] >> j & 1:
                    rows[i] ^= rows[j]
                    aug[i] ^= aug[j]
        return BinaryMatrix(n, tuple(aug))

    def is_permutation(self) -> bool:
        seen = 0
        for r in self.rows:
            if r.bit_count() != 1 or seen & r:
                return False
            seen |= r
        return seen == (1 << self.n) - 1

    def is_unit_lower_triangular(self) -> bool:
        return all(
            r >> i & 1 and r >> (i + 1) == 0 for i, r in enumerate(self.rows)
        )


def identity(n: int) -> BinaryMatrix:
    return BinaryMatrix(n, tuple(1 << i for i in range(n)))


def from_lists(entries: Sequence[Iterable[int]]) -> BinaryMatrix:
    n = len(entries)
    rows = []
    for row in entries:
        vals = list(row)
        if len(vals) != n:
            raise ValueError("matrix must be square")
        rows.append(sum((v & 1) << j for j, v in enumerate(vals)))
    return BinaryMatrix(n, tuple(rows))
