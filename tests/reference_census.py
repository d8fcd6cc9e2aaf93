"""Reference census enumeration, kept as a test oracle.

This is the enumeration polaraut shipped before the census ran on
membership integers: a recursive depth-first search over the linear
extension in position space, with each position's lower set found by
`partial_order_leq`.  `monomials.enumerate_decreasing_codes` must yield the
same codes in the same order; here each code is its membership integer.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from polaraut.monomials import Monomial, partial_order_leq


def _sorted_monomials(n: int) -> list[Monomial]:
    """All monomials on n variables in a linear extension of the order."""
    return sorted(
        (Monomial(m) for m in range(1 << n)), key=lambda f: (f.degree, f.indices)
    )


@lru_cache(maxsize=None)
def _lower_masks(n: int) -> tuple[tuple[Monomial, ...], tuple[int, ...]]:
    """Linear extension plus, per position, the bitmask of its lower set."""
    mons = tuple(_sorted_monomials(n))
    lower = []
    for i, g in enumerate(mons):
        bits = 0
        for j in range(i + 1):
            if partial_order_leq(mons[j], g):
                bits |= 1 << j
        lower.append(bits)
    return mons, tuple(lower)


def reference_census(n: int, dimension: int) -> Iterator[int]:
    """Membership integers of the decreasing codes, in the census order."""
    total = 1 << n
    mons, lower = _lower_masks(n)

    def emit(included: int) -> int:
        return sum(1 << mons[j].mask for j in range(total) if included >> j & 1)

    # DFS over the linear extension.  A position is includable once none of
    # its lower set is excluded; the includable suffix completes to a valid
    # down-set of every size up to its count, so the bound below is exact.
    def rec(i: int, included: int, excluded: int, count: int) -> Iterator[int]:
        if count == dimension:
            yield emit(included)
            return
        free = [j for j in range(i, total) if not lower[j] & excluded]
        if count + len(free) < dimension:
            return
        if count + len(free) == dimension:
            full = included
            for j in free:
                full |= 1 << j
            yield emit(full)
            return
        j = i
        while lower[j] & excluded:
            j += 1
        yield from rec(j + 1, included | 1 << j, excluded, count + 1)
        yield from rec(j + 1, included, excluded | 1 << j, count)

    yield from rec(0, 0, 0, 0)
