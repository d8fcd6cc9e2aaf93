"""Reference stabilizer block scan, kept as a test oracle.

This is the scan polaraut shipped before `find_block_structure` tested only
adjacent transpositions: from the lowest unassigned index i, take the
largest j whose swap with i fixes the information set; then [i, j] spans a
block.  It tests up to n - i swaps per block where the adjacent scan tests
one per index.
"""

from __future__ import annotations

from polaraut.automorphisms import BlockStructure
from polaraut.monomials import MonomialCode, _swap_variables


def greedy_block_structure(code: MonomialCode) -> BlockStructure:
    """Block sizes of the stabilizer of a decreasing code, by the greedy scan."""
    n, members = code.n, code.members
    sizes = []
    i = 0
    while i < n:
        j = n - 1
        while j > i and _swap_variables(members, n, i, j) != members:
            j -= 1
        sizes.append(j - i + 1)
        i = j + 1
    return BlockStructure(tuple(sizes))
