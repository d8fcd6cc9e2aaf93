"""Automorphisms of decreasing monomial codes, as the decoders use them.

The stabilizer's block structure (a scan of the n-1 adjacent transpositions
of the variables), exact BLTA group sizes, uniform batch sampling and
position tables, all on arrays of row bitmasks.  Single maps and the
exhaustive checks of the theory live in `verify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .monomials import MonomialCode, _adjacent_up, _positive_int, is_decreasing

__all__ = [
    "BlockStructure",
    "find_block_structure",
    "blta_size",
    "blta_bounds",
    "sample_blta_batch",
    "position_tables_batch",
]


@dataclass(frozen=True)
class BlockStructure:
    """Consecutive variable-index blocks; sizes sum to the variable count."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("a block structure needs at least one block")
        object.__setattr__(self, "sizes", tuple(_positive_int("block size", s) for s in self.sizes))

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def starts(self) -> tuple[int, ...]:
        return tuple(accumulate(self.sizes[:-1], initial=0))


# One frozen BlockStructure per size tuple, shared by every code that has it:
# a census meets few structures many times.  Fewer than 2**16 size tuples
# exist up to n = 16.
_STRUCTURES: dict[tuple[int, ...], BlockStructure] = {}


def find_block_structure(code: MonomialCode) -> BlockStructure:
    """Block sizes of the stabilizer of a decreasing code.

    Adjacent scan: a block ends at i exactly when swapping x_i and x_{i+1}
    moves the information set.  This is exact because the stabilizer of a
    decreasing code is the product of the symmetric groups on consecutive
    blocks of indices: such a product holds (i, i+1) exactly when i and i+1
    share a block, and the adjacent transpositions inside a block generate
    its whole symmetric group.  n-1 swap tests decide the blocks.

    Each test is one masked shift-compare: the swap moves the members
    holding x_i but not x_{i+1} up by 2**i, and, being an involution, it
    fixes the set exactly when that moved part lands on the members already
    in its image.  Codes with one block structure share one BlockStructure.
    """
    if not is_decreasing(code):
        raise ValueError("block structure is defined for decreasing codes only")
    members = code.members
    sizes = []
    size = 1
    for i, up in enumerate(_adjacent_up(code.n)):
        d = 1 << i
        if (members & up) << d == members & up << d:
            size += 1
        else:
            sizes.append(size)
            size = 1
    sizes.append(size)
    sizes = tuple(sizes)
    structure = _STRUCTURES.get(sizes)
    if structure is None:
        structure = _STRUCTURES[sizes] = BlockStructure(sizes)
    return structure


@lru_cache(maxsize=None)
def _gl2_order(m: int) -> int:
    """Order of GL(m, 2), one table entry per block size met so far."""
    out = 1
    q = 1 << m
    for i in range(m):
        out *= q - (1 << i)
    return out


def blta_size(structure: BlockStructure) -> int:
    """Order of the block lower triangular affine group, exact.

    GL factors per diagonal block, times the free bits below the diagonal
    (start bits in each of a block's rows), times the 2**n offsets.
    """
    out = 1
    below = 0
    start = 0
    for s in structure.sizes:
        out *= _gl2_order(s)
        below += start * s
        start += s
    return out << (below + start)


def blta_bounds(structure: BlockStructure) -> np.ndarray:
    """Exclusive upper bounds of the n+1 integers that pick one BLTA map."""
    highs = [
        ((1 << s) - (1 << i)) << start
        for s, start in zip(structure.sizes, structure.starts)
        for i in range(s)
    ]
    return np.array(highs + [1 << structure.n], dtype=np.int64)


def sample_blta_batch(
    structure: BlockStructure,
    count: int,
    rng: np.random.Generator | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform sampling without rejection: (count, n) row bitmasks and offsets.

    Each map takes exactly n+1 bounded integers, below blta_bounds(structure);
    rng is a Generator that draws them, or the (count, n+1) integers
    themselves.  Row i of a size-s diagonal block starting at `start` takes
    one below (2**s - 2**i) << start: its low `start` bits are the free bits
    left of the block, and the high part r picks one of the 2**s - 2**i
    vectors outside the span V of the block's rows above it.  V is kept as a
    reduced echelon basis whose pivot bits (lowest set bits) appear in no
    other basis vector; every vector is then y ^ w, y on the non-pivot bits
    and w in V, and it lies outside V exactly when y != 0.  So r >> i, plus
    one, is deposited into the non-pivot bits as y, and the bits of r below
    i choose w from the basis.  The last integer is the offset.  Every
    invertible block lower triangular matrix and offset matches exactly one
    tuple of integers, so uniform integers give an exactly uniform map, and
    a block costs O(s**2) vector operations.
    """
    count = _positive_int("count", count)
    n = structure.n
    highs = blta_bounds(structure)
    if isinstance(rng, np.random.Generator):
        draws = rng.integers(0, highs, size=(count, n + 1))
    else:
        draws = np.asarray(rng)
        if draws.shape != (count, n + 1) or draws.dtype.kind not in "iu":
            raise ValueError(f"expected a ({count}, {n + 1}) integer array, got {draws.shape}")
        draws = draws.astype(np.int64, copy=False)
        if (draws < 0).any() or (draws >= highs).any():
            raise ValueError("every integer must lie below its bound in blta_bounds")
    pairs = list(zip(structure.sizes, structure.starts))
    total = len(draws)
    rows = np.empty((total, n), dtype=np.uint32)
    for s, start in pairs:
        basis = np.zeros((total, s), dtype=np.int64)
        pivots = np.zeros(total, dtype=np.int64)
        for i in range(s):
            draw = draws[:, start + i]
            rank = draw >> start
            pattern = (rank >> i) + 1
            y = np.zeros(total, dtype=np.int64)
            for k in range(s):
                free = ((pivots >> k) & 1) ^ 1
                y |= (pattern & free) << k
                pattern >>= free
            row = y.copy()
            for j in range(i):
                row ^= basis[:, j] & -((rank >> j) & 1)
            rows[:, start + i] = (row << start) | (draw & ((1 << start) - 1))
            pivot = y & -y
            hit = (basis[:, :i] & pivot[:, None]) != 0
            basis[:, :i] ^= np.where(hit, y[:, None], 0)
            basis[:, i] = y
            pivots |= pivot
    return rows, draws[:, n].astype(np.uint32)


def position_tables_batch(rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Position permutation tables for affine maps given as row bitmasks.

    rows is (count, n), offsets is (count,); returns (count, 2**n) positions
    in the narrowest unsigned type that holds one (uint8 up to n = 8), the
    .T view of a width-major array, the layout aut_sc_decode_batch reads
    fastest.  Built by doubling: positions j + 2**k, j < 2**k, map to the
    image of j XOR the image A e_k of the k-th basis vector, one contiguous
    slab per step.
    """
    count, n = rows.shape
    shifts = np.arange(n, dtype=rows.dtype)[:, None]
    cols = np.zeros((n, count), dtype=rows.dtype)
    for i in range(n):
        cols |= ((rows[:, i] >> shifts) & 1) << i
    narrow = np.min_scalar_type((1 << n) - 1)
    cols = cols.astype(narrow)
    out = np.empty((1 << n, count), dtype=narrow)
    out[0] = offsets
    for k in range(n):
        np.bitwise_xor(out[: 1 << k], cols[k], out=out[1 << k : 2 << k])
    return out.T
