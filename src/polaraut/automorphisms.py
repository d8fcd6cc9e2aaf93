"""Automorphisms of decreasing monomial codes.

Covers the permutation side (stabilizer of the information set, found by a
greedy transposition scan) and the affine side (block lower triangular
matrices plus an offset), including exact group sizes, uniform sampling, and
the five-factor decomposition used to prove the affine group acts on the code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .gf2 import BinaryMatrix
from .monomials import CapabilityError, MonomialCode, _swap_variables, is_decreasing

__all__ = [
    "Permutation",
    "BlockStructure",
    "AffineAutomorphism",
    "stabilizes",
    "find_block_structure",
    "brute_force_stabilizer",
    "stabilizer_size",
    "interval_disjoint_decomposition",
    "blta_size",
    "block_reversal_matrix",
    "lemma1_decompose",
    "sample_blta",
    "blta_bounds",
    "sample_blta_batch",
    "position_action",
    "position_table",
    "position_tables_batch",
    "is_code_automorphism",
]


@dataclass(frozen=True)
class Permutation:
    """A permutation of variable indices 0..n-1; images[i] is where i goes."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        images = list(range(n))
        images[i], images[j] = j, i
        return cls(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition, self after other."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(tuple(inv))

    def apply_mask(self, mask: int) -> int:
        """Relabel the variables of a monomial bitmask."""
        out = 0
        while mask:
            bit = mask & -mask
            out |= 1 << self.images[bit.bit_length() - 1]
            mask ^= bit
        return out

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its smallest element."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = []
            i = start
            while not seen[i]:
                seen[i] = True
                cyc.append(i)
                i = self.images[i]
            out.append(tuple(cyc))
        return out

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images))

    def to_matrix(self) -> BinaryMatrix:
        """Permutation matrix A with A e_i = e_images[i]."""
        rows = [0] * self.n
        for i, img in enumerate(self.images):
            rows[img] = 1 << i
        return BinaryMatrix(self.n, tuple(rows))


def stabilizes(perm: Permutation, code: MonomialCode) -> bool:
    """Whether relabelling variables by perm maps the information set onto itself.

    Each cycle (c0 c1 ... ck) is applied to the membership integer as the
    swaps of c0 with c1, c2, ..., ck in turn.
    """
    if perm.n != code.n:
        raise ValueError("permutation size does not match the code")
    members = code.members
    for cycle in perm.cycles():
        for j in cycle[1:]:
            members = _swap_variables(members, code.n, cycle[0], j)
    return members == code.members


@dataclass(frozen=True)
class BlockStructure:
    """Consecutive variable-index blocks; sizes sum to the variable count."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError(f"block sizes must be positive: {self.sizes}")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def starts(self) -> tuple[int, ...]:
        out = []
        acc = 0
        for s in self.sizes:
            out.append(acc)
            acc += s
        return tuple(out)

    def block_of(self, i: int) -> int:
        acc = 0
        for k, s in enumerate(self.sizes):
            acc += s
            if i < acc:
                return k
        raise ValueError(f"index out of range: {i}")


def find_block_structure(code: MonomialCode) -> BlockStructure:
    """Block sizes of the stabilizer of a decreasing code.

    Greedy scan: starting from the lowest unassigned index i, take the largest
    j such that swapping i and j fixes the information set; then [i, j] spans
    a block and every permutation inside it stabilizes.
    """
    if not is_decreasing(code):
        raise ValueError("block structure is defined for decreasing codes only")
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


def brute_force_stabilizer(code: MonomialCode) -> frozenset[Permutation]:
    """All stabilizing permutations by exhaustion; guarded at n <= 6."""
    if code.n > 6:
        raise CapabilityError("exhaustive stabilizer search is supported for n <= 6")
    return frozenset(
        p
        for images in itertools.permutations(range(code.n))
        if stabilizes(p := Permutation(images), code)
    )


def stabilizer_size(structure: BlockStructure) -> int:
    """Order of the stabilizer: the product of the block factorials."""
    out = 1
    for s in structure.sizes:
        for k in range(2, s + 1):
            out *= k
    return out


def interval_disjoint_decomposition(perm: Permutation) -> frozenset[Permutation]:
    """Factor a permutation into parts with pairwise disjoint index intervals.

    Cycles whose [min, max] intervals overlap are merged into one factor, so
    the factors commute and their intervals are disjoint.
    """
    cycles = perm.cycles()
    if not cycles:
        return frozenset()
    spans = sorted((min(c), max(c), c) for c in cycles)
    groups: list[tuple[int, int, list[tuple[int, ...]]]] = []
    for lo, hi, cyc in spans:
        if groups and lo <= groups[-1][1]:
            glo, ghi, items = groups[-1]
            items.append(cyc)
            groups[-1] = (glo, max(ghi, hi), items)
        else:
            groups.append((lo, hi, [cyc]))
    out = []
    for _, _, items in groups:
        images = list(range(perm.n))
        for cyc in items:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        out.append(Permutation(tuple(images)))
    return frozenset(out)


def _gl2_order(m: int) -> int:
    out = 1
    q = 1 << m
    for i in range(m):
        out *= q - (1 << i)
    return out


def blta_size(structure: BlockStructure) -> int:
    """Order of the block lower triangular affine group, exact.

    GL factors per diagonal block, times the free bits below the diagonal,
    times the 2**n offsets.
    """
    out = 1
    below = 0
    for s, start in zip(structure.sizes, structure.starts):
        out *= _gl2_order(s)
        below += start * s
    return out << (below + structure.n)


def block_reversal_matrix(structure: BlockStructure) -> BinaryMatrix:
    """The involution reversing indices inside each block."""
    n = structure.n
    rows = [0] * n
    for i in range(n):
        k = structure.block_of(i)
        j = 2 * structure.starts[k] + structure.sizes[k] - 1 - i
        rows[i] = 1 << j
    return BinaryMatrix(n, tuple(rows))


def is_block_lower_triangular(m: BinaryMatrix, structure: BlockStructure) -> bool:
    """Whether all entries right of each row's diagonal block are zero."""
    if m.n != structure.n:
        return False
    for i, r in enumerate(m.rows):
        k = structure.block_of(i)
        end = structure.starts[k] + structure.sizes[k]
        if r >> end:
            return False
    return True


def lemma1_decompose(
    m: BinaryMatrix, structure: BlockStructure
) -> tuple[BinaryMatrix, BinaryMatrix, BinaryMatrix, BinaryMatrix, BinaryMatrix]:
    """Split an invertible block lower triangular matrix into P1 L1 P2 L2 P3.

    The P factors are block-diagonal permutations, the L factors are unit
    lower triangular; all five stay inside the block structure, which reduces
    membership of the whole group to its triangular and permutation parts.
    """
    n = m.n
    if structure.n != n:
        raise ValueError("structure size does not match the matrix")
    if not is_block_lower_triangular(m, structure):
        raise ValueError("matrix is not block lower triangular for this structure")
    rows = list(m.rows)
    perm = list(range(n))
    lower = [1 << i for i in range(n)]
    # Row-pivoted elimination; pivots are always available inside the current
    # diagonal block because the leading principal block submatrices of an
    # invertible block lower triangular matrix are invertible.
    for j in range(n):
        k = structure.block_of(j)
        end = structure.starts[k] + structure.sizes[k]
        piv = next((i for i in range(j, end) if rows[i] >> j & 1), None)
        if piv is None:
            raise ValueError("matrix is singular")
        rows[j], rows[piv] = rows[piv], rows[j]
        perm[j], perm[piv] = perm[piv], perm[j]
        # multipliers recorded so far move with their rows; diagonals stay
        sub = (1 << j) - 1
        lj, lp = lower[j] & sub, lower[piv] & sub
        lower[j] ^= lj ^ lp
        lower[piv] ^= lj ^ lp
        for i in range(j + 1, n):
            if rows[i] >> j & 1:
                rows[i] ^= rows[j]
                lower[i] |= 1 << j
    upper = rows
    # perm records P A = L U with P[i, perm[i]] = 1.
    p_rows = tuple(1 << perm[i] for i in range(n))
    p1 = BinaryMatrix(n, p_rows).transpose()
    l1 = BinaryMatrix(n, tuple(lower))
    pbr = block_reversal_matrix(structure)
    l2 = pbr @ BinaryMatrix(n, tuple(upper)) @ pbr
    return p1, l1, pbr, l2, pbr


@dataclass(frozen=True)
class AffineAutomorphism:
    """An affine bijection x -> A x + b of the variable space."""

    matrix: BinaryMatrix
    offset: int

    def __post_init__(self) -> None:
        if not 0 <= self.offset < 1 << self.matrix.n:
            raise ValueError("offset out of range")

    @property
    def n(self) -> int:
        return self.matrix.n

    def compose(self, other: "AffineAutomorphism") -> "AffineAutomorphism":
        """self after other."""
        return AffineAutomorphism(
            self.matrix @ other.matrix, self.matrix.apply(other.offset) ^ self.offset
        )

    def inverse(self) -> "AffineAutomorphism":
        inv = self.matrix.inverse()
        return AffineAutomorphism(inv, inv.apply(self.offset))


def position_action(aut: AffineAutomorphism, j: int) -> int:
    """Image of codeword position j; positions are points x read as bitmasks."""
    return aut.matrix.apply(j) ^ aut.offset


def position_tables_batch(rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Position permutation tables for affine maps given as row bitmasks.

    rows is (count, n), offsets is (count,); returns (count, 2**n) indices.
    Built by doubling: positions j + 2**k, j < 2**k, map to the image of j
    XOR the image A e_k of the k-th basis vector.  The doubling runs in the
    narrowest unsigned type that holds a position, widened once at the end.
    """
    count, n = rows.shape
    shifts = np.arange(n, dtype=rows.dtype)
    cols = np.zeros((count, n), dtype=rows.dtype)
    for i in range(n):
        cols |= ((rows[:, i : i + 1] >> shifts) & 1) << i
    narrow = np.min_scalar_type((1 << n) - 1)
    cols = cols.astype(narrow)
    out = np.empty((count, 1 << n), dtype=narrow)
    out[:, 0] = offsets
    for k in range(n):
        np.bitwise_xor(out[:, : 1 << k], cols[:, k : k + 1], out=out[:, 1 << k : 2 << k])
    return out.astype(np.int64)


def position_table(aut: AffineAutomorphism) -> np.ndarray:
    """position_action at every position, as an int array of length 2**n."""
    rows = np.array([aut.matrix.rows], dtype=np.uint32)
    offsets = np.array([aut.offset], dtype=np.uint32)
    return position_tables_batch(rows, offsets)[0]


def sample_blta(
    structure: BlockStructure, rng: np.random.Generator
) -> AffineAutomorphism:
    """Draw one automorphism uniformly from the block lower triangular group."""
    rows, offsets = sample_blta_batch(structure, 1, rng)
    mat = BinaryMatrix(structure.n, tuple(int(v) for v in rows[0]))
    return AffineAutomorphism(mat, int(offsets[0]))


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
    if count < 1:
        raise ValueError("count must be positive")
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


def gl_full_rank_mask(rows: np.ndarray) -> np.ndarray:
    """Full-rank test for a batch of s x s GF(2) matrices given as row bitmasks."""
    work = rows.astype(np.uint32).copy()
    count, s = work.shape
    ok = np.ones(count, dtype=bool)
    idx = np.arange(count)
    for col in range(s):
        has = (work[:, col:] >> np.uint32(col)) & np.uint32(1)
        off = has.argmax(axis=1)
        ok &= has[idx, off] == 1
        piv = col + off
        pivot_rows = work[idx, piv].copy()
        cur = work[:, col].copy()
        work[:, col] = pivot_rows
        work[idx, piv] = cur
        elim = (work >> np.uint32(col) & np.uint32(1)).astype(bool)
        elim[:, col] = False
        work ^= elim * pivot_rows[:, None]
    return ok


def _evaluation_row(mask: int, n: int) -> int:
    """Evaluation of a monomial at all points, as a bitmask over positions.

    Bit j is 1 when every variable of the monomial is set in j.
    """
    out = 0
    for j in range(1 << n):
        if j & mask == mask:
            out |= 1 << j
    return out


def _echelon_basis(rows: Iterable[int]) -> list[int]:
    """Row-reduce to a basis with distinct leading bits, highest first."""
    basis: list[int] = []
    for r in rows:
        for b in basis:
            if r ^ b < r:
                r ^= b
        if r:
            basis.append(r)
            basis.sort(reverse=True)
    return basis


def is_code_automorphism(aut: AffineAutomorphism, code: MonomialCode) -> bool:
    """Exact membership test for Aut(C) by exhausting all 2**K codewords.

    Guarded at n <= 5 (and K <= 22, where the enumeration stays tractable);
    each permuted codeword is reduced against the evaluation-row basis.
    """
    if code.n > 5:
        raise CapabilityError("exhaustive automorphism check is supported for n <= 5")
    if code.dimension > 22:
        raise CapabilityError("codeword enumeration is supported for K <= 22")
    if aut.n != code.n:
        raise ValueError("automorphism size does not match the code")
    n = code.n
    size = 1 << n
    basis = [_evaluation_row(f.mask, n) for f in sorted(code.info_set)]
    # All codewords, by doubling the span; fits in int64 since size <= 32.
    words = np.zeros(1, dtype=np.int64)
    for b in basis:
        words = np.concatenate([words, words ^ np.int64(b)])
    table = position_table(aut)
    permuted = np.zeros_like(words)
    for pos in range(size):
        permuted |= ((words >> np.int64(pos)) & np.int64(1)) << np.int64(table[pos])
    for b in _echelon_basis(basis):
        lead = np.int64(b.bit_length() - 1)
        hit = ((permuted >> lead) & np.int64(1)).astype(bool)
        permuted[hit] ^= np.int64(b)
    return not permuted.any()
