"""Theory verification and exhaustive oracles, kept off the decode path.

Checks the paper's two results by construction: BLTA maps are automorphisms
(`is_code_automorphism`, by putting the map into each member monomial), and
an invertible block lower triangular matrix factors as P1 L1 P2 L2 P3
(`lemma1_decompose`).  Around them: GF(2) matrices, one int per row with bit
j of rows[i] the entry (i, j) (at n <= MAX_VARS plain ints beat any packed
array), variable permutations with the exhaustive stabilizer, and single
affine maps.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .automorphisms import BlockStructure, position_tables_batch, sample_blta_batch
from .monomials import CapabilityError, MonomialCode, _variable_members

__all__ = [
    "BinaryMatrix",
    "identity",
    "from_lists",
    "parity",
    "Permutation",
    "AffineAutomorphism",
    "stabilizes",
    "brute_force_stabilizer",
    "interval_disjoint_decomposition",
    "block_reversal_matrix",
    "lemma1_decompose",
    "position_action",
    "position_table",
    "sample_blta",
    "is_code_automorphism",
]


def parity(x: int) -> int:
    return x.bit_count() & 1


def _row_reduce(
    rows: Iterable[int], aug: Iterable[int] | None = None
) -> tuple[list[int], list[int], list[int]]:
    """Gauss-Jordan over GF(2), pivoting on each row's lowest set bit.

    Returns the nonzero reduced rows, whose pivot bits are set in no other
    reduced row; the rows of aug (default zeros) put through the same row
    operations; and each reduced row's pivot bit.
    """
    reduced, carried, pivots = [], [], []
    for r, a in zip(rows, itertools.repeat(0) if aug is None else aug):
        for b, c, p in zip(reduced, carried, pivots):
            if r & p:
                r, a = r ^ b, a ^ c
        if not r:
            continue
        p = r & -r
        for k, b in enumerate(reduced):
            if b & p:
                reduced[k], carried[k] = b ^ r, carried[k] ^ a
        reduced.append(r)
        carried.append(a)
        pivots.append(p)
    return reduced, carried, pivots


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
        return len(_row_reduce(self.rows)[2])

    def is_invertible(self) -> bool:
        return self.rank() == self.n

    def inverse(self) -> "BinaryMatrix":
        _, carried, pivots = _row_reduce(self.rows, [1 << i for i in range(self.n)])
        if len(pivots) < self.n:
            raise ValueError("matrix is singular")
        # Each reduced row is the unit row of its pivot, so the identity
        # carried alongside holds the inverse's rows, in pivot order.
        return BinaryMatrix(self.n, tuple(c for _, c in sorted(zip(pivots, carried))))

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


def _swap_variables(members: int, n: int, i: int, j: int) -> int:
    """Exchange x_i and x_j, i < j, in every member of a membership integer.

    Members holding x_i but not x_j move up by 2**j - 2**i, members holding
    x_j but not x_i move down by as much, and the others stay.
    """
    has = _variable_members(n)
    up = has[i] & ~has[j]
    d = (1 << j) - (1 << i)
    return members & ~(up | up << d) | (members & up) << d | members >> d & up


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


def brute_force_stabilizer(code: MonomialCode) -> frozenset[Permutation]:
    """All stabilizing permutations by exhaustion; guarded at n <= 6."""
    if code.n > 6:
        raise CapabilityError("exhaustive stabilizer search is supported for n <= 6")
    return frozenset(
        p
        for images in itertools.permutations(range(code.n))
        if stabilizes(p := Permutation(images), code)
    )


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


def block_reversal_matrix(structure: BlockStructure) -> BinaryMatrix:
    """The involution reversing indices inside each block."""
    rows = [0] * structure.n
    for start, size in zip(structure.starts, structure.sizes):
        for i in range(start, start + size):
            rows[i] = 1 << (2 * start + size - 1 - i)
    return BinaryMatrix(structure.n, tuple(rows))


def is_block_lower_triangular(m: BinaryMatrix, structure: BlockStructure) -> bool:
    """Whether all entries right of each row's diagonal block are zero."""
    return m.n == structure.n and all(
        r >> start + size == 0
        for start, size in zip(structure.starts, structure.sizes)
        for r in m.rows[start : start + size]
    )


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
    ends = [start + size for start, size in zip(structure.starts, structure.sizes)
            for _ in range(size)]
    for j in range(n):
        piv = next((i for i in range(j, ends[j]) if rows[i] >> j & 1), None)
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


def position_table(aut: AffineAutomorphism) -> np.ndarray:
    """position_action at every position, as an array of length 2**n in
    position_tables_batch's unsigned dtype."""
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


def is_code_automorphism(aut: AffineAutomorphism, code: MonomialCode) -> bool:
    """Exact membership test for Aut(C): put the map into each member monomial.

    pi: x -> A x + b turns x_i into the form <row_i, x> + b_i and a member f
    into f o pi, whose word (the AND of its variables' form words) holds
    f(pi(x)) at x: f's word moved by pi^-1.  Its algebraic normal form, the
    word's Moebius transform, must lie in the information set.  So pi^-1(C)
    lies in C, hence equals it, and pi^-1 is in the group Aut(C) iff pi is.
    """
    if aut.n != code.n:
        raise ValueError("automorphism size does not match the code")
    has = _variable_members(code.n)
    full = (1 << (1 << code.n)) - 1
    forms = [
        functools.reduce(operator.xor, (has[j] for j in range(code.n) if row >> j & 1), 0)
        ^ full * (aut.offset >> i & 1)
        for i, row in enumerate(aut.matrix.rows)
    ]
    for f in code.info_set:
        w = functools.reduce(operator.and_, (forms[i] for i in f.indices), full)
        for i in range(code.n):
            w ^= (w & ~has[i]) << (1 << i)
        if w & ~code.members:
            return False
    return True
