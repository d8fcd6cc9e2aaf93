"""Shared test helpers."""

from __future__ import annotations

import itertools

import numpy as np

from polaraut.automorphisms import BlockStructure
from polaraut.monomials import Monomial, MonomialCode, decreasing_closure
from polaraut.verify import Permutation


def numpy_umath():
    """numpy's _multiarray_umath: __cpu_dispatch__ lists the CPU targets its
    math dispatches to, and __cpu_features__ what this host has."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    return _multiarray_umath


def random_monomial(rng: np.random.Generator, n: int) -> Monomial:
    degree = int(rng.integers(0, n + 1))
    indices = rng.choice(n, size=degree, replace=False)
    return Monomial.from_indices(int(i) for i in indices)


def random_decreasing_code(
    rng: np.random.Generator, n: int, max_generators: int = 3
) -> MonomialCode:
    count = int(rng.integers(1, max_generators + 1))
    gens = [random_monomial(rng, n) for _ in range(count)]
    return decreasing_closure(gens, n)


def kron_generator_matrix(n: int) -> np.ndarray:
    """[[1,0],[1,1]] Kronecker power, the reference encoder matrix."""
    g = np.array([[1]], dtype=np.uint8)
    base = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    for _ in range(n):
        g = np.kron(g, base)
    return g


def block_group(structure: BlockStructure) -> frozenset[Permutation]:
    """All permutations acting independently inside each interval block."""
    per_block = []
    for start, size in zip(structure.starts, structure.sizes):
        per_block.append(
            [list(p) for p in itertools.permutations(range(start, start + size))]
        )
    out = set()
    for combo in itertools.product(*per_block):
        images = [0] * structure.n
        for start, size, chunk in zip(structure.starts, structure.sizes, combo):
            for offset, img in enumerate(chunk):
                images[start + offset] = img
        out.add(Permutation(tuple(images)))
    return frozenset(out)


def stabilizer_size(structure: BlockStructure) -> int:
    """Order of the stabilizer: the product of the block factorials."""
    out = 1
    for s in structure.sizes:
        for k in range(2, s + 1):
            out *= k
    return out


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
