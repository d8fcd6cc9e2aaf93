"""Reference SC, SCL and Aut-SC decoders, kept as test oracles.

These are the decoders polaraut shipped before the shared tree walker in
`polaraut.codec`: a recursive SC and a per-leaf SCL loop that keeps its own
LLR stack and gathers all of it at every fork.  The batch decoders must
match them bit for bit (SCL for list sizes of 2 and more; with list size 1
the per-leaf loop can keep bit 0 where SC decides 1, when adding a tiny
penalty to a large path metric rounds to the same float).  The polar
transform staged on the last axis is kept too, as the oracle for the
width-major staging in `polaraut.codec.polar_transform`, and so are the
check-node kernels as first written, which the reference decoders use in
place of the codec's own, and the correlation that negated the channel
with `np.where`, the oracle for the sign-bit flip in
`polaraut.codec._correlations`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from polaraut.codec import frozen_mask, polar_transform
from polaraut.monomials import MonomialCode


def _f_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    return m + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))


def _f_min_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


REFERENCE_KERNELS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "exact_boxplus": _f_exact,
    "min_sum": _f_min_sum,
}


def polar_transform_reference(bits: np.ndarray) -> np.ndarray:
    """The butterfly on the last axis, one stage per slice of each row."""
    out = np.ascontiguousarray(bits, dtype=np.uint8).copy()
    h = out.shape[-1] // 2
    while h:
        shaped = out.reshape(out.shape[:-1] + (-1, 2 * h))
        shaped[..., :h] ^= shaped[..., h:]
        h //= 2
    return out


def _g(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.where(x.astype(bool), b - a, b + a)


def correlations_reference(cands: np.ndarray, llrs: np.ndarray) -> np.ndarray:
    """(B, P) correlations of (B, P, N) candidates with llrs, each term
    picked from llr and its negation, summed over contiguous rows."""
    cands = np.ascontiguousarray(cands)
    chan = np.ascontiguousarray(llrs)[:, None, :]
    return np.where(cands.view(bool), -chan, chan).sum(axis=2)


def _sc_batch(
    llrs: np.ndarray,
    frozen: np.ndarray,
    f_kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """SC over a batch; llrs are (B, N) in transform order.

    Returns (u, v): decided rows and the re-encoded transform-order words.
    """
    batch = llrs.shape[0]
    size = llrs.shape[1]
    u = np.zeros((batch, size), dtype=np.uint8)

    def rec(llr: np.ndarray, start: int) -> np.ndarray:
        width = llr.shape[1]
        if width == 1:
            if frozen[start]:
                bit = np.zeros((batch, 1), dtype=np.uint8)
            else:
                bit = (llr < 0).astype(np.uint8)
            u[:, start : start + 1] = bit
            return bit
        h = width // 2
        a, b = llr[:, :h], llr[:, h:]
        left = rec(f_kernel(a, b), start)
        right = rec(_g(a, b, left), start + h)
        return np.concatenate([left ^ right, right], axis=1)

    v = rec(llrs, 0)
    return u, v


def sc_reference(
    code: MonomialCode, llrs_eval: np.ndarray, kernel: str = "exact_boxplus"
) -> tuple[np.ndarray, np.ndarray]:
    f_kernel = REFERENCE_KERNELS[kernel]
    u, v = _sc_batch(llrs_eval[:, ::-1], frozen_mask(code), f_kernel)
    return u[:, list(code.rows)], v[:, ::-1]


def scl_reference(
    code: MonomialCode, llrs_eval: np.ndarray, list_size: int, kernel: str = "exact_boxplus"
) -> tuple[np.ndarray, np.ndarray]:
    """Per-leaf SCL; the most correlated word in the final list wins."""
    f_kernel = REFERENCE_KERNELS[kernel]
    cap = list_size
    frozen = frozen_mask(code)
    n = code.n
    size = code.block_length
    chan = llrs_eval[:, ::-1].astype(np.float64)
    batch = chan.shape[0]

    llrs: list[np.ndarray | None] = [chan[:, None, :]] + [None] * n
    lefts: list[np.ndarray | None] = [None] * n
    u_all = np.zeros((batch, 1, size), dtype=np.uint8)
    pm = np.zeros((batch, 1), dtype=np.float64)

    def refresh_llrs(leaf: int) -> None:
        if leaf == 0:
            start = 1
        else:
            q = (leaf & -leaf).bit_length() - 1
            start = n - q
            prev = llrs[start - 1]
            h = prev.shape[2] // 2
            llrs[start] = _g(prev[..., :h], prev[..., h:], lefts[start - 1])
            start += 1
        for d in range(start, n + 1):
            prev = llrs[d - 1]
            h = prev.shape[2] // 2
            llrs[d] = f_kernel(prev[..., :h], prev[..., h:])

    def gather(order: np.ndarray) -> None:
        sel = order[:, :, None]
        for d in range(1, n + 1):
            if llrs[d] is not None:
                llrs[d] = np.take_along_axis(llrs[d], sel, axis=1)
        for d in range(n):
            if lefts[d] is not None:
                lefts[d] = np.take_along_axis(lefts[d], sel, axis=1)

    v_final: np.ndarray | None = None

    for leaf in range(size):
        refresh_llrs(leaf)
        leaf_llr = llrs[n][..., 0]
        paths = leaf_llr.shape[1]
        pen0, pen1 = np.maximum(-leaf_llr, 0.0), np.maximum(leaf_llr, 0.0)
        if frozen[leaf]:
            pm = pm + pen0
            bits = np.zeros((batch, paths, 1), dtype=np.uint8)
        else:
            cand_pm = np.stack([pm + pen0, pm + pen1], axis=2).reshape(batch, 2 * paths)
            if 2 * paths <= cap:
                for d in range(1, n + 1):
                    llrs[d] = np.repeat(llrs[d], 2, axis=1)
                for d in range(n):
                    if lefts[d] is not None:
                        lefts[d] = np.repeat(lefts[d], 2, axis=1)
                u_all = np.repeat(u_all, 2, axis=1)
                pm = cand_pm
                bit_vals = np.tile(np.arange(2 * paths, dtype=np.uint8) & 1, (batch, 1))
            else:
                order = np.argsort(cand_pm, axis=1, kind="stable")[:, :cap]
                parent = order >> 1
                gather(parent)
                u_all = np.take_along_axis(u_all, parent[:, :, None], axis=1)
                pm = np.take_along_axis(cand_pm, order, axis=1)
                bit_vals = (order & 1).astype(np.uint8)
            u_all[:, :, leaf] = bit_vals
            bits = bit_vals[:, :, None]
        word = bits
        depth = n
        rem = leaf
        while depth > 0 and rem & 1:
            word = np.concatenate([lefts[depth - 1] ^ word, word], axis=2)
            depth -= 1
            rem >>= 1
        if depth > 0:
            lefts[depth - 1] = word
        else:
            v_final = word

    assert v_final is not None
    corr = ((1.0 - 2.0 * v_final.astype(np.float64)) * chan[:, None, :]).sum(axis=2)
    best = corr.argmax(axis=1)
    rows = np.arange(batch)
    return u_all[rows, best][:, list(code.rows)], v_final[rows, best][:, ::-1]


def aut_sc_reference(
    code: MonomialCode,
    llrs_eval: np.ndarray,
    tables: np.ndarray,
    kernel: str = "exact_boxplus",
) -> tuple[np.ndarray, np.ndarray]:
    """SC on each permuted frame, best candidate by correlation (first on a tie)."""
    batch, size = llrs_eval.shape
    if tables.ndim == 2:
        tables = np.broadcast_to(tables[None, :, :], (batch,) + tables.shape)
    m_branches = tables.shape[1]

    permuted = np.take_along_axis(llrs_eval[:, None, :], tables, axis=2)
    flat = permuted.reshape(batch * m_branches, size)
    f_kernel = REFERENCE_KERNELS[kernel]
    _, v = _sc_batch(flat[:, ::-1], frozen_mask(code), f_kernel)
    cand = v[:, ::-1].reshape(batch, m_branches, size)
    unperm = np.zeros_like(cand)
    np.put_along_axis(unperm, tables, cand, axis=2)

    corr = ((1.0 - 2.0 * unperm.astype(np.float64)) * llrs_eval[:, None, :]).sum(axis=2)
    best = corr.argmax(axis=1)
    words = unperm[np.arange(batch), best]
    u = polar_transform(words[:, ::-1])
    return u[:, list(code.rows)], words
