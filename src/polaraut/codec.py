"""Encoding and decoding of monomial codes.

Codewords are evaluations of the message polynomial over all points, so the
encoder is the butterfly transform followed by an index reversal (point j
corresponds to transform row ~j).  Decoders take (B, N) frames in
evaluation order, work in transform order, and return (messages,
codewords).

One tree walker serves all three decoders: successive cancellation is its
list-size-1 case, successive cancellation list keeps up to L paths, and the
automorphism ensemble runs SC on permuted frames.  Each keeps the candidate
most correlated with the channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .monomials import MonomialCode

__all__ = [
    "DecoderConfig",
    "KERNELS",
    "polar_transform",
    "encode_batch",
    "sc_decode_batch",
    "scl_decode_batch",
    "aut_sc_decode_batch",
    "frozen_mask",
]


def polar_transform(bits: np.ndarray) -> np.ndarray:
    """Multiply by the n-fold Kronecker power of [[1,0],[1,1]] on the last axis.

    The transform is an involution over GF(2).
    """
    out = np.ascontiguousarray(bits, dtype=np.uint8).copy()
    size = out.shape[-1]
    if size & (size - 1):
        raise ValueError(f"length must be a power of two, got {size}")
    h = size // 2
    while h:
        shaped = out.reshape(out.shape[:-1] + (-1, 2 * h))
        shaped[..., :h] ^= shaped[..., h:]
        h //= 2
    return out


def frozen_mask(code: MonomialCode) -> np.ndarray:
    """Boolean mask over transform rows; True marks frozen rows."""
    mask = np.ones(code.block_length, dtype=bool)
    mask[list(code.rows)] = False
    return mask


def _f_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Log-domain check-node combine, exact and overflow-safe."""
    m = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    return m + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))


def _f_min_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def _g(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Variable-node combine given the left-side word x."""
    return np.where(x.astype(bool), b - a, b + a)


KERNELS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "exact_boxplus": _f_exact,
    "min_sum": _f_min_sum,
}


@dataclass(frozen=True)
class DecoderConfig:
    """Knobs shared by the decoders."""

    list_size: int = 8
    kernel: str = "exact_boxplus"

    def __post_init__(self) -> None:
        if self.list_size < 1:
            raise ValueError("list size must be positive")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; pick from {sorted(KERNELS)}")

    @property
    def f_kernel(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        return KERNELS[self.kernel]


def encode_batch(code: MonomialCode, messages: np.ndarray) -> np.ndarray:
    """Encode (B, K) message bits into (B, N) codewords in evaluation order."""
    messages = np.asarray(messages, dtype=np.uint8)
    if messages.ndim != 2 or messages.shape[1] != code.dimension:
        raise ValueError("messages must have shape (batch, K)")
    if messages.max(initial=0) > 1:
        raise ValueError("message bits must be 0 or 1")
    u = np.zeros((messages.shape[0], code.block_length), dtype=np.uint8)
    u[:, list(code.rows)] = messages
    return polar_transform(u)[:, ::-1]


def _tree(
    llrs: np.ndarray,
    frozen: np.ndarray,
    f_kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    list_size: int,
) -> np.ndarray:
    """Successive cancellation with up to list_size paths per frame.

    llrs are (B, N) in transform order; returns (B, P, N) candidate words in
    transform order.  With list_size 1 an information leaf is the hard
    decision and arrays stay (B, width).  Otherwise arrays are (B, P, width):
    information leaves fork every path, and once more than list_size would
    live the best survive by path metric (stable sort, so tied candidates
    keep parent-then-0-bit priority).  A subtree returns its word and, when
    it forked or pruned, the parent of each of its paths among the paths it
    was given; its caller gathers only what it still holds by that map.
    """
    batch = llrs.shape[0]
    listing = list_size > 1
    pm = np.zeros((batch, 1))

    def take(x: np.ndarray, parent: np.ndarray) -> np.ndarray:
        return np.take_along_axis(x, parent[:, :, None], axis=1)

    def leaf(llr: np.ndarray, index: int) -> tuple[np.ndarray, np.ndarray | None]:
        nonlocal pm
        if frozen[index]:
            if listing:
                pm = pm + np.maximum(-llr[..., 0], 0.0)
            return np.zeros(llr.shape, dtype=np.uint8), None
        if not listing:
            return (llr < 0).astype(np.uint8), None
        pen0, pen1 = np.maximum(-llr[..., 0], 0.0), np.maximum(llr[..., 0], 0.0)
        cand = np.stack([pm + pen0, pm + pen1], axis=2).reshape(batch, -1)
        if cand.shape[1] <= list_size:
            order = np.broadcast_to(np.arange(cand.shape[1]), cand.shape)
        else:
            order = np.argsort(cand, axis=1, kind="stable")[:, :list_size]
        pm = np.take_along_axis(cand, order, axis=1)
        return (order & 1).astype(np.uint8)[:, :, None], order >> 1

    def node(llr: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray | None]:
        width = llr.shape[-1]
        if width == 1:
            return leaf(llr, start)
        h = width // 2
        a, b = llr[..., :h], llr[..., h:]
        left, parent = node(f_kernel(a, b), start)
        if parent is not None:
            a, b = take(a, parent), take(b, parent)
        right, right_parent = node(_g(a, b, left), start + h)
        if right_parent is not None:
            left = take(left, right_parent)
            parent = (
                right_parent
                if parent is None
                else np.take_along_axis(parent, right_parent, axis=1)
            )
        return np.concatenate([left ^ right, right], axis=-1), parent

    if listing:
        return node(llrs[:, None, :], 0)[0]
    return node(llrs, 0)[0][:, None, :]


def _checked(code: MonomialCode, llrs: np.ndarray) -> np.ndarray:
    """Decoder input as float64, rejected unless (B, N) and finite."""
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != code.block_length:
        raise ValueError(
            f"llrs must have shape (batch, {code.block_length}), got {llrs.shape}"
        )
    if not np.isfinite(llrs).all():
        raise ValueError("llrs must be finite")
    return llrs


def _most_correlated(cands: np.ndarray, llrs: np.ndarray) -> np.ndarray:
    """Per frame, the (B, P, N) candidate that best matches llrs (first on a tie)."""
    corr = ((1.0 - 2.0 * cands.astype(np.float64)) * llrs[:, None, :]).sum(axis=2)
    return cands[np.arange(len(cands)), corr.argmax(axis=1)]


def _with_messages(
    code: MonomialCode, words: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(messages, words) for codewords in evaluation order."""
    return polar_transform(words[:, ::-1])[:, list(code.rows)], words


def _list_decode(
    code: MonomialCode, llrs_eval: np.ndarray, config: DecoderConfig, list_size: int
) -> tuple[np.ndarray, np.ndarray]:
    chan = _checked(code, llrs_eval)[:, ::-1]
    cands = _tree(chan, frozen_mask(code), config.f_kernel, list_size)
    return _with_messages(code, _most_correlated(cands, chan)[:, ::-1])


def sc_decode_batch(
    code: MonomialCode, llrs_eval: np.ndarray, config: DecoderConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Batch SC; frames in evaluation order, returns (messages, codewords)."""
    return _list_decode(code, llrs_eval, config or DecoderConfig(), 1)


def scl_decode_batch(
    code: MonomialCode, llrs_eval: np.ndarray, config: DecoderConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Batch SCL; frames in evaluation order, returns (messages, codewords).

    The most correlated word in the final list wins.  List size 1 is SC.
    """
    config = config or DecoderConfig()
    return _list_decode(code, llrs_eval, config, config.list_size)


def aut_sc_decode_batch(
    code: MonomialCode,
    llrs_eval: np.ndarray,
    tables: np.ndarray,
    config: DecoderConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Automorphism-ensemble SC over a batch.

    tables holds position permutations, shape (M, N) shared across the batch
    or (B, M, N) per frame.  Each branch decodes the permuted frame with SC,
    the permutation is undone, and the codeword with the highest correlation
    to the channel wins (lowest branch index on a tie).
    """
    config = config or DecoderConfig()
    llrs = _checked(code, llrs_eval)
    batch, size = llrs.shape
    if tables.ndim == 2:
        tables = np.broadcast_to(tables[None, :, :], (batch,) + tables.shape)
    m_branches = tables.shape[1]

    permuted = np.take_along_axis(llrs[:, None, :], tables, axis=2)
    flat = permuted.reshape(batch * m_branches, size)
    cands = _tree(flat[:, ::-1], frozen_mask(code), config.f_kernel, 1)[:, 0, ::-1]
    unperm = np.zeros((batch, m_branches, size), dtype=np.uint8)
    np.put_along_axis(unperm, tables, cands.reshape(batch, m_branches, size), axis=2)
    return _with_messages(code, _most_correlated(unperm, llrs))
