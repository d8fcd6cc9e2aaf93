"""Encoding and decoding of monomial codes.

Codewords are evaluations of the message polynomial over all points, so the
encoder is the butterfly transform followed by an index reversal (point j
corresponds to transform row ~j).  Decoders work in transform order and the
public wrappers translate.

Three engines: successive cancellation (recursive, batched over frames),
successive cancellation list (iterative over leaves, batched over frames and
paths), and an automorphism ensemble that runs SC on permuted frames and
keeps the best candidate by correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .automorphisms import AffineAutomorphism, position_table
from .monomials import Monomial, MonomialCode

__all__ = [
    "MessageWord",
    "Codeword",
    "LlrFrame",
    "DecoderConfig",
    "KERNELS",
    "polar_transform",
    "encode",
    "encode_batch",
    "sc_decode",
    "sc_decode_batch",
    "scl_decode",
    "scl_decode_batch",
    "aut_sc_decode",
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


@dataclass(frozen=True)
class MessageWord:
    """Message coefficients, one bit per information monomial.

    Bits align with code.rows (ascending row order).
    """

    code: MonomialCode
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != self.code.dimension:
            raise ValueError("bit count does not match the code dimension")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("message bits must be 0 or 1")

    @classmethod
    def from_coeffs(
        cls, code: MonomialCode, coeffs: Mapping[Monomial, int]
    ) -> "MessageWord":
        if set(coeffs) != set(code.info_set):
            raise ValueError("coefficient keys must be exactly the information set")
        from .monomials import monomial_to_row

        by_row = {monomial_to_row(f, code.n): v for f, v in coeffs.items()}
        return cls(code, tuple(by_row[r] for r in code.rows))

    def coeff(self, f: Monomial) -> int:
        from .monomials import monomial_to_row

        return self.bits[self.code.rows.index(monomial_to_row(f, self.code.n))]

    def as_dict(self) -> dict[Monomial, int]:
        from .monomials import row_to_monomial

        return {
            row_to_monomial(r, self.code.n): b for r, b in zip(self.code.rows, self.bits)
        }


@dataclass(frozen=True, eq=False)
class Codeword:
    """A codeword in evaluation order: bit j is the polynomial value at point j."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits)
        if arr.ndim != 1 or arr.size & (arr.size - 1):
            raise ValueError("codeword length must be a power of two")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("codeword bits must be 0 or 1")
        object.__setattr__(self, "bits", arr.astype(np.uint8))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Codeword):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(
            (self.bits == other.bits).all()
        )

    def __len__(self) -> int:
        return int(self.bits.size)


@dataclass(frozen=True, eq=False)
class LlrFrame:
    """Channel log likelihood ratios in evaluation order; positive favours 0."""

    llrs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.llrs, dtype=np.float64)
        if arr.ndim != 1 or arr.size & (arr.size - 1):
            raise ValueError("frame length must be a power of two")
        if not np.isfinite(arr).all():
            raise ValueError("frame values must be finite")
        object.__setattr__(self, "llrs", arr)

    def __len__(self) -> int:
        return int(self.llrs.size)


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
    u = np.zeros((messages.shape[0], code.block_length), dtype=np.uint8)
    u[:, list(code.rows)] = messages
    return polar_transform(u)[:, ::-1]


def encode(code: MonomialCode, message: MessageWord) -> Codeword:
    """Evaluate the message polynomial at every point."""
    if message.code != code:
        raise ValueError("message was built for a different code")
    word = encode_batch(code, np.array([message.bits], dtype=np.uint8))[0]
    return Codeword(word)


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


def sc_decode_batch(
    code: MonomialCode, llrs_eval: np.ndarray, config: DecoderConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Batch SC; frames in evaluation order, returns (messages, codewords)."""
    config = config or DecoderConfig()
    frozen = frozen_mask(code)
    u, v = _sc_batch(llrs_eval[:, ::-1], frozen, config.f_kernel)
    return u[:, list(code.rows)], v[:, ::-1]


def sc_decode(
    code: MonomialCode, frame: LlrFrame, config: DecoderConfig | None = None
) -> tuple[MessageWord, Codeword]:
    """Successive cancellation decoding of one frame."""
    if len(frame) != code.block_length:
        raise ValueError("frame length does not match the code")
    msgs, words = sc_decode_batch(code, frame.llrs[None, :], config)
    return MessageWord(code, tuple(int(b) for b in msgs[0])), Codeword(words[0])


def _penalties(leaf_llr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Path-metric penalties for deciding 0 and 1 at a leaf."""
    return np.maximum(-leaf_llr, 0.0), np.maximum(leaf_llr, 0.0)


def scl_decode_batch(
    code: MonomialCode, llrs_eval: np.ndarray, config: DecoderConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Batch SCL; frames in evaluation order, returns (messages, codewords).

    Paths fork at information leaves and the best list_size survive by path
    metric (stable sort, so tied candidates keep parent-then-0-bit priority).
    The returned word is the most correlated codeword in the final list.
    """
    f_kernel = config.f_kernel
    cap = config.list_size
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
        if frozen[leaf]:
            pen0, _ = _penalties(leaf_llr)
            pm = pm + pen0
            bits = np.zeros((batch, paths, 1), dtype=np.uint8)
        else:
            pen0, pen1 = _penalties(leaf_llr)
            cand_pm = np.stack([pm + pen0, pm + pen1], axis=2).reshape(batch, 2 * paths)
            if 2 * paths <= cap:
                for d in range(1, n + 1):
                    llrs[d] = np.repeat(llrs[d], 2, axis=1)
                for d in range(n):
                    if lefts[d] is not None:
                        lefts[d] = np.repeat(lefts[d], 2, axis=1)
                u_all = np.repeat(u_all, 2, axis=1)
                pm = cand_pm
                bit_vals = np.tile(
                    np.arange(2 * paths, dtype=np.uint8) & 1, (batch, 1)
                )
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
    v_best = v_final[rows, best]
    u_best = u_all[rows, best]
    return u_best[:, list(code.rows)], v_best[:, ::-1]


def scl_decode(
    code: MonomialCode, frame: LlrFrame, config: DecoderConfig | None = None
) -> tuple[MessageWord, Codeword]:
    """List decoding of one frame; the most correlated list entry wins."""
    config = config or DecoderConfig()
    if len(frame) != code.block_length:
        raise ValueError("frame length does not match the code")
    msgs, words = scl_decode_batch(code, frame.llrs[None, :], config)
    return MessageWord(code, tuple(int(b) for b in msgs[0])), Codeword(words[0])


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
    batch, size = llrs_eval.shape
    if tables.ndim == 2:
        tables = np.broadcast_to(tables[None, :, :], (batch,) + tables.shape)
    m_branches = tables.shape[1]
    frozen = frozen_mask(code)

    permuted = np.take_along_axis(llrs_eval[:, None, :], tables, axis=2)
    flat = permuted.reshape(batch * m_branches, size)
    _, v = _sc_batch(flat[:, ::-1], frozen, config.f_kernel)
    cand = v[:, ::-1].reshape(batch, m_branches, size)
    unperm = np.zeros_like(cand)
    np.put_along_axis(unperm, tables, cand, axis=2)

    corr = ((1.0 - 2.0 * unperm.astype(np.float64)) * llrs_eval[:, None, :]).sum(axis=2)
    best = corr.argmax(axis=1)
    rows = np.arange(batch)
    words = unperm[rows, best]
    u = polar_transform(words[:, ::-1])
    return u[:, list(code.rows)], words


def aut_sc_decode(
    code: MonomialCode,
    frame: LlrFrame,
    automorphisms: Sequence[AffineAutomorphism],
    config: DecoderConfig | None = None,
) -> tuple[MessageWord, Codeword]:
    """Ensemble decoding of one frame with explicit automorphisms."""
    if len(frame) != code.block_length:
        raise ValueError("frame length does not match the code")
    if not automorphisms:
        raise ValueError("need at least one automorphism")
    for aut in automorphisms:
        if aut.n != code.n:
            raise ValueError("automorphism size does not match the code")
    tables = np.stack([position_table(a) for a in automorphisms])
    msgs, words = aut_sc_decode_batch(code, frame.llrs[None, :], tables, config)
    return MessageWord(code, tuple(int(b) for b in msgs[0])), Codeword(words[0])
