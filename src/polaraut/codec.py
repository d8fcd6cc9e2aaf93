"""Encoding and decoding of monomial codes.

Codewords are evaluations of the message polynomial over all points, so the
encoder is the butterfly transform followed by an index reversal (point j
corresponds to transform row ~j).  Decoders take (B, N) frames in
evaluation order, work in transform order, and return (messages,
codewords).

One tree walker serves all three decoders: successive cancellation is its
one-path case, successive cancellation list keeps up to L paths, and the
automorphism ensemble runs SC on permuted frames.  Each keeps the candidate
most correlated with the channel.  The walker keeps its arrays width-major,
(width, B) or (width, B, P), so a node's two halves are contiguous slabs.
SC skips whole subtrees whose kind the frozen mask fixes: Rate-0 (all
frozen) and Rate-1 (none frozen), after Alamdar-Yazdi & Kschischang (2011)
and Sarkis et al. (2014).  A node whose left half is Rate-0 skips f and
decodes its right half from a + b, so a repetition node (only the last row
free) sums its LLRs by halves down to one free leaf.  A frame below a Rate-1
node's floor takes one generic level, and each half is a Rate-1 node again
against its own depth's floor.  Every shortcut is bit-exact with the generic
nodes.
Every check-node call goes through _check_node, which runs the kernel on
contiguous slabs of whole rows of at most _F_BLOCK elements per operand.
At N = 256, 256 frames of 8 branches or paths make one operand of a wide
call 1-2 MB, and with the kernel's temporaries that spills a 2 MB L2 cache;
a 256 KB slab does not.  The kernels act elementwise, so the words are bit
for bit those of one call.
SCL's paths live on the last axis, and a subtree that forks or prunes
hands back the parent of each of its paths: the caller gathers the LLRs and
left word it still holds by that map, once each (the lazy copy of Tal &
Vardy, 2015), by flat index into the (width, B * P) view of each array.
SCL takes a Rate-0 subtree as one rule too: it adds the frozen leaves'
penalties to the path metrics in leaf order, through f on each left half
and a + b on each right half, and returns zeros.  A node whose left half
is Rate-0 adds that half's penalties and decodes its right half from a + b.
Every f call of the generic tree stays, in its order, and Rate-1 nodes stay
generic, since their leaves fork.  Pruning sorts each frame's candidate
metrics with numpy's default argsort and keeps that order where every
frame's sorted metrics rise strictly, so that order is the only one; a tie
or a NaN re-sorts the batch stably.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable

import numpy as np

from .monomials import MAX_VARS, MonomialCode, _positive_int

__all__ = [
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
    bits = np.asarray(bits, dtype=np.uint8)
    size = bits.shape[-1]
    if size & (size - 1):
        raise ValueError(f"length must be a power of two, got {size}")
    # The stages run on a width-major copy, so even the narrowest one XORs
    # contiguous slabs instead of looping over short rows.
    out = np.moveaxis(bits, -1, 0).copy()
    h = size // 2
    while h:
        shaped = out.reshape((-1, 2 * h) + out.shape[1:])
        shaped[:, :h] ^= shaped[:, h:]
        h //= 2
    return np.moveaxis(out, 0, -1)


def frozen_mask(code: MonomialCode) -> np.ndarray:
    """Boolean mask over transform rows; True marks frozen rows."""
    mask = np.ones(code.block_length, dtype=bool)
    mask[list(code.rows)] = False
    return mask


def _f_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Log-domain check-node combine, exact and overflow-safe.

    (m + log1p(exp(-|a+b|))) - log1p(exp(-|a-b|)), m the min-sum term, each
    pass in place.  a * b has the sign of sign(a) sign(b) even where it
    underflows or overflows, except with a zero input; m is then zero, and
    adding the non-negative first correction clears its sign.
    """
    m = np.minimum(np.abs(a), np.abs(b))
    np.copysign(m, a * b, out=m)
    s = a + b
    d = a - b
    for t in (s, d):
        np.abs(t, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
    m += s
    m -= d
    return m


def _f_min_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sign(a) sign(b) min(|a|, |b|), bit for bit.

    The sign comes from a product of the inputs with -0 taken as +0, since
    sign(-0) is +0 and the zero this returns then keeps the other input's
    sign.
    """
    m = np.minimum(np.abs(a), np.abs(b))
    sign = a + 0.0
    sign *= b + 0.0
    return np.copysign(m, sign, out=m)


def _g(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Variable-node combine b + (-1)**x a given the left-side word x; the
    sign-bit flip negates a exactly, so this is b - a or b + a bit for bit."""
    out = x.astype(np.uint64)
    out <<= 63
    out ^= a.view(np.uint64)
    out = out.view(np.float64)
    out += b
    return out


KERNELS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "exact_boxplus": _f_exact,
    "min_sum": _f_min_sum,
}

# Elements per operand in one kernel call: 256 KB of float64, so both
# operands, the result and the kernel's temporaries fit a 2 MB L2 cache.
_F_BLOCK = 1 << 15


def _check_node(
    f_kernel: Callable[[np.ndarray, np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """f_kernel(a, b) on slabs of whole leading-axis rows, each of at most
    _F_BLOCK elements (one row where a row holds more), written into one
    output; a call within the budget goes straight to the kernel.  The
    kernels act elementwise, so the result is bit for bit one call's."""
    if a.size <= _F_BLOCK:
        return f_kernel(a, b)
    rows = max(1, _F_BLOCK * len(a) // a.size)
    out = np.empty(a.shape)
    for i in range(0, len(a), rows):
        out[i : i + rows] = f_kernel(a[i : i + rows], b[i : i + rows])
    return out


def _boxplus_floors() -> tuple[float, ...]:
    """Per depth d = log2(width), the |LLR| from which exact-boxplus SC on a
    Rate-1 node is the hard decision.

    phi(x) = 2 atanh(tanh(x/2)**2) is the smallest exact f of two inputs of
    magnitude at least x.  It is monotone and shrinks its input, and g inside
    a Rate-1 node never shrinks one, so inputs at or above the depth-d floor
    give every f in the node a magnitude of at least tau = 1e-6, far above
    the rounding error of the computed f: each f keeps its inputs' sign
    product.  Depth 0 is a leaf and needs no floor.
    """
    floors = [0.0]
    x = 1e-6
    for _ in range(MAX_VARS):
        x = 2.0 * math.atanh(math.sqrt(math.tanh(x / 2.0)))
        floors.append(x)
    return tuple(floors)


# Min-sum f keeps the sign product of any two non-zero inputs, so its floor
# is the smallest positive float.
_RATE1_FLOORS: dict[str, tuple[float, ...]] = {
    "exact_boxplus": _boxplus_floors(),
    "min_sum": (0.0,) + (math.ulp(0.0),) * MAX_VARS,
}


def _check_bits(bits: np.ndarray, what: str) -> None:
    """ValueError unless every entry of bits is 0 or 1."""
    unsigned = bits.dtype.kind in "bu"  # bool or unsigned: the maximum decides
    if not (bits.max(initial=0) <= 1 if unsigned else np.isin(bits, (0, 1)).all()):
        raise ValueError(f"{what} must be 0 or 1")


def encode_batch(code: MonomialCode, messages: np.ndarray) -> np.ndarray:
    """Encode (B, K) message bits into (B, N) codewords in evaluation order."""
    messages = np.asarray(messages)
    if messages.ndim != 2 or messages.shape[1] != code.dimension:
        raise ValueError("messages must have shape (batch, K)")
    _check_bits(messages, "message bits")
    u = np.zeros((code.block_length, messages.shape[0]), dtype=np.uint8)
    u[list(code.rows)] = messages.T
    return polar_transform(u.T)[:, ::-1]


def _node_kind(frozen_before: list[int], start: int, width: int) -> str:
    """The kind of the SC node over rows [start, start + width), from the
    counts of frozen rows before each row (frozen_before[i] counts rows < i).

    "rate0" (all rows frozen), "rate1" (none frozen), "left-rate0" (the left
    half all frozen, the right half not), else "generic".  A leaf is Rate-0
    or Rate-1.  No right-Rate-0 kind: in a decreasing code each right-half
    row's monomial divides its left partner's, so a node whose right half is
    all frozen is all frozen, and on any other mask the generic node returns
    the same word.
    """
    frozen = frozen_before[start + width] - frozen_before[start]
    if frozen == width:
        return "rate0"
    if frozen == 0:
        return "rate1"
    if frozen_before[start + width // 2] - frozen_before[start] == width // 2:
        return "left-rate0"
    return "generic"


def _tree(
    llrs: np.ndarray, frozen: np.ndarray, kernel: str, list_size: int
) -> np.ndarray:
    """Successive cancellation with up to list_size paths per frame.

    llrs are (N, B) in transform order; returns (N, B, P) candidate words in
    transform order.  With list_size 1 arrays are (width, B) and each node
    acts by its _node_kind: a Rate-0 node returns zeros, and a Rate-1 node
    the hard decision for every frame whose smallest |LLR| there reaches the
    kernel's floor for its depth; the other frames take f and g once and
    decode each half as a Rate-1 node again.  A node whose left half is
    Rate-0 calls no f and returns [right, right], its right half decoded
    from a + b (which is _g with an all-zero word).  Otherwise arrays are
    (width, B, P): a Rate-0 node adds its frozen leaves' penalties in leaf
    order, through f and a + b, and returns zeros, a node whose left half is
    Rate-0 does that for its left half and returns [right, right], and every
    other node is generic.  Information leaves fork every path, and once
    more than list_size would live the best survive by path metric, in the
    order of the stable sort, so tied candidates keep parent-then-0-bit
    priority: the default argsort's order stands where every frame's sorted
    metrics rise strictly, and a tie or a NaN re-sorts the batch stably.  A
    subtree returns its word and, when it forked or pruned, the parent of
    each of its paths among the paths it was given; its caller gathers what
    it still holds by that map, the LLRs in one take.
    """
    f_kernel = KERNELS[kernel]
    floors = _RATE1_FLOORS[kernel]
    batch = llrs.shape[1]
    listing = list_size > 1
    frozen_before = [0, *accumulate(frozen.tolist())]
    pm = np.zeros((batch, 1))
    frames = np.arange(batch)[:, None]

    def take(x: np.ndarray, parent: np.ndarray) -> np.ndarray:
        # Path p of frame f is column f * P + p of the (width, B * P) view;
        # np.take returns it C-contiguous, unlike a fancy index.
        flat = (parent + x.shape[2] * frames).ravel()
        return np.take(x.reshape(len(x), -1), flat, axis=1).reshape(len(x), batch, -1)

    def penalize(llr: np.ndarray) -> None:
        # A Rate-0 subtree's frozen leaves, in leaf order; its right halves
        # take _g with an all-zero word, which is a + b bit for bit.
        nonlocal pm
        if len(llr) == 1:
            pm += np.maximum(-llr[0], 0.0)
            return
        h = len(llr) // 2
        a, b = llr[:h], llr[h:]
        penalize(_check_node(f_kernel, a, b))
        penalize(a + b)

    def leaf(llr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal pm
        x = llr[0]
        cand = np.empty((batch, x.shape[1], 2))
        np.maximum(-x, 0.0, out=cand[:, :, 0])
        np.maximum(x, 0.0, out=cand[:, :, 1])
        cand += pm[:, :, None]
        cand = cand.reshape(batch, -1)
        if cand.shape[1] <= list_size:
            order = np.broadcast_to(np.arange(cand.shape[1]), cand.shape)
            pm = cand
        else:
            # Rows that rise strictly have one sorted order, the stable one;
            # a tie or a NaN anywhere sends the batch to the stable sort.
            rows = cand.shape[1] * frames
            order = np.argsort(cand, axis=1)
            ranked = np.take(cand, order + rows)
            if not (ranked[:, 1:] > ranked[:, :-1]).all():
                order = np.argsort(cand, axis=1, kind="stable")
                ranked = np.take(cand, order + rows)
            order = order[:, :list_size]
            pm = ranked[:, :list_size]
        return (order & 1).astype(np.uint8)[None], order >> 1

    def rate1(llr: np.ndarray) -> np.ndarray:
        hard = (llr < 0).astype(np.uint8)
        depth = len(llr).bit_length() - 1
        if depth:
            weak = np.flatnonzero(np.abs(llr).min(axis=0) < floors[depth])
            if weak.size:
                # One generic level for the weak frames; each half is a
                # Rate-1 node again, held against its own depth's floor.
                h = len(llr) // 2
                a, b = llr[:h, weak], llr[h:, weak]
                left = rate1(_check_node(f_kernel, a, b))
                right = rate1(_g(a, b, left))
                hard[:, weak] = np.concatenate([left ^ right, right])
        return hard

    def node(llr: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray | None]:
        width = len(llr)
        h = width // 2
        a, b = llr[:h], llr[h:]
        kind = _node_kind(frozen_before, start, width)
        if kind == "rate0":
            if listing:
                penalize(llr)
            return np.zeros(llr.shape, dtype=np.uint8), None
        if kind == "rate1" and not listing:
            return rate1(llr), None
        if kind == "left-rate0":
            if listing:
                penalize(_check_node(f_kernel, a, b))
            # _g with an all-zero left word is a + b, bit for bit.
            right, parent = node(a + b, start + h)
            return np.concatenate([right, right]), parent
        if width == 1:  # only SCL: an SC leaf is Rate-0 or Rate-1
            return leaf(llr)
        left, parent = node(_check_node(f_kernel, a, b), start)
        if parent is not None:
            llr = take(llr, parent)
            a, b = llr[:h], llr[h:]
        right, right_parent = node(_g(a, b, left), start + h)
        if right_parent is not None:
            left = take(left, right_parent)
            parent = right_parent if parent is None else parent[frames, right_parent]
        return np.concatenate([left ^ right, right]), parent

    if listing:
        return node(llrs[:, :, None], 0)[0]
    return node(llrs, 0)[0][:, :, None]


def _checked(
    code: MonomialCode, llrs: np.ndarray, kernel: str, list_size: int = 1
) -> tuple[np.ndarray, int]:
    """Decoder input as float64 and the list size as a plain int, rejected
    unless (B, N) and finite, with a known kernel and a positive int list
    size."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; pick from {sorted(KERNELS)}")
    size = _positive_int("list size", list_size)
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != code.block_length:
        raise ValueError(
            f"llrs must have shape (batch, {code.block_length}), got {llrs.shape}"
        )
    if not np.isfinite(llrs).all():
        raise ValueError("llrs must be finite")
    return llrs, size


def _checked_tables(tables: np.ndarray, batch: int, size: int) -> np.ndarray:
    """Ensemble tables as (B, M, N) np.intp, rejected unless (M, N) or
    (B, M, N) integers in [0, N), which makes the cast exact."""
    tables = np.asarray(tables)
    if (
        tables.ndim not in (2, 3)
        or (tables.ndim == 3 and len(tables) != batch)
        or tables.shape[-2] < 1
        or tables.shape[-1] != size
    ):
        raise ValueError(
            f"tables must have shape (M, {size}) or ({batch}, M, {size}), "
            f"got {tables.shape}"
        )
    if not np.issubdtype(tables.dtype, np.integer):
        raise ValueError("tables must hold integers")
    if tables.size and (tables.min() < 0 or tables.max() >= size):
        raise ValueError(f"table entries must lie in [0, {size})")
    tables = tables.astype(np.intp, copy=False)
    return np.broadcast_to(tables, (batch,) + tables.shape[-2:])


def _correlations(cands: np.ndarray, llrs: np.ndarray) -> np.ndarray:
    """(B, P) sums of (1 - 2c) * llr over each (B, P, N) candidate c."""
    # As in _g, a bit of 1 flips the sign bit of its llr, so each term is
    # (1 - 2c) * llr bit for bit.  Contiguous rows keep the summation order,
    # so near-tied candidates always rank the same way.
    terms = cands.astype(np.uint64, order="C")
    terms <<= 63
    terms ^= np.ascontiguousarray(llrs).view(np.uint64)[:, None, :]
    return terms.view(np.float64).sum(axis=2)


def _most_correlated(cands: np.ndarray, llrs: np.ndarray) -> np.ndarray:
    """Per frame, the (B, P, N) candidate that best matches llrs (first on a tie)."""
    return cands[np.arange(len(cands)), _correlations(cands, llrs).argmax(axis=1)]


def _with_messages(
    code: MonomialCode, words: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(messages, words) for codewords in evaluation order."""
    return polar_transform(words[:, ::-1])[:, list(code.rows)], words


def _list_decode(
    code: MonomialCode, llrs_eval: np.ndarray, list_size: int, kernel: str
) -> tuple[np.ndarray, np.ndarray]:
    llrs, list_size = _checked(code, llrs_eval, kernel, list_size)
    chan = np.ascontiguousarray(llrs.T[::-1])
    cands = _tree(chan, frozen_mask(code), kernel, list_size)
    if cands.shape[2] == 1:
        return _with_messages(code, cands[::-1, :, 0].T)
    best = _most_correlated(cands.transpose(1, 2, 0), chan.T)
    return _with_messages(code, best[:, ::-1])


def sc_decode_batch(
    code: MonomialCode, llrs_eval: np.ndarray, kernel: str = "exact_boxplus"
) -> tuple[np.ndarray, np.ndarray]:
    """Batch SC; frames in evaluation order, returns (messages, codewords)."""
    return _list_decode(code, llrs_eval, 1, kernel)


def scl_decode_batch(
    code: MonomialCode,
    llrs_eval: np.ndarray,
    list_size: int,
    kernel: str = "exact_boxplus",
) -> tuple[np.ndarray, np.ndarray]:
    """Batch SCL; frames in evaluation order, returns (messages, codewords).

    The most correlated word in the final list wins.  List size 1 is SC.
    """
    return _list_decode(code, llrs_eval, list_size, kernel)


def aut_sc_decode_batch(
    code: MonomialCode,
    llrs_eval: np.ndarray,
    tables: np.ndarray,
    kernel: str = "exact_boxplus",
) -> tuple[np.ndarray, np.ndarray]:
    """Automorphism-ensemble SC over a batch.

    tables holds position permutations, shape (M, N) shared across the batch
    or (B, M, N) per frame, in any integer dtype and layout.  Each branch
    decodes the permuted frame with SC, the permutation is undone, and the
    codeword with the highest correlation to the channel wins (lowest branch
    index on a tie).  Tables of another shape, with entries outside [0, N)
    or with a row that is not a permutation, raise ValueError.  Walker row
    j of branch column b*M + m reads position tables[b, m, N-1-j];
    position_tables_batch's width-major layout, reshaped, makes those rows
    contiguous, the fast case.
    """
    llrs, _ = _checked(code, llrs_eval, kernel)
    batch, size = llrs.shape
    tables = _checked_tables(tables, batch, size)
    m_branches = tables.shape[1]
    rows = tables.reshape(batch * m_branches, size).T[::-1]
    chan = np.take(llrs.ravel(), rows + np.repeat(size * np.arange(batch), m_branches))
    cands = _tree(chan, frozen_mask(code), kernel, 1)[:, :, 0]
    # N writes fill a branch's N slots exactly when its row is a
    # permutation, so a sentinel left over marks a row that is not.
    unperm = np.full((batch, m_branches, size), 2, dtype=np.uint8)
    unperm.ravel()[rows + size * np.arange(batch * m_branches)] = cands
    if (unperm == 2).any():
        raise ValueError("every table row must be a permutation of range(N)")
    return _with_messages(code, _most_correlated(unperm, llrs))
