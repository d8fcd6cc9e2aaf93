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
It branches only on each node's kind, read from the node plan that _plan
builds once per frozen mask and list mode and caches (a decoder specialised
per frozen set, as in Le Gal, Leroux & Jego, 2015).
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
hands back the parent of each of its paths as a (B, P) map of flat
columns of the (width, B * P) view: the caller gathers the LLRs and left
word it still holds by that map, once each (the lazy copy of Tal & Vardy,
2015), and composes its halves' maps by one index.  An array that holds
one path is not gathered, since every parent is 0: _g and the XOR
broadcast it, so the first forks copy none of the root spine's LLRs.
SCL takes a Rate-0 subtree as one rule too: it adds the frozen leaves'
penalties to the path metrics in leaf order, through f on each left half
and a + b on each right half, and returns zeros.  A node whose left half
is Rate-0 adds that half's penalties and decodes its right half from a + b.
Every f call of the generic tree stays, in its order, and Rate-1 nodes stay
generic, since their leaves fork.  Pruning sorts each frame's candidate
metrics with numpy's default argsort and keeps that order where every
frame's sorted metrics rise strictly, so that order is the only one; a tie
or a NaN re-sorts the batch stably.  A full list skips the sort where, in
every frame, the path metrics rise strictly and each path's flipped bit
costs more than the worst kept metric: each path then keeps its hard
decision at an unchanged metric (the LLR-based metric of
Balatsoukas-Stimming, Bastani Parizi & Burg, 2015), the order the sort
would return, and the leaf hands back no parent map, so no node above it
gathers.  Whether the metrics rise strictly is carried between leaves:
a sort whose ranked candidates rise strictly sets it, a skip keeps it,
and a Rate-0 penalty, the growth of the list and a stable re-sort clear
it.
The ensemble reads its tables in their own dtype (uint8 from
position_tables_batch at N <= 256): it gathers the walker's input and
scatters each branch's word back through flat indices built a few walker
rows at a time, so no index the size of the walker's input is ever made.
"""

from __future__ import annotations

import functools
import math
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
        shaped = out.reshape((size // (2 * h), 2 * h) + out.shape[1:])
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


@functools.lru_cache(maxsize=4096)
def _plan(frozen: bytes, listing: bool) -> tuple:
    """The node plan of a frozen mask (one byte per row, 1 if frozen): the
    node's kind, then the plans of the halves its walk decodes.

    ("rate0",) all rows frozen; ("rate1",) none frozen, in SC only; ("leaf",)
    an SCL information leaf; ("left-rate0", right) the left half all frozen;
    else ("generic", left, right).  No right-Rate-0 kind: in a decreasing
    code each right-half row's monomial divides its left partner's, so a
    node whose right half is all frozen is all frozen, and on any other mask
    the generic node returns the same word.  Every sub-plan shares this
    cache, so a mask's plan is built once.
    """
    if all(frozen):
        return ("rate0",)
    if not (listing or any(frozen)):
        return ("rate1",)
    if len(frozen) == 1:
        return ("leaf",)
    h = len(frozen) // 2
    if all(frozen[:h]):
        return ("left-rate0", _plan(frozen[h:], listing))
    return ("generic", _plan(frozen[:h], listing), _plan(frozen[h:], listing))


def _tree(
    llrs: np.ndarray, frozen: np.ndarray, kernel: str, list_size: int
) -> np.ndarray:
    """Successive cancellation with up to list_size paths per frame.

    llrs are (N, B) in transform order; returns (N, B, P) candidate words in
    transform order.  Arrays are (width, B) for SC and (width, B, P) for
    SCL, and each node acts by its kind in the mask's _plan, as the module
    docstring describes.
    """
    f_kernel = KERNELS[kernel]
    floors = _RATE1_FLOORS[kernel]
    batch = llrs.shape[1]
    listing = list_size > 1
    pm = np.zeros((batch, 1))
    # Whether every frame's path metrics rise strictly, as a sort whose
    # ranked candidates rise strictly leaves them.
    rising = False
    frames = np.arange(batch)[:, None]

    def take(x: np.ndarray, parent: np.ndarray) -> np.ndarray:
        # parent holds flat columns of the (width, B * P) view; np.take
        # returns them C-contiguous, unlike a fancy index.  One path's
        # parents are all 0, so that array stays as it is and broadcasts.
        if x.shape[2] == 1:
            return x
        return np.take(x.reshape(len(x), -1), parent.ravel(), axis=1).reshape(
            (len(x),) + parent.shape
        )

    def penalize(llr: np.ndarray) -> None:
        # A Rate-0 subtree's frozen leaves, in leaf order; its right halves
        # take _g with an all-zero word, which is a + b bit for bit.
        nonlocal pm, rising
        rising = False
        if len(llr) == 1:
            pm += np.maximum(-llr[0], 0.0)
            return
        h = len(llr) // 2
        a, b = llr[:h], llr[h:]
        penalize(_check_node(f_kernel, a, b))
        penalize(a + b)

    def leaf(llr: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        nonlocal pm, rising
        x = llr[0]
        # pm is never -0, so each kept candidate, pm + 0, is pm bit for bit,
        # and the sort below would return the paths in order.  A zero LLR,
        # a tie or a NaN fails a strict comparison and sorts.
        if x.shape[1] == list_size and rising and (np.abs(x) + pm > pm[:, -1:]).all():
            return (x < 0).view(np.uint8)[None], None
        cand = np.empty((batch, x.shape[1], 2))
        np.maximum(-x, 0.0, out=cand[:, :, 0])
        np.maximum(x, 0.0, out=cand[:, :, 1])
        cand += pm[:, :, None]
        cand = cand.reshape(batch, 2 * x.shape[1])
        if cand.shape[1] <= list_size:
            order = np.broadcast_to(np.arange(cand.shape[1]), cand.shape)
            pm, rising = cand, False
        else:
            # Rows that rise strictly have one sorted order, the stable one;
            # a tie or a NaN anywhere sends the batch to the stable sort.
            rows = cand.shape[1] * frames
            order = np.argsort(cand, axis=1)
            ranked = np.take(cand, order + rows)
            rising = (ranked[:, 1:] > ranked[:, :-1]).all()
            if not rising:
                order = np.argsort(cand, axis=1, kind="stable")
                ranked = np.take(cand, order + rows)
            order = order[:, :list_size]
            pm = ranked[:, :list_size]
        return (order & 1).astype(np.uint8)[None], (order >> 1) + x.shape[1] * frames

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

    def node(llr: np.ndarray, plan: tuple) -> tuple[np.ndarray, np.ndarray | None]:
        kind = plan[0]
        if kind == "rate0":
            if listing:
                penalize(llr)
            return np.zeros(llr.shape, dtype=np.uint8), None
        if kind == "rate1":
            return rate1(llr), None
        if kind == "leaf":
            return leaf(llr)
        h = len(llr) // 2
        a, b = llr[:h], llr[h:]
        if kind == "left-rate0":
            if listing:
                penalize(_check_node(f_kernel, a, b))
            # _g with an all-zero left word is a + b, bit for bit.
            right, parent = node(a + b, plan[1])
            return np.concatenate([right, right]), parent
        left, parent = node(_check_node(f_kernel, a, b), plan[1])
        if parent is not None:
            llr = take(llr, parent)
            a, b = llr[:h], llr[h:]
        right, right_parent = node(_g(a, b, left), plan[2])
        if right_parent is not None:
            left = take(left, right_parent)
            parent = right_parent if parent is None else parent.ravel()[right_parent]
        return np.concatenate([left ^ right, right]), parent

    plan = _plan(np.asarray(frozen, dtype=bool).tobytes(), listing)
    if listing:
        return node(llrs[:, :, None], plan)[0]
    return node(llrs, plan)[0][:, :, None]


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
    """Ensemble tables as a (B, M, N) view in their own integer dtype,
    rejected unless (M, N) or (B, M, N) integers in [0, N)."""
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
    signed = tables.dtype.kind == "i"
    if tables.size and (tables.max() >= size or signed and tables.min() < 0):
        raise ValueError(f"table entries must lie in [0, {size})")
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
    or (B, M, N) per frame, in any integer dtype and layout, used as given:
    no int64 copy is made.  Each branch decodes the permuted frame with SC,
    the permutation is undone, and the codeword with the highest
    correlation to the channel wins (lowest branch index on a tie).  Tables
    of another shape, with entries outside [0, N) or with a row that is not
    a permutation, raise ValueError.  Walker row j of branch column b*M + m
    reads position tables[b, m, N-1-j]; position_tables_batch's width-major
    layout, reshaped, makes those rows contiguous, the fast case.
    """
    llrs, _ = _checked(code, llrs_eval, kernel)
    batch, size = llrs.shape
    tables = _checked_tables(tables, batch, size)
    m_branches = tables.shape[1]
    columns = batch * m_branches
    rows = tables.reshape(columns, size).T[::-1]
    # Flat positions are made one slab of at most _F_BLOCK at a time, a few
    # walker rows each, so no index as large as the walker's input exists.
    step = max(1, _F_BLOCK // max(columns, 1))
    slabs = [slice(j, j + step) for j in range(0, size, step)]
    frame_base = size * np.repeat(np.arange(batch), m_branches)
    chan = np.empty((size, columns))
    for s in slabs:
        # Every index is in range, so "clip" clips nothing; unlike "raise",
        # it lets take write into chan without a buffer.  The sum is intp
        # whatever the tables' dtype (uint64 and int64 would make float64).
        index = np.add(rows[s], frame_base, dtype=np.intp)
        np.take(llrs.ravel(), index, out=chan[s], mode="clip")
    cands = _tree(chan, frozen_mask(code), kernel, 1)[:, :, 0]
    # N writes fill a branch's N slots exactly when its row is a
    # permutation, so a sentinel left over marks a row that is not.
    unperm = np.full((columns, size), 2, dtype=np.uint8)
    branch_base = size * np.arange(columns)
    for s in slabs:
        unperm.ravel()[np.add(rows[s], branch_base, dtype=np.intp)] = cands[s]
    if (unperm == 2).any():
        raise ValueError("every table row must be a permutation of range(N)")
    return _with_messages(code, _most_correlated(unperm.reshape(batch, m_branches, size), llrs))
