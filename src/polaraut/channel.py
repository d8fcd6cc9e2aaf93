"""BPSK/AWGN transmission and a deterministic Monte Carlo BLER harness.

Frame streams are counter based: each (master seed, SNR index) keys one
Philox4x64-10, and a frame's random words are the blocks at fixed counters
under that key, so they are a pure function of (master seed, SNR index,
frame index) and one call draws a whole batch.  Results are reproducible
frame by frame: a count depends only on the master seed and the frame index,
never on scheduling or worker count.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .automorphisms import (
    BlockStructure,
    blta_bounds,
    find_block_structure,
    position_tables_batch,
    sample_blta_batch,
)
from .codec import (
    aut_sc_decode_batch,
    encode_batch,
    sc_decode_batch,
    scl_decode_batch,
)
from .monomials import MonomialCode, _plain_int, _positive_int

__all__ = [
    "STREAM_VERSION",
    "Z95",
    "ChannelParams",
    "DecoderSpec",
    "SimResult",
    "transmit",
    "wilson_interval",
    "run_bler",
]

Z95 = 1.959963984540054

# How frame streams are consumed, stamped in every manifest: a new version
# means the same seed gives different counts.  Version 3: counter-based
# words.  The Philox counter's top word names a range and its low words
# count four-word blocks; frame f owns blocks [f*b, (f+1)*b) of each range.
# Range 0 holds a frame's message words, then its Box-Muller words; range 1
# its automorphism words, n+1 per map, made bounded integers by Lemire's
# method; ranges 2, 3, ... redraw the integers that method rejects.  Under
# target_errors=k a point stops at the end of the block [256 j, 256 (j+1))
# holding its k-th error, so a new block size is a new version too.
STREAM_VERSION = 3
_BATCH_FRAMES = 256

# Spawn key tags.  The shared-ensemble stream is SeedSequence(master_seed,
# spawn_key=(_ENSEMBLE_TAG,)); frame keys come from the 2-tuple
# (snr_idx, _FRAME_TAG).  SeedSequence appends the spawn key to the padded
# entropy, so a 1-tuple and a 2-tuple never name the same sequence.
_ENSEMBLE_TAG = 0x175A
_FRAME_TAG = 0xF7A3


@dataclass(frozen=True)
class ChannelParams:
    """Binary-input AWGN at a given Eb/N0; BPSK maps 0 to +1 and 1 to -1."""

    ebn0_db: float
    rate: float

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")

    @property
    def noise_variance(self) -> float:
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0))


def transmit(bits: np.ndarray, params: ChannelParams, noise: np.ndarray) -> np.ndarray:
    """BPSK over AWGN: modulate, add sigma times the standard-normal noise
    (same shape as bits, left as it is), and return float64 LLRs
    (2y / sigma^2), built in the one array that scales the noise."""
    bits = np.asarray(bits)
    if np.shape(noise) != bits.shape:
        raise ValueError("noise must have the shape of bits")
    sigma2 = params.noise_variance
    y = (math.sqrt(sigma2) * noise).astype(np.float64, copy=False)
    y += 1.0 - 2.0 * bits
    y *= 2.0
    y /= sigma2
    return y


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= errors <= trials:
        raise ValueError("errors must be in 0..trials")
    p = errors / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (
        Z95
        * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    # center equals half at 0 errors and center + half equals 1 at `trials`
    # errors; pin those ends, which rounding can miss by an ulp.
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return lo, hi


_SPEC_RE = re.compile(r"^(?:sc|scl-(\d+)|aut-(\d+)-sc(-lta)?(-fixed)?)(-min-sum)?$")


@dataclass(frozen=True)
class DecoderSpec:
    """Parsed decoder description: sc, scl-<L> (L >= 2) or
    aut-<M>-sc[-lta][-fixed], then optionally -min-sum.  -fixed draws one ensemble per run rather than
    M maps per frame; -min-sum picks the min-sum check node (a codec kernel)
    over the exact boxplus."""

    kind: str
    list_size: int = 1
    ensemble_size: int = 1
    lta_only: bool = False
    fixed: bool = False
    kernel: str = "exact_boxplus"

    @property
    def label(self) -> str:
        """The canonical name: parse(spec.label) == spec."""
        if self.kind != "aut_sc":
            name = "sc" if self.kind == "sc" else f"scl-{self.list_size}"
        else:
            name = f"aut-{self.ensemble_size}-sc" + "-lta" * self.lta_only + "-fixed" * self.fixed
        return name + "-min-sum" * (self.kernel == "min_sum")

    @classmethod
    def parse(cls, text: str) -> "DecoderSpec":
        got = _SPEC_RE.match(text.strip().lower())
        if not got:
            raise ValueError(
                f"invalid decoder spec {text!r}; expected sc, scl-<L> (L >= 2) or "
                "aut-<M>-sc[-lta][-fixed], then optionally -min-sum"
            )
        list_size, ensemble_size, lta, fixed, min_sum = got.groups()
        kernel = "min_sum" if min_sum else "exact_boxplus"
        if list_size is None and ensemble_size is None:
            return cls("sc", kernel=kernel)
        size = int(list_size or ensemble_size)
        if size < 1:
            raise ValueError(f"{'list' if list_size else 'ensemble'} size must be positive")
        if list_size:
            if size == 1:
                raise ValueError("scl-1 decodes as sc; name it sc, or give scl a list of 2 or more")
            return cls("scl", list_size=size, kernel=kernel)
        return cls("aut_sc", ensemble_size=size, lta_only=bool(lta), fixed=bool(fixed),
                   kernel=kernel)


@dataclass(frozen=True)
class SimResult:
    """One decoder at one operating point."""

    decoder: str
    ebn0_db: float
    frames: int
    block_errors: int

    def __post_init__(self) -> None:
        if not 0 <= self.block_errors <= self.frames:
            raise ValueError("block_errors must be in 0..frames")

    @property
    def bler(self) -> float:
        return self.block_errors / self.frames

    @property
    def ci95(self) -> tuple[float, float]:
        return wilson_interval(self.block_errors, self.frames)


def _frame_key(master_seed: int, snr_idx: int) -> np.ndarray:
    """The Philox key of every frame at one SNR point."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(snr_idx, _FRAME_TAG))
    return seq.generate_state(2, np.uint64)


def _frame_words(key: np.ndarray, part: int, lo: int, hi: int, width: int) -> np.ndarray:
    """The first `width` words of frames [lo, hi) in counter range `part`.

    Frame f owns the b = ceil(width / 4) blocks from counter
    (part << 192) + f * b on.  numpy steps the counter before each block, so
    the call starts one below, which wraps to 2**256 - 1 for part 0, lo 0.
    """
    blocks = -(-width // 4)
    start = ((part << 192) + lo * blocks - 1) % (1 << 256)
    raw = np.random.Philox(key=key, counter=start).random_raw((hi - lo) * 4 * blocks)
    return raw.reshape(hi - lo, 4 * blocks)[:, :width]


def _box_muller(u_words: np.ndarray, v_words: np.ndarray) -> np.ndarray:
    """Standard normals from two word arrays of one shape, the cos half and
    then the sin half along the last axis.  The uniforms are the words' top
    53 bits; the radius takes log(1 - u), which never sees 0."""
    scale = 2.0**-53
    radius = np.sqrt(-2.0 * np.log(1.0 - (u_words >> 11) * scale))
    # An angle in [-pi, pi) rather than [0, 2 pi): same distribution, and
    # numpy's cos and sin are faster on the smaller arguments.
    angle = (2.0 * np.pi * scale) * (v_words >> 11) - np.pi
    return np.concatenate((radius * np.cos(angle), radius * np.sin(angle)), axis=-1)


def _channel_draw(
    key: np.ndarray, lo: int, hi: int, dim: int, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Message bits (hi - lo, dim) and noise (hi - lo, size) of frames
    [lo, hi): per frame, the low dim bits of ceil(dim / 64) range-0 words,
    little-endian, then Box-Muller on two runs of ceil(size / 2) words."""
    head = -(-dim // 64)
    half = -(-size // 2)
    words = _frame_words(key, 0, lo, hi, head + 2 * half)
    octets = words[:, :head].astype("<u8", copy=False).view(np.uint8)
    msgs = np.unpackbits(octets, axis=1, count=dim, bitorder="little")
    noise = _box_muller(words[:, head : head + half], words[:, head + half :])
    return msgs, noise[:, :size]


def _lemire(words: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's multiply-shift on 64-bit words against bounds h <= 2**32
    (broadcast): (floor(x * h / 2**64), accepted).

    A word is rejected when x * h mod 2**64 falls below 2**64 mod h; that
    leaves exactly floor(2**64 / h) accepted words for every value.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    if int(bounds.max()) > 1 << 32:
        raise ValueError("bounds above 2**32 are not supported")
    thresholds = (-bounds) % bounds  # 2**64 mod h, as (2**64 - h) mod h
    # The high word of the 128-bit product, from 32-bit halves of x; the low
    # word is the product mod 2**64, which uint64 wraps to.
    high = ((words >> 32) * bounds + (((words & 0xFFFFFFFF) * bounds) >> 32)) >> 32
    return high.astype(np.int64), words * bounds >= thresholds


def _automorphism_draw(
    key: np.ndarray, lo: int, hi: int, bounds: np.ndarray, count: int
) -> np.ndarray:
    """Exactly uniform integers of frames [lo, hi), `count` maps per frame
    in frame order: ((hi - lo) * count, len(bounds)), column j below
    bounds[j].  The words come from range 1; an entry _lemire rejects takes
    the word at its position in range 2, then 3, until none is left."""
    shape = ((hi - lo) * count, len(bounds))

    def words(part: int) -> np.ndarray:
        return _frame_words(key, part, lo, hi, count * len(bounds)).reshape(shape)

    out, accepted = _lemire(words(1), bounds)
    todo = ~accepted
    for part in itertools.count(2):
        if not todo.any():
            return out
        values, accepted = _lemire(words(part), bounds)
        take = todo & accepted
        out[take] = values[take]
        todo &= ~take


def _run_batch(args: tuple) -> tuple[int, int]:
    """Simulate frames [lo, hi) at one SNR, whose frames `key` keys (see
    _frame_key); returns (frames, block errors).  The structure run_bler
    passes is None unless the spec is Aut-SC."""
    code, spec, structure, ebn0_db, key, lo, hi, fixed_tables = args
    size = code.block_length
    params = ChannelParams(ebn0_db, code.dimension / size)
    batch = hi - lo
    msgs, noise = _channel_draw(key, lo, hi, code.dimension, size)
    sent = encode_batch(code, msgs)
    llrs = transmit(sent, params, noise)
    del msgs, noise
    if spec.kind == "sc":
        _, words = sc_decode_batch(code, llrs, spec.kernel)
    elif spec.kind == "scl":
        _, words = scl_decode_batch(code, llrs, spec.list_size, spec.kernel)
    else:
        if fixed_tables is not None:
            tables = fixed_tables
        else:
            # Automorphism words live in their own counter ranges, so
            # messages and noise match the SC and SCL streams frame for frame.
            m = spec.ensemble_size
            draws = _automorphism_draw(key, lo, hi, blta_bounds(structure), m)
            aut_rows, aut_offs = sample_blta_batch(structure, batch * m, draws)
            del draws
            tables = position_tables_batch(aut_rows, aut_offs).reshape(batch, m, size)
        _, words = aut_sc_decode_batch(code, llrs, tables, spec.kernel)
    errors = int((words != sent).any(axis=1).sum())
    return batch, errors


class _Inline:
    """The executor of one worker: a batch runs when it is submitted."""

    def __init__(self, max_workers: int) -> None:
        pass

    def __enter__(self) -> "_Inline":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def submit(self, fn, *args) -> Future:
        fut: Future = Future()
        fut.set_result(fn(*args))
        return fut


def run_bler(
    code: MonomialCode,
    decoder: str,
    ebn0_list: Sequence[float],
    *,
    master_seed: int,
    target_errors: int | None = 100,
    max_frames: int = 1_000_000,
    workers: int = 1,
) -> list[SimResult]:
    """Monte Carlo BLER at each SNR; stops at the end of the 256-frame block
    that holds the target_errors-th error, or at max_frames.

    Each point consumes its frames in those blocks in index order, so a
    count depends only on master_seed and the frame index.  One pool
    serves the whole sweep: while fewer than 2 * workers batches are
    pending, the lowest point that has fewer batches in flight than its
    expected need submits its next one, and results are read first in,
    first out.  Frame f's messages, noise and automorphism integers come
    from counter blocks fixed by f (see STREAM_VERSION).  decoder is a name
    (pass spec.label for a DecoderSpec), and it alone picks the check-node
    rule; anything else raises TypeError.  Before any batch runs, an unknown
    name, a non-finite Eb/N0, a master_seed not an int >= 0, or a frame
    count, error target or worker count not a positive int raises ValueError
    (numpy integers are ints, bools are not).
    """
    if not isinstance(decoder, str):
        raise TypeError(f"decoder must be a name, got {type(decoder).__name__}")
    spec = DecoderSpec.parse(decoder)
    ebn0 = [float(e) for e in ebn0_list]
    if not ebn0:
        raise ValueError("ebn0_list must not be empty")
    if not all(math.isfinite(e) for e in ebn0):
        raise ValueError(f"Eb/N0 values must be finite, got {ebn0}")
    seed = _plain_int(master_seed)
    if seed is None or seed < 0:
        raise ValueError(f"master_seed must be a non-negative int, got {master_seed!r}")
    max_frames = _positive_int("max_frames", max_frames)
    workers = _positive_int("workers", workers)
    if target_errors is not None:
        target_errors = _positive_int("target_errors", target_errors)
    structure = fixed_tables = None
    if spec.kind == "aut_sc":
        structure = BlockStructure((1,) * code.n) if spec.lta_only else find_block_structure(code)
        if spec.fixed:
            seq = np.random.SeedSequence(seed, spawn_key=(_ENSEMBLE_TAG,))
            rng = np.random.Generator(np.random.Philox(seq))
            r, o = sample_blta_batch(structure, spec.ensemble_size, rng)
            fixed_tables = position_tables_batch(r, o)

    batches = -(-max_frames // _BATCH_FRAMES)
    results: list[SimResult | None] = [None] * len(ebn0)
    frames, errors, read, submitted = ([0] * len(ebn0) for _ in range(4))
    # Keyed here, before the pool starts, so no worker derives a key (nor
    # loads numpy.random to do so).
    keys = [_frame_key(seed, i) for i in range(len(ebn0))]
    pending: deque[tuple[int, Future]] = deque()

    def need(i: int) -> int:
        """Batches point i should have in flight: its expected remaining need,
        doubling while it has no errors, one before its first result."""
        if target_errors is None:
            want = batches
        elif errors[i] == 0:
            want = read[i]
        else:
            want = -(-(target_errors - errors[i]) * frames[i] // (errors[i] * _BATCH_FRAMES))
        return max(1, min(want, batches - read[i]))

    def fill(pool) -> None:
        while len(pending) < window:
            open_points = (i for i, r in enumerate(results) if r is None)
            i = next((i for i in open_points if submitted[i] - read[i] < need(i)), None)
            if i is None:
                return
            lo = submitted[i] * _BATCH_FRAMES
            hi = min(lo + _BATCH_FRAMES, max_frames)
            args = (code, spec, structure, ebn0[i], keys[i], lo, hi, fixed_tables)
            pending.append((i, pool.submit(_run_batch, args)))
            submitted[i] += 1

    # One worker runs each batch as it is submitted, so it never speculates.
    executor, window = (_Inline, 1) if workers == 1 else (ProcessPoolExecutor, 2 * workers)
    with executor(max_workers=workers) as pool:
        try:
            fill(pool)
            while pending:
                i, fut = pending.popleft()
                got_frames, got_errors = fut.result()
                frames[i] += got_frames
                errors[i] += got_errors
                read[i] += 1
                if read[i] == batches or errors[i] >= (target_errors or math.inf):
                    results[i] = SimResult(spec.label, ebn0[i], frames[i], errors[i])
                    # Batches the pool has not yet handed to a process are
                    # dropped; the others finish and are ignored.
                    for stale in [p for p in pending if p[0] == i]:
                        stale[1].cancel()
                        pending.remove(stale)
                fill(pool)
        finally:
            # After an error, leave the pool no queued batch to wait for.
            for _, fut in pending:
                fut.cancel()
    return results

