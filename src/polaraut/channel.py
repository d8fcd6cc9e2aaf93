"""BPSK/AWGN transmission and a deterministic Monte Carlo BLER harness.

Frame streams are counter based: each (master seed, SNR index) keys one
Philox4x64-10, and a frame's random words are the blocks at fixed counters
under that key, so they are a pure function of (master seed, SNR index,
frame index) and one call draws a whole batch.  Results are reproducible
frame by frame: a count depends only on the master seed and the frame index,
never on scheduling or worker count.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import re
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .automorphisms import (
    BlockStructure,
    blta_bounds,
    find_block_structure,
    position_tables_batch,
    sample_blta_batch,
)
from .codec import (
    _check_bits,
    aut_sc_decode_batch,
    encode_batch,
    sc_decode_batch,
    scl_decode_batch,
)
from .monomials import MonomialCode, _int_in, _real

__all__ = [
    "STREAM_VERSION",
    "Z95",
    "ChannelParams",
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
        self.__dict__.update(ebn0_db=_real("Eb/N0", self.ebn0_db), rate=_real("rate", self.rate))
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")

    @property
    def noise_variance(self) -> float:
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0))


def transmit(bits: np.ndarray, params: ChannelParams, noise: np.ndarray) -> np.ndarray:
    """BPSK over AWGN: modulate, add sigma times the standard-normal noise
    (same shape as bits, left as it is; both taken as arrays, lists
    included), and return float64 LLRs
    (2y / sigma^2), built in the one array that scales the noise.  Bits
    other than 0 and 1 raise ValueError."""
    bits, noise = np.asarray(bits), np.asarray(noise)
    if noise.shape != bits.shape:
        raise ValueError("noise must have the shape of bits")
    _check_bits(bits, "code bits")
    sigma2 = params.noise_variance
    y = (math.sqrt(sigma2) * noise).astype(np.float64, copy=False)
    y += 1.0 - 2.0 * bits
    y *= 2.0
    y /= sigma2
    return y


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion; both counts
    are ints (numpy integers too, bools not)."""
    trials = _int_in("trials", trials, 1)
    errors = _int_in("errors", errors, 0, trials)
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


_NAME_RE = re.compile(r"^(?:sc|scl-(\d+)|aut-(\d+)-sc(-lta)?(-fixed)?)(-min-sum)?$")


def _decoder(name: str) -> tuple[str, str, int, bool, bool, str]:
    """A decoder name, in any letter case, as (label, kind, size, lta_only,
    fixed, kernel): kind sc, scl or aut_sc, size its L, M or 1 for sc, and
    the label the name lower-cased without leading zeros."""
    text = name.strip().lower()
    got = _NAME_RE.match(text)
    if not got:
        raise ValueError(
            f"invalid decoder spec {name!r}; expected sc, scl-<L> (L >= 2) or "
            "aut-<M>-sc[-lta][-fixed], then optionally -min-sum"
        )
    list_size, ensemble_size, lta, fixed, min_sum = got.groups()
    kind = "scl" if list_size else "aut_sc" if ensemble_size else "sc"
    size = int(list_size or ensemble_size or 1)
    if size < 1:
        raise ValueError(f"{'list' if list_size else 'ensemble'} size must be positive")
    if kind == "scl" and size == 1:
        raise ValueError("scl-1 decodes as sc; name it sc, or give scl a list of 2 or more")
    label = re.sub(r"-0+(?=\d)", "-", text)
    return label, kind, size, bool(lta), bool(fixed), "min_sum" if min_sum else "exact_boxplus"


@dataclass(frozen=True)
class SimResult:
    """One decoder at one operating point."""

    decoder: str
    ebn0_db: float
    frames: int
    block_errors: int

    def __post_init__(self) -> None:
        frames = _int_in("frames", self.frames, 1)
        errors = _int_in("block_errors", self.block_errors, 0, frames)
        self.__dict__.update(frames=frames, block_errors=errors)

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
    passes is None unless the decoder (see _decoder) is Aut-SC."""
    code, decoder, structure, ebn0_db, key, lo, hi, fixed_tables = args
    _, kind, width, _, _, kernel = decoder  # width: the list or the ensemble size
    size = code.block_length
    params = ChannelParams(ebn0_db, code.dimension / size)
    batch = hi - lo
    msgs, noise = _channel_draw(key, lo, hi, code.dimension, size)
    sent = encode_batch(code, msgs)
    llrs = transmit(sent, params, noise)
    del msgs, noise
    if kind == "sc":
        _, words = sc_decode_batch(code, llrs, kernel)
    elif kind == "scl":
        _, words = scl_decode_batch(code, llrs, width, kernel)
    else:
        if fixed_tables is not None:
            tables = fixed_tables
        else:
            # Automorphism words live in their own counter ranges, so
            # messages and noise match the SC and SCL streams frame for frame.
            draws = _automorphism_draw(key, lo, hi, blta_bounds(structure), width)
            aut_rows, aut_offs = sample_blta_batch(structure, batch * width, draws)
            del draws
            tables = position_tables_batch(aut_rows, aut_offs).reshape(batch, width, size)
        _, words = aut_sc_decode_batch(code, llrs, tables, kernel)
    errors = int((words != sent).any(axis=1).sum())
    return batch, errors


# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, and the
# values run_bler fixes them at: the mmap threshold at glibc's 32 MiB
# ceiling for its dynamic one, the trim threshold at twice that, as glibc
# sets it when its dynamic threshold rises.  A batch's freed heap grows
# with N: a trim threshold of 8, 16 or 32 MiB let the faults of warm
# 256-frame Aut-8-SC jobs back at N = 256, 512 or 1024, and 64 MiB cut
# them by three quarters or more at all three, with the same peak RSS.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_BYTES = 64 << 20
_MMAP_BYTES = 32 << 20


def _glibc() -> bool:
    """Whether this process runs on glibc, whose mallopt _keep_heap calls."""
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False


@functools.cache
def _keep_heap() -> None:
    """Fix glibc's mmap and trim thresholds for this process, once.

    By default glibc serves a block above its dynamic mmap threshold with
    a fresh mapping and returns freed heap above its trim threshold to the
    kernel, so each batch faults its megabyte arrays back in, page by page.
    Fixed thresholds of 32 MiB (mmap) and 64 MiB (trim) keep a batch's
    arrays on a heap that stays mapped from batch to batch; the price is up
    to 64 MiB of freed heap held until the process ends.  A no-op on any
    other C library.
    """
    if not _glibc():
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)


def _outcome(call: tuple) -> tuple[bool, object]:
    """Run call = (fn, args): (True, result), or (False, error) if it raised."""
    fn, args = call
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


def _serve(conn) -> None:
    """A worker process: run each call received on conn and send back its
    _outcome, until it receives None."""
    _keep_heap()
    while (call := conn.recv()) is not None:
        outcome = _outcome(call)
        try:
            conn.send(outcome)
        except Exception:  # an error that does not pickle
            conn.send((False, RuntimeError(repr(outcome[1]))))


class _Batch:
    """A batch submitted to _Workers for `point`, a key the executor does
    not read: queued, sent to a process, or done, when `outcome` is
    (True, result) or (False, error)."""

    def __init__(self, point, fn, args: tuple) -> None:
        self.point = point
        self.call = (fn, args)
        self.process: _Process | None = None
        self.outcome: tuple[bool, object] | None = None

    def run(self) -> None:
        """Run the batch in this process."""
        self.outcome = _outcome(self.call)


_EXITED = "a worker process exited before returning its batches"


class _Process:
    """A worker process and the batches sent to it, oldest first, whose
    outcomes have not come back."""

    def __init__(self) -> None:
        # Loaded at the first worker process: a one-worker run never needs it.
        import multiprocessing

        self.conn, child = multiprocessing.Pipe()
        self.proc = multiprocessing.Process(target=_serve, args=(child,), daemon=True)
        self.proc.start()
        child.close()
        self.batches: deque[_Batch] = deque()

    def send(self, batch: _Batch) -> None:
        try:
            self.conn.send(batch.call)
        except OSError:
            raise RuntimeError(_EXITED) from None
        batch.process = self
        self.batches.append(batch)

    def receive(self) -> None:
        """Wait for the oldest batch's outcome."""
        try:
            outcome = self.conn.recv()
        except EOFError:
            raise RuntimeError(_EXITED) from None
        self.batches.popleft().outcome = outcome

    def poll(self) -> None:
        """Take every outcome that has come back."""
        while self.batches and self.conn.poll():
            self.receive()

    def close(self) -> None:
        """Stop the process: an idle one when it reads None, and one that
        still holds batches, which no one will read, at once."""
        if self.batches:
            self.proc.kill()
        else:
            try:
                self.conn.send(None)
            except OSError:  # it has exited already
                pass
        self.proc.join()
        self.conn.close()


class _Workers:
    """run_bler's executor: the calling process, `processes` worker
    processes, and the pending batches, first in, first out.

    submit queues a batch, and each submit sends queued batches, oldest
    first, to any process that holds none.  read returns the oldest pending
    batch's point and result: the caller runs that batch if it is still
    queued; while it is in a process, the caller runs the oldest queued one,
    and it waits only when none is queued.  Before the caller runs a batch,
    every process is sent queued batches until it holds two (one running,
    one waiting), so the processes work while the caller does.  drop
    forgets a point's pending batches.  The processes start at the first
    batch sent, so with none, none starts and a batch runs only when it is
    read.  No thread runs beside the caller: batches go out and outcomes
    come in only while it is in submit or read.
    """

    def __init__(self, processes: int) -> None:
        self.processes = processes
        self.started: list[_Process] = []
        self.pending: deque[_Batch] = deque()
        self.queued: deque[_Batch] = deque()

    def __enter__(self) -> "_Workers":
        return self

    def __exit__(self, *exc) -> bool:
        for process in self.started:
            process.close()
        return False

    def submit(self, point, fn, *args) -> None:
        batch = _Batch(point, fn, args)
        self.pending.append(batch)
        self.queued.append(batch)
        self.send(1)

    def send(self, each: int) -> None:
        """Send queued batches, oldest first, to every process holding
        fewer than `each`."""
        if not self.processes or not self.queued:
            return
        while len(self.started) < self.processes:
            self.started.append(_Process())
        for process in self.started:
            process.poll()
            while self.queued and len(process.batches) < each:
                process.send(self.queued.popleft())

    def read(self) -> tuple[object, object]:
        """The oldest pending batch's (point, result), or its error raised.
        Until it is done the caller runs it if it is queued, else runs the
        oldest queued batch or, with none, waits for its process."""
        batch = self.pending.popleft()
        while batch.outcome is None:
            if batch.process is None:
                self.run(batch)
            elif self.queued:
                batch.process.poll()
                if batch.outcome is None:
                    self.run(self.queued[0])
            else:
                batch.process.receive()
        ok, value = batch.outcome
        if not ok:
            raise value
        return batch.point, value

    def drop(self, point) -> None:
        """Forget point's pending batches: a queued one never runs, and one
        in a process goes unread."""
        self.pending = deque(b for b in self.pending if b.point != point)
        self.queued = deque(b for b in self.queued if b.point != point)

    def run(self, batch: _Batch) -> None:
        """Run a queued batch in the caller, once the processes are topped up."""
        self.queued.remove(batch)
        self.send(2)
        batch.run()


def _ebn0_grid(values: object) -> list[float]:
    """run_bler's Eb/N0 list as plain floats: a non-empty sequence or 1-D
    array of finite real numbers (numpy's too, bools not), else ValueError."""
    if isinstance(values, (str, bytes)) or not (
        isinstance(values, Sequence) or isinstance(values, np.ndarray) and values.ndim == 1
    ):
        raise ValueError(f"ebn0_list must be a sequence of numbers, got {values!r}")
    if not len(values):
        raise ValueError("ebn0_list must not be empty")
    return [_real("Eb/N0", e) for e in values]


def run_bler(
    code: MonomialCode,
    decoder: str | Sequence[str],
    ebn0_list: Sequence[float],
    *,
    master_seed: int,
    target_errors: int | None = 100,
    max_frames: int = 1_000_000,
    workers: int = 1,
) -> list[SimResult]:
    """Monte Carlo BLER at each (decoder, SNR) point; a point stops at the end
    of the 256-frame block holding the target_errors-th error, or at max_frames.

    Each point consumes its frames in those blocks in index order, so a
    count depends only on master_seed and the frame index.  The calling
    process is one of the workers: it starts workers - 1 processes (none
    for one worker) and runs a share of the batches itself, those still
    queued when it would otherwise wait for a process (see _Workers).  One
    schedule serves every (decoder, SNR) point: while fewer than
    2 * workers batches are pending, the lowest point that has fewer
    batches in flight than its expected need submits its next one; results
    are read first in, first out, and a point that stops drops its pending
    batches, so with one worker only the batches read run.  Frame f's
    messages, noise and automorphism integers come from counter blocks
    fixed by f (see STREAM_VERSION), the same for every decoder.  decoder
    is a name or a sequence of names (see _decoder), whose results come
    decoder-major under each name's label, and the name alone picks the
    check-node rule; anything else raises TypeError.  Before any batch
    runs, an unknown name or no name, an Aut-SC name (-lta too) on a code
    that is not decreasing, an Eb/N0 list that is not a sequence
    or 1-D array of finite real numbers (a string, a bool or a bare number
    included), a master_seed not an int >= 0, or a frame count, error
    target or worker count not a positive int raises ValueError (numpy
    integers are ints, bools are not).
    Under glibc the call fixes the process's malloc thresholds, and each
    worker's, so batches reuse their heap (see _keep_heap): up to 64 MiB of
    freed heap stays with the process afterwards.
    """
    names = decoder if isinstance(decoder, Sequence) and not isinstance(decoder, str) else [decoder]
    for name in names:
        if not isinstance(name, str):
            raise TypeError(f"decoder must be a name, got {type(name).__name__}")
    if not names:
        raise ValueError("decoder must hold at least one name")
    decoders = [_decoder(name) for name in names]
    ebn0 = _ebn0_grid(ebn0_list)
    seed = _int_in("master_seed", master_seed, 0)
    max_frames = _int_in("max_frames", max_frames, 1)
    workers = _int_in("workers", workers, 1)
    if target_errors is not None:
        target_errors = _int_in("target_errors", target_errors, 1)
    _keep_heap()
    points = []  # decoder-major: (parsed name, block structure, fixed tables, SNR index)
    for parsed in decoders:
        _, kind, width, lta_only, fixed, _ = parsed
        structure = fixed_tables = None
        if kind == "aut_sc":
            # Checked for -lta too: LTA maps are automorphisms of decreasing codes only.
            structure = find_block_structure(code)
            if lta_only:
                structure = BlockStructure((1,) * code.n)
            if fixed:
                seq = np.random.SeedSequence(seed, spawn_key=(_ENSEMBLE_TAG,))
                rng = np.random.Generator(np.random.Philox(seq))
                fixed_tables = position_tables_batch(*sample_blta_batch(structure, width, rng))
        points += [(parsed, structure, fixed_tables, i) for i in range(len(ebn0))]

    batches = -(-max_frames // _BATCH_FRAMES)
    results: list[SimResult | None] = [None] * len(points)
    frames, errors, read, submitted = ([0] * len(points) for _ in range(4))
    # Keyed here, before any process starts, so no worker derives a key
    # (nor loads numpy.random to do so); every decoder shares them.
    keys = [_frame_key(seed, i) for i in range(len(ebn0))]

    def need(p: int) -> int:
        """Batches point p should have in flight: its expected remaining need,
        doubling while it has no errors, one before its first result."""
        if target_errors is None:
            want = batches
        elif errors[p] == 0:
            want = read[p]
        else:
            want = -(-(target_errors - errors[p]) * frames[p] // (errors[p] * _BATCH_FRAMES))
        return max(1, min(want, batches - read[p]))

    def fill(executor: _Workers) -> None:
        while len(executor.pending) < 2 * workers:
            open_points = (p for p, r in enumerate(results) if r is None)
            p = next((p for p in open_points if submitted[p] - read[p] < need(p)), None)
            if p is None:
                return
            parsed, structure, fixed_tables, i = points[p]
            lo = submitted[p] * _BATCH_FRAMES
            hi = min(lo + _BATCH_FRAMES, max_frames)
            args = (code, parsed, structure, ebn0[i], keys[i], lo, hi, fixed_tables)
            executor.submit(p, _run_batch, args)
            submitted[p] += 1

    with _Workers(workers - 1) as executor:
        fill(executor)
        while executor.pending:
            p, (got_frames, got_errors) = executor.read()
            frames[p] += got_frames
            errors[p] += got_errors
            read[p] += 1
            if read[p] == batches or errors[p] >= (target_errors or math.inf):
                (label, *_), *_, i = points[p]
                results[p] = SimResult(label, ebn0[i], frames[p], errors[p])
                executor.drop(p)
            fill(executor)
    return results
