"""Channel model, interval estimates, decoder spec parsing, and the
Monte Carlo harness: determinism, stop rules, worker invariance."""

import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import numpy_umath
from polaraut import channel
from polaraut.channel import (
    ChannelParams,
    SimResult,
    run_bler,
    transmit,
    wilson_interval,
)
from polaraut.cli import default_code_id
from polaraut.construction import ConstructionSpec, bhattacharyya_bec_design
from polaraut.monomials import Monomial, MonomialCode, decreasing_closure


RUN_BATCH = channel._run_batch


def failing_batch(args):
    """channel._run_batch, except that a batch from frame 64 on raises; at
    module level, so a pool can ship it to its workers."""
    lo = args[5]
    if lo >= 64:
        raise RuntimeError(f"batch from frame {lo} failed")
    return RUN_BATCH(args)


def small_code():
    return decreasing_closure(
        [Monomial.from_indices([0, 3]), Monomial.from_indices([1, 2])], 5
    )


PARENT = os.getpid()  # forked workers inherit it


def failing_in_caller(args):
    """channel._run_batch, except that a batch run in the calling process raises."""
    if os.getpid() == PARENT:
        raise RuntimeError("batch failed in the caller")
    return RUN_BATCH(args)


def failing_in_process(args):
    """channel._run_batch, except that a batch run in a worker process raises."""
    if os.getpid() != PARENT:
        raise RuntimeError("batch failed in a process")
    return RUN_BATCH(args)


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this error does not pickle")


def failing_unpicklably(args):
    """channel._run_batch, except that a process raises an error that does
    not pickle."""
    if os.getpid() != PARENT:
        raise Unpicklable("batch failed in a process")
    return RUN_BATCH(args)


def exiting_in_process(args):
    """channel._run_batch, except that a worker process exits instead."""
    if os.getpid() != PARENT:
        os._exit(3)
    return RUN_BATCH(args)


CALLER_RUNS = []


def counted_batch(args):
    """channel._run_batch, noting for each batch the caller runs how many
    worker processes are alive then."""
    if os.getpid() == PARENT:
        CALLER_RUNS.append(len(multiprocessing.active_children()))
    return RUN_BATCH(args)


class Recorder:
    """Stand-ins for channel._Batch, channel._Workers and channel._Process
    that log what the executor does, each event as (event, Eb/N0, first
    frame): "submit", "send" (to a process), "run" (in either), "read", and
    "cancel" (a queued batch dropped) or "drop" (a started one left unread).
    A stand-in process runs its batches only when the caller waits for one,
    so a batch sent to it and never read is never started."""

    def __init__(self, monkeypatch):
        self.events = []
        self.processes = []
        log = self.log

        class Batch(channel._Batch):
            def __init__(self, point, fn, args):
                super().__init__(point, fn, args)
                log("submit", self)

            def run(self):
                log("run", self)
                super().run()

        class Workers(channel._Workers):
            def read(self):
                batch = self.pending[0]
                out = super().read()
                log("read", batch)
                return out

            def drop(self, point):
                for batch in self.pending:
                    if batch.point == point:
                        log("cancel" if batch in self.queued else "drop", batch)
                super().drop(point)

        class LazyProcess:
            def __init__(stand_in):
                self.processes.append(stand_in)
                stand_in.batches = deque()

            def send(stand_in, batch):
                log("send", batch)
                batch.process = stand_in
                stand_in.batches.append(batch)

            def poll(stand_in):
                pass

            def receive(stand_in):
                stand_in.batches.popleft().run()

            def close(stand_in):
                pass

        monkeypatch.setattr(channel, "_Batch", Batch)
        monkeypatch.setattr(channel, "_Workers", Workers)
        monkeypatch.setattr(channel, "_Process", LazyProcess)

    def log(self, event, batch):
        ebn0, _, lo = batch.call[1][0][3:6]
        self.events.append((event, ebn0, lo))

    def count(self, event):
        return sum(e[0] == event for e in self.events)

    def peak_pending(self):
        """The most batches submitted and not yet read or dropped."""
        pending = peak = 0
        for event, *_ in self.events:
            pending += {"submit": 1, "read": -1, "cancel": -1, "drop": -1}.get(event, 0)
            peak = max(peak, pending)
        return peak


class TestChannelParams:
    def test_noise_variance_formula(self):
        # At Eb/N0 = 0 dB and rate 1/2 the variance is exactly 1.
        params = ChannelParams(ebn0_db=0.0, rate=0.5)
        assert params.noise_variance == pytest.approx(1.0)
        # 10 * log10(1/(2 R sigma^2)) recovers the operating point.
        params = ChannelParams(ebn0_db=2.5, rate=0.25)
        back = 10.0 * np.log10(1.0 / (2.0 * 0.25 * params.noise_variance))
        assert back == pytest.approx(2.5)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(ebn0_db=1.0, rate=0.0)
        with pytest.raises(ValueError):
            ChannelParams(ebn0_db=1.0, rate=1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_ebn0_rejected(self, bad):
        # NaN built a channel whose noise variance is NaN.
        with pytest.raises(ValueError, match="^Eb/N0 must be a finite real number, got "):
            ChannelParams(bad, 0.5)


class TestTransmit:
    def test_llr_signs_at_high_snr(self):
        params = ChannelParams(ebn0_db=20.0, rate=0.5)
        bits = np.array([0, 1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)
        noise = np.random.default_rng(1).standard_normal(bits.shape)
        llrs = transmit(bits, params, noise)
        assert np.array_equal(llrs < 0, bits.astype(bool))

    def test_moments_match_the_model(self):
        # y = (1 - 2c) + noise; for the all-zero word, mean 1, variance sigma^2.
        params = ChannelParams(ebn0_db=0.0, rate=0.5)
        sigma2 = params.noise_variance
        count = 1_000_000
        bits = np.zeros(count, dtype=np.uint8)
        llrs = transmit(bits, params, np.random.default_rng(2).standard_normal(count))
        y = llrs * sigma2 / 2.0
        se_mean = np.sqrt(sigma2 / count)
        assert abs(float(y.mean()) - 1.0) < 3.0 * se_mean
        se_var = sigma2 * np.sqrt(2.0 / count)
        assert abs(float(y.var()) - sigma2) < 3.0 * se_var

    def test_deterministic_replay(self):
        params = ChannelParams(ebn0_db=3.0, rate=0.5)
        bits = np.array([1, 0, 1, 0], dtype=np.uint8)
        a = transmit(bits, params, np.random.default_rng(7).standard_normal(4))
        b = transmit(bits, params, np.random.default_rng(7).standard_normal(4))
        assert np.array_equal(a, b)

    def test_sequences_are_arrays(self):
        # A list of noise raised TypeError from the float multiply.
        params = ChannelParams(ebn0_db=1.0, rate=0.5)
        noise = [0.25, -1.5]
        got = transmit([0, 1], params, noise)
        assert np.array_equal(got, transmit(np.array([0, 1]), params, np.array(noise)))
        assert got.dtype == np.float64 and noise == [0.25, -1.5]
        array = np.array(noise)
        transmit([0, 1], params, array)
        assert array.tolist() == noise

    def test_noise_shape_must_match(self):
        params = ChannelParams(ebn0_db=3.0, rate=0.5)
        with pytest.raises(ValueError):
            transmit(np.zeros(4, dtype=np.uint8), params, np.zeros(3))

    @pytest.mark.parametrize(
        "bits",
        [np.array([[0, 2]]), np.array([[0, 2]], dtype=np.uint8), np.array([1, -1], dtype=np.int8),
         np.array([0.0, 0.5])],
    )
    def test_bits_other_than_0_and_1_rejected(self, bits):
        # [[0, 2]] modulated the 2 to -3.
        params = ChannelParams(ebn0_db=3.0, rate=0.5)
        with pytest.raises(ValueError, match="code bits must be 0 or 1"):
            transmit(bits, params, np.zeros(bits.shape))

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float64])
    def test_bits_of_any_dtype_modulate_alike(self, dtype):
        params = ChannelParams(ebn0_db=3.0, rate=0.5)
        bits = np.array([[0, 1, 1, 0]])
        noise = np.random.default_rng(5).standard_normal(bits.shape)
        want = transmit(bits.astype(np.uint8), params, noise)
        assert np.array_equal(transmit(bits.astype(dtype), params, noise), want)

    @staticmethod
    def one_line(bits, params, noise):
        """transmit as one expression, before it worked in place: the oracle."""
        sigma2 = params.noise_variance
        y = (1.0 - 2.0 * bits) + math.sqrt(sigma2) * noise
        return 2.0 * y / sigma2

    @pytest.mark.parametrize("ebn0_db, rate", [(2.5, 0.5), (-3.0, 0.25), (40.0, 0.75)])
    def test_in_place_llrs_match_the_one_line_form(self, ebn0_db, rate):
        params = ChannelParams(ebn0_db, rate)
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2, size=(32, 128), dtype=np.uint8)
        noise = rng.standard_normal(bits.shape)
        tiny = np.finfo(np.float64).tiny
        noise[0, :8] = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny / 3, 1e-310, -1e300]
        kept = noise.copy()
        got = transmit(bits, params, noise)
        want = self.one_line(bits, params, noise)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(noise.view(np.uint64), kept.view(np.uint64))
        # Narrower noise still gives the float64 LLRs of the one-line form
        # (row 0's -1e300 is beyond float32).
        single, bits = noise[1:].astype(np.float32), bits[1:]
        got, want = transmit(bits, params, single), self.one_line(bits, params, single)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestWilsonInterval:
    def test_frozen_values(self):
        lo, hi = wilson_interval(5, 100)
        assert lo == pytest.approx(0.02154367915436796)
        assert hi == pytest.approx(0.11175046923191913)
        lo, hi = wilson_interval(0, 100)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.03699349820698568)
        lo, hi = wilson_interval(100, 100)
        assert lo == pytest.approx(0.9630065017930143)
        assert hi == pytest.approx(1.0)

    def test_contains_point_estimate(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            trials = int(rng.integers(1, 10_000))
            errors = int(rng.integers(0, trials + 1))
            lo, hi = wilson_interval(errors, trials)
            assert 0.0 <= lo <= errors / trials <= hi <= 1.0

    def test_symmetry(self):
        lo, hi = wilson_interval(13, 64)
        flo, fhi = wilson_interval(64 - 13, 64)
        assert lo == pytest.approx(1.0 - fhi)
        assert hi == pytest.approx(1.0 - flo)

    def test_ends_are_exact(self):
        for trials in (1, 3, 10, 500, 10**6):
            assert wilson_interval(0, trials)[0] == 0.0
            assert wilson_interval(trials, trials)[1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    @pytest.mark.parametrize(
        "errors, trials", [(True, 2), (1.5, 4), (1, 4.0), (np.bool_(True), 2), ("1", 4), (1, None)]
    )
    def test_counts_must_be_ints(self, errors, trials):
        # (True, 2) and (1.5, 4) returned intervals.
        match = r"^(errors must be an int in 0\.\.[24]|trials must be a positive int), got "
        with pytest.raises(ValueError, match=match):
            wilson_interval(errors, trials)

    def test_numpy_ints_are_ints(self):
        assert wilson_interval(np.int64(5), np.uint16(100)) == wilson_interval(5, 100)


class TestDecoderSpec:
    """channel._decoder: a decoder spec is its name, parsed to
    (label, kind, size, lta_only, fixed, kernel)."""

    def test_parse_forms(self):
        assert channel._decoder("sc") == ("sc", "sc", 1, False, False, "exact_boxplus")
        assert channel._decoder("scl-8") == ("scl-8", "scl", 8, False, False, "exact_boxplus")
        assert channel._decoder("aut-4-sc") == (
            "aut-4-sc", "aut_sc", 4, False, False, "exact_boxplus"
        )
        assert channel._decoder("AUT-8-SC-LTA") == (
            "aut-8-sc-lta", "aut_sc", 8, True, False, "exact_boxplus"
        )

    def test_label_preserved(self):
        assert channel._decoder("scl-32")[0] == "scl-32"

    def test_fixed_suffix(self):
        assert channel._decoder("AUT-04-SC-LTA-FIXED") == (
            "aut-4-sc-lta-fixed", "aut_sc", 4, True, True, "exact_boxplus"
        )
        assert channel._decoder("aut-4-sc-min-sum") == (
            "aut-4-sc-min-sum", "aut_sc", 4, False, False, "min_sum"
        )

    @pytest.mark.parametrize(
        "text, label",
        [
            ("sc", "sc"), (" SC ", "sc"), ("scl-8", "scl-8"), ("SCL-08", "scl-8"),
            ("aut-4-sc", "aut-4-sc"), ("aut-04-sc-lta", "aut-4-sc-lta"),
            ("aut-16-sc-fixed", "aut-16-sc-fixed"), ("aut-1-sc-lta-fixed", "aut-1-sc-lta-fixed"),
            ("sc-min-sum", "sc-min-sum"), ("SCL-08-MIN-SUM", "scl-8-min-sum"),
            ("aut-4-sc-min-sum", "aut-4-sc-min-sum"),
            ("aut-04-sc-lta-min-sum", "aut-4-sc-lta-min-sum"),
            ("aut-4-sc-fixed-min-sum", "aut-4-sc-fixed-min-sum"),
            ("AUT-04-SC-LTA-FIXED-MIN-SUM", "aut-4-sc-lta-fixed-min-sum"),
        ],
    )
    def test_label_is_canonical_and_round_trips(self, text, label):
        got = channel._decoder(text)
        assert got[0] == label
        assert channel._decoder(label) == got

    @given(
        kind=st.sampled_from(["sc", "scl", "aut_sc"]),
        size=st.integers(1, 10**6),
        zeros=st.integers(0, 3),
        lta_only=st.booleans(),
        fixed=st.booleans(),
        min_sum=st.booleans(),
        upper=st.integers(0, 2**40 - 1),
    )
    def test_every_valid_spec_round_trips(self, kind, size, zeros, lta_only, fixed, min_sum,
                                          upper):
        # Names drawn from the grammar: a size for scl and aut_sc only (scl
        # from 2, since a list of one is sc), written with leading zeros;
        # the ensemble suffixes for aut_sc only; -min-sum for all three;
        # and each letter in either case (bit i of `upper` for character i).
        size += 1 if kind == "scl" else 0
        lta_only, fixed = lta_only and kind == "aut_sc", fixed and kind == "aut_sc"
        if kind == "sc":
            stem, padded = "sc", "sc"
        elif kind == "scl":
            stem, padded = f"scl-{size}", f"scl-{'0' * zeros}{size}"
        else:
            tail = "-sc" + "-lta" * lta_only + "-fixed" * fixed
            stem, padded = f"aut-{size}{tail}", f"aut-{'0' * zeros}{size}{tail}"
        label = stem + "-min-sum" * min_sum
        name = "".join(c.upper() if upper >> i & 1 else c
                       for i, c in enumerate(padded + "-min-sum" * min_sum))
        want = (label, kind, size if kind != "sc" else 1, lta_only, fixed,
                "min_sum" if min_sum else "exact_boxplus")
        assert channel._decoder(name) == want
        assert channel._decoder(label) == channel._decoder(name)

    @pytest.mark.parametrize(
        "text",
        [
            "", "scl", "scl-0", "scl-1", "scl-01-min-sum", "aut-sc", "aut-0-sc", "sc-8", "ml", "scl-2-lta",
            "aut-4-sc-fixed-lta", "sc-fixed", "scl-4-fixed", "aut-0-sc-fixed",
            "aut-4-sc-fixed-fixed", "sc-minsum", "sc-min-sum-lta", "aut-4-sc-min-sum-fixed",
            "sc-min-sum-min-sum", "sc-exact-boxplus", "sc-min_sum", "min-sum",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            channel._decoder(text)


class TestSimResult:
    def test_derived_fields(self):
        r = SimResult("sc", 1.0, frames=200, block_errors=10)
        assert r.bler == pytest.approx(0.05)
        assert r.ci95 == wilson_interval(10, 200)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimResult("sc", 1.0, frames=10, block_errors=11)

    def test_zero_frames_rejected(self):
        # SimResult("sc", 1.0, 0, 0) built, then bler raised
        # ZeroDivisionError and ci95 "trials must be positive".
        with pytest.raises(ValueError, match="^frames must be a positive int, got 0$"):
            SimResult("sc", 1.0, frames=0, block_errors=0)

    @pytest.mark.parametrize(
        "frames, block_errors", [(2.5, 1), (10, 1.0), (True, 0), (10, np.bool_(False)), (-1, 0)]
    )
    def test_counts_must_be_ints(self, frames, block_errors):
        # SimResult("sc", 1.0, 2.5, 1) built.
        match = r"^(frames must be a positive int|block_errors must be an int in 0\.\.10), got "
        with pytest.raises(ValueError, match=match):
            SimResult("sc", 1.0, frames, block_errors)

    def test_numpy_ints_become_ints(self):
        r = SimResult("sc", 1.0, np.int64(200), np.int32(10))
        assert r == SimResult("sc", 1.0, 200, 10)
        assert type(r.frames) is type(r.block_errors) is int


def test_default_code_id():
    code = decreasing_closure([Monomial.from_indices([0, 1, 2])], 4)
    assert default_code_id(code) == "N16_K8_gen8"
    spec = ConstructionSpec.from_dict({"kind": "generators", "n": 7, "generators": [27, 56]})
    assert default_code_id(spec.build()) == "N128_K64_gen27-56"


class TestRunBler:
    def test_deterministic_replay(self):
        code = small_code()
        kwargs = dict(master_seed=11, target_errors=40, max_frames=4000)
        a = run_bler(code, "sc", [1.0, 3.0], **kwargs)
        b = run_bler(code, "sc", [1.0, 3.0], **kwargs)
        assert [(r.frames, r.block_errors) for r in a] == [
            (r.frames, r.block_errors) for r in b
        ]

    def test_worker_count_does_not_change_counts(self):
        code = small_code()
        kwargs = dict(master_seed=12, target_errors=60, max_frames=6000)
        solo = run_bler(code, "scl-2", [2.0], workers=1, **kwargs)
        duo = run_bler(code, "scl-2", [2.0], workers=2, **kwargs)
        assert (solo[0].frames, solo[0].block_errors) == (
            duo[0].frames,
            duo[0].block_errors,
        )

    def test_unstarted_batches_cancelled_when_a_point_stops(self, monkeypatch):
        rec = Recorder(monkeypatch)
        monkeypatch.setattr(channel, "_BATCH_FRAMES", 16)
        code = small_code()
        kwargs = dict(master_seed=10, target_errors=20, max_frames=6000)
        duo = run_bler(code, "sc", [1.0, 2.0], workers=2, **kwargs)
        solo = run_bler(code, "sc", [1.0, 2.0], workers=1, **kwargs)
        assert [(r.frames, r.block_errors) for r in duo] == [
            (r.frames, r.block_errors) for r in solo
        ]
        duo_events = rec.events[: rec.events.index(("submit", 1.0, 0), 1)]
        reads = [e[1:] for e in duo_events if e[0] == "read"]
        assert len(reads) == sum(r.frames for r in duo) // 16
        # A batch not yet run when its point stops (or the call ends) is
        # never run nor read: queued, it is cancelled; sent, it is dropped.
        unstarted = [
            batch for k, (event, *batch) in enumerate(duo_events)
            if event in ("cancel", "drop") and ("run", *batch) not in duo_events[:k]
        ]
        assert unstarted == [[2.0, 192], [2.0, 208]]
        assert ("drop", 2.0, 192) in duo_events and ("cancel", 2.0, 208) in duo_events
        for batch in unstarted:
            assert ("run", *batch) not in duo_events and ("read", *batch) not in duo_events

    def test_next_point_starts_before_the_lowest_stops(self, monkeypatch):
        # At 0 dB the first 64 frames hold the 5 errors, so point 0 stops
        # after one batch; the other points' first batches are already in.
        rec = Recorder(monkeypatch)
        monkeypatch.setattr(channel, "_BATCH_FRAMES", 64)
        results = run_bler(
            small_code(), "sc", [0.0, 1.0, 2.0], master_seed=5, target_errors=5,
            max_frames=6000, workers=2,
        )
        assert results[0].frames == 64
        # Point 0's batch goes to the process, point 1's runs in the caller
        # while it waits, and point 2's is sent when the caller starts.
        stop = rec.events.index(("read", 0.0, 0))
        assert rec.events[:stop] == [
            ("submit", 0.0, 0), ("send", 0.0, 0), ("submit", 1.0, 0), ("submit", 2.0, 0),
            ("send", 2.0, 0), ("run", 1.0, 0), ("run", 0.0, 0),
        ]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pending_batches_never_exceed_the_window(self, monkeypatch, workers):
        rec = Recorder(monkeypatch)
        monkeypatch.setattr(channel, "_BATCH_FRAMES", 16)
        run_bler(
            small_code(), "sc", [1.0, 2.0, 3.0, 4.0], master_seed=6, target_errors=30,
            max_frames=20_000, workers=workers,
        )
        assert rec.peak_pending() == 2 * workers

    def test_one_worker_runs_only_what_it_reads(self, monkeypatch):
        # With no process a batch runs only when it is read, so the window
        # of two wastes no work: a batch a stopped point drops never ran.
        rec = Recorder(monkeypatch)
        monkeypatch.setattr(channel, "_BATCH_FRAMES", 16)
        run_bler(
            small_code(), "sc", [1.0, 2.0, 3.0, 4.0], master_seed=6, target_errors=30,
            max_frames=20_000, workers=1,
        )
        ran, read, dropped = (
            [batch for event, *batch in rec.events if event in names]
            for names in (("run",), ("read",), ("cancel", "drop"))
        )
        assert ran == read
        assert dropped and not any(batch in ran for batch in dropped)
        assert rec.count("send") == rec.count("drop") == 0

    def test_speculation_on_the_benchmark_sweep(self, monkeypatch):
        # perfbench's sc-sweep-n128 jobs at --seed 1: master seeds 10000 on.
        code = ConstructionSpec.from_dict(
            {"kind": "generators", "n": 7, "generators": [27, 56]}
        ).build()
        ebn0 = [1.0, 1.5, 2.0, 2.5, 3.0]
        submitted, ran = [], []
        for seed in range(10_000, 10_010):
            rec = Recorder(monkeypatch)
            results = run_bler(code, "sc", ebn0, master_seed=seed, target_errors=100, workers=2)
            read = sum(-(-r.frames // 256) for r in results)
            assert read == rec.count("read")
            submitted.append(rec.count("submit") - read)
            ran.append(rec.count("run") - read)
        # The schedule submits one extra batch on five of the ten seeds;
        # three of them run, in the caller while it waits, and a batch a
        # stand-in process holds runs only when it is read.
        assert submitted == [0, 1, 0, 1, 0, 0, 1, 1, 1, 0]
        assert ran == [0, 0, 0, 0, 0, 0, 1, 1, 1, 0]
        assert max(ran) <= len(ebn0) and sum(ran) <= 5

    def test_no_worker_left_running(self, monkeypatch):
        monkeypatch.setattr(channel, "_BATCH_FRAMES", 8)
        results = run_bler(
            small_code(), "sc", [1.0, 2.0], master_seed=7, target_errors=10,
            max_frames=100_000, workers=2,
        )
        assert all(r.frames < 100_000 for r in results)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_error_propagates_and_leaves_no_worker(self, monkeypatch, workers):
        # Point 0's third batch raises while later batches are queued:
        # run_bler re-raises it and stops the processes, whatever is pending.
        monkeypatch.setattr(channel, "_run_batch", failing_batch)
        monkeypatch.setattr(channel, "_BATCH_FRAMES", 32)
        with pytest.raises(RuntimeError, match="batch from frame 64 failed"):
            run_bler(
                small_code(), "sc", [1.0, 2.0], master_seed=7, max_frames=10_000,
                workers=workers,
            )
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_workers_start_one_process_fewer(self, monkeypatch, workers):
        rec = Recorder(monkeypatch)
        run_bler(
            small_code(), "sc", [1.0, 2.0], master_seed=7, target_errors=10,
            max_frames=2000, workers=workers,
        )
        assert len(rec.processes) == workers - 1

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_caller_decodes_a_share(self, monkeypatch, workers):
        # No target, so every batch is read: the processes run the first,
        # the caller some of the others, with workers - 1 processes alive.
        monkeypatch.setattr(channel, "_run_batch", counted_batch)
        monkeypatch.setattr(channel, "_BATCH_FRAMES", 16)
        CALLER_RUNS.clear()
        results = run_bler(
            small_code(), "sc", [1.0, 2.0], master_seed=7, target_errors=None,
            max_frames=800, workers=workers,
        )
        read = sum(r.frames for r in results) // 16
        assert set(CALLER_RUNS) == {workers - 1}
        if workers == 1:
            assert len(CALLER_RUNS) == read
        else:
            assert 0 < len(CALLER_RUNS) < read
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "fails, workers, error",
        [
            (failing_in_caller, 1, "batch failed in the caller"),
            (failing_in_caller, 2, "batch failed in the caller"),
            (failing_in_caller, 3, "batch failed in the caller"),
            (failing_in_process, 2, "batch failed in a process"),
            (failing_in_process, 3, "batch failed in a process"),
            (failing_unpicklably, 2, r"Unpicklable\('batch failed in a process'\)"),
            (exiting_in_process, 2, "a worker process exited before returning its batches"),
        ],
    )
    def test_an_error_on_either_side_propagates(self, monkeypatch, fails, workers, error):
        monkeypatch.setattr(channel, "_run_batch", fails)
        monkeypatch.setattr(channel, "_BATCH_FRAMES", 32)
        with pytest.raises(RuntimeError, match=error):
            run_bler(
                small_code(), "sc", [1.0, 2.0], master_seed=7, max_frames=10_000,
                workers=workers,
            )
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("decoder", ["sc", "scl-4", "aut-4-sc"])
    def test_counts_are_equal_at_one_two_and_three_workers(self, monkeypatch, decoder):
        monkeypatch.setattr(channel, "_BATCH_FRAMES", 8)
        kwargs = dict(master_seed=23, target_errors=12, max_frames=2000)
        solo, duo, trio = (
            [(r.frames, r.block_errors) for r in run_bler(
                small_code(), decoder, [0.5, 1.5, 2.5], workers=workers, **kwargs,
            )]
            for workers in (1, 2, 3)
        )
        assert solo == duo == trio

    @pytest.mark.parametrize("decoder", ["scl-4", "aut-4-sc", "aut-4-sc-fixed"])
    def test_worker_count_does_not_change_stopped_sweeps(self, monkeypatch, decoder):
        monkeypatch.setattr(channel, "_BATCH_FRAMES", 8)
        code = small_code()
        kwargs = dict(master_seed=21, target_errors=12, max_frames=2000)
        solo, duo = (
            [(r.frames, r.block_errors) for r in run_bler(
                code, decoder, [0.5, 1.5, 2.5], workers=workers, **kwargs,
            )]
            for workers in (1, 2)
        )
        assert solo == duo

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.sampled_from([1, 7, 64, 256]),
        target=st.integers(1, 20),
        max_frames=st.integers(1, 300),
        ebn0=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0]), min_size=1, max_size=4),
    )
    def test_worker_count_never_changes_sc_counts(
        self, seed, batch, target, max_frames, ebn0
    ):
        with mock.patch.object(channel, "_BATCH_FRAMES", batch):
            solo, duo = (
                [(r.frames, r.block_errors) for r in run_bler(
                    small_code(), "sc", ebn0, master_seed=seed, target_errors=target,
                    max_frames=max_frames, workers=workers,
                )]
                for workers in (1, 2)
            )
        assert solo == duo

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("target_errors, max_frames", [(None, 48), (12, 2000)])
    def test_one_call_over_every_decoder_equals_one_call_per_decoder(
        self, monkeypatch, workers, target_errors, max_frames
    ):
        # One schedule over every (decoder, SNR) point, decoder-major, gives
        # each decoder the results of its own call; each -fixed decoder draws
        # its own ensemble, of its own size, from the one ensemble stream.
        monkeypatch.setattr(channel, "_BATCH_FRAMES", 8)
        code = small_code()
        decoders = ["sc", "scl-4", "aut-4-sc", "aut-4-sc-fixed", "aut-2-sc-fixed", "aut-4-sc-lta"]
        ebn0 = [0.5, 1.5, 2.5]
        kwargs = dict(master_seed=23, target_errors=target_errors, max_frames=max_frames,
                      workers=workers)
        together = run_bler(code, decoders, ebn0, **kwargs)
        apart = [r for d in decoders for r in run_bler(code, d, ebn0, **kwargs)]
        assert together == apart
        assert [r.decoder for r in together] == [d for d in decoders for _ in ebn0]
        assert run_bler(code, tuple(decoders[:1]), ebn0, **kwargs) == apart[: len(ebn0)]

    def test_batch_size_does_not_change_fixed_work_counts(self, monkeypatch):
        # SCL gathers its paths by an index over the frames of each batch,
        # so a batch of one frame, a ragged last batch and one whole batch
        # must all decode alike.
        code = small_code()
        kwargs = dict(master_seed=19, target_errors=None, max_frames=40)
        for decoder in ("aut-4-sc", "aut-4-sc-fixed", "aut-4-sc-lta", "sc", "scl-4"):
            counts = {}
            for batch in (1, 7, 256):
                monkeypatch.setattr(channel, "_BATCH_FRAMES", batch)
                counts[batch] = [
                    (r.frames, r.block_errors) for r in run_bler(code, decoder, [1.0], **kwargs)
                ]
            assert counts[1] == counts[7] == counts[256]
            assert counts[1][0][1] > 0

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        target=st.integers(1, 80),
        max_frames=st.integers(1, 800),
        ebn0=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=1, max_size=2),
        decoder=st.sampled_from(["sc", "aut-4-sc"]),
    )
    def test_a_point_stops_at_the_end_of_the_block_holding_its_target_error(
        self, seed, target, max_frames, ebn0, decoder
    ):
        # With one-frame blocks a point stops at the frame f of its k-th
        # error (or at max_frames); on the fixed grid it stops at the end of
        # the 256-frame block holding f, and counts what a fixed-work run of
        # the same sweep counts at that point up to that frame.
        code = small_code()
        kwargs = dict(master_seed=seed, max_frames=max_frames)
        with mock.patch.object(channel, "_BATCH_FRAMES", 1):
            exact = run_bler(code, decoder, ebn0, target_errors=target, **kwargs)
        grid = run_bler(code, decoder, ebn0, target_errors=target, **kwargs)
        for i, (point, f) in enumerate(zip(grid, (r.frames for r in exact))):
            assert point.frames == min(max_frames, 256 * -(-f // 256))
            fixed = run_bler(
                code, decoder, ebn0, master_seed=seed, target_errors=None,
                max_frames=point.frames,
            )[i]
            assert point.block_errors == fixed.block_errors

    def test_batch_frames_is_gone(self):
        # Blocks are 256 frames for every call; the keyword that set them
        # made counts under target_errors depend on it.
        with pytest.raises(TypeError, match="batch_frames"):
            run_bler(small_code(), "sc", [1.0], master_seed=0, batch_frames=7)

    def test_worker_count_does_not_change_fixed_work_counts(self, monkeypatch):
        # The Aut-SC runs ship a block structure built in the parent, and
        # the fixed ensemble its tables too.
        monkeypatch.setattr(channel, "_BATCH_FRAMES", 7)
        code = small_code()
        kwargs = dict(master_seed=19, target_errors=None, max_frames=40)
        for decoder in ("aut-4-sc", "aut-4-sc-lta", "aut-4-sc-fixed", "sc", "scl-4"):
            solo, duo = (
                [(r.frames, r.block_errors) for r in run_bler(
                    code, decoder, [1.0, 2.0], workers=workers, **kwargs
                )]
                for workers in (1, 2)
            )
            assert solo == duo, decoder

    def test_pickled_code_carries_its_identity_only(self):
        # A pool task ships the code; a designed code has its information
        # set and down images filled in, which the pickle must leave behind.
        code = bhattacharyya_bec_design(0.3, 40, 7)
        assert {"info_set", "down_images"} <= set(code.__dict__)
        payload = pickle.dumps(code)
        copy = pickle.loads(payload)
        assert copy == code and hash(copy) == hash(code)
        assert copy.rows == code.rows
        assert b"info_set" not in payload and b"down_images" not in payload

    def test_seed_changes_the_outcome(self):
        code = small_code()
        a = run_bler(code, "sc", [2.0], master_seed=1, target_errors=50, max_frames=5000)
        b = run_bler(code, "sc", [2.0], master_seed=2, target_errors=50, max_frames=5000)
        assert (a[0].frames, a[0].block_errors) != (b[0].frames, b[0].block_errors)

    def test_stop_rules(self):
        code = small_code()
        capped = run_bler(
            code, "sc", [0.0], master_seed=13, target_errors=None, max_frames=700
        )
        assert capped[0].frames == 700
        early = run_bler(
            code, "sc", [0.0], master_seed=13, target_errors=25, max_frames=100_000
        )
        assert early[0].block_errors >= 25
        assert early[0].frames < 100_000

    def test_zero_max_frames_rejected(self):
        with pytest.raises(ValueError):
            run_bler(small_code(), "sc", [1.0], master_seed=0, max_frames=0)

    def test_invalid_decoder_rejected(self):
        with pytest.raises(ValueError):
            run_bler(small_code(), "turbo", [1.0], master_seed=0)

    def test_empty_snr_list_rejected(self):
        for empty in ([], np.array([])):
            with pytest.raises(ValueError, match="must not be empty"):
                run_bler(small_code(), "sc", empty, master_seed=0)

    def test_numpy_grid_matches_list(self):
        code = small_code()
        kwargs = dict(master_seed=3, target_errors=None, max_frames=30)
        grid = np.linspace(1, 3, 5)
        got = run_bler(code, "sc", grid, **kwargs)
        want = run_bler(code, "sc", [1.0, 1.5, 2.0, 2.5, 3.0], **kwargs)
        assert got == want
        assert all(type(r.ebn0_db) is float for r in got)

    def test_unknown_kernel_rejected_before_any_batch(self, monkeypatch):
        # The check-node rule is part of the name; a misspelt suffix is an
        # unknown name.
        monkeypatch.setattr(channel, "_run_batch", self.no_batch)
        with pytest.raises(ValueError, match="invalid decoder spec 'sc-minsum'"):
            run_bler(small_code(), "sc-minsum", [1.0], master_seed=0)

    @pytest.mark.parametrize(
        "bad", [["2.5"], [True], [np.bool_(False)], [None], [1.0, "3"], "2.5", 2.5, b"12",
                np.array(2.5), np.array([[1.0, 2.0]])],
    )
    def test_ebn0_list_checked_before_any_batch(self, monkeypatch, bad):
        # ["2.5"] ran at 2.5 dB, [True] at 1 dB, and "2.5" failed in float.
        monkeypatch.setattr(channel, "_run_batch", self.no_batch)
        match = "^ebn0_list must be a sequence|^Eb/N0 must be a finite real number, got "
        with pytest.raises(ValueError, match=match):
            run_bler(small_code(), "sc", bad, master_seed=0)

    def test_numpy_and_fraction_ebn0_accepted(self):
        code = small_code()
        kwargs = dict(master_seed=3, target_errors=None, max_frames=30)
        grid = [np.float32(1.5), np.int64(2), Fraction(5, 2)]
        got = run_bler(code, "sc", grid, **kwargs)
        assert got == run_bler(code, "sc", (1.5, 2.0, 2.5), **kwargs)
        assert all(type(r.ebn0_db) is float for r in got)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_ebn0_rejected_before_any_batch(self, monkeypatch, bad):
        monkeypatch.setattr(channel, "_run_batch", self.no_batch)
        with pytest.raises(ValueError, match="Eb/N0"):
            run_bler(small_code(), "sc", [1.0, bad], master_seed=0, workers=2)

    @pytest.mark.parametrize(
        "spec",
        [object(), Fraction(4), {"kind": "sc"}],
    )
    def test_decoder_spec_object_rejected_before_any_batch(self, monkeypatch, spec):
        # A decoder is its name: run_bler takes no other object for one (a
        # bare number or None in a sequence is checked below).
        monkeypatch.setattr(channel, "_run_batch", self.no_batch)
        with pytest.raises(TypeError, match="decoder must be a name"):
            run_bler(small_code(), spec, [1.0], master_seed=0)

    @pytest.mark.parametrize("empty", [[], ()])
    def test_empty_decoder_sequence_rejected_before_any_batch(self, monkeypatch, empty):
        monkeypatch.setattr(channel, "_run_batch", self.no_batch)
        with pytest.raises(ValueError, match="decoder must hold at least one name"):
            run_bler(small_code(), empty, [1.0], master_seed=0)

    @pytest.mark.parametrize(
        "decoders",
        [[object()], ["sc", 4.0], ("sc", None), ["aut-4-sc", 4], [b"sc"], (object(),)],
    )
    def test_non_name_in_a_sequence_rejected_before_any_batch(self, monkeypatch, decoders):
        # Every element is checked before any name is parsed.
        monkeypatch.setattr(channel, "_run_batch", self.no_batch)
        with pytest.raises(TypeError, match="^decoder must be a name"):
            run_bler(small_code(), decoders, [1.0], master_seed=0, workers=2)

    @pytest.mark.parametrize(
        "decoders",
        [["turbo", "sc"], ["sc", "scl-4", "aut-sc"], ("sc", "sc-minsum"), ["sc", "scl-1"]],
    )
    def test_unknown_name_anywhere_rejected_before_any_batch(self, monkeypatch, decoders):
        monkeypatch.setattr(channel, "_run_batch", self.no_batch)
        with pytest.raises(ValueError, match="invalid decoder spec|scl-1 decodes as sc"):
            run_bler(small_code(), decoders, [1.0], master_seed=0, workers=2)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", ["aut-2-sc", "aut-2-sc-lta", "aut-2-sc-lta-fixed"])
    def test_aut_sc_on_a_non_decreasing_code_rejected_before_any_batch(
        self, monkeypatch, name, workers
    ):
        # {x1x2, 1} holds x1x2 but not x1 or x2.  LTA maps move it off
        # itself, and -lta once ran them, counting errors SC does not make.
        code = MonomialCode.from_members(3, 1 << 0b110 | 1)
        monkeypatch.setattr(channel, "_run_batch", self.no_batch)
        with pytest.raises(ValueError, match="defined for decreasing codes only"):
            run_bler(code, ["sc", name], [3.0], master_seed=0, workers=workers)

    @pytest.mark.parametrize(
        "option, bad",
        [("max_frames", 10.5), ("max_frames", True), ("max_frames", np.bool_(True)),
         ("workers", 2.0), ("workers", 1.0), ("workers", True), ("workers", "3"),
         ("target_errors", 2.5), ("target_errors", True), ("target_errors", np.float64(3.0))],
    )
    def test_non_int_frame_count_rejected_before_any_batch(self, monkeypatch, option, bad):
        monkeypatch.setattr(channel, "_run_batch", self.no_batch)
        with pytest.raises(ValueError, match=f"^{option} must be a positive int, got "):
            run_bler(small_code(), "sc", [1.0], master_seed=0, **{option: bad})

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bad", [1.5, -1, True, np.bool_(True), None, "3"])
    def test_bad_master_seed_rejected_before_any_batch(self, monkeypatch, bad, workers):
        # Unchecked, 1.5 and -1 failed in numpy at the first batch, and True
        # ran as seed 1.
        monkeypatch.setattr(channel, "_run_batch", self.no_batch)
        with pytest.raises(ValueError, match="master_seed must be a non-negative int"):
            run_bler(small_code(), "sc", [1.0], master_seed=bad, workers=workers)

    @pytest.mark.parametrize(
        "option, value",
        [("max_frames", 40), ("workers", 2), ("target_errors", 5), ("master_seed", 3)],
    )
    def test_numpy_ints_are_ints(self, monkeypatch, option, value):
        # Each count takes a numpy integer as the plain int it equals, and
        # the results carry plain ints.
        monkeypatch.setattr(channel, "_BATCH_FRAMES", 16)
        kwargs = dict(master_seed=3, max_frames=40, target_errors=5)
        plain, numpy = (
            run_bler(small_code(), "sc", [1.0, 2.0], **{**kwargs, option: v})
            for v in (value, np.int64(value))
        )
        assert numpy == plain
        assert all(type(r.frames) is type(r.block_errors) is int for r in numpy)

    @staticmethod
    def no_batch(args):
        raise AssertionError("a batch ran before the arguments were checked")

    def test_result_fields(self):
        code = small_code()
        results = run_bler(
            code, "aut-2-sc", [1.0, 2.5], master_seed=14, target_errors=20,
            max_frames=3000,
        )
        assert [r.ebn0_db for r in results] == [1.0, 2.5]
        for r in results:
            assert r.decoder == "aut-2-sc"
            assert 0 <= r.block_errors <= r.frames
            lo, hi = r.ci95
            assert 0.0 <= lo <= r.bler <= hi <= 1.0

    def test_bler_monotone_in_snr_up_to_ci_overlap(self):
        code = bhattacharyya_bec_design(0.285, 16, 5)
        results = run_bler(
            code, "sc", [0.0, 2.0, 4.0], master_seed=15,
            target_errors=150, max_frames=30_000,
        )
        for a, b in zip(results, results[1:]):
            overlap = a.ci95[0] <= b.ci95[1] and b.ci95[0] <= a.ci95[1]
            assert b.bler <= a.bler or overlap

    def test_all_decoder_kinds_run(self):
        code = small_code()
        for name in ("sc", "scl-4", "aut-4-sc", "aut-4-sc-lta", "aut-4-sc-fixed"):
            results = run_bler(
                code, name, [4.0], master_seed=16, target_errors=10, max_frames=400
            )
            assert results[0].decoder == name

    def test_fixed_ensemble_replay(self):
        code = small_code()
        kwargs = dict(master_seed=17, target_errors=30, max_frames=3000)
        a = run_bler(code, "aut-4-sc-fixed", [2.0], **kwargs)
        b = run_bler(code, "aut-4-sc-fixed", [2.0], **kwargs)
        assert (a[0].frames, a[0].block_errors) == (b[0].frames, b[0].block_errors)

    def test_fixed_ensemble_counts_are_pinned(self):
        # The counts of this run when the fixed ensemble was the run_bler
        # keyword fixed_ensemble=True on "aut-4-sc": the suffix names the
        # same ensemble stream.
        code = small_code()
        kwargs = dict(master_seed=17, target_errors=30, max_frames=3000)
        (result,) = run_bler(code, "aut-4-sc-fixed", [2.0], **kwargs)
        assert (result.decoder, result.frames, result.block_errors) == (
            "aut-4-sc-fixed", 512, 51
        )

    def test_fixed_and_per_frame_ensembles_differ(self, monkeypatch):
        # On a code with a nontrivial block structure the two ensemble forms
        # draw different maps, so one seed gives them different counts.
        monkeypatch.setattr(channel, "_BATCH_FRAMES", 32)
        code = ConstructionSpec.from_dict(
            {"kind": "generators", "n": 6, "generators": [7, 25]}
        ).build()
        kwargs = dict(master_seed=29, target_errors=40, max_frames=3000)
        counts = {
            name: [(r.frames, r.block_errors) for r in run_bler(code, name, [1.0, 2.5], **kwargs)]
            for name in ("aut-4-sc", "aut-4-sc-fixed")
        }
        assert counts == {
            "aut-4-sc": [(128, 51), (544, 40)],
            "aut-4-sc-fixed": [(128, 53), (512, 40)],
        }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lta_ensembles_share_the_sc_stream(self, workers):
        # Every LTA branch decodes to SC's word, so at fixed work on one seed
        # the three decoders count the same errors: all see the same
        # messages and noise, whether or not they draw maps per frame.
        code = ConstructionSpec.from_dict(
            {"kind": "generators", "n": 7, "generators": [27, 56]}
        ).build()
        kwargs = dict(master_seed=5, target_errors=None, max_frames=1024, workers=workers)
        for name in ("sc", "aut-4-sc-lta", "aut-4-sc-lta-fixed"):
            results = run_bler(code, name, [1.0, 2.0], **kwargs)
            assert [(r.frames, r.block_errors) for r in results] == [(1024, 502), (1024, 208)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_min_sum_counts_are_pinned(self, monkeypatch, workers):
        # The counts of these runs when the check-node rule was the run_bler
        # keyword kernel="min_sum" on the name without the suffix; the
        # exact kernel gives (96, 20) at 1 dB for every decoder here, in
        # 32-frame blocks.
        monkeypatch.setattr(channel, "_BATCH_FRAMES", 32)
        kwargs = dict(master_seed=18, target_errors=20, max_frames=2000)
        pinned = {
            "sc-min-sum": [(96, 22), (384, 20)],
            "scl-4-min-sum": [(96, 21), (384, 21)],
            "aut-4-sc-min-sum": [(96, 22), (384, 20)],
            "aut-4-sc-fixed-min-sum": [(96, 22), (384, 20)],
        }
        for name, counts in pinned.items():
            results = run_bler(small_code(), name, [1.0, 3.0], workers=workers, **kwargs)
            assert [r.decoder for r in results] == [name, name]
            assert [(r.frames, r.block_errors) for r in results] == counts, name



# Runs in a fresh interpreter: glibc's dynamic thresholds rise once a large
# mapped block is freed, so in a process that has run other work a batch
# can keep its heap even without run_bler's setting.  Prints the minor
# faults of each of 8 batches; the first grows the heap from run_bler's
# one-frame batch.
_WARM_BATCH_FAULTS = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from polaraut import channel
from polaraut.construction import ConstructionSpec
code = ConstructionSpec.from_dict({"kind": "generators", "n": 8, "generators": [31, 57]}).build()
channel.run_bler(code, "aut-8-sc", [2.5], master_seed=0, target_errors=None, max_frames=1)
decoder = channel._decoder("aut-8-sc")
structure = channel.find_block_structure(code)
key = channel._frame_key(3, 0)
for k in range(8):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    channel._run_batch((code, decoder, structure, 2.5, key, 256 * k, 256 * (k + 1), None))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not channel._glibc(), reason="the heap setting is glibc's")
def test_a_warm_aut_sc_batch_keeps_its_heap():
    # Once run_bler has fixed the malloc thresholds, a batch reuses the
    # heap the batches before it freed: a 256-frame Aut-8-SC batch at
    # (256,128) took ~2,000-2,800 minor faults under glibc's dynamic
    # thresholds, and takes a handful once they are fixed.  Now and then a
    # warm batch still grows the heap once, by ~580 faults, depending on
    # where earlier blocks landed, so the median of the warm batches is
    # held.  A fault count needs no timing.
    package_root = str(Path(channel.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _WARM_BATCH_FAULTS, package_root],
                          capture_output=True, text=True, check=True, timeout=120)
    faults = [int(line) for line in done.stdout.split()]
    assert len(faults) == 8 and np.median(faults[1:]) < 200


@pytest.mark.parametrize("confstr", [
    mock.Mock(side_effect=AttributeError),  # no os.confstr (Windows)
    mock.Mock(side_effect=ValueError),  # no CS_GNU_LIBC_VERSION (musl)
    mock.Mock(return_value=None),
])
def test_the_heap_setting_is_a_no_op_off_glibc(confstr):
    with mock.patch.object(channel.os, "confstr", confstr), \
            mock.patch.object(channel.ctypes, "CDLL") as cdll:
        assert not channel._glibc()
        channel._keep_heap.__wrapped__()
    cdll.assert_not_called()


# The same short run_bler in a child process, printed as JSON lines: the
# dispatch targets numpy still uses, then (decoder, Eb/N0, frames, errors)
# per point; argv holds the package root, the code spec and the decoders.
_DISPATCH_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
print(json.dumps([t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]))
from polaraut.channel import run_bler
from polaraut.construction import ConstructionSpec
code = ConstructionSpec.from_dict(json.loads(sys.argv[2])).build()
for r in run_bler(code, sys.argv[3:], [1.0, 2.5], master_seed=2401, max_frames=512):
    print(json.dumps([r.decoder, r.ebn0_db, r.frames, r.block_errors]))
"""


def test_counts_agree_with_every_cpu_dispatch_target_disabled(capsys):
    # numpy dispatches float64 log, exp and log1p to per-CPU code whose
    # results differ in the last bit from its baseline code, so noise and
    # exact-boxplus f differ between hosts.  A child process with every
    # dispatch target disabled runs the baseline code; its counts must be
    # the in-process ones.  The setting reaches that child only.
    umath = numpy_umath()
    targets = list(umath.__cpu_dispatch__)
    in_use = [t for t in targets if umath.__cpu_features__.get(t)]
    spec = {"kind": "generators", "n": 7, "generators": [27, 56]}
    decoders = ["sc", "scl-4", "aut-4-sc", "sc-min-sum", "scl-4-min-sum", "aut-4-sc-min-sum"]
    code = ConstructionSpec.from_dict(spec).build()
    want = [[r.decoder, r.ebn0_db, r.frames, r.block_errors]
            for r in run_bler(code, decoders, [1.0, 2.5], master_seed=2401, max_frames=512)]
    own = os.environ.get("NPY_DISABLE_CPU_FEATURES")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    package_root = str(Path(channel.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _DISPATCH_RUN, package_root, json.dumps(spec), *decoders],
        capture_output=True, text=True, check=True, timeout=120, env=env,
    )
    still_used, *got = [json.loads(line) for line in done.stdout.splitlines()]
    assert still_used == []
    assert got == want and len(got) == 12
    assert os.environ.get("NPY_DISABLE_CPU_FEATURES") == own
    with capsys.disabled():
        if in_use:
            print(f"\ncounts agree with dispatch targets {' '.join(in_use)} disabled")
        else:
            print("\nno numpy dispatch target in use on this host: both sides ran the same code")
