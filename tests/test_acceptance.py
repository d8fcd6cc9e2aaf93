"""Acceptance gate: eleven end-to-end criteria covering block structures,
group sizes, the code census, oracle equivalence, sampling, decoder
reductions, and the Monte Carlo error-rate orderings.

Run with `pytest -v tests/test_acceptance.py` for one verdict line per
criterion; add -s to see the measured numbers.  Beside them, the paper's
closing claim at (256,128): the ensemble beats the list decoder of its size.
"""

import csv
import json

import numpy as np
import pytest

from conftest import block_group, gl_full_rank_mask, random_decreasing_code
from polaraut.automorphisms import (
    BlockStructure,
    blta_size,
    find_block_structure,
    sample_blta_batch,
)
from polaraut.channel import run_bler
from polaraut.cli import main, sci3
from polaraut.codec import encode_batch, sc_decode_batch, scl_decode_batch
from polaraut.construction import bhattacharyya_bec_design, rm_code
from polaraut.monomials import (
    MonomialCode,
    decreasing_closure,
    enumerate_decreasing_codes,
    row_to_monomial,
)
from polaraut.verify import (
    BinaryMatrix,
    block_reversal_matrix,
    brute_force_stabilizer,
    is_block_lower_triangular,
    is_code_automorphism,
    lemma1_decompose,
    sample_blta,
)

DESIGN_EPSILON = 0.285  # matches the published generator sets at both lengths


def code_from_rows(n, rows):
    return decreasing_closure([row_to_monomial(r, n) for r in rows], n)


def overlap(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


def test_criterion_01_block_structures():
    cases = [
        (code_from_rows(8, [31, 99]), (5, 3)),
        (code_from_rows(8, [31, 57]), (3, 5)),
        (bhattacharyya_bec_design(DESIGN_EPSILON, 128, 8), (2, 1, 1, 1, 1, 1, 1)),
        (code_from_rows(7, [27, 56]), (3, 4)),
        (code_from_rows(7, [23, 112]), (4, 3)),
        (rm_code(3, 7), (7,)),
        (bhattacharyya_bec_design(DESIGN_EPSILON, 64, 7), (2, 2, 1, 1, 1)),
    ]
    for code, expected in cases:
        got = find_block_structure(code).sizes
        assert got == expected, f"{code.block_length},{code.dimension}: {got}"
    print(f"criterion 1 PASS: {len(cases)} block structures exact")


def test_criterion_02_group_sizes():
    # Exact integers are regression constants computed from the block sizes:
    # product of GL(2, s_k) orders, times 2**(free below-block bits), times
    # 2**n affine offsets.
    cases = [
        ((5, 3), 14091959496867840, "1.41e16"),
        ((3, 5), 14091959496867840, "1.41e16"),
        ((2, 1, 1, 1, 1, 1, 1), 206158430208, "2.06e11"),
        ((3, 4), 1775700541440, "1.78e12"),
        ((4, 3), 1775700541440, "1.78e12"),
        ((7,), 20972799094947840, "2.10e16"),
        ((2, 2, 1, 1, 1), 2415919104, "2.42e9"),
    ]
    for sizes, exact, rounded in cases:
        size = blta_size(BlockStructure(sizes))
        assert size == exact, sizes
        assert sci3(size) == rounded, sizes
    print(f"criterion 2 PASS: {len(cases)} group sizes exact and 3 s.f.")


def test_criterion_03_census():
    count = sum(1 for _ in enumerate_decreasing_codes(7, 64))
    assert count == 1007
    print(f"criterion 3 PASS: census(7, 64) = {count}")


def test_criterion_04_stabilizer_oracle():
    rng = np.random.default_rng(404)
    checked = 0
    for i in range(201):
        n = 3 + i % 3
        code = random_decreasing_code(rng, n)
        structure = find_block_structure(code)
        assert brute_force_stabilizer(code) == block_group(structure), (
            code.n,
            sorted(code.rows),
        )
        checked += 1
    print(f"criterion 4 PASS: {checked} random codes, zero stabilizer mismatches")


def test_criterion_05_sampled_elements_are_automorphisms():
    rng = np.random.default_rng(505)
    checked = 0
    for _ in range(50):
        code = random_decreasing_code(rng, 4)
        structure = find_block_structure(code)
        for _ in range(20):
            aut = sample_blta(structure, rng)
            assert is_code_automorphism(aut, code), (sorted(code.rows), aut)
            checked += 1
    print(f"criterion 5 PASS: {checked} sampled maps all preserve their code")


def test_criterion_06_sampling_bound_and_uniformity():
    rng = np.random.default_rng(606)
    draws = 100_000
    rates = []
    for s in range(1, 13):
        rows = rng.integers(0, 1 << s, size=(draws, s), dtype=np.uint32)
        rate = float(gl_full_rank_mask(rows).mean())
        assert rate >= 0.28, (s, rate)
        rates.append(rate)
    # Uniformity over the 24-element affine group of two variables.
    count = 48_000
    rows, offsets = sample_blta_batch(BlockStructure((2,)), count, rng)
    seen = {}
    for i in range(count):
        key = (int(rows[i, 0]), int(rows[i, 1]), int(offsets[i]))
        seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 24
    expected = count / 24
    chi2 = sum((c - expected) ** 2 / expected for c in seen.values())
    critical = 41.638398118858476  # 0.99 quantile, 23 degrees of freedom
    assert chi2 < critical, chi2
    print(
        f"criterion 6 PASS: min acceptance {min(rates):.5f} >= 0.28, "
        f"chi2 {chi2:.2f} < {critical:.2f}"
    )


def test_criterion_07_decoder_reductions():
    # SCL-1 is SC bit-exactly.
    code = code_from_rows(7, [27, 56])
    rng = np.random.default_rng(707)
    frames = 10_000
    msgs = rng.integers(0, 2, size=(frames, code.dimension), dtype=np.uint8)
    words = encode_batch(code, msgs)
    sigma = 0.9
    y = (1.0 - 2.0 * words) + sigma * rng.standard_normal(words.shape)
    llrs = 2.0 * y / (sigma * sigma)
    sc_msgs, sc_words = sc_decode_batch(code, llrs)
    scl_msgs, scl_words = scl_decode_batch(code, llrs, list_size=1)
    assert np.array_equal(sc_msgs, scl_msgs)
    assert np.array_equal(sc_words, scl_words)

    # SCL-32 reaches maximum likelihood when the list covers the codebook.
    small = MonomialCode.from_rows(4, [7, 11, 13, 14, 15])
    msgs = rng.integers(0, 2, size=(frames, 5), dtype=np.uint8)
    words = encode_batch(small, msgs)
    sigma = 1.2
    y = (1.0 - 2.0 * words) + sigma * rng.standard_normal(words.shape)
    llrs = 2.0 * y / (sigma * sigma)
    book = encode_batch(
        small,
        np.array([[m >> i & 1 for i in range(5)] for m in range(32)], dtype=np.uint8),
    )
    _, got_words = scl_decode_batch(small, llrs, list_size=32)
    got = np.einsum("ij,ij->i", llrs, 1.0 - 2.0 * got_words)
    best = (llrs @ (1.0 - 2.0 * book.astype(np.float64)).T).max(axis=1)
    assert np.allclose(got, best)
    print(
        f"criterion 7 PASS: SCL-1 = SC on {frames} frames, "
        f"SCL-32 = ML on {frames} frames"
    )


def test_criterion_08_lta_no_gain():
    code = bhattacharyya_bec_design(DESIGN_EPSILON, 128, 8)
    common = dict(master_seed=8801, target_errors=150, max_frames=100_000)
    sc = run_bler(code, "sc", [2.0], **common)[0]
    lta = run_bler(code, "aut-8-sc-lta", [2.0], **common)[0]
    assert sc.block_errors >= 100 and lta.block_errors >= 100
    assert overlap(sc.ci95, lta.ci95), (sc.ci95, lta.ci95)
    print(
        f"criterion 8 PASS: SC bler {sc.bler:.5f} vs LTA-ensemble bler "
        f"{lta.bler:.5f}, CIs overlap"
    )


def test_criterion_09_blta_gain_orderings():
    # Ensemble decoding beats plain SC outright on the (256,128) design.
    big = code_from_rows(8, [31, 57])
    sc = run_bler(
        big, "sc", [2.5], master_seed=9901, target_errors=200, max_frames=20_000
    )[0]
    aut = run_bler(
        big, "aut-8-sc", [2.5], master_seed=9901, target_errors=110,
        max_frames=60_000, workers=2,
    )[0]
    assert sc.block_errors >= 100 and aut.block_errors >= 100
    assert aut.bler < sc.bler
    assert aut.ci95[1] < sc.ci95[0], (aut.ci95, sc.ci95)

    # On the (128,64) design the ensemble stays close to the list decoder.
    mid = code_from_rows(7, [27, 56])
    common = dict(master_seed=9902, target_errors=400, max_frames=60_000, workers=2)
    scl = run_bler(mid, "scl-8", [2.5], **common)[0]
    aut_mid = run_bler(mid, "aut-8-sc", [2.5], **common)[0]
    assert scl.block_errors >= 100 and aut_mid.block_errors >= 100
    ratio = aut_mid.bler / scl.bler
    assert ratio <= 1.25, ratio
    print(
        f"criterion 9 PASS: (256,128) aut {aut.bler:.5f} < sc {sc.bler:.5f} "
        f"disjoint CIs; (128,64) aut/scl ratio {ratio:.3f} <= 1.25"
    )


def test_criterion_10_epsilon_sweep_endpoints(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-epsilon", "--n", "7", "--K", "64", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 2
    first, last = rows[0], rows[-1]
    assert float(first["epsilon"]) < float(last["epsilon"])
    assert bhattacharyya_bec_design(float(first["epsilon"]), 64, 7) == rm_code(3, 7)
    assert first["i_min"] == "15"
    assert first["aut_size_sci"] == "2.10e16"
    assert int(last["aut_size"]) <= int(first["aut_size"])
    print(
        f"criterion 10 PASS: smallest eps row is the one-generator code with "
        f"{first['aut_size_sci']}; largest eps has {last['aut_size_sci']}"
    )


def test_criterion_11_factorization():
    rng = np.random.default_rng(1111)
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(1, 11))
        sizes = []
        left = n
        while left:
            s = int(rng.integers(1, left + 1))
            sizes.append(s)
            left -= s
        structure = BlockStructure(tuple(sizes))
        rows, _ = sample_blta_batch(structure, 1, rng)
        m = BinaryMatrix(n, tuple(int(r) for r in rows[0]))
        p1, l1, p2, l2, p3 = lemma1_decompose(m, structure)
        assert p1 @ l1 @ p2 @ l2 @ p3 == m
        pbr = block_reversal_matrix(structure)
        assert p2 == pbr and p3 == pbr
        for p in (p1, p2, p3):
            assert p.is_permutation()
            assert is_block_lower_triangular(p, structure)
            assert is_block_lower_triangular(p.transpose(), structure)
        for lower in (l1, l2):
            assert lower.is_unit_lower_triangular()
            assert is_block_lower_triangular(lower, structure)
    print(f"criterion 11 PASS: {trials} factorizations recompose with valid factors")


def test_ensemble_beats_list_of_its_size():
    # At (256,128) and 2.5 dB Aut-8-SC's BLER is about half SCL-8's, so
    # 8192 frames each part their Wilson intervals.
    big = code_from_rows(8, [31, 57])
    aut, scl = run_bler(
        big, ["aut-8-sc", "scl-8"], [2.5], master_seed=2301,
        target_errors=None, max_frames=8192, workers=2,
    )
    assert aut.ci95[1] < scl.ci95[0], (aut.ci95, scl.ci95)
    print(
        f"(256,128) aut-8-sc {aut.bler:.5f} < scl-8 {scl.bler:.5f}, "
        f"disjoint CIs on {aut.frames} frames each"
    )
