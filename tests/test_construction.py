"""Erasure-channel reliability design, Reed-Muller sets, and the JSON spec."""

import json
import math

import numpy as np
import pytest

from polaraut.cli import default_code_id
from polaraut.construction import (
    ConstructionSpec,
    SpecError,
    bec_bhattacharyya,
    bhattacharyya_bec_design,
    rm_code,
)
from polaraut.monomials import (
    Monomial,
    is_decreasing,
    minimal_generators,
    monomial_to_row,
    partial_order_leq,
    row_to_monomial,
)


class TestBhattacharyya:
    def test_single_split(self):
        eps = 0.3
        z = bec_bhattacharyya(1, eps)
        assert z == pytest.approx([2 * eps - eps**2, eps**2])

    def test_two_levels_by_hand(self):
        eps = 0.5
        a, b = 2 * eps - eps**2, eps**2
        z = bec_bhattacharyya(2, eps)
        assert z == pytest.approx([2 * a - a * a, a * a, 2 * b - b * b, b * b])

    def test_mean_is_conserved(self):
        # Each split maps z to (2z - z^2, z^2), whose average is z.
        for eps in (0.01, 0.3, 0.5, 0.9):
            for n in range(1, 9):
                z = bec_bhattacharyya(n, eps)
                assert float(z.mean()) == pytest.approx(eps, abs=1e-12)

    def test_values_stay_in_unit_interval(self):
        z = bec_bhattacharyya(9, 0.47)
        assert np.all(z >= 0.0) and np.all(z <= 1.0)

    def test_monotone_in_epsilon(self):
        lo = bec_bhattacharyya(6, 0.2)
        hi = bec_bhattacharyya(6, 0.4)
        assert np.all(lo <= hi + 1e-15)

    def test_endpoints_degenerate(self):
        assert np.all(bec_bhattacharyya(5, 0.0) == 0.0)
        assert np.all(bec_bhattacharyya(5, 1.0) == 1.0)

    def test_respects_partial_order(self):
        # Smaller monomials always get the more reliable synthetic channel.
        n = 5
        rng = np.random.default_rng(21)
        for eps in rng.uniform(0.05, 0.95, size=8):
            z = bec_bhattacharyya(n, float(eps))
            for fm in range(1 << n):
                for gm in range(1 << n):
                    f, g = Monomial(fm), Monomial(gm)
                    if partial_order_leq(f, g):
                        zf = z[monomial_to_row(f, n)]
                        zg = z[monomial_to_row(g, n)]
                        assert zf <= zg + 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bec_bhattacharyya(0, 0.5)
        with pytest.raises(ValueError):
            bec_bhattacharyya(3, 1.5)


class TestDesign:
    def test_n1_split_at_half(self):
        code = bhattacharyya_bec_design(0.5, 1, 1)
        assert code.rows == (1,)

    def test_dimension_and_decreasing(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, (1 << n) + 1))
            eps = float(rng.uniform(0.05, 0.95))
            code = bhattacharyya_bec_design(eps, k, n)
            assert code.dimension == k
            assert code.n == n

    def test_small_epsilon_gives_reed_muller(self):
        assert bhattacharyya_bec_design(1e-4, 64, 7) == rm_code(3, 7)

    def test_design_window_256_128(self):
        code = bhattacharyya_bec_design(0.285, 128, 8)
        gens = sorted(monomial_to_row(f, 8) for f in minimal_generators(code))
        assert gens == [59, 79, 105, 149, 163, 224]

    def test_design_window_128_64(self):
        code = bhattacharyya_bec_design(0.285, 64, 7)
        gens = sorted(monomial_to_row(f, 7) for f in minimal_generators(code))
        assert gens == [31, 45, 51, 71, 84, 97]

    def test_picks_most_reliable_rows(self):
        n, k, eps = 6, 20, 0.35
        z = bec_bhattacharyya(n, eps)
        code = bhattacharyya_bec_design(eps, k, n)
        threshold = sorted(z)[k - 1]
        assert all(z[row] <= threshold for row in code.rows)

    def test_boundary_tie_is_logged(self, caplog):
        # At epsilon 0 every row has z = 0, so the K-th and (K+1)-th tie; the
        # tie break still picks a decreasing set.
        with caplog.at_level("WARNING", logger="polaraut.construction"):
            code = bhattacharyya_bec_design(0.0, 3, 3)
        assert "selection boundary tie at z=0 (n=3, K=3, eps=0)" in caplog.text
        assert code.dimension == 3 and is_decreasing(code)
        caplog.clear()
        with caplog.at_level("WARNING", logger="polaraut.construction"):
            bhattacharyya_bec_design(0.0, 8, 3)
        assert caplog.text == ""

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            bhattacharyya_bec_design(0.3, 0, 4)
        with pytest.raises(ValueError):
            bhattacharyya_bec_design(0.3, 17, 4)
        # True built a K = 1 code, and 2.0 a K = 2 one.
        for bad in (True, np.bool_(True), 2.0):
            with pytest.raises(ValueError, match="dimension must be an int"):
                bhattacharyya_bec_design(0.3, bad, 3)
        with pytest.raises(ValueError, match="variable count"):
            bhattacharyya_bec_design(0.3, 2, True)
        assert bhattacharyya_bec_design(0.3, np.int64(2), np.int64(3)) == (
            bhattacharyya_bec_design(0.3, 2, 3)
        )


class TestReedMuller:
    def test_info_set_is_degree_bounded(self):
        for n in range(1, 7):
            for r in range(n + 1):
                code = rm_code(r, n)
                assert code.info_set == frozenset(
                    Monomial(m) for m in range(1 << n) if Monomial(m).degree <= r
                )

    def test_dimension_is_binomial_sum(self):
        for n in range(1, 9):
            for r in range(n + 1):
                expected = sum(math.comb(n, d) for d in range(r + 1))
                assert rm_code(r, n).dimension == expected

    def test_order_zero_and_full(self):
        assert rm_code(0, 5).dimension == 1
        assert rm_code(5, 5).dimension == 32

    def test_bad_order(self):
        with pytest.raises(ValueError):
            rm_code(4, 3)
        with pytest.raises(ValueError):
            rm_code(-1, 3)
        # True returned RM(1, 3).
        for bad in (True, np.bool_(False), 1.0):
            with pytest.raises(ValueError, match="order must be an int"):
                rm_code(bad, 3)
        with pytest.raises(ValueError, match="variable count"):
            rm_code(1, True)
        assert rm_code(np.int64(1), np.int64(3)) == rm_code(1, 3)


EPSILON_NOT_REAL = "'epsilon' must be a finite real number, got "


class TestConstructionSpec:
    def test_generators_kind(self):
        spec = ConstructionSpec.from_dict(
            {"kind": "generators", "n": 8, "generators": [31, 99]}
        )
        code = spec.build()
        assert code.block_length == 256
        assert code.dimension == 128
        gens = sorted(monomial_to_row(f, 8) for f in minimal_generators(code))
        assert gens == [31, 99]

    def test_bec_kind(self):
        spec = ConstructionSpec.from_dict(
            {"kind": "bhattacharyya_bec", "n": 7, "K": 64, "epsilon": 0.285}
        )
        assert spec.build() == bhattacharyya_bec_design(0.285, 64, 7)

    def test_reed_muller_kind(self):
        spec = ConstructionSpec.from_dict({"kind": "reed_muller", "n": 7, "r": 3})
        assert spec.build() == rm_code(3, 7)

    def test_from_json(self):
        text = json.dumps({"kind": "reed_muller", "n": 4, "r": 2})
        assert ConstructionSpec.from_json(text).build() == rm_code(2, 4)

    def test_code_id(self):
        # A spec's code is named by cli.default_code_id; an RM code has
        # a single minimal generator.
        spec = ConstructionSpec.from_dict({"kind": "reed_muller", "n": 7, "r": 3})
        assert default_code_id(spec.build()) == "N128_K64_gen15"

    @pytest.mark.parametrize(
        "data",
        [
            {"kind": "mystery", "n": 4},
            {"kind": "generators", "n": 4},
            {"kind": "generators", "n": 4, "generators": []},
            {"kind": "generators", "n": 4, "generators": [16]},
            {"kind": "bhattacharyya_bec", "n": 4, "epsilon": 0.3},
            {"kind": "bhattacharyya_bec", "n": 4, "K": 4, "epsilon": 1.5},
            {"kind": "bhattacharyya_bec", "n": 4, "K": 0, "epsilon": 0.3},
            {"kind": "reed_muller", "n": 4},
            {"kind": "reed_muller", "n": 4, "r": 9},
            {"kind": "reed_muller", "r": 2},
            {"n": 4, "r": 2},
            {"kind": "reed_muller", "n": 4, "r": 2, "bogus": 1},
            {"kind": "reed_muller", "n": "four", "r": 2},
        ],
    )
    def test_rejected_specs(self, data):
        with pytest.raises(SpecError):
            ConstructionSpec.from_dict(data)

    @pytest.mark.parametrize(
        "valid, field, flag",
        [
            ({"kind": "reed_muller", "n": 4, "r": 1}, "n", True),
            ({"kind": "reed_muller", "n": 4, "r": 1}, "r", False),
            ({"kind": "bhattacharyya_bec", "n": 4, "K": 1, "epsilon": 0.3}, "K", True),
            ({"kind": "bhattacharyya_bec", "n": 4, "K": 1, "epsilon": 0}, "epsilon", True),
            ({"kind": "generators", "n": 4, "generators": [1]}, "generators", [True]),
        ],
    )
    def test_boolean_fields_rejected(self, valid, field, flag):
        # JSON true and false load as Python bools, which are ints; the
        # same spec with the integer it stands for must stay valid.
        ConstructionSpec.from_dict(valid)
        with pytest.raises(SpecError, match=field):
            ConstructionSpec.from_dict({**valid, field: flag})

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kind": "reed_muller", "r": True}, r"'r' must be an int in 0\.\.4, got True$"),
            ({"kind": "reed_muller", "r": 1.5}, r"'r' must be an int in 0\.\.4, got 1\.5$"),
            ({"kind": "bhattacharyya_bec", "epsilon": True, "dimension": 1}, EPSILON_NOT_REAL),
            ({"kind": "bhattacharyya_bec", "epsilon": "0.3", "dimension": 1}, EPSILON_NOT_REAL),
            ({"kind": "bhattacharyya_bec", "epsilon": 0.3, "dimension": True}, "'K'"),
            ({"kind": "bhattacharyya_bec", "epsilon": True, "dimension": True}, EPSILON_NOT_REAL),
            # Fields the kind does not use are checked too.
            ({"kind": "generators", "generators": (1,), "r": True}, "'r'"),
            ({"kind": "reed_muller", "r": 1, "epsilon": "0.3"}, EPSILON_NOT_REAL),
        ],
    )
    def test_direct_construction_checks_types(self, fields, message):
        # The checks live in __post_init__, so building a spec without
        # from_dict meets the same SpecError, not a TypeError or a code.
        with pytest.raises(SpecError, match=message):
            ConstructionSpec(n=4, **fields)

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "reed_muller", "r": 1},
            {"kind": "bhattacharyya_bec", "epsilon": 0.3, "dimension": 5},
            {"kind": "generators", "generators": [3, 12]},
        ],
    )
    def test_numpy_ints_are_ints(self, fields):
        # run_bler takes numpy ints as the ints they equal; so does a spec,
        # which keeps the plain ints (its n raised SpecError before).
        def as_numpy(key, value):
            if key == "generators":
                return [np.int64(row) for row in value]
            return np.int64(value) if key in ("r", "dimension") else value

        plain = ConstructionSpec(n=4, **fields)
        numpy = ConstructionSpec(n=np.int64(4), **{k: as_numpy(k, v) for k, v in fields.items()})
        assert numpy == plain and numpy.build() == plain.build()
        for name in ("n", "r", "dimension"):
            assert type(getattr(numpy, name)) is type(getattr(plain, name))
        assert all(type(row) is int for row in numpy.generators or ())

    @pytest.mark.parametrize(
        "data, message",
        [
            ([{"kind": "reed_muller", "n": 4, "r": 1}], "JSON object"),
            ("reed_muller", "JSON object"),
            ({"kind": "generators", "n": 4, "generators": 3}, "'generators' must be a list"),
            ({"kind": "generators", "n": 4, "generators": {"3": 1}}, "'generators' must be a list"),
        ],
    )
    def test_from_dict_checks_shapes(self, data, message):
        with pytest.raises(SpecError, match=message):
            ConstructionSpec.from_dict(data)
        with pytest.raises(SpecError, match=message):
            ConstructionSpec.from_json(json.dumps(data))

    def test_invalid_json_text(self):
        with pytest.raises(SpecError):
            ConstructionSpec.from_json("{not json")

    def test_spec_error_is_value_error(self):
        assert issubclass(SpecError, ValueError)
