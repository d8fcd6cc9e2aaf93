"""Command line surface: subcommand outputs, manifests, exit codes."""

import csv
import hashlib
import json
import multiprocessing
from decimal import Decimal

import numpy as np
import pytest

from conftest import numpy_umath
from polaraut import __version__, channel, cli
from polaraut.automorphisms import BlockStructure, blta_size, find_block_structure
from polaraut.channel import wilson_interval
from polaraut.cli import analysis_report, default_code_id, main, sci3
from polaraut.construction import bhattacharyya_bec_design, rm_code
from polaraut.monomials import minimal_generators, monomial_to_row
from polaraut.verify import from_lists, is_block_lower_triangular


def write_spec(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSci3:
    def test_table_strings(self):
        assert sci3(14091959496867840) == "1.41e16"
        assert sci3(20972799094947840) == "2.10e16"
        assert sci3(1775700541440) == "1.78e12"
        assert sci3(206158430208) == "2.06e11"
        assert sci3(2415919104) == "2.42e9"

    def test_small_values(self):
        assert sci3(1) == "1.00e0"
        assert sci3(999) == "9.99e2"
        assert sci3(1000) == "1.00e3"

    def test_decimal_input(self):
        assert sci3(Decimal("12345.6")) == "1.23e4"

    def test_zero(self):
        assert sci3(0) == "0.00e0"
        assert sci3(Decimal("0.0")) == "0.00e0"


class TestAnalysisReport:
    def test_fields(self):
        code = bhattacharyya_bec_design(0.285, 64, 7)
        report = analysis_report(code)
        assert report["s"] == [2, 2, 1, 1, 1]
        assert report["aut_size"] == "2415919104"
        assert report["aut_size_sci"] == "2.42e9"
        assert report["generators"] == [31, 45, 51, 71, 84, 97]


class TestAnalyze:
    def test_generators_256_128(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path, "spec.json", {"kind": "generators", "n": 8, "generators": [31, 99]}
        )
        assert main(["analyze", "--spec", spec]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["s"] == [5, 3]
        assert report["aut_size_sci"] == "1.41e16"

    def test_reed_muller_3_7(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "spec.json", {"kind": "reed_muller", "n": 7, "r": 3})
        assert main(["analyze", "--spec", spec]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["s"] == [7]
        assert report["aut_size_sci"] == "2.10e16"

    def test_generators_23_112(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path, "spec.json", {"kind": "generators", "n": 7, "generators": [23, 112]}
        )
        assert main(["analyze", "--spec", spec]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["s"] == [4, 3]
        assert report["aut_size_sci"] == "1.78e12"

    def test_out_file_and_manifest(self, tmp_path):
        spec = write_spec(tmp_path, "spec.json", {"kind": "reed_muller", "n": 4, "r": 1})
        out = tmp_path / "report.json"
        assert main(["analyze", "--spec", spec, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["s"] == [4]
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["version"] == __version__
        assert manifest["stream_version"] == 3
        assert manifest["config"]["spec"] == spec
        # float64 log, exp and log1p round by numpy's dispatch target.
        assert manifest["numpy"] == {
            "version": np.__version__,
            "cpu_dispatch": list(numpy_umath().__cpu_dispatch__),
        }

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "spec.json", {"kind": "mystery", "n": 4})
        assert main(["analyze", "--spec", spec]) == 2
        assert "error:" in capsys.readouterr().err

    def test_boolean_spec_field_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "spec.json", {"kind": "reed_muller", "n": True, "r": False})
        assert main(["analyze", "--spec", spec]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        path.write_text("{broken")
        assert main(["analyze", "--spec", str(path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_spec_that_cannot_be_read_exits_2(self, tmp_path, capsys, name):
        # A missing file, or a directory in place of the file.
        path = str(tmp_path / name)
        assert main(["analyze", "--spec", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read spec file {path}: ")

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, target):
        # A missing directory, or a directory in place of the file.
        spec = write_spec(tmp_path, "spec.json", {"kind": "reed_muller", "n": 4, "r": 1})
        out = str(tmp_path / target)
        assert main(["analyze", "--spec", spec, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_library_and_cli_agree(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path, "spec.json", {"kind": "generators", "n": 7, "generators": [27, 56]}
        )
        assert main(["analyze", "--spec", spec]) == 0
        cli_report = json.loads(capsys.readouterr().out)
        from polaraut.construction import ConstructionSpec

        lib_report = analysis_report(
            ConstructionSpec.from_dict(
                {"kind": "generators", "n": 7, "generators": [27, 56]}
            ).build()
        )
        assert cli_report == lib_report


class TestSweepEpsilon:
    def test_rows_are_internally_consistent(self, tmp_path):
        out = tmp_path / "sweep.csv"
        grid = "0.001,0.2,0.45"
        assert main(
            ["sweep-epsilon", "--n", "7", "--K", "64", "--grid", grid, "--out", str(out)]
        ) == 0
        rows = read_csv(str(out))
        assert [float(r["epsilon"]) for r in rows] == [0.001, 0.2, 0.45]
        for row in rows:
            code = bhattacharyya_bec_design(float(row["epsilon"]), 64, 7)
            structure = find_block_structure(code)
            assert int(row["aut_size"]) == blta_size(structure)
            assert row["aut_size_sci"] == sci3(blta_size(structure))
            assert [int(x) for x in row["s"].split()] == list(structure.sizes)
            gens = sorted(monomial_to_row(f, 7) for f in minimal_generators(code))
            assert [int(x) for x in row["i_min"].split()] == gens

    def test_smallest_epsilon_is_reed_muller(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            [
                "sweep-epsilon", "--n", "7", "--K", "64",
                "--grid", "0.0001,0.3", "--out", str(out),
            ]
        ) == 0
        first = read_csv(str(out))[0]
        rm = rm_code(3, 7)
        gens = sorted(monomial_to_row(f, 7) for f in minimal_generators(rm))
        assert [int(x) for x in first["i_min"].split()] == gens
        assert first["aut_size_sci"] == "2.10e16"

    def test_bad_grid_exits_2(self, capsys):
        assert main(["sweep-epsilon", "--n", "7", "--K", "64", "--grid", "0,0.5"]) == 2
        assert main(["sweep-epsilon", "--n", "7", "--K", "64", "--grid", "abc"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("grid", [",", " , ", ""])
    def test_empty_grid_exits_2(self, capsys, grid):
        # An empty list said "grid values must lie in (0, 1)".
        assert main(["sweep-epsilon", "--n", "7", "--K", "64", "--grid", grid]) == 2
        assert capsys.readouterr().err == "error: --grid needs at least one value\n"

    def test_default_grid_is_geometric(self):
        grid = cli._parse_grid(None)
        assert len(grid) == 25 and grid[0] == pytest.approx(1e-4) and grid[-1] == 0.5
        assert all(type(e) is float for e in grid)
        assert grid[1] / grid[0] == pytest.approx(grid[-1] / grid[-2])


class TestEnumerate:
    def test_census_rows_n4(self, tmp_path):
        out = tmp_path / "codes.csv"
        summary = tmp_path / "summary.csv"
        assert main(
            [
                "enumerate", "--n", "4", "--K", "8",
                "--out", str(out), "--summary-out", str(summary),
            ]
        ) == 0
        rows = read_csv(str(out))
        assert len(rows) == 3
        for row in rows:
            sizes = tuple(int(x) for x in row["s"].split())
            assert int(row["aut_size"]) == blta_size(BlockStructure(sizes))
        groups = read_csv(str(summary))
        assert sum(int(g["count"]) for g in groups) == 3
        for g in groups:
            assert int(g["aut_min"]) <= int(g["aut_max"])

    # sha256 prefixes of the n=7 census CSVs (per-code, summary) per K, as
    # written before the census ran on membership integers.
    CENSUS_N7 = {
        32: ("20e0ef377ef7fad8", "fdfd68f313398dca"),
        64: ("335c843276ca4cd3", "d0ad36f59c9d26a6"),
        96: ("ea3ccb6c9b47cdff", "6f211c2de0efc58b"),
    }

    @pytest.mark.parametrize("k", sorted(CENSUS_N7))
    def test_census_n7_is_pinned(self, tmp_path, k):
        out = tmp_path / "codes.csv"
        summary = tmp_path / "summary.csv"
        assert main(
            [
                "enumerate", "--n", "7", "--K", str(k),
                "--out", str(out), "--summary-out", str(summary),
            ]
        ) == 0
        digests = tuple(
            hashlib.sha256(path.read_bytes()).hexdigest()[:16] for path in (out, summary)
        )
        assert digests == self.CENSUS_N7[k]

    def test_group_size_once_per_structure_in_each_call(self, tmp_path, monkeypatch):
        # The size columns are memoised per call, not per process: a second
        # call sizes every structure again, so a span on blta_size sees calls.
        calls = []
        monkeypatch.setattr(cli, "blta_size", lambda s: calls.append(s.sizes) or blta_size(s))
        out = tmp_path / "codes.csv"
        for _ in range(2):
            calls.clear()
            assert main(["enumerate", "--n", "6", "--K", "24", "--out", str(out)]) == 0
            structures = {tuple(int(x) for x in row["s"].split()) for row in read_csv(str(out))}
            assert len(structures) > 1
            assert sorted(calls) == sorted(structures)

    def test_without_out_prints_both_csvs(self, tmp_path, capsys):
        out = tmp_path / "codes.csv"
        summary = tmp_path / "summary.csv"
        args = ["enumerate", "--n", "4", "--K", "8"]
        assert main(args + ["--out", str(out), "--summary-out", str(summary)]) == 0
        assert main(args) == 0
        assert capsys.readouterr().out == (out.read_bytes() + summary.read_bytes()).decode()

    def test_out_alone_builds_no_summary(self, tmp_path, capsys, monkeypatch):
        # The summary's averages are the only Decimals sci3 formats, so
        # they show whether the summary was built.
        averaged = []
        monkeypatch.setattr(
            cli, "sci3", lambda v: averaged.append(isinstance(v, Decimal)) or sci3(v)
        )
        args = ["enumerate", "--n", "5", "--K", "16", "--out", str(tmp_path / "codes.csv")]
        assert main(args) == 0
        assert not any(averaged) and capsys.readouterr().out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "codes.csv", "codes.csv.manifest.json",
        ]
        assert main(args + ["--summary-out", str(tmp_path / "summary.csv")]) == 0
        assert any(averaged)

    def test_capability_exit_3(self, capsys):
        assert main(["enumerate", "--n", "8", "--K", "128"]) == 3
        assert "error:" in capsys.readouterr().err


class TestSample:
    def test_schema_and_group_membership(self, tmp_path):
        spec = write_spec(
            tmp_path, "spec.json", {"kind": "generators", "n": 5, "generators": [19]}
        )
        out = tmp_path / "sample.json"
        assert main(
            ["sample", "--spec", spec, "--count", "12", "--seed", "9", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["count"] == 12
        assert len(doc["samples"]) == 12
        structure = BlockStructure(tuple(doc["s"]))
        for item in doc["samples"]:
            mat = from_lists(item["A"])
            assert is_block_lower_triangular(mat, structure)
            assert mat.is_invertible()
            assert len(item["b"]) == 5
            assert set(item["b"]) <= {0, 1}

    def test_deterministic_under_seed(self, tmp_path):
        spec = write_spec(tmp_path, "spec.json", {"kind": "reed_muller", "n": 4, "r": 2})
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(
                ["sample", "--spec", spec, "--count", "5", "--seed", "3", "--out", str(out)]
            ) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # numpy's "expected non-negative integer" named no option.
        spec = write_spec(tmp_path, "spec.json", {"kind": "reed_muller", "n": 4, "r": 2})
        out = tmp_path / "sample.json"
        assert main(["sample", "--spec", spec, "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed must be a non-negative int, got -1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


PINNED_SIMULATE_CSV = (
    "code_id,decoder,ebn0_db,frames,block_errors,bler,ci_lo,ci_hi,seed\n"
    "N32_K16_gen7,sc,2.0,256,26,0.1015625,0.07025498422463894,0.14465090136472736,21\n"
    "N32_K16_gen7,sc,4.0,500,3,0.006,0.0020425962719602363,0.01749025210405338,21\n"
    "N32_K16_gen7,scl-2,2.0,256,19,0.07421875,0.048026107191811204,0.11300077054584494,21\n"
    "N32_K16_gen7,scl-2,4.0,500,2,0.004,0.0010976305226827934,0.014465715215177033,21\n"
    "N32_K16_gen7,aut-2-sc,2.0,256,15,0.05859375,0.03582660763317509,0.09441226561778955,21\n"
    "N32_K16_gen7,aut-2-sc,4.0,500,2,0.004,0.0010976305226827934,0.014465715215177033,21\n"
)


class TestSimulate:
    def test_csv_and_manifest(self, tmp_path):
        spec = write_spec(
            tmp_path, "spec.json", {"kind": "generators", "n": 5, "generators": [7, 19]}
        )
        out = tmp_path / "bler.csv"
        assert main(
            [
                "simulate", "sc", "scl-2",
                "--spec", spec, "--ebn0", "2.0,4.0", "--seed", "21",
                "--target-errors", "10", "--max-frames", "500", "--out", str(out),
            ]
        ) == 0
        rows = read_csv(str(out))
        assert [(r["decoder"], float(r["ebn0_db"])) for r in rows] == [
            ("sc", 2.0), ("sc", 4.0), ("scl-2", 2.0), ("scl-2", 4.0),
        ]
        for row in rows:
            assert int(row["block_errors"]) <= int(row["frames"])
            assert float(row["ci_lo"]) <= float(row["bler"]) <= float(row["ci_hi"])
            assert int(row["seed"]) == 21
        manifest = json.loads((tmp_path / "bler.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["master_seed"] == 21

    def test_csv_columns(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "spec.json", {"kind": "reed_muller", "n": 4, "r": 1})
        assert main(
            [
                "simulate", "sc", "--spec", spec, "--ebn0", "1.5",
                "--seed", "3", "--target-errors", "7", "--max-frames", "300",
            ]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "code_id,decoder,ebn0_db,frames,block_errors,bler,ci_lo,ci_hi,seed"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == default_code_id(rm_code(1, 4)) == "N16_K5_gen7"
        assert cells[1] == "sc"
        assert float(cells[2]) == 1.5
        frames, errors = int(cells[3]), int(cells[4])
        assert 0 <= errors <= frames
        assert float(cells[5]) == errors / frames
        assert (float(cells[6]), float(cells[7])) == wilson_interval(errors, frames)
        assert int(cells[8]) == 3

    def test_pinned_csv_text(self, tmp_path):
        # The exact CSV of this run when the library still wrote it, before
        # the BLER format moved into the command line.
        spec = write_spec(
            tmp_path, "spec.json", {"kind": "generators", "n": 5, "generators": [7, 19]}
        )
        out = tmp_path / "bler.csv"
        assert main(
            [
                "simulate", "sc", "scl-2", "aut-2-sc",
                "--spec", spec, "--ebn0", "2.0,4.0", "--seed", "21",
                "--target-errors", "10", "--max-frames", "500", "--out", str(out),
            ]
        ) == 0
        assert out.read_text() == PINNED_SIMULATE_CSV

    def test_same_seed_same_csv(self, tmp_path):
        spec = write_spec(tmp_path, "spec.json", {"kind": "reed_muller", "n": 5, "r": 2})
        texts = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            assert main(
                [
                    "simulate", "sc", "--spec", spec, "--ebn0", "3.0",
                    "--seed", "8", "--target-errors", "15",
                    "--max-frames", "2000", "--out", str(out),
                ]
            ) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_min_sum_shares_one_run_with_exact(self, tmp_path, capsys):
        # Both check-node rules in one run, each labelled by its name; the
        # sc-min-sum row has the counts the run printed as "sc" when the
        # rule was the --kernel min_sum option.
        spec = write_spec(
            tmp_path, "spec.json", {"kind": "generators", "n": 5, "generators": [7, 19]}
        )
        assert main(
            ["simulate", "sc", "SC-MIN-SUM", "--spec", spec, "--ebn0", "2.0",
             "--seed", "0", "--max-frames", "64"]
        ) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [(r["decoder"], r["frames"], r["block_errors"]) for r in rows] == [
            ("sc", "64", "6"), ("sc-min-sum", "64", "5"),
        ]

    def test_bad_decoder_exits_2(self, tmp_path, capsys):
        # Decoder names follow the name grammar only: no bare scl or
        # aut-sc, no decoder flag beside the name, and the check-node rule
        # goes by the -min-sum suffix.
        spec = write_spec(tmp_path, "spec.json", {"kind": "reed_muller", "n": 4, "r": 1})
        for extra in (
            ["viterbi"], ["scl"], ["aut-sc"], ["sc-minsum"], ["sc", "--kernel", "min_sum"],
            ["scl-4", "--list-size", "4"], ["aut-4-sc", "--ensemble", "4"],
            ["aut-4-sc", "--fixed-ensemble"],
        ):
            try:
                status = main(["simulate", *extra, "--spec", spec, "--ebn0", "1.0"])
            except SystemExit as exc:  # argparse rejects unknown flags
                status = exc.code
            assert status == 2, extra
        capsys.readouterr()

    def test_ensemble_forms_share_one_run(self, tmp_path):
        spec = write_spec(
            tmp_path, "spec.json", {"kind": "generators", "n": 5, "generators": [7, 19]}
        )
        out = tmp_path / "bler.csv"
        assert main(
            [
                "simulate", "aut-4-sc", "AUT-04-SC-FIXED", "--spec", spec, "--ebn0", "2.0",
                "--seed", "4", "--target-errors", "10", "--max-frames", "500",
                "--out", str(out),
            ]
        ) == 0
        assert [r["decoder"] for r in read_csv(str(out))] == ["aut-4-sc", "aut-4-sc-fixed"]

    def test_missing_out_directory_exits_2_before_any_batch(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_batch(args):
            raise AssertionError("a batch ran before --out was checked")

        monkeypatch.setattr(channel, "_run_batch", no_batch)
        spec = write_spec(tmp_path, "spec.json", {"kind": "reed_muller", "n": 4, "r": 1})
        (tmp_path / "outdir").mkdir()
        for target in ("missing/bler.csv", "outdir"):
            out = str(tmp_path / target)
            assert main(["simulate", "sc", "--spec", spec, "--ebn0", "1.0", "--out", out]) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert not (tmp_path / "missing").exists()
        assert not any((tmp_path / "outdir").iterdir())

    def test_one_pool_serves_every_decoder(self, tmp_path, capsys, monkeypatch):
        # One run_bler call schedules every (decoder, SNR) point, so three
        # decoders at --workers 3 start the two worker processes once, not
        # once per decoder.
        started = []

        class Counted(channel._Process):
            def __init__(self):
                started.append(self)
                super().__init__()

        monkeypatch.setattr(channel, "_Process", Counted)
        spec = write_spec(
            tmp_path, "spec.json", {"kind": "generators", "n": 5, "generators": [7, 19]}
        )
        assert main(
            ["simulate", "sc", "scl-2", "aut-2-sc", "--spec", spec, "--ebn0", "1.0,2.0",
             "--seed", "3", "--max-frames", "512", "--workers", "3"]
        ) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["decoder"] for r in rows] == [
            "sc", "sc", "scl-2", "scl-2", "aut-2-sc", "aut-2-sc",
        ]
        assert len(started) == 2
        assert multiprocessing.active_children() == []

    def test_bad_name_anywhere_exits_2_before_any_batch(self, tmp_path, capsys, monkeypatch):
        def no_batch(args):
            raise AssertionError("a batch ran before every decoder name was checked")

        monkeypatch.setattr(channel, "_run_batch", no_batch)
        spec = write_spec(tmp_path, "spec.json", {"kind": "reed_muller", "n": 4, "r": 1})
        for names in (["turbo", "sc"], ["sc", "scl-4", "aut-sc"]):
            assert main(["simulate", *names, "--spec", spec, "--ebn0", "1.0"]) == 2
            assert capsys.readouterr().err.startswith("error: invalid decoder spec ")

    def test_bad_ebn0_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "spec.json", {"kind": "reed_muller", "n": 4, "r": 1})
        assert main(["simulate", "sc", "--spec", spec, "--ebn0", "two"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("ebn0", [",", " , ", ""])
    def test_empty_ebn0_list_exits_2(self, tmp_path, capsys, ebn0):
        spec = write_spec(tmp_path, "spec.json", {"kind": "reed_muller", "n": 4, "r": 1})
        assert main(["simulate", "sc", "--spec", spec, "--ebn0", ebn0]) == 2
        assert capsys.readouterr().err == "error: --ebn0 needs at least one value\n"


class TestOutputsCheckedFirst:
    """Every command refuses an --out or --summary-out that names a
    directory or a missing directory before it computes: it exits 2 and
    writes no file and no stdout row."""

    @staticmethod
    def commands(spec):
        return {
            "analyze": ["analyze", "--spec", spec],
            "sweep-epsilon": ["sweep-epsilon", "--n", "4", "--K", "8", "--grid", "0.1,0.3"],
            "enumerate": ["enumerate", "--n", "4", "--K", "8"],
            "sample": ["sample", "--spec", spec, "--count", "2"],
            "simulate": ["simulate", "sc", "--spec", spec, "--ebn0", "1.0",
                         "--max-frames", "256"],
        }

    @pytest.mark.parametrize("target", ["missing/out.txt", "outdir"])
    @pytest.mark.parametrize(
        "command", ["analyze", "sweep-epsilon", "enumerate", "sample", "simulate"]
    )
    def test_unwritable_out_exits_2_with_no_output(self, tmp_path, capsys, command, target):
        spec = write_spec(tmp_path, "spec.json", {"kind": "reed_muller", "n": 4, "r": 1})
        (tmp_path / "outdir").mkdir()
        out = str(tmp_path / target)
        assert main([*self.commands(spec)[command], "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "spec.json"]
        assert not any((tmp_path / "outdir").iterdir())

    @pytest.mark.parametrize("with_out", [True, False])
    @pytest.mark.parametrize("target", ["missing/summary.csv", "outdir"])
    def test_unwritable_summary_out_exits_2_with_no_output(
        self, tmp_path, capsys, target, with_out
    ):
        (tmp_path / "outdir").mkdir()
        summary = str(tmp_path / target)
        args = ["enumerate", "--n", "3", "--K", "2", "--summary-out", summary]
        if with_out:
            args += ["--out", str(tmp_path / "ok.csv")]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {summary}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir"]

    @pytest.mark.parametrize(
        "summary", ["x.csv", "./x.csv", "sub/../x.csv", "x.csv.manifest.json"]
    )
    def test_outputs_that_overwrite_each_other_exit_2_with_no_output(
        self, tmp_path, capsys, monkeypatch, summary
    ):
        # --out x.csv --summary-out x.csv exited 0, leaving x.csv and its
        # manifest holding the summary alone.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        args = ["enumerate", "--n", "3", "--K", "2", "--out", "x.csv", "--summary-out", summary]
        assert main(args) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write x.csv and {summary}: they would overwrite each other\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]

    def test_no_work_before_the_check(self, tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("a command computed before its outputs were checked")

        for name in ("enumerate_decreasing_codes", "bhattacharyya_bec_design",
                     "find_block_structure", "run_bler"):
            monkeypatch.setattr(cli, name, no_work)
        spec = write_spec(tmp_path, "spec.json", {"kind": "reed_muller", "n": 4, "r": 1})
        out = str(tmp_path / "missing" / "out.txt")
        for args in self.commands(spec).values():
            assert main([*args, "--out", out]) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


class TestIntegerOptions:
    """An integer option out of range exits 2 with a message naming the
    option as typed, before any work, writing no file and no manifest."""

    @pytest.mark.parametrize("command, option, value, message", [
        ("simulate", "--seed", "-1", "--seed must be a non-negative int, got -1"),
        ("simulate", "--workers", "0", "--workers must be a positive int, got 0"),
        ("simulate", "--max-frames", "0", "--max-frames must be a positive int, got 0"),
        ("simulate", "--target-errors", "0", "--target-errors must be a positive int, got 0"),
        ("sample", "--count", "0", "--count must be a positive int, got 0"),
        ("enumerate", "--K", "0", "--K must be an int in 1..16, got 0"),
        ("enumerate", "--K", "17", "--K must be an int in 1..16, got 17"),
        ("enumerate", "--n", "0", "--n must be an int in 1..16, got 0"),
        ("sweep-epsilon", "--K", "0", "--K must be an int in 1..16, got 0"),
        ("sweep-epsilon", "--K", "17", "--K must be an int in 1..16, got 17"),
        ("sweep-epsilon", "--n", "17", "--n must be an int in 1..16, got 17"),
    ])
    def test_names_the_option(self, tmp_path, capsys, monkeypatch, command, option, value,
                              message):
        def no_work(*args, **kwargs):
            raise AssertionError("a command computed before its options were checked")

        for name in ("enumerate_decreasing_codes", "bhattacharyya_bec_design",
                     "find_block_structure", "run_bler"):
            monkeypatch.setattr(cli, name, no_work)
        spec = write_spec(tmp_path, "spec.json", {"kind": "reed_muller", "n": 4, "r": 1})
        args = TestOutputsCheckedFirst.commands(spec)[command]
        out = str(tmp_path / "out.txt")
        assert main([*args, option, value, "--out", out]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


class TestParserReuse:
    @staticmethod
    def run_calls(tmp_path, capsys, fresh):
        """Per call of `enumerate --summary-out`, `enumerate` with both CSVs
        on stdout, `analyze` and a bad argument, in one process: the exit
        status, stdout, stderr and every file written so far, manifests
        without their timestamp.  With fresh, the parser is rebuilt for
        each call."""
        spec = write_spec(
            tmp_path, "spec.json", {"kind": "generators", "n": 7, "generators": [23, 112]}
        )
        out, summary = tmp_path / "codes.csv", tmp_path / "summary.csv"
        calls = [
            ["enumerate", "--n", "6", "--K", "24", "--out", str(out), "--summary-out", str(summary)],
            ["enumerate", "--n", "6", "--K", "24"],
            ["analyze", "--spec", spec],
            ["enumerate", "--n", "six", "--K", "24"],
        ]
        got = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
            std = capsys.readouterr()
            files = {}
            for path in sorted(tmp_path.iterdir()):
                if path.name.endswith(".manifest.json"):
                    manifest = json.loads(path.read_text())
                    del manifest["created_utc"]
                    files[path.name] = manifest
                else:
                    files[path.name] = path.read_bytes()
            got.append((status, std.out, std.err, files))
        return got

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        cli._build_parser.cache_clear()
        kept = self.run_calls(tmp_path, capsys, fresh=False)
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        assert self.run_calls(tmp_path, capsys, fresh=True) == kept
        assert [status for status, *_ in kept] == [0, 0, 0, 2]
        codes, summary = kept[0][3]["codes.csv"], kept[0][3]["summary.csv"]
        assert kept[1][1] == (codes + summary).decode()
        assert json.loads(kept[2][1])["s"] == [4, 3]
        assert "invalid int value: 'six'" in kept[3][2] and not kept[3][1]
