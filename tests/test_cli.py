import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from diqkd import cli
from diqkd.cli import main
from helpers import reference_verify_squash_doc


def run_cli(*argv):
    return main(list(argv))


class TestRateCurve:
    def test_writes_csv_with_config_header(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = run_cli(
            "rate-curve", "--p-min", "0", "--p-max", "0.08", "--steps", "81", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header_rows = [ln for ln in lines if ln.startswith("#")]
        assert any("p_min = 0" in ln for ln in header_rows)
        assert any("qber_threshold" in ln for ln in header_rows)
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "p,rate_device_independent,rate_device_dependent"
        assert len(data) == 82

    def test_noiseless_row_and_sign_change(self, tmp_path):
        out = tmp_path / "rates.csv"
        run_cli("rate-curve", "--p-min", "0", "--p-max", "0.08", "--steps", "81", "--out", str(out))
        rows = [
            ln.split(",")
            for ln in out.read_text().splitlines()
            if not ln.startswith("#") and not ln.startswith("p,")
        ]
        ps = np.array([float(r[0]) for r in rows])
        di = np.array([float(r[1]) for r in rows])
        assert di[0] == 1.0
        assert all(a > b for a, b in zip(di, di[1:]))
        crossings = np.flatnonzero(np.sign(di[:-1]) != np.sign(di[1:]))
        assert len(crossings) == 1
        assert abs(ps[crossings[0]] - 0.054) <= 0.0546 - 0.053  # sign change within a step of 5.4%

    def test_twelve_significant_digits(self, tmp_path):
        out = tmp_path / "rates.csv"
        run_cli("rate-curve", "--p-min", "0", "--p-max", "0.01", "--steps", "3", "--out", str(out))
        row = [ln for ln in out.read_text().splitlines() if ln.startswith("0.005")][0]
        value = row.split(",")[1]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 11

    def test_rejects_bad_range(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert run_cli("rate-curve", "--p-min", "0.2", "--p-max", "0.1", "--out", str(out)) == 2

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_cli("rate-curve", "--p-min", "0", "--p-max", "0.05", "--steps", "11", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()


class TestKeylength:
    def test_report_fields(self, tmp_path):
        out = tmp_path / "kl.json"
        code = run_cli(
            "keylength",
            "--n", "100000000", "--q", "0.0909090909", "--delta", "0.01", "--s0", "0.69",
            "--p-est", "0.01", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["l"] > 0
        assert doc["config"]["l_smp"] == doc["config"]["n"] // 100
        assert set(doc["components"]) == {
            "entropy_term", "sampling_cost", "syndrome_cost", "correctness_cost", "hashing_cost",
        }

    def test_vacuous_parameters_report_reason(self, tmp_path):
        out = tmp_path / "kl.json"
        run_cli(
            "keylength", "--n", "10000", "--q", "0.1", "--delta", "0.01", "--s0", "0.69",
            "--out", str(out),
        )
        doc = json.loads(out.read_text())
        assert doc["l"] == 0
        assert doc["reason"]

    def test_invalid_config_exit_code(self, tmp_path):
        out = tmp_path / "kl.json"
        assert run_cli(
            "keylength", "--n", "1000", "--q", "0.9", "--delta", "0.01", "--s0", "0.5",
            "--out", str(out),
        ) == 2


class TestVerifySquash:
    def test_small_grid_all_pass(self, tmp_path):
        out = tmp_path / "squash.json"
        code = run_cli("verify-squash", "--grid", "8", "--tol", "1e-9", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_pass"] is True
        assert len(doc["cells"]) == 64
        assert doc["worst"]["cond1_residual"] <= 1e-12
        assert doc["worst"]["cond2_min_eig"] >= -1e-9

    def test_impossible_tolerance_fails(self, tmp_path):
        out = tmp_path / "squash.json"
        code = run_cli("verify-squash", "--grid", "4", "--tol", "1e-30", "--out", str(out))
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["all_pass"] is False

    def test_grid_contains_corner_cases(self, tmp_path):
        out = tmp_path / "squash.json"
        run_cli("verify-squash", "--grid", "4", "--tol", "1e-9", "--out", str(out))
        doc = json.loads(out.read_text())
        angles = {(c["alpha_angle"], c["beta_angle"]) for c in doc["cells"]}
        assert (0.0, 0.0) in angles  # alpha = beta = 1
        three_half_pi = 3 * np.pi / 2
        assert any(abs(a - three_half_pi) < 1e-12 and abs(b - three_half_pi) < 1e-12 for a, b in angles)


    @pytest.mark.parametrize(
        "grid, tol",
        [(2, "1e-9"), (15, "1e-9"), (16, "1e-9"), (17, "1e-9"), (17, "1e-30"), (64, "1e-9")],
    )
    def test_blocked_grid_equals_per_row_reference(self, tmp_path, grid, tol):
        # blocks of whole rows (17: rows 0-14, then 15-16) give the per-row table bit for bit
        out = tmp_path / "squash.json"
        run_cli("verify-squash", "--grid", str(grid), "--tol", tol, "--out", str(out))
        doc = reference_verify_squash_doc(grid, float(tol))
        assert out.read_text() == json.dumps(doc, indent=2) + "\n"

    def test_readme_grid_memory_is_block_bounded(self, tmp_path):
        assert verify_squash_peak(tmp_path) < SQUASH_PEAK_BOUND

    def test_memory_bound_catches_a_whole_grid_call(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK", 64 * 64)
        assert verify_squash_peak(tmp_path) > SQUASH_PEAK_BOUND


# README verify-squash --grid 64 under tracemalloc: blocks of 256 cells peak
# near 1.2 MB, one stacked call over all 4096 cells near 11 MB.
SQUASH_PEAK_BOUND = 5e6


def verify_squash_peak(tmp_path) -> int:
    out = str(tmp_path / "squash.json")
    run_cli("verify-squash", "--grid", "2", "--out", out)  # first-call allocations
    tracemalloc.start()
    try:
        assert run_cli("verify-squash", "--grid", "64", "--tol", "1e-9", "--out", out) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


WRITER_DOCS = {
    "empty-dict": {},
    "nested-empty": {"a": {}, "b": [], "c": [[], {}], "d": [{}], "e": {"f": ()}},
    "non-finite": {"nan": float("nan"), "inf": [np.inf, -np.inf], "deep": [1, [-np.inf]]},
    "non-ascii": {
        "\u00e9": "\u00fcn\u00efc\u00f8d\u00e9 \u2713 \U0001d11e",
        "l\u00efst": ["\u2028", "t\tq\"\x00", {"k\u00e9y": [1]}],
    },
    "scalars": {"t": True, "f": False, "none": None, "int": -12, "big": 2**70, "neg0": -0.0},
    "tuples-and-numpy": {
        "t": (1, 2.5, (3, [4])),
        "np": np.float64(1e-300),
        "rows": [{"x": np.float64(0.5), "ok": False}] * 3,
    },
    "keys": {7: "i", 2.5: [1], False: "b", None: {"x": 1}, np.nan: [{}], "s": {3: [1], -1.5: 2}},
    # lists of rows, at the top level where the CLI puts its tables: the writer
    # leaves every list to json.dumps, and only a Table takes the block path
    "rows-int-bool-float-keys": {"cells": [{1: "a"}, {True: "b"}, {1.0: "c"}]},
    "rows-key-order": {"cells": [{"a": 1, "b": 2}, {"b": 3, "a": 4}]},
    "rows-fewer-keys": {"cells": [{"a": 1, "b": 2}, {"a": 3}]},
    "rows-across-a-block": {
        "cells": [{"i": i, "x": i / 7, "ok": i % 3 == 0, "s": str(i)} for i in range(300)]
    },
    "rows-scalars": {
        "cells": [
            {"neg0": -0.0, "nan": np.nan, "inf": np.inf, "-inf": -np.inf, "big": 2**70, "none": None}
            | {"b": b, "mixed": m, "text": "\u00e9\u2713 \U0001d11e\x00,\"%s\\"}
            for b, m in [(True, 1), (False, 2.5), (True, -3)]
        ]
    },
    "rows-percent-and-non-ascii-keys": {"cells": [{"%s %d": 1, "k\u00e9y": "v"}] * 3},
    "rows-np-float64": {"cells": [{"a": 1.0, "x": np.float64(0.1 * i)} for i in range(3)]},
    "rows-nested-list": {"cells": [{"a": 1, "b": [1, 2]}, {"a": 2, "b": [3]}]},
    "rows-empty-row": {"cells": [{"a": 1}, {}, {"a": 2}]},
    "rows-empty-first-row": {"cells": [{}, {"a": 1}]},
    "rows-tuple": {"cells": ({"a": 1}, {"a": 2})},
    "rows-between-items": {
        "n": 1,
        "cells": [{"a": 1, "b": "x"}] * 2,
        "runs": [{"c": None}],
        "z": {"d": [2.5]},
    },
}


@pytest.mark.parametrize("name", sorted(WRITER_DOCS))
def test_writer_matches_json_dump_indent_2(tmp_path, name):
    doc = WRITER_DOCS[name]
    out = tmp_path / "doc.json"
    cli._write_json(str(out), doc)
    with open(tmp_path / "ref.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    assert out.read_bytes() == (tmp_path / "ref.json").read_bytes()


# Tables, each written as json.dump writes its list of rows: (keys, rows)
TABLES = {
    "across-a-block": (("i", "x", "ok", "s"), [(i, i / 7, i % 3 == 0, str(i)) for i in range(300)]),
    "non-finite-and-neg0": (("nan", "inf", "-inf", "neg0"), [(np.nan, np.inf, -np.inf, -0.0)] * 3),
    "big-int-and-none": (("big", "none", "mixed"), [(2**70, None, 1), (-(2**70), None, 2.5)]),
    "strings": (("text",), [("\u00e9\u2713 \U0001d11e\x00,\"%s\\",), ('"',), ("%s %d %%",), ("\x00",)]),
    "percent-and-non-ascii-keys": (("%s %d", "k\u00e9y", "%"), [(1, "v", None)] * 3),
    "np-float64": (("a", "x"), [(1.0, np.float64(0.1 * i)) for i in range(3)]),
    "empty": (("seed", "s_est"), []),
}


def table_doc(keys, rows):
    """A document of two Tables of ``rows`` between other items, and its json.dump twin."""
    columns = [list(col) for col in zip(*rows)] if rows else [[] for _ in keys]
    items = {"n": 1, "z": {"d": [2.5]}}
    table = cli.Table(keys, columns)
    rows = [dict(zip(keys, row)) for row in rows]
    return (
        {"config": items, "cells": table, **items, "runs": table},
        {"config": items, "cells": rows, **items, "runs": rows},
    )


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_matches_json_dump_of_its_rows(tmp_path, name):
    doc, rows_doc = table_doc(*TABLES[name])
    out = tmp_path / "doc.json"
    cli._write_json(str(out), doc)
    with open(tmp_path / "ref.json", "w") as fh:
        json.dump(rows_doc, fh, indent=2)
        fh.write("\n")
    assert out.read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("cell", [np.int64(2), np.bool_(True)], ids=["int64", "bool_"])
def test_table_cell_that_is_not_json_raises_type_error(tmp_path, cell):
    doc, rows_doc = table_doc(("a", "b"), [(1, 2.0), (cell, 3.0)])
    with pytest.raises(TypeError):
        json.dumps(rows_doc, indent=2)
    with pytest.raises(TypeError):
        cli._write_json(str(tmp_path / "doc.json"), doc)


NOT_JSON = {
    "int64-leaf": {"a": np.int64(1)},
    "int64-beside-list": {"a": np.int64(1), "b": [1]},
    "bool-nested": {"a": [{"b": np.bool_(True)}]},
    "float32": {"cells": [np.float32(1.0)]},
    "array": {"a": np.zeros(2)},
    "set": {"cells": [[{1}]]},
    "tuple-key": {(1, 2): 3},
    "tuple-key-nested": {(1,): [1]},
    "top-int64": {"cells": np.int64(3)},
    "table-int64-cell": {"cells": [{"a": 1, "b": 2.0}, {"a": np.int64(2), "b": 3.0}]},
}


@pytest.mark.parametrize("name", sorted(NOT_JSON))
def test_writer_raises_type_error_where_json_dump_does(tmp_path, name):
    with pytest.raises(TypeError):
        json.dumps(NOT_JSON[name], indent=2)
    with pytest.raises(TypeError):
        cli._write_json(str(tmp_path / "doc.json"), NOT_JSON[name])


# The README jobs that write JSON; rate-curve writes CSV only, and the README
# simulate job, which writes CSV, is run here with --format json.
README_JSON_JOBS = {
    "keylength": (
        "keylength", "--n", "100000000", "--q", "0.0909", "--delta", "0.01", "--s0", "0.69",
        "--eps", "1e-9", "--eps-cor", "1e-9", "--p-est", "0.01",
    ),
    "verify-squash": ("verify-squash", "--grid", "64", "--tol", "1e-9"),
    "nogo": ("nogo", "--grid", "16"),
    "simulate": (
        "simulate", "--n", "46550", "--q", "0.3", "--delta", "0.05", "--s0", "0.0",
        "--strategy", "depolarizing", "--p", "0.05", "--runs", "100", "--seed", "1",
        "--format", "json",
    ),
    "bounds-check": (
        "bounds-check", "--n", "4410", "--q", "0.3", "--delta", "0.1", "--s0", "0.0",
        "--runs", "1000", "--trials", "2000", "--seed", "0",
    ),
}


@pytest.mark.parametrize("name", sorted(README_JSON_JOBS))
def test_readme_json_file_is_json_dump_of_its_content(tmp_path, name):
    # independent of the pinned digests: the writer lays out exactly what it wrote
    out = tmp_path / "out.json"
    assert run_cli(*README_JSON_JOBS[name], "--out", str(out)) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("name, table", [("verify-squash", "cells"), ("nogo", "cells"),
                                         ("simulate", "runs")])
def test_readme_row_tables_bypass_the_indent_encoder(tmp_path, monkeypatch, name, table):
    # the pure-Python indent=2 encoder writes the same bytes about ten times slower,
    # so only a spy can tell that a table took the block path
    reached = []
    iterencode = json.JSONEncoder.iterencode

    def spy(self, o, *args, **kwargs):
        if self.indent is not None and isinstance(o, dict):
            reached.extend(k for k, v in o.items() if isinstance(v, list) and v)
        return iterencode(self, o, *args, **kwargs)

    monkeypatch.setattr(json.JSONEncoder, "iterencode", spy)
    out = tmp_path / "out.json"
    assert run_cli(*README_JSON_JOBS[name], "--out", str(out)) == 0
    assert reached == []
    assert len(json.loads(out.read_text())[table]) > 1


class TestNogo:
    def test_grid_divisible_by_four_finds_witnesses(self, tmp_path):
        out = tmp_path / "nogo.json"
        code = run_cli("nogo", "--grid", "8", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        by_angle = {round(c["alpha_angle"], 9): c["status"] for c in doc["cells"]}
        feasible = [a for a, s in by_angle.items() if s == "feasible"]
        assert sorted(feasible) == [round(np.pi / 2, 9), round(3 * np.pi / 2, 9)]
        assert sum(s == "infeasible" for s in by_angle.values()) == 6
        assert doc["inconclusive_cells"] == 0


class TestSimulate:
    def test_csv_summary(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run_cli(
            "simulate", "--n", "2000", "--q", "0.3", "--delta", "0.25", "--s0", "0.0",
            "--strategy", "depolarizing", "--p", "0.05", "--runs", "5", "--seed", "3",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert any("mean_s_est" in ln for ln in lines)
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0].startswith("seed,s_est,sifted_qber")
        assert len(data) == 6

    def test_json_format_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code = run_cli(
                "simulate", "--n", "2000", "--q", "0.3", "--delta", "0.25", "--s0", "0.0",
                "--format", "json", "--runs", "3", "--seed", "17", "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert len(doc["runs"]) == 3
        assert all(r["keys_match"] for r in doc["runs"])

    def test_misaligned_strategy(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run_cli(
            "simulate", "--n", "2000", "--q", "0.3", "--delta", "0.25", "--s0", "0.0",
            "--strategy", "misaligned", "--alpha-angle", "0", "--beta-angle", "0",
            "--runs", "5", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        lines = [ln for ln in out.read_text().splitlines() if "mean_s_est" in ln]
        mean_s = float(lines[0].split("=")[1])
        assert abs(mean_s - 0.5) < 0.1


class TestBoundsCheck:
    def test_report_within_bounds(self, tmp_path):
        out = tmp_path / "bounds.json"
        code = run_cli(
            "bounds-check", "--n", "4410", "--q", "0.3", "--delta", "0.1", "--s0", "0.0",
            "--runs", "150", "--trials", "300", "--batch", "1000", "--deviation", "0.1",
            "--seed", "0", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["chernoff"]["within_corrected_bound"]
        assert doc["azuma"]["within_bound"]
        assert doc["chernoff"]["nominal_bound"] > 1.0

    @pytest.mark.parametrize("flag", ["--runs", "--batch"])
    def test_zero_runs_or_batch_rejected(self, tmp_path, flag):
        argv = ["bounds-check", "--n", "4410", "--q", "0.3", "--delta", "0.1", "--s0", "0.0"]
        argv += ["--runs", "2", "--trials", "5", "--batch", "100", flag, "0"]
        assert run_cli(*argv, "--out", str(tmp_path / "bounds.json")) == 2
        assert not (tmp_path / "bounds.json").exists()

    @pytest.mark.parametrize(
        "flag, prefix",
        [
            pytest.param("--trials=0", "error: trials ", id="--trials=0"),
            pytest.param("--batch=0", "error: batch", id="--batch=0"),
            pytest.param("--deviation=-0.5", "error: deviation ", id="--deviation=-0.5"),
        ],
    )
    def test_noise_arguments_checked_before_the_runs(
        self, tmp_path, monkeypatch, capsys, flag, prefix
    ):
        def label_stage(*args, **kwargs):
            raise AssertionError("labels were drawn before the noise arguments were checked")

        monkeypatch.setattr(cli, "label_stage", label_stage)
        out = tmp_path / "bounds.json"
        argv = ["bounds-check", "--n", "4410", "--q", "0.3", "--delta", "0.1", "--s0", "0.0"]
        assert run_cli(*argv, flag, "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(prefix)
        assert not out.exists()

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_simulate_runs_below_one_rejected(self, tmp_path, capsys, runs):
        argv = ["simulate", "--n", "2000", "--q", "0.3", "--delta", "0.25", "--s0", "0.0"]
        assert run_cli(*argv, f"--runs={runs}", "--out", str(tmp_path / "sim.csv")) == 2
        assert capsys.readouterr().err.startswith("error: runs ")
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize("sub", ["simulate", "bounds-check"])
    def test_negative_seed_rejected(self, tmp_path, capsys, sub):
        argv = [sub, "--n", "2000", "--q", "0.3", "--delta", "0.25", "--s0", "0.0", "--runs", "1"]
        assert run_cli(*argv, "--seed=-1", "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith("error: seed ")
        assert not (tmp_path / "out").exists()


class TestConfigFile:
    def test_config_provides_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_min": 0.0, "p_max": 0.05, "steps": 11}))
        out = tmp_path / "rates.csv"
        assert run_cli("rate-curve", "--config", str(cfg), "--out", str(out)) == 0
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(data) == 12

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_min": 0.0, "p_max": 0.05, "steps": 11}))
        out = tmp_path / "rates.csv"
        assert run_cli("rate-curve", "--config", str(cfg), "--steps", "5", "--out", str(out)) == 0
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(data) == 6

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out.json"
        # a config file may not name another one, even one that does not exist
        cases = [
            ("rate-curve", {"frobnicate": 1}, "frobnicate"),
            ("nogo", {"config": str(tmp_path / "missing.json"), "grid": 3}, "config"),
        ]
        for sub, doc, key in cases:
            cfg.write_text(json.dumps(doc))
            assert run_cli(sub, "--config", str(cfg), "--out", str(out)) == 2
            assert capsys.readouterr().err == f"error: unknown config keys: {key}\n"
            assert not out.exists()

    @pytest.mark.parametrize("text", ["[1]", '["steps"]', "null"])
    def test_non_object_config_rejected(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "rates.csv"
        assert run_cli("rate-curve", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_config_file_rejected(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert run_cli("rate-curve", "--config", str(tmp_path / "nope.json"), "--out", str(out)) == 2

    def test_params_from_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"n": 100_000_000, "q": 0.0909, "delta": 0.01, "s0": 0.69, "p_est": 0.01})
        )
        out = tmp_path / "kl.json"
        assert run_cli("keylength", "--config", str(cfg), "--out", str(out)) == 0
        assert json.loads(out.read_text())["l"] > 0

    def test_missing_required_params_reported(self, tmp_path):
        out = tmp_path / "kl.json"
        assert run_cli("keylength", "--out", str(out)) == 2

    @pytest.mark.parametrize(
        "argv, doc, flags",
        [
            (("keylength", "--n", "100000000", "--q", "0.0909", "--delta", "0.01"),
             {"s0": 0}, ["--s0", "0"]),
            (("verify-squash", "--grid", "2"), {"tol": 0}, ["--tol", "0"]),
        ],
        ids=["keylength-s0", "verify-squash-tol"],
    )
    def test_config_value_written_as_its_flag(self, tmp_path, argv, doc, flags):
        # the config's int 0 for a number flag must reach the file as the flag's 0.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        by_config, by_flag = tmp_path / "config.json", tmp_path / "flag.json"
        code = run_cli(*argv, "--config", str(cfg), "--out", str(by_config))
        assert run_cli(*argv, *flags, "--out", str(by_flag)) == code
        assert by_config.read_bytes() == by_flag.read_bytes()

    def test_config_string_starting_with_dash_stays_a_value(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"steps": 3, "out": "-x.csv"}))
        assert run_cli("rate-curve", "--config", "cfg.json") == 0
        lines = (tmp_path / "-x.csv").read_text().splitlines()
        assert len([ln for ln in lines if not ln.startswith("#")]) == 1 + 3

    def test_parser_built_once_and_never_changed(self, tmp_path, monkeypatch):
        def build_parser():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "build_parser", build_parser)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 11}))
        out = tmp_path / "rates.csv"
        assert run_cli("rate-curve", "--config", str(cfg), "--out", str(out)) == 0
        assert "# steps = 11\n" in out.read_text()
        # a config value must not outlive its run as a default
        assert run_cli("rate-curve", "--out", str(out)) == 0
        data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(data) == 1 + 101


SIM_CONFIG = {"n": 1000, "q": 0.3, "delta": 0.05, "s0": 0.0, "runs": 1}
# argparse parses a config value's text, so a JSON string or bool of the wrong kind would pass
BAD_CONFIG_VALUES = {
    "simulate-n-fractional": ("simulate", {"n": 1000.5}, "n"),
    "keylength-n-fractional": ("keylength", {"n": 1000.5}, "n"),
    "simulate-n-bool": ("simulate", {"n": True}, "n"),
    "simulate-runs-fractional": ("simulate", {"runs": 2.5}, "runs"),
    "simulate-p-bool": ("simulate", {"p": False}, "p"),
    "simulate-p-string": ("simulate", {"p": "0.05"}, "p"),
    "simulate-format-unknown": ("simulate", {"format": "xml"}, "format"),
    "simulate-strategy-unknown": ("simulate", {"strategy": "ideal"}, "strategy"),
    "simulate-seed-null": ("simulate", {"seed": None}, "seed"),
    "simulate-out-list": ("simulate", {"out": ["sim.csv"]}, "out"),
}


class TestConfigTypes:
    @pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
    def test_bad_value_rejected(self, tmp_path, capsys, case):
        sub, bad, name = BAD_CONFIG_VALUES[case]
        cfg = tmp_path / "cfg.json"
        doc = SIM_CONFIG if sub == "simulate" else {k: SIM_CONFIG[k] for k in ("q", "delta", "s0")}
        cfg.write_text(json.dumps(doc | bad))
        out = tmp_path / "out"
        argv = [sub, "--config", str(cfg)]
        assert run_cli(*(argv if "out" in bad else argv + ["--out", str(out)])) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must be ")
        assert not out.exists()

    def test_int_accepted_for_float_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SIM_CONFIG | {"p": 0, "format": "json"}))
        out = tmp_path / "sim.json"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
        assert json.loads(out.read_text())["config"]["n"] == 1000


class TestParser:
    def test_unknown_subcommand_exit_two(self):
        assert run_cli("frobnicate") == 2

    def test_missing_required_flag_exit_two(self):
        assert run_cli("rate-curve") == 2


KEYLENGTH = ("keylength", "--n", "100000000", "--q", "0.0909", "--delta", "0.01", "--s0", "0.69")
HUGE = str(10**400)  # an integer that float() cannot convert
MISALIGNED = ("simulate", "--n", "1000", "--q", "0.3", "--delta", "0.05", "--s0", "0.0",
              "--runs", "1", "--strategy", "misaligned")
BOUNDS = (
    "bounds-check", "--n", "4410", "--q", "0.3", "--delta", "0.1", "--s0", "0.0",
    "--runs", "2", "--trials", "5", "--batch", "100",
)
NON_FINITE = {
    "rate-curve-f-ec-nan": (("rate-curve", "--f-ec", "nan"), "f_ec"),
    "rate-curve-f-ec-inf": (("rate-curve", "--f-ec", "inf"), "f_ec"),
    "keylength-f-ec-nan": (KEYLENGTH + ("--f-ec", "nan", "--l-syn", "0"), "f_ec"),
    "keylength-f-ec-inf": (KEYLENGTH + ("--f-ec", "inf", "--l-syn", "0"), "f_ec"),
    "keylength-f-ec-nan-syndrome": (KEYLENGTH + ("--f-ec", "nan"), "f_ec"),
    "keylength-s0-nan": (KEYLENGTH + ("--s0", "nan"), "s0"),
    "bounds-check-deviation-nan": (BOUNDS + ("--deviation", "nan"), "deviation"),
    "bounds-check-deviation-inf": (BOUNDS + ("--deviation", "inf"), "deviation"),
    # a negative deviation is finite but counts every gap as a tail event
    "bounds-check-deviation-negative": (BOUNDS + ("--deviation=-0.5",), "deviation"),
    # a batch whose counts a float64 cannot hold exactly
    "bounds-check-batch-huge": (BOUNDS + ("--batch", "99999999999999999999"), "batch"),
    # counts past 2**53, which would run until killed, stop before the first draw
    "bounds-check-runs-huge": (BOUNDS + ("--runs", str(10**20)), "runs"),
    "bounds-check-trials-huge": (BOUNDS + ("--trials", str(10**20)), "trials"),
    "simulate-runs-huge": (MISALIGNED + ("--runs", str(10**20)), "runs"),
    "bounds-check-p-out-of-range": (BOUNDS + ("--p", "0.7"), "p"),
    "simulate-p-nan": (MISALIGNED + ("--p", "nan"), "p"),
    "keylength-p-est-nan": (KEYLENGTH + ("--p-est", "nan"), "p_est"),
    "verify-squash-tol-nan": (("verify-squash", "--grid", "2", "--tol", "nan"), "tol"),
    "verify-squash-tol-inf": (("verify-squash", "--grid", "2", "--tol", "inf"), "tol"),
    # a negative tolerance is finite but would fail every cell for nothing
    "verify-squash-tol-negative": (("verify-squash", "--grid", "2", "--tol=-1e-9"), "tol"),
    # a count that overflows a float is a bad configuration, not an OverflowError
    "keylength-n-huge": (("keylength", "--n", HUGE) + KEYLENGTH[3:], "n"),
    "keylength-l-syn-huge": (KEYLENGTH + ("--l-syn", HUGE), "l_syn"),
    "simulate-n-huge": (("simulate", "--n", HUGE) + KEYLENGTH[3:], "n"),
    # n fits in a float, but a count derived from it does not
    "keylength-pulse-pairs-overflow": (
        ("keylength", "--n", str(10**308), "--q", "0.5", "--delta", "0.5", "--s0", "0.5",
         "--l-syn", "0"),
        "pulse_pairs",
    ),
    "keylength-syndrome-overflow": (
        ("keylength", "--n", str(10**300), "--q", "0.1", "--delta", "0.1", "--s0", "0.5",
         "--f-ec", "1e10"),
        "l_syn",
    ),
    # rejected before np.exp, whose RuntimeWarning the suite turns into an error
    "simulate-alpha-angle-inf": (MISALIGNED + ("--alpha-angle", "inf"), "alpha_angle"),
    "simulate-beta-angle-nan": (MISALIGNED + ("--beta-angle", "nan"), "beta_angle"),
}


class TestNonFiniteInputs:
    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_flag_rejected(self, tmp_path, capsys, case):
        argv, name = NON_FINITE[case]
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} ")
        assert not out.exists()

    # the infinity on the other side of each range was already rejected
    @pytest.mark.parametrize(
        "key, token",
        [(key, "NaN") for key in ("n", "s0", "f_ec", "l_syn")]
        + [("n", "Infinity"), ("s0", "-Infinity"), ("f_ec", "Infinity"), ("l_syn", "Infinity")],
    )
    def test_config_value_rejected(self, tmp_path, capsys, key, token):
        # json.load accepts these bare tokens, so the checks must sit in the library
        doc = {"n": 100000000, "q": 0.0909, "delta": 0.01, "s0": 0.69, "l_syn": 0}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc | {key: float(token)}))
        out = tmp_path / "kl.json"
        assert run_cli("keylength", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ")
        assert not out.exists()

    # p_est only sizes the syndrome budget when l_syn is not given
    @pytest.mark.parametrize(
        "argv, doc, key",
        [
            (("keylength",), {"n": 100000000, "q": 0.0909, "delta": 0.01, "s0": 0.69}, "p_est"),
            (("verify-squash", "--grid", "2"), {}, "tol"),
            (MISALIGNED, {}, "alpha_angle"),
        ],
    )
    def test_config_nan_rejected(self, tmp_path, capsys, argv, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc | {key: float("nan")}))
        out = tmp_path / "out.json"
        assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ")
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), -0.5])
    def test_config_deviation_rejected(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"deviation": value}))
        out = tmp_path / "out.json"
        assert run_cli(*BOUNDS, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: deviation ")
        assert not out.exists()


# a valid run of each subcommand and the name on ``cli`` of the call that starts its job
OUT_JOBS = {
    "rate-curve": (("rate-curve", "--steps", "2"), "asymptotic_rate"),
    "keylength": (KEYLENGTH, "finite_key_length"),
    "verify-squash": (("verify-squash", "--grid", "2"), "squash_channel"),
    "nogo": (("nogo", "--grid", "1"), "single_party_squash_feasibility"),
    "simulate": (
        ("simulate", "--n", "2000", "--q", "0.3", "--delta", "0.25", "--s0", "0.0", "--runs", "1"),
        "run_protocol",
    ),
    "bounds-check": (
        ("bounds-check", "--n", "2000", "--q", "0.3", "--delta", "0.25", "--s0", "0.0"),
        "label_stage",
    ),
}
BAD_OUTS = {
    "missing-dir": lambda tmp: ["--out", str(tmp / "missing" / "x.out")],
    "empty": lambda tmp: ["--out="],
    "directory": lambda tmp: ["--out", str(tmp)],
}


class TestOut:
    @pytest.mark.parametrize("sub", sorted(OUT_JOBS))
    @pytest.mark.parametrize("case", sorted(BAD_OUTS))
    def test_bad_out_rejected_before_the_job(self, tmp_path, monkeypatch, capsys, sub, case):
        argv, entry = OUT_JOBS[sub]

        def job(*args, **kwargs):
            raise AssertionError(f"{entry} ran before --out was checked")

        monkeypatch.setattr(cli, entry, job)
        # a relative write would land here, where the test can see it
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, *BAD_OUTS[case](tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestOutOfMemory:
    # exit 1 is kept for a failed verification; the library still raises
    @pytest.mark.parametrize("sub", ["simulate", "bounds-check"])
    @pytest.mark.parametrize("message", ["Unable to allocate 763. MiB for an array", ""])
    def test_memory_error_exits_two(self, tmp_path, monkeypatch, capsys, sub, message):
        def job(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, OUT_JOBS[sub][1], job)
        out = tmp_path / "x"
        argv = (sub, "--n", "4410", "--q", "0.3", "--delta", "0.1", "--s0", "0", "--out", str(out))
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message or 'MemoryError'}\n"
        assert captured.out == ""
        assert not out.exists()


class TestEntryPoint:
    # ``python -m diqkd`` goes through ``__main__.py`` and ``sys.exit(main())``
    @staticmethod
    def run_module(*argv):
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "diqkd", *argv],
            env=os.environ | {"PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_job_exits_zero(self, tmp_path):
        out = tmp_path / "nogo.json"
        proc = self.run_module("nogo", "--grid", "1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"wrote {out} (0 inconclusive cells)\n"
        assert json.loads(out.read_text())["config"] == {"subcommand": "nogo", "grid": 1}

    def test_bad_out_exits_two(self, tmp_path):
        proc = self.run_module("nogo", "--grid", "1", "--out", str(tmp_path / "missing" / "x"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

