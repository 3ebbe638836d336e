import json

import numpy as np
import pytest

from diqkd.cli import main


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

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frobnicate": 1}))
        out = tmp_path / "rates.csv"
        assert run_cli("rate-curve", "--config", str(cfg), "--out", str(out)) == 2

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


SIM_CONFIG = {"n": 1000, "q": 0.3, "delta": 0.05, "s0": 0.0, "runs": 1}
# set_defaults stores config values past argparse's type and choices checks
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
    "keylength-p-est-nan": (KEYLENGTH + ("--p-est", "nan"), "p_est"),
    "verify-squash-tol-nan": (("verify-squash", "--grid", "2", "--tol", "nan"), "tol"),
    "verify-squash-tol-inf": (("verify-squash", "--grid", "2", "--tol", "inf"), "tol"),
    # a negative tolerance is finite but would fail every cell for nothing
    "verify-squash-tol-negative": (("verify-squash", "--grid", "2", "--tol=-1e-9"), "tol"),
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
