import json
import math
import subprocess
import sys
import warnings

import pytest

from gamowkit import Arrow, Kind, ResonancePole, ResultTable, Scenario, derive_table, run_decay
from gamowkit.cli import main


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecayCommand:
    def test_csv_matches_library(self, capsys):
        code, out, err = invoke(capsys, "decay", "--er", "1", "--gamma", "0.2",
                                "--tmin", "0", "--tmax", "10", "--steps", "11")
        assert code == 0 and not err
        table = ResultTable.from_csv(out)
        expected = run_decay(Scenario(ResonancePole(1.0, 0.2),
                                      Arrow.PREPARATION_REGISTRATION,
                                      Kind.DECAYING, 0, 0.0, 10.0, 11))
        assert table == expected
        assert table.rows[-1][1] == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_json_round_trips(self, capsys):
        code, out, _ = invoke(capsys, "decay", "--steps", "5", "--format", "json")
        assert code == 0
        table = ResultTable.from_json(out)
        assert table.columns == ("t", "survival", "factor_real", "factor_imag")
        assert ResultTable.from_json(table.to_json()) == table

    def test_growing_default_grid(self, capsys):
        code, out, _ = invoke(capsys, "decay", "--kind", "grow", "--steps", "3")
        assert code == 0
        table = ResultTable.from_csv(out)
        assert table.rows[0][0] == -10.0 and table.rows[-1][0] == 0.0

    def test_grid_outside_domain_is_validation_error(self, capsys):
        code, out, err = invoke(capsys, "decay", "--tmin", "-1", "--tmax", "1",
                                "--steps", "3")
        assert code == 2 and "half-domain" in err and not out

    def test_bad_width_is_validation_error(self, capsys):
        code, _, err = invoke(capsys, "decay", "--gamma", "-0.5")
        assert code == 2 and "width" in err

    def test_single_step_grid_rejected(self, capsys):
        code, _, err = invoke(capsys, "decay", "--steps", "1")
        assert code == 2 and "steps" in err

    @pytest.mark.parametrize("argv, message", [
        (("decay", "--gamma", "inf"), "resonance width must be finite, got inf"),
        (("decay", "--er", "nan"), "resonance energy must be finite, got nan"),
        (("decay", "--tmax", "inf"), "t_max must be finite, got inf"),
        (("evolve", "--kind", "grow", "--tmin", "nan"), "t_min must be finite, got nan"),
        (("lineshape", "--emin=-inf", "--emax=inf"), "emin must be finite, got -inf"),
        (("lineshape", "--emax", "nan"), "emax must be finite, got nan"),
    ])
    def test_nonfinite_value_is_validation_error(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the command
            code, out, err = invoke(capsys, *argv)
        assert code == 2 and not out
        assert err == f"error: {message}\n"


class TestEvolveCommand:
    def test_regime_one_branch(self, capsys):
        code, out, _ = invoke(capsys, "evolve", "--regime", "1", "--kind", "grow",
                              "--tmin", "-5", "--tmax", "0", "--steps", "6")
        assert code == 0
        table = ResultTable.from_csv(out)
        assert table.columns == ("t", "factor_real", "factor_imag")
        assert len(table.rows) == 6


class TestLineshapeCommand:
    def test_peak_present(self, capsys):
        code, out, _ = invoke(capsys, "lineshape", "--emin", "0.999", "--emax",
                              "1.001", "--steps", "3")
        assert code == 0
        table = ResultTable.from_csv(out)
        assert table.columns == ("energy", "density")
        assert table.rows[1][1] == pytest.approx(2.0 / (math.pi * 0.2), abs=1e-12)

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "lineshape", "--steps", "7", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 7

    def test_degenerate_window_rejected(self, capsys):
        code, _, err = invoke(capsys, "lineshape", "--emin", "2", "--emax", "1")
        assert code == 2 and "emax" in err


class TestTableCommand:
    def test_json_matches_derivation(self, capsys):
        code, out, _ = invoke(capsys, "table", "--arrow", "exc")
        assert code == 0
        assert json.loads(out) == derive_table(Arrow.EXCITATION_DEEXCITATION).to_dict()

    def test_text_format(self, capsys):
        code, out, _ = invoke(capsys, "table", "--arrow", "prep", "--format", "text")
        assert code == 0
        assert "<phi,r=0|Z_R*,r=0>" in out
        assert "-inf->0" in out
        assert len(out.splitlines()) == 6  # arrow line + header + 4 cells


class TestRepCheckCommand:
    def test_report_schema(self, capsys):
        code, out, _ = invoke(capsys, "rep-check", "--row", "4", "--twice-j", "1")
        assert code == 0
        report = json.loads(out)
        assert report["row"] == 4 and report["twice_j"] == 1
        assert report["all_passed"] is True
        relation_names = {c["name"] for c in report["group_relations"]["checks"]}
        assert "time_reversal_squared" in relation_names
        assert report["conjugation_identities"]["all_passed"] is True

    def test_requires_row_and_spin(self, capsys):
        code, _, err = invoke(capsys, "rep-check", "--row", "2")
        assert code == 2 and "twice-j" in err

    def test_row_out_of_range_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["rep-check", "--row", "7", "--twice-j", "0"])
        assert excinfo.value.code == 2


class TestCrossIdCommand:
    def test_branch_5a(self, capsys):
        code, out, _ = invoke(capsys, "cross-id", "--branch", "5a")
        assert code == 0
        data = json.loads(out)
        assert data["regime"] == 1 and data["matches_factor_of"] is None

    def test_branch_5b(self, capsys):
        code, out, _ = invoke(capsys, "cross-id", "--branch", "5b")
        data = json.loads(out)
        assert code == 0 and data["matches_factor_of"] == "4b"

    def test_unknown_branch_rejected_by_parser(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cross-id", "--branch", "4a"])
        assert excinfo.value.code == 2

    def test_missing_branch(self, capsys):
        code, _, err = invoke(capsys, "cross-id")
        assert code == 2 and "branch" in err


class TestOutputAndConfig:
    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "decay.csv"
        code, out, _ = invoke(capsys, "decay", "--steps", "4", "--out", str(target))
        assert code == 0 and not out
        assert ResultTable.from_csv(target.read_text()).columns[0] == "t"

    def test_config_supplies_values(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(
            "# decay scenario\n"
            "er = 2.0\n"
            "gamma = 0.5\n"
            "kind = decay\n"
            "tmin = 0\n"
            "tmax = 4\n"
            "steps = 5\n")
        code, out, _ = invoke(capsys, "decay", "--config", str(config))
        assert code == 0
        table = ResultTable.from_csv(out)
        assert table.rows[-1][0] == 4.0
        assert table.rows[-1][1] == pytest.approx(math.exp(-0.5 * 4.0), abs=1e-12)

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text("steps=5\ntmax=4\n")
        code, out, _ = invoke(capsys, "decay", "--config", str(config), "--steps", "3")
        assert code == 0
        assert len(ResultTable.from_csv(out).rows) == 3

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("volume=11\n")
        code, _, err = invoke(capsys, "decay", "--config", str(config))
        assert code == 2 and "unknown config" in err

    def test_malformed_config_line(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("steps 5\n")
        code, _, err = invoke(capsys, "decay", "--config", str(config))
        assert code == 2 and "key=value" in err

    def test_missing_config_file(self, capsys):
        code, _, err = invoke(capsys, "decay", "--config", "/nonexistent/x.cfg")
        assert code == 2

    def test_bad_config_value_type(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("steps=plenty\n")
        code, _, err = invoke(capsys, "decay", "--config", str(config))
        assert code == 2 and "steps" in err


class TestExitCodes:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["warp"])
        assert excinfo.value.code == 2

    def test_internal_error_returns_one(self, capsys, monkeypatch):
        import gamowkit.cli as cli_module

        def boom(_):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(cli_module._COMMANDS, "decay", boom)
        code, _, err = invoke(capsys, "decay")
        assert code == 1 and "internal error" in err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gamowkit", "decay", "--steps", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "t,survival,factor_real,factor_imag"
