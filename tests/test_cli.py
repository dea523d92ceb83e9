import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gamowkit
from gamowkit import (Arrow, DomainViolationError, Kind, ResonancePole, ResultTable, Scenario,
                      derive_table, evolution_table, lineshape, run_decay)
from gamowkit.cli import (ARROWS, KINDS, _attach_negative_values, _commands, _read, build_parser,
                          main)
from gamowkit.core import TimeHalf, canonical_time_domain
from gamowkit.grid import _BLOCK_ROWS
from gamowkit.scenarios import MAX_GRID_STEPS
from gamowkit.symmetry import MAX_TWICE_J


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


NO_INVERSE = "; semigroup evolution has no inverse across t=0"
TOO_NARROW = "is too narrow for the default window E_R +- 25*Gamma around --er"
# Every command line that the CLI itself rejects, as (argv, config-file bytes or None, message).
# "{cfg}" stands for the row's config file, which exists only where the row gives its bytes.
REJECTED = [
    # a grid outside its branch's half-domain names its first point outside, in grid order
    ("decay --tmin -1 --tmax 1 --steps 3", None,
     "t=-1.0 lies outside the t>=0 half-domain of branch 4b" + NO_INVERSE),
    ("decay --tmin=-1 --tmax 1 --steps 3", None,
     "t=-1.0 lies outside the t>=0 half-domain of branch 4b" + NO_INVERSE),
    ("decay --kind grow --tmin=-1 --tmax 2 --steps 4", None,
     "t=1.0 lies outside the t<=0 half-domain of branch 4a" + NO_INVERSE),
    ("evolve --kind grow --tmin=-3 --tmax 0.5 --steps 1100", None,
     "t=0.0031847133757962887 lies outside the t<=0 half-domain of branch 4a" + NO_INVERSE),
    # the half-domain over the whole grid before the phase, whose E_R * t overflows at -1e10
    ("evolve --er 1e300 --kind grow --tmin=-1e10 --tmax 1 --steps 1100", None,
     "t=1.0 lies outside the t<=0 half-domain of branch 4a" + NO_INVERSE),
    ("evolve --arrow exc --kind decay --regime 1 --tmin=-1e-320 --tmax 5 --steps 1100", None,
     "t=-1e-320 lies outside the t>=0 half-domain of branch 13" + NO_INVERSE),
    # a subnormal step overshoots t_max = 0 inside the grid, as np.linspace does
    ("decay --kind grow --tmin=-1.5e-323 --tmax 0 --steps 6", None,
     "t=5e-324 lies outside the t<=0 half-domain of branch 4a" + NO_INVERSE),
    ("decay --gamma -0.5", None, "resonance width must be positive, got -0.5"),
    ("decay --gamma inf", None, "resonance width must be finite, got inf"),
    ("decay --er nan", None, "resonance energy must be finite, got nan"),
    ("decay --tmax inf", None, "t_max must be finite, got inf"),
    ("evolve --kind grow --tmin nan", None, "t_min must be finite, got nan"),
    ("evolve --kind grow --tmax 0 --steps 3 --tmin -inf", None, "t_min must be finite, got -inf"),
    ("lineshape --emin=-inf --emax=inf", None, "emin must be finite, got -inf"),
    ("lineshape --emax nan", None, "emax must be finite, got nan"),
    # finite bounds whose span overflows float64 are caught before the grid is built
    ("lineshape --emin=-1e308 --emax=1e308 --steps 3", None, "emax - emin must be finite, got inf"),
    ("decay --tmin=-1e308 --tmax=1e308 --steps 3", None, "t_max - t_min must be finite, got inf"),
    ("decay --er=1e300 --tmax 1e10 --steps 5", None, "E_R * t must be finite, got inf"),
    ("decay --er=-1e300 --tmax 1e10 --steps 5", None, "E_R * t must be finite, got -inf"),
    ("evolve --er=1e300 --tmax 1e10 --steps 5", None, "E_R * t must be finite, got inf"),
    ("evolve --er=-1e300 --tmax 1e10 --steps 5", None, "E_R * t must be finite, got -inf"),
    ("decay --steps 1", None, "a scenario grid needs at least 2 steps, got 1"),
    ("lineshape --steps 1", None, "lineshape grid needs at least 2 steps, got 1"),
    # only cap + 1 is run: the check comes before anything is allocated
    (f"decay --steps {MAX_GRID_STEPS + 1}", None,
     f"a scenario grid allows at most {MAX_GRID_STEPS} steps, got {MAX_GRID_STEPS + 1}"),
    (f"lineshape --steps {MAX_GRID_STEPS + 1}", None,
     f"lineshape grid allows at most {MAX_GRID_STEPS} steps, got {MAX_GRID_STEPS + 1}"),
    (f"rep-check --row 4 --twice-j {MAX_TWICE_J + 1}", None,
     f"twice_j must be at most {MAX_TWICE_J}, got {MAX_TWICE_J + 1}"),
    ("lineshape --emin 2 --emax 1", None, "emax=1.0 must exceed emin=2.0"),
    ("lineshape --gamma 1e-20 --emin 1 --emax 1", None, "emax=1.0 must exceed emin=1.0"),
    # a bound left to its default needs the whole default window
    ("lineshape --gamma 1e307", None, "energy window E_R +- 25*Gamma must be finite, got -inf"),
    ("lineshape --gamma 1e307 --emin 0", None,
     "energy window E_R +- 25*Gamma must be finite, got -inf"),
    ("lineshape --gamma 7e306 --steps 3", None, "energy window span must be finite, got inf"),
    ("lineshape --gamma 1e-20", None, f"--gamma 1e-20 {TOO_NARROW} 1.0: it rounds to the single "
     "energy 1.0; give --emin and --emax"),
    ("lineshape --gamma 1e-200 --emin 2", None, f"--gamma 1e-200 {TOO_NARROW} 1.0: it rounds to "
     "the single energy 1.0; give --emin and --emax"),
    ("lineshape --er 1e20", None, f"--gamma 0.2 {TOO_NARROW} 1e+20: it rounds to the single energy "
     "1e+20; give --emin and --emax"),
    ("lineshape --gamma 1e-200 --emin 0 --emax 2 --steps 3", None, "resonance width 1e-200 is too "
     "small for a lineshape: (Gamma/2)^2 is below the smallest normal double"),
    ("lineshape --gamma 5e-324 --emin 0 --emax 2 --steps 3", None,
     "resonance width 5e-324 is too small: Gamma/2 rounds to 0"),
    ("rep-check --row 1 --twice-j 0 --gamma 5e-324", None,
     "resonance width 5e-324 is too small: Gamma/2 rounds to 0"),
    ("rep-check --row 1 --twice-j 0 --gamma 1e307", None,
     "energy window E_R +- 25*Gamma must be finite, got -inf"),
    ("rep-check --row 1 --twice-j 0 --gamma 7e306", None,
     "energy window span must be finite, got inf"),
    ("rep-check --row 2", None, "rep-check requires --row and --twice-j"),
    ("cross-id", None, "cross-id requires --branch 5a or --branch 5b"),
    ("decay --config {cfg}", b"volume=11\n", "unknown config keys: volume"),
    ("decay --config {cfg}", b"steps=plenty\n", "invalid value 'plenty' for option 'steps'"),
    ("decay --config {cfg}", b"kind = sideways\n",
     "option 'kind' must be one of ['decay', 'grow'], got 'sideways'"),
    ("table --config {cfg}", b"format = csv\n",
     "option 'format' must be one of ['json', 'text'], got 'csv'"),
    ("rep-check --config {cfg}", b"row = 5\n", "option 'row' must be one of [1, 2, 3, 4], got 5"),
    ("evolve --config {cfg}", b"regime = 2\n", "option 'regime' must be one of [0, 1], got 2"),
    ("cross-id --config {cfg}", b"branch = 4a\n",
     "option 'branch' must be one of ['5a', '5b'], got '4a'"),
    ("lineshape --config {cfg}", b"emin = low\n", "invalid value 'low' for option 'emin'"),
    # a config value is checked before the missing --row or --branch, and before a bad flag value
    ("rep-check --config {cfg}", b"format = csv\n",
     "option 'format' must be one of ['json'], got 'csv'"),
    ("cross-id --config {cfg}", b"format = csv\n",
     "option 'format' must be one of ['json'], got 'csv'"),
    ("decay --gamma -1 --config {cfg}", b"steps=plenty\n",
     "invalid value 'plenty' for option 'steps'"),
    ("decay --config {cfg}", b"steps 5\n", "{cfg}:1: expected key=value, got 'steps 5'"),
    ("decay --config {cfg}", b"=5\n", "{cfg}:1: expected key=value, got '=5'"),
    ("decay --config {cfg}", b"steps = 5\n\xff\n",
     "{cfg}: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"),
    ("decay --config {cfg}", None, "[Errno 2] No such file or directory: '{cfg}'"),
    # an empty path is a path that cannot be opened, not a missing option
    ("decay --config=", None, "[Errno 2] No such file or directory: ''"),
    ("decay --steps 3 --out=", None, "[Errno 2] No such file or directory: ''"),
]


@pytest.mark.parametrize("argv, config, message", REJECTED, ids=[row[0] for row in REJECTED])
def test_rejected_command_line(tmp_path, capsys, argv, config, message):
    # exit 2 with exactly one error line, to stdout and to --out alike; a warning fails the
    # run too (filterwarnings = error in pyproject.toml)
    path, target = tmp_path / "run.cfg", tmp_path / "out.txt"
    if config is not None:
        path.write_bytes(config)
    argv = [token.replace("{cfg}", str(path)) for token in argv.split()]
    sets_out = any(token.startswith("--out") for token in argv)
    for run in [argv] if sets_out else [argv, [*argv, "--out", str(target)]]:
        assert invoke(capsys, *run) == (2, "", f"error: {message.replace('{cfg}', str(path))}\n")
        assert not target.exists()


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


class TestOverflowingExponent:
    def test_decaying_modulus_underflows_to_zero_silently(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the command
            code, out, err = invoke(capsys, "decay", "--gamma", "1e300", "--tmax", "1e10",
                                    "--steps", "5")
        assert (code, err) == (0, "")
        assert out == ("t,survival,factor_real,factor_imag\n"
                       "0.0,1.0,1.0,0.0\n"
                       "2500000000.0,0.0,-0.0,0.0\n"
                       "5000000000.0,0.0,0.0,-0.0\n"
                       "7500000000.0,0.0,0.0,0.0\n"
                       "10000000000.0,0.0,0.0,0.0\n")


class TestEvolveCommand:
    def test_regime_one_branch(self, capsys):
        code, out, _ = invoke(capsys, "evolve", "--regime", "1", "--kind", "grow",
                              "--tmin", "-5", "--tmax", "0", "--steps", "6")
        assert code == 0
        table = ResultTable.from_csv(out)
        assert table.columns == ("t", "factor_real", "factor_imag")
        assert len(table.rows) == 6


class TestNegativeValueAfterSpace:
    GROW = ("evolve", "--kind", "grow", "--tmax", "0", "--steps", "3")

    @pytest.mark.parametrize("value", ["-1e3", "-1E+3", "-.5e1", "-1000"])
    def test_same_bytes_as_equals_form(self, capsys, value):
        spaced = invoke(capsys, *self.GROW, "--tmin", value)
        assert spaced == invoke(capsys, *self.GROW, f"--tmin={value}")
        assert spaced[0] == 0 and len(spaced[1].splitlines()) == 4

    @pytest.mark.parametrize("argv, code, message", [
        (("--tmin", "--tmax", "0"), 2, "argument --tmin: expected one argument"),
        (("--help", "-1e3"), 0, ""),
        (("--", "-1e3"), 2, "unrecognized arguments: -- -1e3"),
    ])
    def test_other_tokens_left_alone(self, capsys, argv, code, message):
        with pytest.raises(SystemExit) as excinfo:
            main(["evolve", *argv])
        assert excinfo.value.code == code and message in capsys.readouterr().err

    def test_console_arguments(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "gamowkit", *self.GROW, "--tmin", "-1e3"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == invoke(
            capsys, *self.GROW, "--tmin=-1e3")


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

    def test_narrow_width_with_both_bounds_given_or_one_inside_the_window(self, capsys):
        code, out, _ = invoke(capsys, "lineshape", "--gamma", "1e-20", "--emin", "0", "--steps", "3")
        assert code == 0 and len(ResultTable.from_csv(out).rows) == 3

    @pytest.mark.parametrize("argv", [
        ("--gamma", "1e308", "--emin", "0", "--emax", "1", "--steps", "3"),
        ("--emin", "0", "--emax", "1e300", "--steps", "3"),
    ])
    def test_overflowing_density_is_zero(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            code, out, err = invoke(capsys, "lineshape", *argv)
        assert code == 0 and err == ""
        densities = [density for _, density in ResultTable.from_csv(out).rows]
        assert all(math.isfinite(d) and d >= 0.0 for d in densities)


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

    def test_spin_cap_at_its_values(self, capsys):
        assert MAX_TWICE_J == 65535
        code, out, err = invoke(capsys, "rep-check", "--row", "4", "--twice-j", "65535")
        assert code == 0 and not err
        assert json.loads(out)["all_passed"] is True

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

    def test_branch_choices_are_the_identified_branches(self, capsys):
        with pytest.raises(SystemExit):
            main(["cross-id", "--help"])
        assert "--branch {5a,5b}" in capsys.readouterr().out

    def test_unknown_branch_rejected_by_parser(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cross-id", "--branch", "4a"])
        assert excinfo.value.code == 2


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

    def test_config_may_start_with_a_byte_order_mark(self, tmp_path, capsys):
        config = tmp_path / "bom.cfg"
        config.write_bytes(b"\xef\xbb\xbfsteps = 3\ntmax = 4\n")  # as some editors save UTF-8
        from_config = invoke(capsys, "decay", "--config", str(config))
        assert from_config == invoke(capsys, "decay", "--steps", "3", "--tmax", "4")
        assert from_config[0] == 0 and len(from_config[1].splitlines()) == 4

    @pytest.mark.parametrize("key", ["volume", "command", "config", "handler"])
    def test_unknown_config_key_rejected_before_the_command_runs(
            self, tmp_path, capsys, monkeypatch, key):
        import gamowkit.cli as cli_module

        def never(_):
            pytest.fail("the command ran despite an unknown config key")

        monkeypatch.setattr(cli_module, "_cmd_time_table", never)
        config = tmp_path / "bad.cfg"
        config.write_text(f"steps=plenty\n{key}=11\n")  # the unknown key is reported first
        assert invoke(capsys, "decay", "--config", str(config)) == (
            2, "", f"error: unknown config keys: {key}\n")

    @pytest.mark.parametrize("command, steps",
                             [("decay", 101), ("evolve", 101), ("lineshape", 201)])
    def test_default_steps_shown_in_help(self, capsys, command, steps):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"grid points (default {steps})" in " ".join(capsys.readouterr().out.split())
        code, out, _ = invoke(capsys, command)
        assert code == 0 and len(out.splitlines()) == 1 + steps


class TestStreamedOutput:
    # The CLI computes its grid from Python floats, the library from numpy arrays: the
    # bytes must agree on every branch, at block boundaries, on one-point spans and on
    # subnormal ones.
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(energy=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3),
           arrow=st.sampled_from(sorted(ARROWS)), kind=st.sampled_from(sorted(KINDS)),
           regime=st.sampled_from([0, 1]),
           steps=st.one_of(st.sampled_from([2, 3, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                            2 * _BLOCK_ROWS, 3 * _BLOCK_ROWS + 7]),
                           st.integers(2, 3 * _BLOCK_ROWS + 7)),
           bounds=st.lists(st.one_of(st.floats(0.0, 1e3), st.floats(0.0, 1e-300),
                                     st.integers(0, 40).map(lambda k: k * 5e-324)),
                           min_size=1, max_size=2).map(sorted))
    @example(energy=0.0, width=1.0, arrow="exc", kind="grow", regime=0, steps=7,
             bounds=[0.0, 2e-323])  # np.linspace(-2e-323, -0.0, 7) holds 5e-324
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["decay", "evolve", "lineshape"])
    def test_stdout_and_out_file_agree(self, tmp_path, capsys, command, fmt, energy, width,
                                       arrow, kind, regime, steps, bounds):
        pole = ResonancePole(energy, width)
        low, high = bounds[0], bounds[-1]  # one bound drawn: a one-point span
        if command == "lineshape":
            high = max(high, math.nextafter(low, math.inf))  # an energy grid spans two values
            grid = ("--emin", repr(low), "--emax", repr(high))
            table = lineshape(pole, np.linspace(low, high, steps))
        else:
            if canonical_time_domain(KINDS[kind], regime).half is TimeHalf.NONPOS:
                low, high = -high, -low
            scenario = Scenario(pole, ARROWS[arrow], KINDS[kind], regime, low, high, steps)
            grid = ("--arrow", arrow, "--kind", kind, "--regime", str(regime),
                    f"--tmin={low!r}", f"--tmax={high!r}")
        argv = (command, "--er", repr(energy), "--gamma", repr(width), *grid,
                "--steps", str(steps), "--format", fmt)
        if command != "lineshape":
            try:
                table = (run_decay if command == "decay" else evolution_table)(scenario)
            except DomainViolationError as exc:  # a subnormal step overshoots t_max = -0.0
                assert invoke(capsys, *argv) == (2, "", f"error: {exc}\n")
                return
        code, out, err = invoke(capsys, *argv)
        assert code == 0 and not err
        assert out == (table.to_csv() if fmt == "csv" else table.to_json() + "\n")
        target = tmp_path / f"{command}.{fmt}"
        assert invoke(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv", [
        ("table", "--arrow", "exc"),
        ("table", "--format", "text"),
        ("cross-id", "--branch", "5a"),
        ("rep-check", "--row", "4", "--twice-j", "7"),
    ], ids=["table-json", "table-text", "cross-id", "rep-check"])
    def test_label_command_writes_the_same_bytes_to_out(self, tmp_path, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 0 and not err and out.endswith("\n")
        target = tmp_path / "out.txt"
        assert invoke(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv, line", [
        # (Gamma/2)^2 by pow(), as numpy's scalar ** 2; (Gamma/2) * (Gamma/2) gives ...953
        (("lineshape", "--er", "1.0", "--gamma", "2.759", "--emin", "0", "--emax", "2",
          "--steps", "3"), "1.0,0.23074294032895304"),
        (("lineshape", "--gamma", "1e200", "--steps", "3"), "0.0,0.0"),  # (Gamma/2)^2 = inf
        (("decay", "--gamma", "1e300", "--tmax", "1e10", "--steps", "3"),
         "5000000000.0,0.0,0.0,-0.0"),  # Gamma * t overflows: exp(-inf + i E_R t)
    ])
    def test_edge_grids_keep_their_bits(self, capsys, argv, line):
        code, out, err = invoke(capsys, *argv)
        assert code == 0 and not err and line in out.splitlines()


# Runs `gamowkit` in a fresh interpreter and reports the process's own peak
# resident set (VmHWM, KiB).  A child's ru_maxrss would not do: a fork of a
# large process counts the parent's pages.
_PEAK_RSS_CHILD = """
import sys
from gamowkit.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(line for line in status if line.startswith("VmHWM:")).split()[1]
print(code, peak, file=sys.stderr)
"""


def _peak_rss_kib(*argv) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gamowkit.__file__)))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True)
    code, peak = proc.stderr.split()[-2:]
    assert code == "0", proc.stderr
    return int(peak)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_output_memory_does_not_grow_with_steps(fmt):
    small = _peak_rss_kib("decay", "--steps", "2", "--format", fmt)
    large = _peak_rss_kib("decay", "--steps", "200001", "--format", fmt)
    # the grid's arrays take about 12 MiB at 200001 points; whole-text output took over 70
    assert (large - small) / 1024 < 32


# The CI gates on the console script, at its bounds: the largest grid and the spin cap.
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_largest_grid_streams_in_under_64_mib(tmp_path):
    target = tmp_path / "big.csv"
    peak = _peak_rss_kib("decay", "--steps", str(MAX_GRID_STEPS), "--format", "csv",
                         "--out", str(target))
    assert peak < 64 * 1024
    with open(target, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == MAX_GRID_STEPS + 1


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_spin_cap_checks_in_under_96_mib(tmp_path):
    target = tmp_path / "cap.json"
    peak = _peak_rss_kib("rep-check", "--row", "4", "--twice-j", str(MAX_TWICE_J),
                         "--out", str(target))
    assert peak < 96 * 1024
    assert json.loads(target.read_text(encoding="utf-8"))["all_passed"] is True


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_grid_holds_one_block_beyond_its_times(tmp_path, fmt):
    target = str(tmp_path / "decay.out")
    assert main(["decay", "--steps", "2", "--format", fmt, "--out", target]) == 0  # one-time setup
    peaks = {}
    tracemalloc.start()
    try:
        for steps in (20001, 200001):
            gc.collect()  # the peak then counts this run's allocations, not a cycle left over
            tracemalloc.reset_peak()
            assert main(["decay", "--steps", str(steps), "--format", fmt, "--out", target]) == 0
            peaks[steps] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The grid is never held: one block of rows and its text is, so the peak does not grow
    # with the step count.  The 200001 grid times alone, as Python floats, would take 6.4 MB.
    # Measured (Python 3.11): 214 KiB for CSV, whose header writer takes about 128 KiB, and
    # 121 KiB for JSON, with 200001 points at most 3 KiB above 20001.
    assert peaks[200001] < 320 * 1024
    assert peaks[200001] - peaks[20001] <= 16 * 1024


class TestExitCodes:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["warp"])
        assert excinfo.value.code == 2

    def test_internal_error_returns_one(self, capsys, monkeypatch):
        import gamowkit.cli as cli_module

        def boom(_):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_module, "_cmd_time_table", boom)
        code, _, err = invoke(capsys, "decay")
        assert code == 1 and "internal error" in err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gamowkit", "decay", "--steps", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "t,survival,factor_real,factor_imag"

    def test_closed_stdout_pipe_exits_141_without_an_error_line(self):
        # as `gamowkit decay --steps 200000 | head -c 10`: the rows overflow the pipe's buffer
        with subprocess.Popen([sys.executable, "-m", "gamowkit", "decay", "--steps", "200000"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b"t,survival"
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (141, b"")


COMMANDS = tuple(_commands())
FLAGS = sorted({option[0] for _, _, options in _commands().values() for option in options})
# Values of every kind a flag meets: valid ints, floats and choices, bad ones, and ones that
# look like flags.  No "nan": the reader and argparse give equal namespaces but nan != nan.
VALUES = ["0", "1", "3", "4", "5", "11", "0.5", "1e3", " 7", "1_0", "inf", "1e400", "-1", "-1000",
          "-1e3", "-.5", "-inf", "x", "1.5x", "", "-", "--", "-h", "--help", "--steps", "prep",
          "exc", "grow", "decay", "json", "csv", "text", "5a", "5b", "4a", "a=b", "out.csv"]
# Values each flag takes, by its choices, else its type.
BY_TYPE = {int: ["0", "3", "11", "-2"], float: ["0.5", "1e3", "-1.5", "inf"], None: ["a.txt"]}
GOOD = {flag: [str(c) for c in choices] if choices else BY_TYPE[type]
        for _, _, options in _commands().values() for flag, _, _, type, choices in options}


@st.composite
def command_lines(draw):
    """A command (now and then none), then mostly exact flags with good values, and tokens
    of every other shape: abbreviated, unknown and other commands' flags, flags repeated or
    alone, bad values, and stray values."""
    command = draw(st.sampled_from(COMMANDS * 4 + ("warp", "--help", "-h", "")))
    own = [option[0] for option in _commands()[command][2]] if command in COMMANDS else FLAGS
    good = st.sampled_from(own).flatmap(lambda f: st.sampled_from(GOOD[f]).flatmap(
        lambda v: st.sampled_from([[f, v], [f"{f}={v}"]])))
    flag = st.one_of(st.sampled_from(own), st.sampled_from(FLAGS),
                     st.sampled_from(own).flatmap(
                         lambda f: st.integers(3, len(f) - 1).map(lambda n: f[:n])),
                     st.sampled_from(["--nope", "--twice_j", "-s", "-h", "--help", "--", "x"]))
    other = st.tuples(flag, st.sampled_from(VALUES)).flatmap(lambda fv: st.sampled_from(
        [[fv[0], fv[1]], [f"{fv[0]}={fv[1]}"], [fv[0]], [fv[1]]]))
    argv = [command]
    for _ in range(draw(st.integers(0, 5))):
        argv += draw(st.one_of(good, good, good, good, other))
    return argv


def _argparse(argv):
    """``build_parser().parse_args(argv)``, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


class TestDirectReader:
    """A well-formed command line is read from the command table without argparse; the
    namespace is argparse's, key for key, in argparse's order."""

    @settings(max_examples=400, deadline=None)
    @given(argv=command_lines())
    @example(argv=["decay", "--ste", "5"])
    @example(argv=["decay", "--out=--"])
    @example(argv=["decay", "--out", "-"])
    @example(argv=["decay", "--steps"])
    @example(argv=["table", "--format=json", "--format", "text", "--arrow", "exc"])
    @example(argv=["rep-check", "--row", "5", "--twice-j", "0"])
    @example(argv=["evolve", "--kind", "grow", "--tmin", "-1e3", "--tmax", "0", "--steps", "3"])
    def test_reads_what_argparse_reads_or_declines(self, argv):
        argv = _attach_negative_values(argv)
        read, parsed = _read(argv), _argparse(argv)
        if read is not None:  # so argparse accepts argv, and gives the same namespace
            assert parsed is not None
            assert list(vars(read).items()) == list(vars(parsed).items())
            assert [type(v) for v in vars(read).values()] == [
                type(v) for v in vars(parsed).values()]

    @pytest.mark.parametrize("argv", [
        ("decay", "--steps", "11", "--steps=3"),
        ("evolve", "--kind", "grow", "--tmin=-1", "--tmax", "0", "--format", "json"),
        ("lineshape", "--er", "2", "--gamma", "0.5", "--emin", "0", "--out", "shape.csv"),
        ("table", "--arrow", "exc", "--format", "text"),
        ("cross-id", "--branch", "5b", "--config", "cli.cfg"),
        ("rep-check", "--row", "4", "--twice-j", "127", "--gamma", "1e-3"),
    ])
    def test_well_formed_lines_are_read_directly(self, argv):
        read = _read(list(argv))
        assert read is not None and list(vars(read).items()) == list(vars(_argparse(argv)).items())
