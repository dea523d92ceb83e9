"""numpy loads on the first numeric library call on an array: label algebra,
every CLI command, help and rejected inputs run without it, in a fresh
interpreter each.  None of them, and no import of a module, loads dataclasses
or the modules it brings (inspect, ast, dis, tokenize), and the label commands
and rep-check load no typing."""

import os
import subprocess
import sys

import numpy
import pytest

import gamowkit
import gamowkit.core

# The modules that `import dataclasses` loads, which no run needs.
_RECORD_MACHINERY = ("dataclasses", "inspect", "ast", "dis", "tokenize")
# Runs gamowkit.cli.main on its arguments with output swallowed, then prints the
# exit code, whether numpy was imported, and any of _RECORD_MACHINERY imported.
_CHILD = f"""
import contextlib, io, sys
from gamowkit.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # --help
        code = exc.code
print(code, "numpy" in sys.modules, *(m for m in {_RECORD_MACHINERY} if m in sys.modules))
"""

# Runs gamowkit.cli.main on its arguments with output swallowed, then prints the
# exit code and whether typing was imported.
_TYPING_CHILD = """
import contextlib, io, sys
from gamowkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "typing" in sys.modules)
"""


def _fresh(*args) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gamowkit.__file__)))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True)
    return proc.stdout.strip()


def test_import_does_not_load_numpy():
    assert _fresh("-c", "import gamowkit, sys; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("module", ["core", "evolution", "grid", "scenarios", "symmetry",
                                    "transform", "cli"])
def test_import_of_a_module_does_not_load_dataclasses(module):
    code = (f"import gamowkit.{module}, sys; "
            f"print([m for m in {_RECORD_MACHINERY} if m in sys.modules])")
    assert _fresh("-c", code) == "[]"


@pytest.mark.parametrize("argv, code", [
    *[(("table", "--arrow", arrow, "--format", fmt), 0)
      for arrow in ("prep", "exc") for fmt in ("json", "text")],
    (("cross-id", "--branch", "5a"), 0),
    (("cross-id", "--branch", "5b"), 0),
    (("--help",), 0),
    (("decay", "--config", "{config}"), 2),  # an unknown config key
    (("decay", "--steps", "1"), 2),
    (("decay", "--tmin", "-1", "--tmax", "1", "--steps", "3"), 2),  # crosses t = 0
    (("decay", "--kind", "grow", "--tmin", "-1", "--tmax", "2", "--steps", "4"), 2),
    (("evolve", "--er", "1e300", "--tmax", "1e10", "--steps", "3"), 2),  # E_R * t overflows
    (("lineshape", "--gamma", "1e-160", "--emin", "0", "--emax", "2"), 2),  # (Gamma/2)^2 < min
    (("rep-check", "--row", "4", "--twice-j", "65536"), 2),
    *[(("rep-check", "--row", row, "--twice-j", twice_j), 0)
      for row in ("1", "2", "3", "4") for twice_j in ("0", "1", "255")],
    (("rep-check", "--row", "1", "--twice-j", "0", "--gamma", "1e307"), 2),  # window overflows
])
def test_label_commands_and_rejections_do_not_load_numpy(tmp_path, argv, code):
    config = tmp_path / "bad.cfg"
    config.write_text("volume=11\n")
    argv = [a.format(config=config) for a in argv]
    assert _fresh("-c", _CHILD, *argv) == f"{code} False"


@pytest.mark.parametrize("argv", [
    ("table",), ("cross-id", "--branch", "5a"), ("rep-check", "--row", "4", "--twice-j", "7"),
], ids=["table", "cross-id", "rep-check"])
def test_label_commands_and_rep_check_do_not_load_typing(argv):
    # -S: no .pth file of site-packages imports typing before the command runs
    assert _fresh("-S", "-c", _TYPING_CHILD, *argv) == "0 False"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ("decay", "--steps", "1100"),  # three blocks
    ("evolve", "--kind", "grow", "--arrow", "exc", "--regime", "1", "--steps", "1100"),
    ("lineshape", "--steps", "1100"),
], ids=["decay", "evolve", "lineshape"])
def test_grid_commands_do_not_load_numpy(tmp_path, argv, fmt, to_file):
    out = ("--out", str(tmp_path / "grid.out")) if to_file else ()
    assert _fresh("-c", _CHILD, *argv, "--format", fmt, *out) == "0 False"


@pytest.mark.parametrize("call, loads", [
    ("gamowkit.resonance_s_matrix(gamowkit.ResonancePole(1.0, 0.2), 1.0)", False),
    ("gamowkit.resonance_s_matrix(gamowkit.ResonancePole(1.0, 0.2), [1.0])", True),
    ("gamowkit.Scenario(gamowkit.ResonancePole(1.0, 0.2), gamowkit.Arrow.PREPARATION_REGISTRATION,"
     " gamowkit.Kind.DECAYING, 0, 0.0, 10.0, 1100).checked_times()", False),
], ids=["float", "list", "scenario-check"])
def test_numeric_library_calls_load_numpy(call, loads):
    code = f"import gamowkit, sys; {call}; print('numpy' in sys.modules)"
    assert _fresh("-c", code) == str(loads)


def test_lazy_numpy_is_numpy():
    assert gamowkit.core.np.linspace is numpy.linspace
    assert gamowkit.core.np.float64 is numpy.float64
