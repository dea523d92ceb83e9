"""What each run loads, in a fresh interpreter each.  Every CLI command, its
help and its rejected inputs load only the modules of the package that they
use, ``argparse`` only for help, ``csv`` and ``json`` only for that output, and never
numpy, ``typing`` or ``dataclasses`` (nor the ``inspect``, ``ast``, ``dis`` and
``tokenize`` it brings).  ``import gamowkit`` loads no module of the package,
each import loads what is asked for, and numpy loads on the first numeric call
on an array.  The package still exports every name: the first lookup of one
loads every module but ``cli`` and ``reader``."""

import ast
import json
import os
import subprocess
import sys

import numpy
import pytest

import gamowkit
import gamowkit.base
import gamowkit.cli
import gamowkit.core
import gamowkit.operators
import gamowkit.reader
import gamowkit.relations

# The modules that `import dataclasses` loads, which no run needs.
_RECORD_MACHINERY = ("dataclasses", "inspect", "ast", "dis", "tokenize")
# Runs gamowkit.cli.main on its arguments, or execs the statement after --exec, with
# output swallowed; then prints, as JSON, the exit code (None for a statement), the
# package's modules and which of numpy, argparse, csv, json, typing and _RECORD_MACHINERY
# are loaded, all read before the child imports json to print them.
_CHILD = f"""
import contextlib, io, sys
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        if sys.argv[1:2] == ["--exec"]:
            code = exec(sys.argv[2])
        else:
            from gamowkit.cli import main
            code = main(sys.argv[1:])
    except SystemExit as exc:  # help
        code = exc.code
package = [m.removeprefix("gamowkit.") for m in sys.modules if m.startswith("gamowkit.")]
watched = [m for m in ("numpy", "argparse", "csv", "json", "typing", *{_RECORD_MACHINERY})
           if m in sys.modules]
import json
print(json.dumps([code, package, watched]))
"""

PARSER = {"base", "cli", "core", "reader"}
GRID = PARSER | {"curves", "evolution", "grid"}
LABELS = PARSER | {"evolution", "transform"}
SPIN = PARSER | {"grid", "operators", "relations", "symmetry"}
LIBRARY = {"base", "core", "curves", "evolution", "grid", "operators", "relations", "scenarios",
           "symmetry", "transform"}
COMMANDS = ("table", "cross-id", "rep-check", "decay", "evolve", "lineshape")
CONFIGS = {"good": b"steps = 5\ntmax = 4\n", "unknown": b"volume=11\n", "no-equals": b"steps 5\n",
           "no-key": b"=5\n", "not-utf-8": b"steps = 5\n\xff\n"}  # and no file "missing"

EXPORTS = [
    "Arrow", "GamowState", "HalfPlane", "Kind", "Orientation", "ResonancePole", "Role",
    "TimeHalf", "canonical_state", "resonance_s_matrix",
    "BRANCHES", "DomainViolationError", "NonHermitianError", "branch_for", "evolve",
    "group_evolve", "survival_probability",
    "ResultTable", "Scenario", "evolution_table", "lineshape", "lorentzian_density", "run_decay",
    "AntilinearOperator", "build_representation", "check_conjugation_identities",
    "reversed_wavefunction", "time_reversal_matrix", "verify_group_relations",
    "cross_identify", "derive_table", "time_reverse", "time_reverse_twice",
]


def _fresh(*args) -> str:
    """The output of a fresh interpreter run on ``args``, which imports the package from its
    source and can import numpy, also under ``-S``."""
    path = os.pathsep.join(os.path.dirname(os.path.dirname(m.__file__)) for m in (gamowkit, numpy))
    proc = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


HELP, CSV, JSON = {"argparse"}, {"csv"}, {"json"}  # which of argparse, csv and json a run loads


@pytest.mark.parametrize("argv, exit_code, modules, loads", [
    *[(("table", "--arrow", arrow, "--format", fmt), 0, LABELS, JSON if fmt == "json" else set())
      for arrow in ("prep", "exc") for fmt in ("json", "text")],
    *[(("cross-id", "--branch", branch), 0, LABELS, JSON) for branch in ("5a", "5b")],
    *[(("rep-check", "--row", row, "--twice-j", twice_j), 0, SPIN, JSON)
      for row in ("1", "2", "3", "4") for twice_j in ("0", "1", "255")],
    (("rep-check", "--row", "4", "--twice-j", "7"), 0, SPIN, JSON),
    *[((*argv, "--format", fmt, *out), 0, GRID, JSON if fmt == "json" else CSV)
      for argv in (("decay", "--steps", "1100"),  # many blocks
                   ("evolve", "--kind", "grow", "--arrow", "exc", "--regime", "1",
                    "--steps", "1100"),
                   ("lineshape", "--steps", "1100"))
      for fmt in ("csv", "json") for out in ((), ("--out", "{tmp}/grid.out"))],
    *[((command, "--config", "{tmp}/good.cfg"), 0, GRID, CSV) for command in ("decay", "evolve")],
    *[((help,), 0, PARSER, HELP) for help in ("--help", "-h")],
    *[((command, help), 0, PARSER, HELP) for command in COMMANDS for help in ("--help", "-h")],
    *[((command, "--ste", "5"), 0, GRID, CSV) for command in ("decay", "evolve", "lineshape")],
    *[(argv, 0, LABELS, JSON)
      for argv in (("table", "--arr", "exc"), ("cross-id", "--bra", "5a"))],
    (("rep-check", "--ro", "1", "--twice-j", "0"), 0, SPIN, JSON),  # abbreviations
    (("rep-check", "--row", "5", "--twice-j", "0"), 2, PARSER, set()),  # not a row
    ((), 2, PARSER, set()),
    (("nope",), 2, PARSER, set()),
    *[((command, "--bogus", "1"), 2, PARSER, set()) for command in COMMANDS],
    (("decay", "--steps", "x"), 2, PARSER, set()),
    (("table", "--arrow", "sideways"), 2, PARSER, set()),
    *[(("decay", "--config", f"{{tmp}}/{name}.cfg"), 2, PARSER, set())
      for name in ("unknown", "no-equals", "no-key", "not-utf-8", "missing")],
    (("rep-check", "--config", "{tmp}/good.cfg"), 2, PARSER, set()),  # keys it does not take
    (("table", "--config", "{tmp}/unknown.cfg"), 2, PARSER, set()),
    (("cross-id",), 2, PARSER, set()),  # the check needs no module of its command
    (("rep-check", "--row", "2"), 2, PARSER, set()),
    (("decay", "--steps", "1"), 2, GRID, set()),
    (("evolve", "--steps", "1", "--format", "json"), 2, GRID, set()),
    (("decay", "--tmin", "-1", "--tmax", "1", "--steps", "3"), 2, GRID, set()),  # crosses t = 0
    (("decay", "--kind", "grow", "--tmin", "-1", "--tmax", "2", "--steps", "4"), 2, GRID, set()),
    (("decay", "--kind", "grow", "--tmin=-1.5e-323", "--tmax", "0", "--steps", "6"), 2, GRID,
     set()),
    (("evolve", "--er", "1e300", "--tmax", "1e10", "--steps", "3"), 2, GRID, set()),  # E_R * t
    (("evolve", "--kind", "grow", "--er", "1e300", "--tmin=-1e10", "--steps", "3"), 2, GRID,
     set()),
    (("lineshape", "--gamma", "1e-160", "--emin", "0", "--emax", "2"), 2, GRID, set()),
    (("rep-check", "--row", "4", "--twice-j", "65536"), 2, SPIN, set()),
    (("rep-check", "--row", "1", "--twice-j", "0", "--gamma", "1e307"), 2, SPIN, set()),
])
def test_command_loads_its_own_modules(tmp_path, argv, exit_code, modules, loads):
    # -S: no .pth file of site-packages imports typing before the command runs
    for name, text in CONFIGS.items():
        (tmp_path / f"{name}.cfg").write_bytes(text)
    code, package, watched = json.loads(_fresh("-S", "-c", _CHILD,
                                               *(a.format(tmp=tmp_path) for a in argv)))
    assert (code, set(package), set(watched)) == (exit_code, modules, loads)


_POLE = "gamowkit.ResonancePole(1.0, 0.2)"


@pytest.mark.parametrize("statement, modules, loads_numpy", [
    ("import gamowkit; gamowkit.__version__", set(), False),
    ("import gamowkit.base", {"base"}, False),
    ("import gamowkit; gamowkit.core", {"base", "core"}, False),
    ("import gamowkit.evolution", {"base", "core", "evolution"}, False),
    ("import gamowkit.grid", {"grid"}, False),
    ("import gamowkit.curves", {"base", "core", "curves", "evolution", "grid"}, False),
    ("import gamowkit.scenarios", {"base", "core", "curves", "evolution", "grid", "scenarios"},
     False),
    ("import gamowkit.operators", {"base", "core", "operators"}, False),
    ("import gamowkit.symmetry", {"base", "core", "grid", "operators", "relations", "symmetry"},
     False),
    ("import gamowkit.relations", {"base", "core", "operators", "relations"}, False),
    ("from gamowkit import grid", {"grid"}, False),
    ("from gamowkit import operators", {"base", "core", "operators"}, False),
    ("import gamowkit.core as c, gamowkit.operators as o, gamowkit.transform as t;"
     " t.time_reverse_twice(c.canonical_state(c.Arrow.PREPARATION_REGISTRATION, c.Kind.DECAYING,"
     " 0, c.DEFAULT_POLE), o.build_representation(2, 1))",
     {"base", "core", "evolution", "operators", "relations", "transform"}, False),
    ("from gamowkit import transform", {"base", "core", "evolution", "transform"}, False),
    ("from gamowkit import reader", {"reader"}, False),
    ("from gamowkit import cli", PARSER, False),
    ("import gamowkit; gamowkit.Arrow", LIBRARY, False),
    (f"import gamowkit; gamowkit.resonance_s_matrix({_POLE}, 1.0)", LIBRARY, False),
    (f"import gamowkit; gamowkit.resonance_s_matrix({_POLE}, [1.0])", LIBRARY, True),
    (f"import gamowkit; gamowkit.Scenario({_POLE}, gamowkit.Arrow.PREPARATION_REGISTRATION,"
     " gamowkit.Kind.DECAYING, 0, 0.0, 10.0, 1100).checked_times()", LIBRARY, False),
], ids=["import", "base", "core", "evolution", "grid", "curves", "scenarios", "operators",
        "symmetry", "relations", "from-grid", "from-operators", "reverse-twice", "transform",
        "reader", "cli", "export", "float", "list", "scenario-check"])
def test_library_loads_what_is_asked_for(statement, modules, loads_numpy):
    code, package, watched = json.loads(_fresh("-c", _CHILD, "--exec", statement))
    assert (code, set(package), "numpy" in watched) == (None, modules, loads_numpy)
    if not loads_numpy:  # numpy itself loads inspect, ast, dis and tokenize
        assert not set(watched) & set(_RECORD_MACHINERY)


def test_lazy_numpy_is_numpy():
    assert gamowkit.core.np.linspace is numpy.linspace
    assert gamowkit.core.np.float64 is numpy.float64


def test_every_export_in_order():
    names = _fresh("-c", "import gamowkit; print(*gamowkit.__all__)").split()
    assert names == EXPORTS and len(names) == 33


def test_star_import_and_dir_give_every_export():
    namespace = {}
    exec("from gamowkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)
    assert set(EXPORTS) <= set(dir(gamowkit))
    assert {"core", "__version__"} <= set(dir(gamowkit))
    assert gamowkit.Scenario is gamowkit.scenarios.Scenario


def test_returned_records_are_importable_from_their_modules():
    # Records that the package builds and returns are not exported, but stay importable.
    from gamowkit.evolution import EvolutionBranch
    from gamowkit.symmetry import (ConjugationReport, IdentityCheck, RelationCheck, RelationReport,
                                   RepresentationTriple)
    from gamowkit.transform import CrossIdentification, DerivedTable, TableCell
    rep = gamowkit.build_representation(2, 1)
    relations = gamowkit.verify_group_relations(rep)
    identities = gamowkit.check_conjugation_identities(rep)
    table = gamowkit.derive_table(gamowkit.Arrow.PREPARATION_REGISTRATION)
    for value, record in [
        *((branch, EvolutionBranch) for branch in gamowkit.BRANCHES.values()),
        (rep, RepresentationTriple), (relations, RelationReport),
        *((check, RelationCheck) for check in relations.checks),
        (identities, ConjugationReport), *((entry, IdentityCheck) for entry in identities.entries),
        (table, DerivedTable), *((cell, TableCell) for cell in table.cells),
        (gamowkit.cross_identify("5b"), CrossIdentification),
    ]:
        assert type(value) is record
        assert record.__name__ not in gamowkit.__all__


def test_moved_tables_still_resolve_from_their_old_modules():
    assert gamowkit.symmetry.ROWS is gamowkit.core.ROWS == (1, 2, 3, 4)
    assert gamowkit.transform.CROSS_IDENTIFIED is gamowkit.core.CROSS_IDENTIFIED
    for name in ("Scenario", "csv_text", "json_text", "decay_row", "lorentzian"):  # the float path
        assert getattr(gamowkit.scenarios, name) is getattr(gamowkit.curves, name)
    for name in ("Record", "is_integer", "np", "require_array", "require_complex",
                 "require_finite", "require_number"):
        assert getattr(gamowkit.core, name) is getattr(gamowkit.base, name)
    for name in ("AntilinearOperator", "RepresentationTriple", "_check_row", "_check_twice_j",
                 "build_representation", "time_reversal_matrix"):
        assert getattr(gamowkit.symmetry, name) is getattr(gamowkit.operators, name)
    for name in ("RelationCheck", "RelationReport", "_Report", "_checked",
                 "verify_group_relations"):
        assert getattr(gamowkit.symmetry, name) is getattr(gamowkit.relations, name)
    assert gamowkit.cli._read is gamowkit.reader._read


# One compile() of a module raises a fresh interpreter's VmHWM by about 0.45 MiB per 1,000
# AST nodes (Python 3.11, Linux x86-64), and the process keeps that heap: where modules
# compile from source, a run peaks at its largest single compile, not at the sum of them.
# `python -m gamowkit` compiles __init__ and __main__, then cli (about 1,380 nodes), before
# any other module, so a module compiled after cli that is no larger than it compiles in the
# heap that cli's compile left.  The cap keeps every module at about cli's size or below.
# ast.walk gives the same count on Python 3.10 to 3.13; a count of tokens does not.
MAX_MODULE_NODES = 1400


def test_no_module_compiles_above_the_node_cap():
    package = os.path.dirname(gamowkit.__file__)
    nodes = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                nodes[name] = sum(1 for _ in ast.walk(ast.parse(fh.read())))
    assert {name: n for name, n in nodes.items() if n > MAX_MODULE_NODES} == {}
    assert "cli.py" in nodes and "symmetry.py" in nodes


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'gamowkit' has no attribute 'nope'$"):
        gamowkit.nope  # noqa: B018
    assert not hasattr(gamowkit, "nope")
