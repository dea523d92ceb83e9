"""Start-up loads only what runs: ``import gamowkit`` loads no module of the
package, and each CLI command, with its help and its rejected inputs, loads
only the modules it uses, in a fresh interpreter each.  The package still
exports every name: the first lookup of one loads all five modules."""

import os
import subprocess
import sys

import pytest

import gamowkit

# Runs gamowkit.cli.main on its arguments with output swallowed, then prints
# the exit code and the package's modules that were imported.
_CHILD = """
import contextlib, io, sys
from gamowkit.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # --help and argparse's rejections
        code = exc.code
print(code, *sorted(m for m in sys.modules if m.startswith("gamowkit.")))
"""

PARSER = {"cli", "core"}
GRID = PARSER | {"evolution", "grid", "scenarios"}
LABELS = PARSER | {"evolution", "transform"}
SPIN = PARSER | {"grid", "symmetry"}

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
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gamowkit.__file__)))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True)
    return proc.stdout.strip()


def _loaded(code: str) -> set[str]:
    """The package's modules imported by ``code`` in a fresh interpreter."""
    printed = _fresh("-c", f"{code}; import sys; print(*(m for m in sys.modules "
                           f"if m.startswith('gamowkit.')))")
    return {name.removeprefix("gamowkit.") for name in printed.split()}


@pytest.mark.parametrize("code, modules", [
    ("import gamowkit; gamowkit.__version__", set()),
    ("import gamowkit; gamowkit.core", {"core"}),
    ("import gamowkit.evolution", {"core", "evolution"}),
    ("from gamowkit import transform", {"core", "evolution", "transform"}),
    ("from gamowkit import cli", {"cli", "core"}),
    ("import gamowkit; gamowkit.Arrow", {"core", "evolution", "grid", "scenarios", "symmetry",
                                         "transform"}),
], ids=["import", "core", "evolution", "from-import", "cli", "export"])
def test_library_loads_what_is_asked_for(code, modules):
    assert _loaded(code) == modules


@pytest.mark.parametrize("argv, code, modules", [
    (("--help",), 0, PARSER),
    (("rep-check", "--help"), 0, PARSER),
    (("decay", "--config", "{config}"), 2, PARSER),  # an unknown config key
    (("rep-check", "--row", "5", "--twice-j", "0"), 2, PARSER),  # not a row: argparse
    (("decay", "--steps", "11"), 0, GRID),
    (("evolve", "--kind", "grow", "--format", "json", "--out", "{out}"), 0, GRID),
    (("lineshape", "--steps", "11"), 0, GRID),
    (("decay", "--tmin", "-1", "--tmax", "1", "--steps", "3"), 2, GRID),  # crosses t = 0
    (("table", "--arrow", "exc", "--format", "text"), 0, LABELS),
    (("cross-id", "--branch", "5a"), 0, LABELS),
    (("cross-id",), 2, LABELS),
    (("rep-check", "--row", "4", "--twice-j", "3"), 0, SPIN),
    (("rep-check", "--row", "4", "--twice-j", "65536"), 2, SPIN),
])
def test_command_loads_its_own_modules(tmp_path, argv, code, modules):
    config = tmp_path / "bad.cfg"
    config.write_text("volume=11\n")
    argv = [a.format(config=config, out=tmp_path / "grid.out") for a in argv]
    printed = _fresh("-c", _CHILD, *argv).split()
    assert (int(printed[0]), {name.removeprefix("gamowkit.") for name in printed[1:]}) == (
        code, modules)


# As _CHILD, but prints the exit code and whether argparse was imported.
_ARGPARSE_CHILD = _CHILD.replace('*sorted(m for m in sys.modules if m.startswith("gamowkit."))',
                                 '"argparse" in sys.modules')


@pytest.mark.parametrize("argv, code, loaded", [
    (("decay", "--steps", "11"), 0, False),
    (("evolve", "--kind", "grow", "--format", "json", "--out", "{out}"), 0, False),
    (("lineshape", "--steps", "11"), 0, False),
    (("table", "--arrow", "exc", "--format", "text"), 0, False),
    (("cross-id", "--branch", "5a"), 0, False),
    (("rep-check", "--row", "4", "--twice-j", "3"), 0, False),
    (("decay", "--config", "{good}"), 0, False),
    (("decay", "--tmin", "-1", "--tmax", "1", "--steps", "3"), 2, False),  # crosses t = 0
    (("evolve", "--steps", "1", "--format", "json"), 2, False),
    (("table", "--config", "{bad}"), 2, False),  # an unknown config key
    (("--help",), 0, True),
    (("decay", "--help"), 0, True),
    (("decay", "--ste", "5"), 0, True),  # an abbreviation: argparse reads it
    (("rep-check", "--row", "5", "--twice-j", "0"), 2, True),  # not a row: argparse rejects it
    ((), 2, True),
])
def test_well_formed_command_lines_do_not_load_argparse(tmp_path, argv, code, loaded):
    (tmp_path / "good.cfg").write_text("steps = 5\ntmax = 4\n")
    (tmp_path / "bad.cfg").write_text("colour = red\n")
    argv = [a.format(good=tmp_path / "good.cfg", bad=tmp_path / "bad.cfg", out=tmp_path / "o.json")
            for a in argv]
    assert _fresh("-c", _ARGPARSE_CHILD, *argv).split() == [str(code), str(loaded)]


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


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'gamowkit' has no attribute 'nope'$"):
        gamowkit.nope  # noqa: B018
    assert not hasattr(gamowkit, "nope")
