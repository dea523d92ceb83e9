"""Checks of every benchmark operation's output.

The expected values are closed forms and tables transcribed here from the
package's documented formulas, kept apart from its code, plus the golden
state tables of the test suite, which are read and never modified.  A check
that does not hold raises :class:`CheckFailed`; the caller counts it as a
failed operation and keeps its timing.
"""

from __future__ import annotations

import ast
import contextlib
import json
from pathlib import Path

import numpy as np

from gamowkit import ResultTable

from workloads import Op

# (arrow, kind, regime) -> (branch label, phase_sign, growth_sign): the factor
# is exp(i*phase_sign*E_R*t) * exp(growth_sign*(Gamma/2)*t).
BRANCH_SIGNS = {
    ("prep", "grow", 0): ("4a", -1, +1),
    ("prep", "decay", 0): ("4b", -1, -1),
    ("prep", "decay", 1): ("10", +1, -1),
    ("prep", "grow", 1): ("11", +1, +1),
    ("exc", "grow", 0): ("12", +1, +1),
    ("exc", "decay", 0): ("5b", -1, -1),
    ("exc", "decay", 1): ("13", -1, -1),
    ("exc", "grow", 1): ("5a", +1, +1),
}

CROSS_IDS = {
    "5a": {"branch": "5a", "regime": 1, "matches_factor_of": None,
           "sign_pattern": {"phase_sign": 1, "growth_sign": 1, "domain": "t<=0"}},
    "5b": {"branch": "5b", "regime": 0, "matches_factor_of": "4b",
           "sign_pattern": {"phase_sign": -1, "growth_sign": -1, "domain": "t>=0"}},
}

# eps_R and eps_T of family rows 1..4 relative to (-1)^(2j).
SIGN_PATTERN = {1: (1, 1), 2: (-1, 1), 3: (1, -1), 4: (-1, -1)}

TOL = 1e-12
COLUMNS = {
    "decay": ("t", "survival", "factor_real", "factor_imag"),
    "evolve": ("t", "factor_real", "factor_imag"),
    "lineshape": ("energy", "density"),
}
TABLE_TEXT_FIELDS = ("row", "regime", "bracket", "domain", "orientation", "branch")


class CheckFailed(Exception):
    """An operation's output or exit status is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def load_golden(root: Path) -> dict[str, dict]:
    """The golden state tables keyed by arrow ("prep", "exc"), parsed from
    ``tests/golden_tables.py`` as literals without executing it."""
    tree = ast.parse((root / "tests" / "golden_tables.py").read_text(encoding="utf-8"))
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            value = ast.literal_eval(node.value)
            tables[value["arrow"]] = value
    return {"prep": tables["preparation_registration"], "exc": tables["excitation_deexcitation"]}


def _close(name: str, observed: np.ndarray, expected: np.ndarray, atol) -> None:
    worst = float(np.max(np.abs(observed - expected) - atol))
    expect(worst <= 0.0, f"{name} deviates from its closed form beyond tolerance by {worst:.3e}")


def _table(op: Op, text: str, span) -> np.ndarray:
    """Parse a CSV/JSON table back, check its shape and the CSV round trip,
    and return its values as an array."""
    fmt = op.options["format"]
    with span("scenarios.from_text"):
        table = ResultTable.from_csv(text) if fmt == "csv" else ResultTable.from_json(text)
    expect(table.columns == COLUMNS[op.command], f"columns {table.columns}")
    expect(len(table.rows) == op.options["steps"],
           f"{len(table.rows)} rows, expected {op.options['steps']}")
    if fmt == "csv":
        expect(table.to_csv() == text, "to_csv(from_csv(text)) differs from the CSV output")
    else:
        expect(text.endswith("}\n"), "JSON output does not end with a newline")
    return np.array(table.rows, dtype=float)


def _check_grid(op: Op, text: str, span) -> None:
    o = op.options
    values = _table(op, text, span)
    t = values[:, 0]
    _close("t", t, np.linspace(o["tmin"], o["tmax"], o["steps"]), TOL * max(abs(o["tmin"]), abs(o["tmax"])))
    _, phase_sign, growth_sign = BRANCH_SIGNS[(o["arrow"], o["kind"], o["regime"])]
    factor = np.exp(growth_sign * 0.5 * o["gamma"] * t + 1j * (phase_sign * o["er"] * t))
    _close("factor_real", values[:, -2], factor.real, TOL)
    _close("factor_imag", values[:, -1], factor.imag, TOL)
    if op.command == "decay":
        survival = np.exp(growth_sign * o["gamma"] * t)
        _close("survival", values[:, 1], survival, TOL * survival)


def _check_lineshape(op: Op, text: str, span) -> None:
    o = op.options
    values = _table(op, text, span)
    energy, density = values[:, 0], values[:, 1]
    _close("energy", energy, np.linspace(o["emin"], o["emax"], o["steps"]),
           TOL * max(abs(o["emin"]), abs(o["emax"])))
    gamma = o["gamma"]
    lorentzian = (gamma / (2.0 * np.pi)) / ((energy - o["er"]) ** 2 + (0.5 * gamma) ** 2)
    _close("density", density, lorentzian, TOL * lorentzian)
    peak = 2.0 / (np.pi * gamma)
    expect(abs(density.max() - peak) <= TOL * peak, f"peak {density.max()!r}, expected 2/(pi*Gamma) = {peak!r}")


def _check_rep(op: Op, text: str, span) -> None:
    o = op.options
    report = json.loads(text)
    expect((report["row"], report["twice_j"]) == (o["row"], o["twice_j"]), "row/twice_j not echoed")
    expect(report["all_passed"] is True, "all_passed is not true")
    expect(report["group_relations"]["all_passed"] is True, "group relations failed")
    expect(report["conjugation_identities"]["all_passed"] is True, "conjugation identities failed")
    base = (-1) ** o["twice_j"]
    eps_r, eps_t = (base * s for s in SIGN_PATTERN[o["row"]])
    checks = {c["name"]: c for c in report["group_relations"]["checks"]}
    for name, eps in (("time_reversal_squared", eps_r), ("total_inversion_squared", eps_t)):
        expect(checks[name]["expected"] == f"{eps:+d} * I" and checks[name]["observed"] == f"{eps} * I",
               f"{name}: expected {eps:+d} * I, got {checks[name]}")


def _check_table(op: Op, text: str, golden: dict) -> None:
    fixture = golden[op.options["arrow"]]
    if op.options["format"] == "json":
        expect(json.loads(text) == fixture, "table JSON differs from the golden fixture")
        return
    lines = text.splitlines()
    expect(lines[0] == f"arrow: {fixture['arrow']}", f"first line {lines[0]!r}")
    expect(lines[1].split() == ["row", "r", "bracket", "domain", "orientation", "branch"], "header line")
    cells = [tuple(line.split()) for line in lines[2:]]
    expected = [tuple(str(c[f]) for f in TABLE_TEXT_FIELDS) for c in fixture["cells"]]
    expect(cells == expected, "table text differs from the golden fixture")


def _check_cross_id(op: Op, text: str) -> None:
    record = json.loads(text)
    note = record.pop("note")
    expect(isinstance(note, str) and note != "", "empty note")
    expect(record == CROSS_IDS[op.options["branch"]], f"cross-id record {record}")


def check(op: Op, code: int, stdout: str, stderr: str, file_text: str | None, golden: dict,
          span=lambda name: contextlib.nullcontext()) -> None:
    """Check one invocation's exit code and output; ``file_text`` is the
    content of its ``--out`` file, None when there is none.  ``span`` wraps
    the parse-back so that a traced run can time it."""
    if op.reject:
        expect(code == 2, f"exit code {code}, expected 2 ({op.reject})")
        expect(any(line.startswith("error:") for line in stderr.splitlines()), "no 'error:' line")
        expect(stdout == "" and file_text is None, "output written for a rejected input")
        return
    expect(code == 0, f"exit code {code}: {stderr.strip()[-300:]}")
    expect(stderr == "", f"unexpected stderr: {stderr.strip()[-300:]}")
    if op.to_file:
        expect(stdout == "", "stdout not empty with --out")
        expect(file_text is not None, "--out file missing")
        text = file_text
    else:
        text = stdout
    try:
        if op.command in ("decay", "evolve"):
            _check_grid(op, text, span)
        elif op.command == "lineshape":
            _check_lineshape(op, text, span)
        elif op.command == "rep-check":
            _check_rep(op, text, span)
        elif op.command == "table":
            _check_table(op, text, golden)
        else:
            _check_cross_id(op, text)
    except CheckFailed:
        raise
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckFailed(f"unreadable output: {type(exc).__name__}: {exc}") from None
