"""Command-line front end for decay curves, lineshapes, and symmetry reports.

Subcommands
-----------
evolve     evolution factor over a time grid (CSV/JSON)
decay      survival probability and factor over a time grid (CSV/JSON)
lineshape  Lorentzian lineshape over an energy grid (CSV/JSON)
table      derived time-reversal state table (JSON or aligned text)
rep-check  group-relation and conjugation-identity report (JSON)
cross-id   regime identification for branches 5a/5b (JSON)

Exit codes: 0 on success, 2 on validation errors (bad flags, bad or non-finite
values, grids outside the half-domain), 1 on internal errors.  An optional
``--config FILE`` supplies flat key=value defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import collections
import json
import sys

from .core import DEFAULT_POLE, Arrow, Kind, ResonancePole, energy_window, np, require_finite
from .scenarios import (DECAY_COLUMNS, EVOLUTION_COLUMNS, LINESHAPE_COLUMNS, Scenario, check_steps,
                        check_width, decay_rows, evolution_rows, lineshape_rows, row_blocks,
                        write_csv, write_json)
from .symmetry import (ROWS, build_representation, check_conjugation_identities,
                       verify_group_relations)
from .transform import CROSS_IDENTIFIED, cross_identify, derive_table

ARROWS = {"prep": Arrow.PREPARATION_REGISTRATION, "exc": Arrow.EXCITATION_DEEXCITATION}
KINDS = {"grow": Kind.GROWING, "decay": Kind.DECAYING}

# Each option as (flag, help, default, type, choices), stated once for argparse,
# the config file and the help.
_POLE_OPTIONS = (("--er", "resonance energy E_R", DEFAULT_POLE.energy, float, None),
                 ("--gamma", "resonance width Gamma", DEFAULT_POLE.width, float, None))
_ARROW_OPTION = ("--arrow", "time-arrow convention", "prep", None, sorted(ARROWS))
_GRID_OPTIONS = (_ARROW_OPTION,
                 ("--kind", "state kind", "decay", None, sorted(KINDS)),
                 ("--regime", "regime r", 0, int, (0, 1)),
                 ("--tmin", "grid start (default depends on kind)", None, float, None),
                 ("--tmax", "grid end (default depends on kind)", None, float, None),
                 ("--steps", "grid points", 101, int, None))


def _parse_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


# What argparse stores for an option not given as a flag: its default, and the
# type and choices that a config-file value for it must meet.
_Unset = collections.namedtuple("_Unset", "default convert choices")


class _Resolver:
    """Merge flags, config-file keys and defaults; unknown keys fail before any command runs."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _parse_config(args.config) if getattr(args, "config", None) else {}
        unknown = set(self.config) - (set(vars(args)) - {"command", "config"})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def get(self, name: str, default=None):
        """The flag, else the config key, else the option's default, else ``default``."""
        unset = getattr(self.args, name)
        if not isinstance(unset, _Unset):
            return unset  # a flag, converted and checked by argparse
        if name not in self.config:
            return default if unset.default is None else unset.default
        value = self.config[name]
        if unset.convert is not None:
            try:
                value = unset.convert(value)
            except (TypeError, ValueError):
                raise ValueError(f"invalid value {value!r} for option {name!r}") from None
        if unset.choices is not None and value not in unset.choices:
            raise ValueError(
                f"option {name!r} must be one of {sorted(unset.choices)}, got {value!r}")
        return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamowkit",
        description="Semigroup evolution of resonance states, time reversal, "
                    "and the extended spacetime symmetry families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, options, formats=("csv", "json")):
        """A subcommand: ``options``, then the output options (the first format is the default)."""
        p = sub.add_parser(name, help=help)
        for flag, text, default, type, choices in (
                *options, ("--format", "output format", formats[0], None, formats),
                ("--out", "output file (default standard output)", None, None, None)):
            p.add_argument(flag, type=type, choices=choices,
                           help=text if default is None else f"{text} (default {default})",
                           default=_Unset(default, type, choices))
        p.add_argument("--config", help="key=value config file; flags override it")

    add("evolve", "evolution factor over a time grid", _POLE_OPTIONS + _GRID_OPTIONS)
    add("decay", "survival probability over a time grid", _POLE_OPTIONS + _GRID_OPTIONS)
    add("lineshape", "Lorentzian lineshape over an energy grid", _POLE_OPTIONS + (
        ("--emin", "grid start (default E_R - 25*Gamma)", None, float, None),
        ("--emax", "grid end (default E_R + 25*Gamma)", None, float, None),
        ("--steps", "grid points", 201, int, None)))
    add("table", "derived time-reversal state table", (_ARROW_OPTION,), ("json", "text"))
    add("rep-check", "symmetry-family relation report", (
        ("--row", "family row 1..4", None, int, ROWS),
        ("--twice-j", "twice the spin, 2j >= 0", None, int, None)) + _POLE_OPTIONS, ("json",))
    add("cross-id", "regime identification for branches 5a/5b",
        (("--branch", "branch to identify", None, None, tuple(CROSS_IDENTIFIED)),), ("json",))
    return parser


def _resolve_pole(opts: _Resolver) -> ResonancePole:
    return ResonancePole(opts.get("er"), opts.get("gamma"))


def _time_grid(opts: _Resolver):
    pole = _resolve_pole(opts)
    arrow, kind, regime = ARROWS[opts.get("arrow")], KINDS[opts.get("kind")], opts.get("regime")
    decaying = kind is Kind.DECAYING
    t_min = opts.get("tmin", 0.0 if decaying else -10.0)
    t_max = opts.get("tmax", 10.0 if decaying else 0.0)
    scenario = Scenario(pole, arrow, kind, regime, t_min, t_max, opts.get("steps"))
    return scenario.state(), scenario.checked_times()


def _table_command(columns, rows, grid):
    """A command whose ``grid(opts)`` checks every input and gives the state or pole and the
    grid of ``rows``; it returns the writer that computes and streams them a block at a time."""
    def command(opts: _Resolver):
        fmt = opts.get("format")
        source, points = grid(opts)
        blocks = (rows(source, part) for part in row_blocks(points))
        if fmt == "csv":
            return lambda fh: write_csv(fh, columns, blocks)

        def write(fh) -> None:
            write_json(fh, columns, blocks)
            fh.write("\n")
        return write
    return command


def _energy_grid(opts: _Resolver):
    pole = _resolve_pole(opts)
    e_min, e_max = opts.get("emin"), opts.get("emax")
    window = None
    if e_min is None or e_max is None:  # a default bound needs a representable default window
        window = energy_window(pole)
        e_min, e_max = (d if e is None else e for e, d in zip((e_min, e_max), window))
    require_finite("emin", e_min)
    require_finite("emax", e_max)
    steps = opts.get("steps")
    check_steps("lineshape grid", steps)
    if not e_max > e_min:
        if window is not None and window[0] == window[1]:
            raise ValueError(f"--gamma {pole.width} is too narrow for the default window "
                             f"E_R +- 25*Gamma around --er {pole.energy}: it rounds to the "
                             f"single energy {window[0]}; give --emin and --emax")
        raise ValueError(f"emax={e_max} must exceed emin={e_min}")
    require_finite("emax - emin", e_max - e_min)
    check_width(pole)
    return pole, np.linspace(e_min, e_max, steps)


def _format_table_text(data: dict) -> str:
    headers = ("row", "r", "bracket", "domain", "orientation", "branch")
    rows = [(c["row"], str(c["regime"]), c["bracket"], c["domain"],
             c["orientation"], c["branch"]) for c in data["cells"]]
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = [f"arrow: {data['arrow']}"]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _cmd_table(opts: _Resolver) -> str:
    arrow, fmt = ARROWS[opts.get("arrow")], opts.get("format")
    data = derive_table(arrow).to_dict()
    if fmt == "json":
        return json.dumps(data, indent=2) + "\n"
    return _format_table_text(data)


def _cmd_rep_check(opts: _Resolver) -> str:
    row, twice_j = opts.get("row"), opts.get("twice_j")
    if row is None or twice_j is None:
        raise ValueError("rep-check requires --row and --twice-j")
    opts.get("format")
    pole = _resolve_pole(opts)
    rep = build_representation(row, twice_j)
    relations = verify_group_relations(rep)
    identities = check_conjugation_identities(rep, pole)
    payload = {
        "row": row,
        "twice_j": twice_j,
        "group_relations": relations.to_dict(),
        "conjugation_identities": identities.to_dict(),
        "all_passed": relations.all_passed and identities.all_passed,
    }
    return json.dumps(payload, indent=2) + "\n"


def _cmd_cross_id(opts: _Resolver) -> str:
    branch = opts.get("branch")
    if branch is None:
        raise ValueError("cross-id requires --branch 5a or --branch 5b")
    opts.get("format")
    return json.dumps(cross_identify(branch).to_dict(), indent=2) + "\n"


_COMMANDS = {
    "evolve": _table_command(EVOLUTION_COLUMNS, evolution_rows, _time_grid),
    "decay": _table_command(DECAY_COLUMNS, decay_rows, _time_grid),
    "lineshape": _table_command(LINESHAPE_COLUMNS, lineshape_rows, _energy_grid),
    "table": _cmd_table,
    "rep-check": _cmd_rep_check,
    "cross-id": _cmd_cross_id,
}


def _attach_negative_values(argv) -> list[str]:
    """``--flag -1e3`` as ``--flag=-1e3``: argparse reads only ``-1000`` and
    ``-.5`` as negative numbers, and takes ``-1e3`` or ``-inf`` for an option."""
    tokens: list[str] = []
    for token in argv:
        prev = tokens[-1] if tokens else ""
        if (token.startswith("-") and prev.startswith("--") and "=" not in prev
                and prev not in ("--", "--help")):
            try:
                float(token)
            except ValueError:
                pass
            else:
                tokens[-1] = f"{prev}={token}"
                continue
        tokens.append(token)
    return tokens


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        opts = _Resolver(args)
        output = _COMMANDS[args.command](opts)  # a string, or a writer that streams a table
        write = output if callable(output) else lambda fh: fh.write(output)
        out_path = opts.get("out")
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                write(fh)
        else:
            write(sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive internal-error path
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    raise SystemExit(main())
