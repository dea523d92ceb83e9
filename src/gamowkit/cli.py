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
import json
import sys

import numpy as np

from .core import DEFAULT_POLE, Arrow, Kind, ResonancePole, require_finite
from .scenarios import ResultTable, Scenario, check_steps, evolution_table, lineshape, run_decay
from .symmetry import build_representation, check_conjugation_identities, verify_group_relations
from .transform import cross_identify, derive_table

ARROWS = {"prep": Arrow.PREPARATION_REGISTRATION, "exc": Arrow.EXCITATION_DEEXCITATION}
KINDS = {"grow": Kind.GROWING, "decay": Kind.DECAYING}


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


class _Resolver:
    """Merge flags, config-file keys and defaults; unknown keys fail before any command runs."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _parse_config(args.config) if getattr(args, "config", None) else {}
        unknown = set(self.config) - (set(vars(args)) - {"command", "config"})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def get(self, name: str, convert, default=None, choices=None):
        value = getattr(self.args, name, None)
        if value is None and name in self.config:
            value = self.config[name]
        if value is None:
            return default
        if isinstance(value, str) and convert is not str:
            try:
                value = convert(value)
            except (TypeError, ValueError):
                raise ValueError(f"invalid value {value!r} for option {name!r}") from None
        if choices is not None and value not in choices:
            raise ValueError(
                f"option {name!r} must be one of {sorted(choices)}, got {value!r}")
        return value


def _add_pole_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--er", type=float, help=f"resonance energy E_R (default {DEFAULT_POLE.energy})")
    parser.add_argument("--gamma", type=float, help=f"resonance width Gamma (default {DEFAULT_POLE.width})")


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...],
                default_format: str) -> None:
    parser.add_argument("--format", choices=formats,
                        help=f"output format (default {default_format})")
    parser.add_argument("--out", help="output file (default standard output)")
    parser.add_argument("--config", help="key=value config file; flags override it")


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arrow", choices=sorted(ARROWS), help="time-arrow convention (default prep)")
    parser.add_argument("--kind", choices=sorted(KINDS), help="state kind (default decay)")
    parser.add_argument("--regime", type=int, choices=(0, 1), help="regime r (default 0)")
    parser.add_argument("--tmin", type=float, help="grid start (default depends on kind)")
    parser.add_argument("--tmax", type=float, help="grid end (default depends on kind)")
    parser.add_argument("--steps", type=int, help="grid points (default 101)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamowkit",
        description="Semigroup evolution of resonance states, time reversal, "
                    "and the extended spacetime symmetry families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, description in (("evolve", "evolution factor over a time grid"),
                              ("decay", "survival probability over a time grid")):
        p = sub.add_parser(name, help=description)
        _add_pole_options(p)
        _add_grid_options(p)
        _add_common(p, ("csv", "json"), "csv")

    p = sub.add_parser("lineshape", help="Lorentzian lineshape over an energy grid")
    _add_pole_options(p)
    p.add_argument("--emin", type=float, help="grid start (default E_R - 25*Gamma)")
    p.add_argument("--emax", type=float, help="grid end (default E_R + 25*Gamma)")
    p.add_argument("--steps", type=int, help="grid points (default 201)")
    _add_common(p, ("csv", "json"), "csv")

    p = sub.add_parser("table", help="derived time-reversal state table")
    p.add_argument("--arrow", choices=sorted(ARROWS), help="time-arrow convention (default prep)")
    _add_common(p, ("json", "text"), "json")

    p = sub.add_parser("rep-check", help="symmetry-family relation report")
    p.add_argument("--row", type=int, choices=(1, 2, 3, 4), help="family row 1..4")
    p.add_argument("--twice-j", dest="twice_j", type=int, help="twice the spin, 2j >= 0")
    _add_pole_options(p)
    _add_common(p, ("json",), "json")

    p = sub.add_parser("cross-id", help="regime identification for branches 5a/5b")
    p.add_argument("--branch", choices=("5a", "5b"), help="branch to identify")
    _add_common(p, ("json",), "json")

    return parser


def _resolve_pole(opts: _Resolver) -> ResonancePole:
    return ResonancePole(opts.get("er", float, DEFAULT_POLE.energy),
                         opts.get("gamma", float, DEFAULT_POLE.width))


def _scenario(opts: _Resolver) -> Scenario:
    pole = _resolve_pole(opts)
    arrow = ARROWS[opts.get("arrow", str, "prep", choices=set(ARROWS))]
    kind = KINDS[opts.get("kind", str, "decay", choices=set(KINDS))]
    regime = opts.get("regime", int, 0, choices={0, 1})
    decaying = kind is Kind.DECAYING
    t_min = opts.get("tmin", float, 0.0 if decaying else -10.0)
    t_max = opts.get("tmax", float, 10.0 if decaying else 0.0)
    steps = opts.get("steps", int, 101)
    return Scenario(pole, arrow, kind, regime, t_min, t_max, steps)


def _table_command(build_table):
    """A command that builds a ResultTable and returns the writer that
    streams it as CSV or JSON."""
    def command(opts: _Resolver):
        fmt = opts.get("format", str, "csv", choices={"csv", "json"})
        table = build_table(opts)
        if fmt == "csv":
            return table.write_csv

        def write_json(fh) -> None:
            table.write_json(fh)
            fh.write("\n")
        return write_json
    return command


def _lineshape_table(opts: _Resolver) -> ResultTable:
    pole = _resolve_pole(opts)
    e_min = require_finite("emin", opts.get("emin", float, pole.energy - 25.0 * pole.width))
    e_max = require_finite("emax", opts.get("emax", float, pole.energy + 25.0 * pole.width))
    steps = opts.get("steps", int, 201)
    check_steps("lineshape grid", steps)
    if not e_max > e_min:
        raise ValueError(f"emax={e_max} must exceed emin={e_min}")
    require_finite("emax - emin", e_max - e_min)
    return lineshape(pole, np.linspace(e_min, e_max, steps))


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
    arrow = ARROWS[opts.get("arrow", str, "prep", choices=set(ARROWS))]
    fmt = opts.get("format", str, "json", choices={"json", "text"})
    data = derive_table(arrow).to_dict()
    if fmt == "json":
        return json.dumps(data, indent=2) + "\n"
    return _format_table_text(data)


def _cmd_rep_check(opts: _Resolver) -> str:
    row = opts.get("row", int, None, choices={1, 2, 3, 4})
    twice_j = opts.get("twice_j", int, None)
    if row is None or twice_j is None:
        raise ValueError("rep-check requires --row and --twice-j")
    opts.get("format", str, "json", choices={"json"})
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
    branch = opts.get("branch", str, None, choices={"5a", "5b"})
    if branch is None:
        raise ValueError("cross-id requires --branch 5a or --branch 5b")
    opts.get("format", str, "json", choices={"json"})
    return json.dumps(cross_identify(branch).to_dict(), indent=2) + "\n"


_COMMANDS = {
    "evolve": _table_command(lambda opts: evolution_table(_scenario(opts))),
    "decay": _table_command(lambda opts: run_decay(_scenario(opts))),
    "lineshape": _table_command(_lineshape_table),
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
        out_path = opts.get("out", str, None)
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
