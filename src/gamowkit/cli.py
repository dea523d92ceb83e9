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
values, grids outside the half-domain), 1 on internal errors, 141 when a reader
closes the standard output pipe early (as ``| head`` does).  An optional
``--config FILE`` supplies flat key=value defaults; explicit flags win.  Every
option is resolved before the command runs, so a bad config value is reported
before any other check.  Exact, valid flags are read without argparse.

Each command runs its checks, then returns its text as an iterable of
strings, which ``main`` writes to standard output or ``--out``.  The grid
commands yield their rows one block of Python floats at a time, and
``rep-check`` checks signed permutations as tuples of ints: no command loads
numpy.  Every run loads ``core``, and each command imports its own modules:
``evolution``, ``grid`` and ``scenarios`` for a grid, ``transform`` for
``table`` and ``cross-id``, and ``grid`` and ``symmetry`` for ``rep-check``.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import sys
import types

from .core import (CROSS_IDENTIFIED, DEFAULT_POLE, ROWS, Arrow, Kind, ResonancePole, energy_window,
                   require_finite)

ARROWS = {"prep": Arrow.PREPARATION_REGISTRATION, "exc": Arrow.EXCITATION_DEEXCITATION}
KINDS = {"grow": Kind.GROWING, "decay": Kind.DECAYING}

# Each option as (flag, help, default, type, choices), stated once for argparse,
# the config file and the help.
_POLE_OPTIONS = (("--er", "resonance energy E_R", DEFAULT_POLE.energy, float, None),
                 ("--gamma", "resonance width Gamma", DEFAULT_POLE.width, float, None))
_ARROW_OPTION = ("--arrow", "time-arrow convention", "prep", None, sorted(ARROWS))
_GRID_OPTIONS = (*_POLE_OPTIONS, _ARROW_OPTION,
                 ("--kind", "state kind", "decay", None, sorted(KINDS)),
                 ("--regime", "regime r", 0, int, (0, 1)),
                 ("--tmin", "grid start (default depends on kind)", None, float, None),
                 ("--tmax", "grid end (default depends on kind)", None, float, None),
                 ("--steps", "grid points", 101, int, None))
_OUTPUT_OPTIONS = (("--out", "output file (default standard output)", None, None, None),
                   ("--config", "key=value config file; flags override it", None, None, None))


def _parse_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()  # decoded in one piece, so that an error gives the file offset
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not (sep and key):
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


# What the namespace holds for an option not given as a flag: its default, and
# the type and choices that a config-file value for it must meet.
_Unset = collections.namedtuple("_Unset", "default convert choices")


def _resolve(args: argparse.Namespace) -> None:
    """Set each option not given as a flag to its config value, else its default.

    Unknown config keys fail first; then each config value is converted and
    checked as its flag would be, so no command sees an unchecked option."""
    config = _parse_config(args.config) if isinstance(args.config, str) else {}
    unknown = set(config) - (set(vars(args)) - {"command", "config", "handler"})
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for name, unset in vars(args).items():
        if not isinstance(unset, _Unset):
            continue  # a flag, converted and checked as it was read
        value = config.get(name, unset.default)
        if name in config and unset.convert is not None:
            try:
                value = unset.convert(value)
            except (TypeError, ValueError):
                raise ValueError(f"invalid value {value!r} for option {name!r}") from None
        if name in config and unset.choices is not None and value not in unset.choices:
            raise ValueError(
                f"option {name!r} must be one of {sorted(unset.choices)}, got {value!r}")
        setattr(args, name, value)


def _commands() -> dict:
    """Each command's name: (help, handler, options ending with ``--format``, ``--out`` and
    ``--config``), built per command line, so that a handler is looked up when it runs."""
    def command(help, handler, options, formats=("csv", "json")):
        return help, handler, (*options, ("--format", "output format", formats[0], None, formats),
                               *_OUTPUT_OPTIONS)
    return {
        "evolve": command("evolution factor over a time grid", _cmd_time_table, _GRID_OPTIONS),
        "decay": command("survival probability over a time grid", _cmd_time_table, _GRID_OPTIONS),
        "lineshape": command("Lorentzian lineshape over an energy grid", _cmd_lineshape, (
            *_POLE_OPTIONS, ("--emin", "grid start (default E_R - 25*Gamma)", None, float, None),
            ("--emax", "grid end (default E_R + 25*Gamma)", None, float, None),
            ("--steps", "grid points", 201, int, None))),
        "table": command("derived time-reversal state table", _cmd_table, (_ARROW_OPTION,),
                         ("json", "text")),
        "rep-check": command("symmetry-family relation report", _cmd_rep_check, (
            ("--row", "family row 1..4", None, int, ROWS),
            ("--twice-j", "twice the spin, 2j >= 0", None, int, None)) + _POLE_OPTIONS, ("json",)),
        "cross-id": command("regime identification for branches 5a/5b", _cmd_cross_id, (
            ("--branch", "branch to identify", None, None, tuple(CROSS_IDENTIFIED)),), ("json",)),
    }


def build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="gamowkit",
        description="Semigroup evolution of resonance states, time reversal, "
                    "and the extended spacetime symmetry families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, handler, options) in _commands().items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for flag, text, default, type, choices in options:
            p.add_argument(flag, type=type, choices=choices, default=_Unset(default, type, choices),
                           help=text if default is None else f"{text} (default {default})")
    return parser


def _read(argv: list[str]) -> types.SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` for a command, then only ``--flag value`` (a value
    not starting with ``-``) or ``--flag=value``, each flag exactly one of the command's and each
    value of its type and in its choices; else None, and argparse reads ``argv``."""
    if not argv or argv[0] not in (commands := _commands()):
        return None
    _, handler, options = commands[argv[0]]
    flags = {o[0]: (o[0][2:].replace("-", "_"), *o[3:]) for o in options}  # dest, type, choices
    values = {"command": argv[0], **{flags[o[0]][0]: _Unset(*o[2:]) for o in options}}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, sep, value = token.partition("=")
        value = value if sep else next(tokens, "-")  # a missing value fails as a "-" one
        if flag not in flags or value == "--" or not sep and value.startswith("-"):
            return None
        dest, type, choices = flags[flag]
        try:
            values[dest] = value = value if type is None else type(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
    return types.SimpleNamespace(**values, handler=handler)


def _table_text(fmt: str, columns, row, points):
    """The text of ``row(point)`` over checked ``points``, a block at a time."""
    from .scenarios import csv_text, json_text
    blocks = (list(map(row, block)) for block in points)
    if fmt == "csv":
        return csv_text(columns, blocks)
    return itertools.chain(json_text(columns, blocks), "\n")


def _cmd_time_table(opts: argparse.Namespace):
    from .evolution import branch_for
    from .scenarios import TIME_TABLES, Scenario, linspace_blocks
    columns, row = TIME_TABLES[opts.command]
    pole = ResonancePole(opts.er, opts.gamma)
    arrow, kind, steps = ARROWS[opts.arrow], KINDS[opts.kind], opts.steps
    defaults = (0.0, 10.0) if kind is Kind.DECAYING else (-10.0, 0.0)
    t_min, t_max = (d if t is None else t for t, d in zip((opts.tmin, opts.tmax), defaults))
    scenario = Scenario(pole, arrow, kind, opts.regime, t_min, t_max, steps)
    scenario.checked_times()
    state = scenario.state()
    factor, amplitude = branch_for(state).scalar_factor(pole), state.amplitude
    return _table_text(opts.format, columns, lambda t: row(t, factor(t) * amplitude),
                       linspace_blocks(t_min, t_max, steps))


def _cmd_lineshape(opts: argparse.Namespace):
    from .scenarios import LINESHAPE_COLUMNS, check_steps, linspace_blocks, lorentzian
    pole = ResonancePole(opts.er, opts.gamma)
    e_min, e_max = opts.emin, opts.emax
    window = None
    if e_min is None or e_max is None:  # a default bound needs a representable default window
        window = energy_window(pole)
        e_min, e_max = (d if e is None else e for e, d in zip((e_min, e_max), window))
    require_finite("emin", e_min)
    require_finite("emax", e_max)
    check_steps("lineshape grid", opts.steps)
    if not e_max > e_min:
        if window is not None and window[0] == window[1]:
            raise ValueError(f"--gamma {pole.width} is too narrow for the default window "
                             f"E_R +- 25*Gamma around --er {pole.energy}: it rounds to the "
                             f"single energy {window[0]}; give --emin and --emax")
        raise ValueError(f"emax={e_max} must exceed emin={e_min}")
    require_finite("emax - emin", e_max - e_min)
    density = lorentzian(pole)
    return _table_text(opts.format, LINESHAPE_COLUMNS, lambda e: (e, density(e)),
                       linspace_blocks(e_min, e_max, opts.steps))


def _format_table_text(data: dict) -> str:
    headers = ("row", "r", "bracket", "domain", "orientation", "branch")
    rows = [(c["row"], str(c["regime"]), c["bracket"], c["domain"],
             c["orientation"], c["branch"]) for c in data["cells"]]
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = [f"arrow: {data['arrow']}"]
    lines += ("  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in (headers, *rows))
    return "\n".join(lines) + "\n"


def _cmd_table(opts: argparse.Namespace):
    from .transform import derive_table
    data = derive_table(ARROWS[opts.arrow]).to_dict()
    if opts.format == "json":
        return json.dumps(data, indent=2), "\n"
    return (_format_table_text(data),)


def _cmd_rep_check(opts: argparse.Namespace):
    row, twice_j = opts.row, opts.twice_j
    if row is None or twice_j is None:
        raise ValueError("rep-check requires --row and --twice-j")
    from .symmetry import build_representation, check_conjugation_identities, verify_group_relations
    pole = ResonancePole(opts.er, opts.gamma)
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
    return json.dumps(payload, indent=2), "\n"


def _cmd_cross_id(opts: argparse.Namespace):
    if opts.branch is None:
        raise ValueError("cross-id requires --branch 5a or --branch 5b")
    from .transform import cross_identify
    return json.dumps(cross_identify(opts.branch).to_dict(), indent=2), "\n"


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
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        for flag, sep, value in (token.partition("=") for token in argv):
            if flag.startswith("--") and sep and value == "--":  # argparse reads it by version
                raise ValueError(f"invalid value '--' for option {flag!r}")
        args = _read(argv) or build_parser().parse_args(argv)
        _resolve(args)
        output = args.handler(args)  # strings, a grid's lazily, a block at a time
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(output)
        else:
            try:
                sys.stdout.writelines(output)
                sys.stdout.flush()
            except BrokenPipeError:  # a reader such as `head` closed the pipe: not bad input
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
                return 141  # 128 + SIGPIPE, as a shell reports a process that pipe killed
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive internal-error path
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    raise SystemExit(main())
