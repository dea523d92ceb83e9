"""Command-line front end for decay curves, lineshapes, and symmetry reports.

Subcommands
-----------
evolve     evolution factor over a time grid (CSV/JSON)
decay      survival probability and factor over a time grid (CSV/JSON)
lineshape  Lorentzian lineshape over an energy grid (CSV/JSON)
table      derived time-reversal state table (JSON or aligned text)
rep-check  group-relation and conjugation-identity report (JSON)
cross-id   regime identification for branches 5a/5b (JSON)

One reader, ``_read``, reads and rejects every command line; argparse only
prints help.  Exit codes: 0 on success, 2 with one ``error:`` line on bad input
(bad flags, bad or non-finite values, grids outside the half-domain), 1 on
internal errors, 141 when a reader closes the standard output pipe early (as
``| head`` does).  An optional ``--config FILE`` supplies flat key=value
defaults; explicit flags win.  Every option is resolved before the command
runs, so a bad config value is reported before any other check.

Each command runs its checks, then returns its text as an iterable of
strings, which ``main`` writes to standard output or ``--out``.  The grid
commands yield their rows one block of Python floats at a time, and
``rep-check`` checks signed permutations as tuples of ints: no command loads
numpy.  Every run loads ``core``, and each command imports its own modules:
``evolution``, ``grid`` and ``curves`` for a grid, ``transform`` for
``table`` and ``cross-id``, and ``grid`` and ``symmetry`` for ``rep-check``.
``csv`` and ``json`` load only for their own output, and only after those.
"""

from __future__ import annotations

import itertools
import os
import sys
import types

from .core import (CROSS_IDENTIFIED, DEFAULT_POLE, ROWS, Arrow, Kind, ResonancePole, energy_window,
                   require_finite)

ARROWS = {"prep": Arrow.PREPARATION_REGISTRATION, "exc": Arrow.EXCITATION_DEEXCITATION}
KINDS = {"grow": Kind.GROWING, "decay": Kind.DECAYING}

# Each option as (flag, help, default, type, choices), stated once for the reader,
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


def _convert(name: str, value: str, convert, choices):
    """A flag's or config value ``value`` of option ``name``, converted, then checked."""
    if value == "--":  # no value, in a flag or a file; argparse read "--flag=--" by version
        raise ValueError(f"invalid value '--' for option {name!r}")
    try:
        value = value if convert is None else convert(value)
    except ValueError:
        raise ValueError(f"invalid value {value!r} for option {name!r}") from None
    if choices is not None and value not in choices:
        raise ValueError(f"option {name!r} must be one of {sorted(choices)}, got {value!r}")
    return value


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
    """argparse's parser of the help of gamowkit and of each command; it reads no line."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="gamowkit",
        description="Semigroup evolution of resonance states, time reversal, "
                    "and the extended spacetime symmetry families.",
    )
    sub = parser.add_subparsers()
    for name, (help, _, options) in _commands().items():
        p = sub.add_parser(name, help=help)
        for flag, text, default, _, choices in options:
            p.add_argument(flag, choices=choices,
                           help=text if default is None else f"{text} (default {default})")
    return parser


def _token(token: str, flags) -> tuple[str | None, str | None]:
    """(flag, the value after its ``=`` or None) for ``--help`` or a flag of ``flags``, given
    whole or by a unique prefix, as argparse matches them; (None, token) for a value: ``-``, a
    number such as ``-1e3``, one with a space or not starting with ``-``; else (None, None)."""
    if token.startswith("-h"):  # -h or -hh, as for argparse; -hx gives --help the value x
        return "--help", token[2:].lstrip("h") or None
    if token.startswith("--") and token != "--":
        name, sep, value = token.partition("=")
        matches = [name] if name in flags else [f for f in ("--help", *flags) if f.startswith(name)]
        if len(matches) > 1:
            raise ValueError(f"ambiguous option {name!r}: it could be {' or '.join(matches)}")
        if matches:
            return matches[0], value if sep else None
    if token.startswith("-") and token != "-" and " " not in token:
        try:
            float(token)
        except ValueError:
            return None, None
    return None, token


def _read(argv: list[str]) -> types.SimpleNamespace:
    """The command in ``argv`` and its options: each flag's value, else the config file's, else
    the default, converted and checked as it is read.  A help flag has argparse print help; any
    other bad input raises a ValueError, as in argparse only at the end for an unknown flag or a
    stray value, so that a later help flag still prints help."""
    commands = _commands()
    command, flags, given, strays = None, {}, {}, []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":  # argparse reads what follows it by Python version
            raise ValueError("unrecognized arguments: '--'")
        flag, value = _token(token, flags)
        if flag == "--help":
            if value is not None:
                raise ValueError("option '--help' takes no value")
            for later in itertools.takewhile(lambda t: t != "--", tokens):
                _token(later, flags)  # argparse rejects an ambiguous prefix even after help
            build_parser().parse_args([command, "--help"] if command else ["--help"])
        elif flag is not None:
            if value is None:
                value = next(tokens, None)
                if value is None or _token(value, flags) != (None, value):
                    raise ValueError(f"option {flag!r} expects a value")
            dest, _, *check = flags[flag]
            given[dest] = _convert(flag, value, *check)
        elif command or value is None:
            strays.append(token)
        elif token not in commands:
            raise ValueError(f"unknown command {token!r}: give one of {', '.join(commands)}")
        else:
            command, (_, handler, options) = token, commands[token]
            flags.update((o[0], (o[0][2:].replace("-", "_"), *o[2:])) for o in options)
    if command is None:
        raise ValueError(f"no command given: give one of {', '.join(commands)}")
    if strays:
        raise ValueError(f"unrecognized arguments: {', '.join(map(repr, strays))}")
    config = _parse_config(given["config"]) if "config" in given else {}
    unknown = set(config) - {dest for dest, *_ in flags.values() if dest != "config"}
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for dest, default, *check in flags.values():
        if dest not in given:
            given[dest] = _convert(dest, config[dest], *check) if dest in config else default
    return types.SimpleNamespace(command=command, handler=handler, **given)


def _indented_json(data):
    import json  # only for JSON output, after the command's own modules compiled
    return json.dumps(data, indent=2), "\n"


def _table_text(fmt: str, columns, row, points):
    """The text of ``row(point)`` over checked ``points``, a block at a time."""
    from .curves import csv_text, json_text
    blocks = (list(map(row, block)) for block in points)
    if fmt == "csv":
        return csv_text(columns, blocks)
    return itertools.chain(json_text(columns, blocks), "\n")


def _cmd_time_table(opts: types.SimpleNamespace):
    from .curves import TIME_TABLES, Scenario, linspace_blocks
    from .evolution import branch_for
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


def _cmd_lineshape(opts: types.SimpleNamespace):
    from .curves import LINESHAPE_COLUMNS, check_steps, linspace_blocks, lorentzian
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


def _cmd_table(opts: types.SimpleNamespace):
    from .transform import derive_table
    data = derive_table(ARROWS[opts.arrow]).to_dict()
    if opts.format == "json":
        return _indented_json(data)
    headers = ("row", "r", "bracket", "domain", "orientation", "branch")  # a cell's keys, in order
    rows = [tuple(map(str, cell.values())) for cell in data["cells"]]
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    return (f"arrow: {data['arrow']}\n",
            *("  ".join(v.ljust(w) for v, w in zip(r, widths)) + "\n" for r in (headers, *rows)))


def _cmd_rep_check(opts: types.SimpleNamespace):
    if opts.row is None or opts.twice_j is None:
        raise ValueError("rep-check requires --row and --twice-j")
    from .symmetry import build_representation, check_conjugation_identities, verify_group_relations
    pole = ResonancePole(opts.er, opts.gamma)
    rep = build_representation(opts.row, opts.twice_j)
    relations = verify_group_relations(rep)
    identities = check_conjugation_identities(rep, pole)
    payload = {
        "row": rep.row,
        "twice_j": rep.twice_j,
        "group_relations": relations.to_dict(),
        "conjugation_identities": identities.to_dict(),
        "all_passed": relations.all_passed and identities.all_passed,
    }
    return _indented_json(payload)


def _cmd_cross_id(opts: types.SimpleNamespace):
    if opts.branch is None:
        raise ValueError("cross-id requires --branch 5a or --branch 5b")
    from .transform import cross_identify
    return _indented_json(cross_identify(opts.branch).to_dict())


def main(argv=None) -> int:
    try:
        args = _read(sys.argv[1:] if argv is None else argv)
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
