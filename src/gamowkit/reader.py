"""The command-line reader: one pass over a command line reads it or rejects it.

``_read`` reads a command line against the command table it is given, the one
``cli._commands`` builds, and ``build_parser`` builds argparse's parser of the
same table only to print help.  It imports no module of the package.
"""

from __future__ import annotations

import itertools
import types


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


def build_parser(commands: dict) -> argparse.ArgumentParser:
    """argparse's parser of the help of gamowkit and of each of ``commands``; it reads no line."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="gamowkit",
        description="Semigroup evolution of resonance states, time reversal, "
                    "and the extended spacetime symmetry families.",
    )
    sub = parser.add_subparsers()
    for name, (help, _, options) in commands.items():
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


def _read(argv: list[str], commands: dict) -> types.SimpleNamespace:
    """The command in ``argv`` and its options: each flag's value, else the config file's, else
    the default, converted and checked as it is read.  A help flag has argparse print help; any
    other bad input raises a ValueError, as in argparse only at the end for an unknown flag or a
    stray value, so that a later help flag still prints help."""
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
            build_parser(commands).parse_args([command, "--help"] if command else ["--help"])
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
