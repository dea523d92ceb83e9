"""Operations of the benchmark workloads, generated from a seed.

An operation is one ``gamowkit`` CLI invocation: a subcommand and its
options.  The checks and the traced replay read the same options, so the
program receives nothing the benchmark does not also know.

A workload is a sequence of whole blocks.  Each block holds every cost class
of the workload in fixed proportions (see ``spec.json``), so the median and
the tail of a run do not depend on the seed; the seed only decides which
branch, pole, time range, format and destination each call gets, and the
order of the calls.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator
from pathlib import Path

SPEC = json.loads(Path(__file__).with_name("spec.json").read_text(encoding="utf-8"))

WORK_DIR = ".perfbench-work"  # relative to the checkout root; removed after each run
UNKNOWN_KEY_CONFIG = f"{WORK_DIR}/unknown-key.cfg"

ARROWS = ("prep", "exc")
KINDS = ("grow", "decay")
BRANCHES = tuple((arrow, kind, regime) for arrow in ARROWS for kind in KINDS for regime in (0, 1))
FORMAT_DESTS = tuple((fmt, to_file) for fmt in ("csv", "json") for to_file in (False, True))


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    ``options`` maps option names as the CLI resolves them (``twice_j`` for
    ``--twice-j``) to values.  ``reject`` names why the CLI must refuse the
    input with exit code 2; it is None for inputs that must succeed.
    """

    id: str
    command: str
    options: dict
    to_file: bool = False
    reject: str | None = None

    @property
    def out_path(self) -> str | None:
        if not self.to_file:
            return None
        return f"{WORK_DIR}/{self.id}.{self.options.get('format', 'json')}"

    def argv(self) -> list[str]:
        argv = [self.command]
        for name, value in self.options.items():
            argv += [f"--{name.replace('_', '-')}", repr(value) if isinstance(value, float) else str(value)]
        if self.to_file:
            argv += ["--out", self.out_path]
        return argv


def _uniform(rng: random.Random, bounds) -> float:
    return round(rng.uniform(*bounds), 6)


def _pole(rng: random.Random) -> dict:
    return {"er": _uniform(rng, SPEC["pole"]["er"]), "gamma": _uniform(rng, SPEC["pole"]["gamma"])}


def _grid(rng, command, branch, steps, fmt, to_file, span=(5.0, 15.0)) -> dict:
    """A decay/evolve call whose time range lies inside the branch's half-domain:
    t >= 0 for decaying states, t <= 0 for growing ones."""
    arrow, kind, regime = branch
    length = _uniform(rng, span)
    edge = 0.0 if rng.random() < 0.5 else _uniform(rng, (0.0, 1.0))
    if kind == "decay":
        tmin, tmax = edge, round(edge + length, 6)
    else:
        tmin, tmax = round(0.0 - edge - length, 6), 0.0 - edge
    options = {**_pole(rng), "arrow": arrow, "kind": kind, "regime": regime,
               "tmin": tmin, "tmax": tmax, "steps": steps, "format": fmt}
    return {"command": command, "options": options, "to_file": to_file}


def _lineshape(rng, steps, fmt, to_file, half_width=(10.0, 40.0)) -> dict:
    """A lineshape grid symmetric about E_R with an odd point count, so its
    middle point is E_R and the peak 2/(pi Gamma) is on the grid."""
    pole = _pole(rng)
    w = round(pole["gamma"] * rng.uniform(*half_width), 6)
    options = {**pole, "emin": round(pole["er"] - w, 6), "emax": round(pole["er"] + w, 6),
               "steps": steps, "format": fmt}
    return {"command": "lineshape", "options": options, "to_file": to_file}


def _rep_check(rng, row, twice_j) -> dict:
    return {"command": "rep-check", "options": {"row": row, "twice_j": twice_j, **_pole(rng)}}


def _grid_sweep_block(rng: random.Random) -> list[dict]:
    sizes = SPEC["workloads"]["grid-sweep"]["sizes"]
    steps = sizes["grid_steps"]
    branches = rng.sample(BRANCHES, len(BRANCHES))
    ops = []
    for command, chunk in (("decay", branches[:4]), ("evolve", branches[4:])):
        for branch, (fmt, to_file) in zip(chunk, rng.sample(FORMAT_DESTS, 4)):
            ops.append(_grid(rng, command, branch, steps, fmt, to_file, sizes["time_span"]))
    for fmt, to_file in zip(("csv", "json"), rng.sample((False, True), 2)):
        ops.append(_lineshape(rng, steps, fmt, to_file, sizes["lineshape_half_width_in_gamma"]))
    return ops


def _spin_reps_block(rng: random.Random) -> list[dict]:
    sizes = SPEC["workloads"]["spin-reps"]["sizes"]
    return [_rep_check(rng, row, twice_j) for twice_j in sizes["twice_j"] for row in sizes["rows"]]


def _short_calls_block(rng: random.Random) -> list[dict]:
    lo, hi = SPEC["workloads"]["short-calls"]["sizes"]["steps"]
    ops = [{"command": "table", "options": {"arrow": arrow, "format": fmt}}
           for arrow in ARROWS for fmt in ("json", "text")]
    ops += [{"command": "cross-id", "options": {"branch": b}} for b in ("5a", "5b")]
    for command, branch, (fmt, to_file) in zip(("decay", "decay", "evolve", "evolve"),
                                               rng.sample(BRANCHES, 4), rng.sample(FORMAT_DESTS, 4)):
        ops.append(_grid(rng, command, branch, rng.randint(lo, hi), fmt, to_file))
    for fmt in ("csv", "json"):
        ops.append(_lineshape(rng, 2 * rng.randint(lo // 2, hi // 2) + 1, fmt, rng.random() < 0.5))
    twice_j_max = SPEC["workloads"]["short-calls"]["sizes"]["twice_j_max"]
    ops += [_rep_check(rng, rng.randint(1, 4), rng.randint(0, twice_j_max)) for _ in range(2)]

    crossing = _grid(rng, rng.choice(("decay", "evolve")), rng.choice(BRANCHES),
                     rng.randint(lo, hi), "csv", False)
    crossing["options"].update(tmin=-_uniform(rng, (0.5, 3.0)), tmax=_uniform(rng, (0.5, 3.0)))
    one_step = _grid(rng, rng.choice(("decay", "evolve")), rng.choice(BRANCHES), 1, "json", False)
    unknown_key = {"command": "table", "options": {"config": UNKNOWN_KEY_CONFIG}}
    for op, reason in ((crossing, "grid crosses t=0"), (one_step, "--steps 1"),
                       (unknown_key, "unknown config key")):
        op["reject"] = reason
        ops.append(op)
    return ops


BLOCKS = {
    "grid-sweep": _grid_sweep_block,
    "spin-reps": _spin_reps_block,
    "short-calls": _short_calls_block,
}


def blocks(workload: str, seed: int) -> Iterator[list[Op]]:
    """The run's operations, one shuffled block at a time, without end."""
    rng = random.Random(f"{workload}:{seed}")
    done = 0
    while True:
        block = BLOCKS[workload](rng)
        rng.shuffle(block)
        yield _finish(block, "op", done)
        done += len(block)


def run_blocks(workload: str, seconds: float) -> int:
    """Whole blocks in a run of ``seconds``: as many as take that long on the
    seed code (``block_seconds`` in ``spec.json``, checks included), and at
    least ``min_blocks``, enough for the tail to have ten samples beyond it
    and for the median and the tail to fall inside a cost class rather than
    in a gap between two.  The count depends on ``seconds`` only, so every
    run of a workload has the same number of operations in the same
    proportions, and its median and tail sit at the same ranks however fast
    the machine or the program is."""
    spec = SPEC["workloads"][workload]
    return max(spec["min_blocks"], round(seconds / spec["block_seconds"]))


def _finish(raw: list[dict], prefix: str, start: int = 0) -> list[Op]:
    return [Op(id=f"{prefix}{start + i}", **fields) for i, fields in enumerate(raw)]


def probe(seed: int) -> list[Op]:
    """One small call of every command, appended to the traced run."""
    rng = random.Random(f"probe:{seed}")
    steps = SPEC["probe"]["grid_steps"]
    raw = [
        _grid(rng, "decay", rng.choice(BRANCHES), steps, "csv", False),
        _grid(rng, "evolve", rng.choice(BRANCHES), steps, "json", False),
        _lineshape(rng, steps, "csv", False),
        {"command": "table", "options": {"arrow": "prep", "format": "json"}},
        {"command": "cross-id", "options": {"branch": "5b"}},
        _rep_check(rng, 2, SPEC["probe"]["twice_j"]),
    ]
    return _finish(raw, "probe")

