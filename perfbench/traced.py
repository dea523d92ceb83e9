"""The traced in-process run: spans around the calls into each layer.

For each operation the run calls ``gamowkit.cli.main(argv)`` in process with
its output captured, checks that output, and replays the command by calling
the same public functions the CLI command calls, each inside a span.  The
spans live in the benchmark's files only, around calls into the package;
nothing inside ``src/gamowkit`` is instrumented, so a layer's self time
includes whatever it calls internally (``run_decay`` includes the per-point
``evolve`` calls and its own ``checked_times``).
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gamowkit as gk
from gamowkit import cli

from checks import CheckFailed, check
from workloads import Op

ARROWS = {"prep": gk.Arrow.PREPARATION_REGISTRATION, "exc": gk.Arrow.EXCITATION_DEEXCITATION}
KINDS = {"grow": gk.Kind.GROWING, "decay": gk.Kind.DECAYING}
GRID = {"decay": gk.run_decay, "evolve": gk.evolution_table}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: str

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Spans kept in memory, plus a count of calls per layer."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self._stack: list[int] = []
        self.op = ""

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        span = Span(name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn, *args):
        self.calls[name.split(".")[0]] += 1
        with self.span(name):
            return fn(*args)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end_ns - s.start_ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end_ns - s.start_ns
        return [ns / 1e9 for ns in own]


class NoTracer:
    """Same interface, no spans: the untraced side of the overhead figure."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    @staticmethod
    def span(name):
        return contextlib.nullcontext()


def _pole(t, o):
    return t.call("core.ResonancePole", gk.ResonancePole, o["er"], o["gamma"])


def _scenario(t, o):
    return t.call("scenarios.Scenario", gk.Scenario, _pole(t, o), ARROWS[o["arrow"]], KINDS[o["kind"]],
                  o["regime"], o["tmin"], o["tmax"], o["steps"])


def _emit(t, table, fmt) -> str:
    if fmt == "csv":
        return t.call("scenarios.to_csv", table.to_csv)
    return t.call("scenarios.to_json", table.to_json) + "\n"


def replay(t, op: Op) -> dict:
    """Call the public functions ``op``'s CLI command calls; return the sizes
    of the work done.  Inputs the CLI rejects raise here as they do there."""
    o = op.options
    with t.span("cli.replay"):
        if op.command in GRID:
            table = t.call("scenarios.grid", GRID[op.command], _scenario(t, o))
            text = _emit(t, table, o["format"])
            return {"points": o["steps"], "bytes": len(text)}
        if op.command == "lineshape":
            energies = np.linspace(o["emin"], o["emax"], o["steps"])
            table = t.call("scenarios.lineshape", gk.lineshape, _pole(t, o), energies)
            text = _emit(t, table, o["format"])
            return {"bytes": len(text)}
        if op.command == "rep-check":
            pole = _pole(t, o)
            rep = t.call("symmetry.build", gk.build_representation, o["row"], o["twice_j"])
            relations = t.call("symmetry.relations", gk.verify_group_relations, rep)
            identities = t.call("symmetry.conjugation", gk.check_conjugation_identities, rep, pole)
            json.dumps({"group_relations": relations.to_dict(),
                        "conjugation_identities": identities.to_dict()}, indent=2)
            checks = relations.checks + identities.entries
            return {"dim": rep.dim, "checks": len(checks), "passed": sum(c.passed for c in checks),
                    "twice_j": o["twice_j"]}
        if op.command == "table" and "arrow" in o:
            json.dumps(t.call("transform.derive_table", gk.derive_table, ARROWS[o["arrow"]]).to_dict(), indent=2)
        elif op.command == "cross-id":
            json.dumps(t.call("transform.cross_identify", gk.cross_identify, o["branch"]).to_dict(), indent=2)
    return {}


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """``gamowkit.cli.main(argv)`` in process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on malformed flags
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _per_call_us(tracer: Tracer, name: str, fn, calls: int, repeats: int = 5) -> float:
    """Median over ``repeats`` batches of the mean time of one call, in µs."""
    samples = []
    for _ in range(repeats):
        with tracer.span(f"{name}[batch]"):
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            samples.append((time.perf_counter_ns() - start) / calls / 1e3)
    tracer.calls[name.split(".")[0]] += calls * repeats
    return statistics.median(samples)


def micro(tracer: Tracer, seed_op: Op) -> dict:
    """Scalar per-call timings of the small public functions."""
    tracer.op = "micro"
    pole = gk.ResonancePole(seed_op.options["er"], seed_op.options["gamma"])
    prep, decaying = gk.Arrow.PREPARATION_REGISTRATION, gk.Kind.DECAYING
    state = gk.canonical_state(prep, decaying, 0, pole)
    return {
        "core.canonical_state_us": _per_call_us(
            tracer, "core.canonical_state", lambda: gk.canonical_state(prep, decaying, 0, pole), 2000),
        "evolution.evolve_us": _per_call_us(tracer, "evolution.evolve", lambda: gk.evolve(state, 2.5), 5000),
        "transform.derive_table_us": _per_call_us(
            tracer, "transform.derive_table", lambda: gk.derive_table(prep), 200),
        "transform.cross_identify_us": _per_call_us(
            tracer, "transform.cross_identify", lambda: gk.cross_identify("5b"), 2000),
        "transform.time_reverse_us": _per_call_us(
            tracer, "transform.time_reverse", lambda: gk.time_reverse(state), 2000),
    }


def run(ops: list[Op], probe: list[Op], golden: dict, root: Path, log) -> dict:
    """Trace ``ops`` followed by ``probe``; return spans, per-op sizes and
    check outcomes, and the traced and untraced replay times."""
    tracer = Tracer()
    micro_us = micro(tracer, next(op for op in ops + probe if "er" in op.options))
    sizes, failed = {}, []
    traced_s = untraced_s = 0.0
    for op in ops + probe:
        tracer.op = op.id
        code, stdout, stderr = tracer.call("cli.main", run_main, op.argv())
        out = root / op.out_path if op.to_file else None
        file_text = out.read_text(encoding="utf-8") if out and out.exists() else None
        try:
            check(op, code, stdout, stderr, file_text, golden, span=tracer.span)
        except CheckFailed as exc:
            failed.append(op.id)
            log(f"FAILED {op.id} {' '.join(op.argv())}: {exc}")
        if out:
            out.unlink(missing_ok=True)
        if op.command in GRID and not op.reject:
            tracer.call("scenarios.checked_times", _scenario(NoTracer, op.options).checked_times)

        start = time.perf_counter()
        with contextlib.suppress(ValueError):
            replay(NoTracer, op)
        untraced_s += time.perf_counter() - start
        start = time.perf_counter()
        with contextlib.suppress(ValueError):
            sizes[op.id] = replay(tracer, op)
        traced_s += time.perf_counter() - start
    return {"tracer": tracer, "micro_us": micro_us, "sizes": sizes, "failed": failed,
            "traced_s": traced_s, "untraced_s": untraced_s}


def layer_metrics(result: dict, ops: list[Op], probe: list[Op]) -> dict:
    """The per-layer metrics of a traced run (the ``cli.import_*`` figures
    come from fresh interpreters and are added by the caller).

    A span timing is the median over the workload operations that make the
    call, or over the probe operations when none does.  Shares are ratios of
    totals over every traced operation.
    """
    tracer, sizes = result["tracer"], result["sizes"]
    per_op: dict[str, dict[str, float]] = {}
    for s in tracer.spans:
        by_op = per_op.setdefault(s.name, {})
        by_op[s.op] = by_op.get(s.op, 0.0) + s.seconds
    groups = ({op.id for op in ops}, {op.id for op in probe})

    def pick(name: str) -> dict[str, float]:
        """Per-op seconds in spans ``name``; only replays that completed count,
        since a rejected input stops part way."""
        for ids in groups:
            found = {op: sec for op, sec in per_op.get(name, {}).items()
                     if op in ids and (op in sizes or name == "cli.main")}
            if found:
                return found
        raise ValueError(f"no traced operation calls {name}")

    def median(name: str) -> float:
        return statistics.median(pick(name).values())

    grid = pick("scenarios.grid")
    emitted = {**pick("scenarios.to_csv"), **pick("scenarios.to_json")}
    reps = pick("symmetry.relations")
    points = sum(sizes[op]["points"] for op in grid)
    bytes_out = sum(sizes[op]["bytes"] for op in emitted)
    dims = [sizes[op]["dim"] for op in reps]

    main_total = sum(per_op["cli.main"].values())
    own = tracer.self_seconds()
    scenarios_self = sum(sec for s, sec in zip(tracer.spans, own)
                         if s.name.startswith("scenarios.") and s.parent is not None)
    rep_sizes = {op: size for op, size in sizes.items() if "dim" in size}
    max_j = max(size["twice_j"] for size in rep_sizes.values())
    at_max_j = [op for op, size in rep_sizes.items() if size["twice_j"] == max_j]

    return {
        "cli.main_s": median("cli.main"),
        "cli.calls": tracer.calls["cli"],
        "core.canonical_state_us": result["micro_us"]["core.canonical_state_us"],
        "core.calls": tracer.calls["core"],
        "evolution.evolve_us": result["micro_us"]["evolution.evolve_us"],
        "evolution.calls": tracer.calls["evolution"],
        "scenarios.checked_times_s": median("scenarios.checked_times"),
        "scenarios.grid_s": median("scenarios.grid"),
        "scenarios.lineshape_s": median("scenarios.lineshape"),
        "scenarios.to_csv_s": median("scenarios.to_csv"),
        "scenarios.to_json_s": median("scenarios.to_json"),
        "scenarios.from_text_s": median("scenarios.from_text"),
        "scenarios.grid_ns_per_point": sum(grid.values()) / points * 1e9,
        "scenarios.emit_ns_per_byte": sum(emitted.values()) / bytes_out * 1e9,
        "scenarios.points": points,
        "scenarios.bytes_out": bytes_out,
        "scenarios.self_share": scenarios_self / main_total,
        "symmetry.build_s": median("symmetry.build"),
        "symmetry.relations_s": median("symmetry.relations"),
        "symmetry.conjugation_s": median("symmetry.conjugation"),
        "symmetry.dim_total": sum(dims),
        "symmetry.int_macs_computed": sum(5 * d**3 for d in dims),
        "symmetry.checks_passed_ratio": (sum(sizes[op]["passed"] for op in reps)
                                         / sum(sizes[op]["checks"] for op in reps)),
        "symmetry.relations_share_max_j": (sum(per_op["symmetry.relations"][op] for op in at_max_j)
                                           / sum(per_op["cli.main"][op] for op in at_max_j)),
        "transform.derive_table_us": result["micro_us"]["transform.derive_table_us"],
        "transform.cross_identify_us": result["micro_us"]["transform.cross_identify_us"],
        "transform.time_reverse_us": result["micro_us"]["transform.time_reverse_us"],
    }


def span_summary(tracer: Tracer) -> dict:
    """Count, total and self seconds per span name."""
    summary: dict[str, dict] = {}
    for s, own in zip(tracer.spans, tracer.self_seconds()):
        entry = summary.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += s.seconds
        entry["self_s"] += own
    return summary
