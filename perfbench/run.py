"""gamowkit benchmark: the CLI end to end, or a traced per-layer run.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the benchmark drives ``python -m gamowkit`` as a
subprocess in a closed loop with one client, checks every output, and
reports the end-to-end metrics.  With ``--trace 1`` it calls the package in
process, wraps the calls into each module in spans, and reports the
per-layer metrics.  The last line of standard output is one JSON object;
a fuller result file, with the run's samples, spans and machine, goes to
``--results``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) \
    if (ROOT / "BENCHMARK.json").is_file() else None

# One thread per numpy in this process and in every child: the loop has one
# client, and nothing may use more threads than the machine has cores.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)
sys.path.insert(0, str(ROOT / "src"))

FRESH_IMPORTS = 12
# Together these keep a run under three minutes: the slowest operation takes
# about 3 s on the seed code.
CHILD_TIMEOUT_S = 30.0
DEADLINE_S = 120.0  # no operation starts later than this into a run
IMPORT_SPLIT = ("import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
                "import gamowkit; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)


class Launcher:
    """The small process that starts every child (see ``launcher.py``)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launcher.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, args: list[str], stdout_path: Path, stderr_path: Path) -> tuple[float, int, float]:
        """Run ``python args`` to completion; return wall seconds, exit code
        and the child's peak RSS in MiB."""
        request = {"argv": [sys.executable, *args], "cwd": str(ROOT), "env": child_env(),
                   "stdout": str(stdout_path), "stderr": str(stderr_path), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        answer = json.loads(reply)
        return answer["wall_s"], answer["code"], answer["rss_mib"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def fresh_imports(launcher: Launcher, work: Path, code: str, count: int) -> list[tuple[float, str]]:
    """Run ``python -c code`` in ``count`` fresh interpreters; return each
    run's wall time and stdout."""
    out, err = work / "import.out", work / "import.err"
    runs = []
    for _ in range(count):
        wall, status, _ = launcher.spawn(["-c", code], out, err)
        if status != 0:
            raise RuntimeError(f"python -c {code!r} failed: {err.read_text()}")
        runs.append((wall, out.read_text()))
    return runs


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - 10)  # 1-based rank of the sample with ten beyond it
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def closed_loop(launcher: Launcher, ops: list, golden, work: Path) -> dict:
    """Run the operations as CLI subprocesses, one at a time, and check each
    output.  Between operations the loop times ``FRESH_IMPORTS`` fresh
    ``import gamowkit`` runs at even intervals, so the set-up samples are
    spread over the whole run rather than bunched at its start."""
    from checks import CheckFailed, check

    launcher.spawn(["-m", "gamowkit", "--help"], work / "help.out", work / "help.err")  # warm-up
    fresh_imports(launcher, work, "import gamowkit", 1)
    every = max(1, len(ops) // FRESH_IMPORTS)
    start = time.perf_counter()
    ran, walls, rss, failed, setup = [], [], [], [], []
    for index, op in enumerate(ops):
        if time.perf_counter() - start > DEADLINE_S:
            log(f"deadline: stopped after {len(walls)} operations")
            break
        if index % every == 0 and len(setup) < FRESH_IMPORTS:
            setup += [wall for wall, _ in fresh_imports(launcher, work, "import gamowkit", 1)]
        wall, code, peak = launcher.spawn(["-m", "gamowkit", *op.argv()], work / "op.out", work / "op.err")
        ran.append(op)
        walls.append(wall)
        rss.append(peak)
        out = ROOT / op.out_path if op.to_file else None
        file_text = out.read_text(encoding="utf-8") if out and out.exists() else None
        try:
            check(op, code, (work / "op.out").read_text(encoding="utf-8"),
                  (work / "op.err").read_text(encoding="utf-8"), file_text, golden)
        except CheckFailed as exc:
            failed.append(op.id)
            log(f"FAILED {op.id} {' '.join(op.argv())}: {exc}")
        if out:
            out.unlink(missing_ok=True)
    if len(setup) < FRESH_IMPORTS:
        setup += [wall for wall, _ in fresh_imports(launcher, work, "import gamowkit", FRESH_IMPORTS - len(setup))]
    return {"ops": ran, "walls": walls, "rss_mib": rss, "failed": failed, "setup": setup}


def machine() -> dict:
    def cpu_model() -> str:
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def last_level_cache() -> str:
        best = (0, "unknown")
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                level = int((index / "level").read_text())
                if level >= best[0]:
                    best = (level, f"L{level} {(index / 'size').read_text().strip()}")
            except (OSError, ValueError):
                continue
        return best[1]

    def git_commit() -> str:
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                  timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
            return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown (git not available)"

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "last_level_cache": last_level_cache(),
        "git_commit": git_commit(),
        "child_thread_env": THREAD_ENV,
    }


def end_to_end(loop: dict) -> tuple[dict, dict]:
    walls, setup = loop["walls"], loop["setup"]
    percentile, tail_s = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "cmd_p50_s": statistics.median(walls),
        "cmd_tail_s": tail_s,
        "ops_per_s": len(walls) / sum(walls),
        "peak_rss_mb": max(loop["rss_mib"]),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports spread over the run",
        "cmd_tail_s": f"p{percentile:.1f} of {len(walls)} samples, 10 beyond",
        "peak_rss_mb": "MiB, largest child",
    }
    return metrics, notes


def parse_args(argv):
    from workloads import BLOCKS, SPEC

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BLOCKS))
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"] if BENCH else 35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=ROOT / "perfbench" / "results",
                        help="directory for the result file (default perfbench/results)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    args.results = args.results.resolve()
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/gamowkit/__init__.py", "tests/golden_tables.py", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        log(f"error: not a gamowkit source checkout, missing {', '.join(missing)}")
        return 2
    os.chdir(ROOT)  # the CLI resolves --out paths against the working directory
    launcher = Launcher()  # before this process imports numpy and grows
    try:
        return measure(args, launcher)
    finally:
        launcher.close()


def measure(args, launcher: Launcher) -> int:
    import gamowkit

    if Path(gamowkit.__file__).resolve().parent != ROOT / "src" / "gamowkit":
        log(f"error: imported gamowkit from {gamowkit.__file__}, not from {ROOT / 'src'}")
        return 2
    from checks import load_golden
    from workloads import UNKNOWN_KEY_CONFIG, WORK_DIR, blocks, probe, run_blocks

    golden = load_golden(ROOT)
    work = ROOT / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    (ROOT / UNKNOWN_KEY_CONFIG).write_text("colour = red\n", encoding="utf-8")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine()}
    started = time.perf_counter()
    try:
        if args.trace:
            import traced

            fresh_imports(launcher, work, IMPORT_SPLIT, 1)  # warm-up for bytecode and the file cache
            split = [tuple(map(float, out.split()))
                     for _, out in fresh_imports(launcher, work, IMPORT_SPLIT, FRESH_IMPORTS)]

            block = next(blocks(args.workload, args.seed))
            probe_ops = probe(args.seed)
            ops = block + probe_ops
            result = traced.run(block, probe_ops, golden, ROOT, log)
            metrics = {"cli.import_numpy_s": statistics.median(numpy_s for numpy_s, _ in split),
                       "cli.import_gamowkit_s": statistics.median(gamowkit_s for _, gamowkit_s in split),
                       **traced.layer_metrics(result, block, probe_ops)}
            attempted, failed = len(ops), result["failed"]
            tracer = result["tracer"]
            notes = {"trace": f"{len(tracer.spans)} spans; replay traced {result['traced_s']:.4f} s, "
                              f"untraced {result['untraced_s']:.4f} s, overhead "
                              f"{result['traced_s'] - result['untraced_s']:+.4f} s"}
            record.update(
                overhead_s=result["traced_s"] - result["untraced_s"],
                traced_s=result["traced_s"], untraced_s=result["untraced_s"],
                span_summary=traced.span_summary(tracer),
                spans=[{"name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns, "parent": s.parent,
                        "op": s.op, "self_s": own} for s, own in zip(tracer.spans, tracer.self_seconds())])
        else:
            ops = [op for block in itertools.islice(blocks(args.workload, args.seed),
                                                    run_blocks(args.workload, args.seconds)) for op in block]
            loop = closed_loop(launcher, ops, golden, work)
            ops = loop["ops"]
            metrics, notes = end_to_end(loop)
            attempted, failed = len(loop["walls"]), loop["failed"]
            record.update(walls_s=loop["walls"], rss_mib=loop["rss_mib"], setup_samples_s=loop["setup"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.perf_counter() - started

    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    record.update(attempted=attempted, failed=len(failed), failed_ops=failed, failed_ratio=len(failed) / attempted,
                  elapsed_s=elapsed, notes=notes,
                  operations=[{"id": op.id, "argv": op.argv()} for op in ops],
                  metrics={name: {"value": value, "unit": units[name]} for name, value in metrics.items()})
    args.results.mkdir(parents=True, exist_ok=True)
    path = args.results / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} operations, "
          f"{len(failed)} failed, {elapsed:.1f} s; result file {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    for name, entry in record["metrics"].items():
        print(f"  {name:34s} {entry['value']:>14.6g} {entry['unit']:8s} {notes.get(name, '')}")
    print(f"  {'failed_ratio':34s} {len(failed) / attempted:>14.6g} {'ratio':8s} ({len(failed)}/{attempted})")
    if args.trace:
        print(f"  {notes['trace']}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
