"""Medians of the one-shot layer timings that ROADMAP.md lists.

    python3 perfbench/baselines.py

Times each call in process, five times after one warm-up call, and
prints the median with the lowest and highest sample.  The README keeps the
figures measured on the seed code.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import run  # noqa: F401  (one numpy thread; the package from this checkout's src/)

import numpy as np

import gamowkit as gk


def cases():
    pole = gk.ResonancePole(1.0, 0.2)
    prep, decaying = gk.Arrow.PREPARATION_REGISTRATION, gk.Kind.DECAYING
    big = gk.Scenario(pole, prep, decaying, 0, 0.0, 10.0, 1_000_000)
    table = gk.run_decay(big)
    t = big.times()
    energies = np.linspace(-4.0, 6.0, 1_000_000)
    state = gk.canonical_state(prep, decaying, 0, pole)
    reps = {tj: gk.build_representation(4, tj) for tj in (1, 31, 127)}
    yield "run_decay, 1e6 points", lambda: gk.run_decay(big)
    yield "Scenario.checked_times, 1e6 points", big.checked_times
    yield "ResultTable.to_csv, 1e6 rows", table.to_csv
    yield "vectorized np.exp of the same factor, 1e6 points", lambda: np.exp((-0.1 - 1j) * t)
    yield "lineshape, 1e6 points", lambda: gk.lineshape(pole, energies)
    yield "lorentzian_density alone, 1e6 points", lambda: gk.lorentzian_density(pole, energies)
    yield "evolve, 1e4 scalar calls", lambda: [gk.evolve(state, 2.5) for _ in range(10_000)]
    yield "canonical_state, 1e4 calls", lambda: [gk.canonical_state(prep, decaying, 0, pole) for _ in range(10_000)]
    for tj, rep in reps.items():
        yield f"verify_group_relations, row 4, twice_j={tj}", lambda rep=rep: gk.verify_group_relations(rep)
        yield f"check_conjugation_identities, row 4, twice_j={tj}", \
            lambda rep=rep: gk.check_conjugation_identities(rep)


REPEATS = 5


def main() -> int:
    print(f"gamowkit from {Path(gk.__file__).parent}, numpy {np.__version__}, {REPEATS} repeats")
    for name, fn in cases():
        fn()
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        print(f"{name:52s} median {statistics.median(samples):10.4g} s  "
              f"[{min(samples):.4g} .. {max(samples):.4g}]", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
