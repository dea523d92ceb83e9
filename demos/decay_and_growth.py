"""Walk through the half-domain evolution of growing and decaying states.

A decaying state lives on t >= 0 and loses modulus at the rate Gamma; its
growing partner lives on t <= 0 and builds up toward t = 0.  Neither can be
pushed across t = 0: the evolution is a semigroup with no inverse, and the
library enforces that with an exception.
"""

import numpy as np

from gamowkit import (
    Arrow,
    DomainViolationError,
    Kind,
    ResonancePole,
    Scenario,
    branch_for,
    canonical_state,
    evolve,
    run_decay,
    survival_probability,
)

pole = ResonancePole(energy=1.0, width=0.2)
print(f"resonance: E_R = {pole.energy}, Gamma = {pole.width}")
print(f"pole pair: {pole.decaying_pole} (decaying), {pole.growing_pole} (growing)")
print()

decaying = canonical_state(Arrow.PREPARATION_REGISTRATION, Kind.DECAYING, 0, pole)
branch = branch_for(decaying)
print(f"decaying laboratory state {decaying.bracket}")
print(f"  branch {branch.label}: domain {branch.domain.half.value}, "
      f"read {branch.domain.value}")
for t in (0.0, 2.0, 5.0, 10.0):
    print(f"  t = {t:5.1f}: factor = {evolve(decaying, t):+.6f}, "
          f"survival = {survival_probability(decaying, t):.6f} "
          f"(exp(-Gamma t) = {np.exp(-pole.width * t):.6f})")
print()

growing = canonical_state(Arrow.PREPARATION_REGISTRATION, Kind.GROWING, 0, pole)
branch = branch_for(growing)
print(f"growing laboratory state {growing.bracket}")
print(f"  branch {branch.label}: domain {branch.domain.half.value}, "
      f"read {branch.domain.value}")
for t in (-10.0, -5.0, -2.0, 0.0):
    print(f"  t = {t:5.1f}: |factor| = {abs(evolve(growing, t)):.6f}  (builds up toward t = 0)")
print()

print("no inverse across t = 0:")
try:
    evolve(decaying, -1.0)
except DomainViolationError as exc:
    print(f"  evolve(decaying, -1.0) -> {exc}")
print()

print("full decay curve as a table (first rows shown):")
table = run_decay(Scenario(pole, Arrow.PREPARATION_REGISTRATION, Kind.DECAYING, 0,
                           t_min=0.0, t_max=10.0, steps=6))
print("  " + ", ".join(table.columns))
for row in table.rows[:4]:
    print("  " + ", ".join(f"{x:+.6f}" for x in row))
