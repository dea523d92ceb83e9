"""Apply time reversal to the laboratory states and derive both tables.

Time reversal flips the half-plane label, the regime index, and the pole
kind, swaps the role, and reflects the time domain.  Tabulating the two
r = 0 states of each arrow convention together with their images yields the
four-cell summary table of that convention.
"""

from gamowkit import (
    Arrow,
    Kind,
    ResonancePole,
    branch_for,
    build_representation,
    canonical_state,
    cross_identify,
    derive_table,
    time_reverse,
    time_reverse_twice,
)

pole = ResonancePole(1.0, 0.2)

print("one time-reversal step in the laboratory convention:")
before = canonical_state(Arrow.PREPARATION_REGISTRATION, Kind.GROWING, 0, pole)
after = time_reverse(before)
for prefix, state in (("  ", before), ("    -> ", after)):
    branch = branch_for(state)
    print(f"{prefix}{state.bracket}  (branch {branch.label}, "
          f"{branch.domain.half.value}, read {branch.domain.value})")
print(f"  roles: {before.role.value} -> {after.role.value}")
amp_state = canonical_state(Arrow.PREPARATION_REGISTRATION, Kind.GROWING, 0, pole,
                            amplitude=1.0 + 2.0j)
print(f"  amplitude 1+2j -> {time_reverse(amp_state).amplitude}  (antilinear)")
print()

for arrow in Arrow:
    table = derive_table(arrow)
    print(f"derived table, {arrow.value}:")
    header = f"  {'row':9} {'r':>1}  {'bracket':22} {'domain':7} {'read':8} branch"
    print(header)
    for cell in table.cells:
        print(f"  {cell.row_label:9} {cell.regime:>1}  {cell.bracket:22} "
              f"{cell.orientation.half.value:7} {cell.orientation.value:8} {cell.branch}")
    print()

print("double reversal with a doubled family attached returns the family sign:")
for row in (2, 3, 4):
    rep = build_representation(row, 0)
    state = canonical_state(Arrow.EXCITATION_DEEXCITATION, Kind.DECAYING, 0, pole)
    restored, sign = time_reverse_twice(state, rep)
    print(f"  family {row}, spin 0: R^2 scalar = {sign:+d} "
          f"(descriptor restored: {restored == state})")
print()

print("regime identification of the excitation/de-excitation branches:")
for label in ("5a", "5b"):
    record = cross_identify(label)
    match = f", factor pattern of {record.matches_factor_of}" if record.matches_factor_of else ""
    print(f"  {label} -> r = {record.regime}{match}")
