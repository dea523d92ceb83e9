"""Lorentzian lineshape of a resonance and the S-matrix reciprocity check.

The pole pair fixes a unit-area Lorentzian peaked at E_R with half-width
Gamma/2, and a rank-one S-matrix that is unimodular on the real axis with
conj(S) = 1/S.
"""

import numpy as np

from gamowkit import ResonancePole, lineshape, lorentzian_density, resonance_s_matrix

# numpy < 2.0 names the trapezoidal rule trapz
trapezoid = getattr(np, "trapezoid", None) or np.trapz

pole = ResonancePole(energy=1.0, width=0.2)
peak = lorentzian_density(pole, [pole.energy])[0]
print(f"resonance E_R = {pole.energy}, Gamma = {pole.width}")
print(f"  peak density at E_R:      {peak:.10f}  (= 2/(pi Gamma) = {2 / (np.pi * pole.width):.10f})")
half = lorentzian_density(pole, [pole.energy + 0.5 * pole.width])[0]
print(f"  density at E_R + Gamma/2: {half:.10f}  (= peak/2 = {0.5 * peak:.10f})")

energies = np.linspace(pole.energy - 50 * pole.width, pole.energy + 50 * pole.width, 100_001)
area = trapezoid(lorentzian_density(pole, energies), energies)
print(f"  area over +-50 widths:    {area:.6f}  (unit area up to truncation)")
print()

table = lineshape(pole, np.linspace(0.6, 1.4, 9))
print("lineshape table around the peak:")
print("  " + ", ".join(table.columns))
for row in table.rows:
    print(f"  {row[0]:+.3f}, {row[1]:.6f}")
print()

s = resonance_s_matrix(pole, energies)
print("rank-one S-matrix on the real axis:")
print(f"  S(E_R) = {resonance_s_matrix(pole, [pole.energy])[0]:+.6f}")
print(f"  max | |S| - 1 |        = {np.max(np.abs(np.abs(s) - 1.0)):.3e}")
print(f"  max | conj(S) - 1/S |  = {np.max(np.abs(np.conj(s) - 1.0 / s)):.3e}")
