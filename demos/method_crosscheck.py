"""Three structurally different solvers, one answer.

The frequency-domain Langevin solver integrates spectra, the Fourier-moment
solver does one linear solve, and the time-domain integrator steps the
moment ODEs to the periodic state.  They share no matrix assembly, so their
agreement is the strongest internal check the package has.
"""
import numpy as np

from floqheat.master import power_matrix
from floqheat.scenarios import (DEFAULT_OMEGA0, DEFAULT_T_HOT, compare_methods,
                                default_chain)
from floqheat.timedomain import cycle_average_power, evolve_to_cycle

net, mod = default_chain(beta=0.05 * DEFAULT_OMEGA0, theta=0.5 * np.pi)

print("operating point: beta = Omega = 0.05 w0, theta = pi/2, T_hot = 300 K\n")
report = compare_methods(net, mod)
for line in report.lines():
    print(line)

# the same agreement holds resonator by resonator, not just end to end
hot = net.with_hot_bath(0, DEFAULT_T_HOT)
samples = evolve_to_cycle(hot, mod)
rk4 = cycle_average_power(samples, hot).P[0]
fourier = power_matrix(hot, mod, 15).P[0]

print(f"\nlargest Floquet multiplier of one drive period: "
      f"{samples.floquet_multiplier:.3e}")
print("cycle-averaged power from the bath of resonator 1, rk4 vs fourier [W]:")
for k in range(1, 4):
    a, b = rk4[k], fourier[k]
    print(f"  resonator {k + 1}: {a:.6e}  vs  {b:.6e}"
          f"   (dev {abs(a / b - 1):.1e})")
