"""Spectrally resolved heat flux in forward and backward direction.

At beta = Omega = 0.05 w0 and theta = pi/2 the flux spectra differ around
the resonance -- detailed balance is broken frequency by frequency -- and
the sideband peaks at w0 +- m Omega stay tiny.  Integrating each spectrum
over d omega / 2 pi recovers the net transferred powers.
"""
import numpy as np

from floqheat.scenarios import (DEFAULT_OMEGA0, default_chain,
                                default_spectrum_grid, spectrum_run,
                                write_spectrum_csv)

net, mod = default_chain(beta=0.05 * DEFAULT_OMEGA0, theta=0.5 * np.pi)
n_max = 10

grid = default_spectrum_grid(net, mod, n_max)
grid, fwd, bwd = spectrum_run(net, mod, grid=grid, n_max=n_max)
print(f"{grid.size} frequency points spanning "
      f"[{grid[0]:.3e}, {grid[-1]:.3e}] rad/s")

kappa = net.kappa[0]
print("\n  (w - w0)/Omega   forward [W s/rad]   backward [W s/rad]")
for m in (-2, -1, 0, 1, 2):
    w = DEFAULT_OMEGA0 + m * mod.Omega
    i = np.argmin(np.abs(grid - w))
    print(f"      {m:+d}           {fwd[i]:.4e}          {bwd[i]:.4e}")

i0 = np.argmin(np.abs(grid - DEFAULT_OMEGA0))
print("\nforward/backward at resonance: %.3f" % (fwd[i0] / bwd[i0]))
print("first sideband weight relative to the main peak: %.1e"
      % (fwd[np.argmin(np.abs(grid - DEFAULT_OMEGA0 - mod.Omega))] / fwd[i0]))

p14 = np.trapezoid(fwd, grid) / (2 * np.pi)
p41 = np.trapezoid(bwd, grid) / (2 * np.pi)
print("\nintegrated spectra: P14 = %.4e W, P41 = %.4e W" % (p14, p41))
print("net rectification from the spectra: E = %+.4f"
      % ((p14 - p41) / (p14 + p41)))

write_spectrum_csv("power_spectra.csv", grid, {(0, 3): fwd, (3, 0): bwd})
print("wrote power_spectra.csv")
