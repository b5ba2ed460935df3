"""Baseline of every other demo: the unmodulated four-resonator chain.

With the drive off, the chain is an ordinary weakly coupled ladder: power
flows from the 300 K bath on resonator 1 to the cold end, the same in both
directions, and both solver families must land on the same number (about
5.9e-22 W for these graphene-flake-like rates).
"""
from floqheat import default_chain, occupation, operating_point
from floqheat.scenarios import DEFAULT_OMEGA0, DEFAULT_T_HOT

net, mod = default_chain(beta=0.0)

print("chain: omega_0 = %.3e rad/s, kappa = %.3e rad/s, g = %.3e rad/s"
      % (net.omega[0], net.kappa[0], net.g[0, 1].real))
n_hot = occupation(DEFAULT_T_HOT, DEFAULT_OMEGA0)
print("hot-bath occupation at 300 K: n = %.6f" % n_hot)
print("single-link scale hbar w 2 kappa n = %.3e W"
      % (1.054571817e-34 * DEFAULT_OMEGA0 * 2 * net.kappa[0] * n_hot))
print()

# frequency-domain Langevin route: integrate the heat-flux spectrum
qle = operating_point(net, mod, "qle")
# Fourier-moment route: one linear solve, no integration
qme = operating_point(net, mod, "qme")

print("                 P14 [W]        P41 [W]")
print("spectral      %.6e   %.6e" % (qle.P14, qle.P41))
print("moment-space  %.6e   %.6e" % (qme.P14, qme.P41))
print("cross deviation: %.2e" % abs(qle.P14 / qme.P14 - 1))
print("rectification E = %+.2e (reciprocal transport: E = 0)" % qme.E)

# the end-to-end transfer is a three-hop process, so it rides at
# (g/kappa)^6 below the single-link scale -- twelve orders down here
ratio = qme.P14 / (1.054571817e-34 * DEFAULT_OMEGA0 * 2 * net.kappa[0] * n_hot)
print("\nend-to-end transfer sits %.1e below the single-link scale" % ratio)
