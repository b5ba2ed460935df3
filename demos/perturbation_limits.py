"""Where second-order perturbation theory works, and where it gives out.

Three approximations to the flux asymmetry: the moment solver truncated at
the first sidebands (pert1, the full inverse of the sideband-eliminated
system), its Neumann expansion (pert2), and the weak-coupling closed form
proportional to beta^2 sin(theta).  All three converge on the exact answer
as beta -> 0; pert1 survives to the largest drive.
"""
import numpy as np

from floqheat.scenarios import (DEFAULT_OMEGA0, default_chain, operating_point,
                                write_perturbation_csv)

theta = 0.5 * np.pi
methods = ("qme", "pert1", "pert2", "closed")
records = []
print(" beta/w0    dP exact [W]    full inv      Neumann      closed form")
for beta_frac in (0.002, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06):
    net, mod = default_chain(beta=beta_frac * DEFAULT_OMEGA0, theta=theta)
    exact, *approx = (operating_point(net, mod, m).dP for m in methods)
    records.append((mod.beta, theta, exact, *approx))
    print(f"  {beta_frac:5.3f}    {exact:+.4e}   "
          + "     ".join(f"{d / exact:7.3f}x" for d in approx))

print("\n(ratios to the exact difference; 1.000x is perfect)")
print("the beta^2 law is exact for the closed form, so its ratio drifts")
print("once the exact asymmetry saturates at stronger drive")

b = np.array([r[0] for r in records[:4]])
d = np.array([abs(r[2]) for r in records[:4]])
slope = np.polyfit(np.log(b), np.log(d), 1)[0]
print(f"\nsmall-beta log-log slope of |dP exact|: {slope:.3f} (expected 2)")

write_perturbation_csv("perturbation_limits.csv", records)
print("wrote perturbation_limits.csv")
