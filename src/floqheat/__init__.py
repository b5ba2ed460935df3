"""Heat flux in networks of periodically modulated quantum resonators.

Two independent Floquet solvers (frequency-domain Langevin and Fourier-space
master-equation moments), a brute-force time-domain integrator, and
second-order perturbation theory for the forward/backward flux asymmetry
induced by synthetic electric and magnetic fields.  Regime findings and
notices go to the ``floqheat`` logger; the package attaches only a NullHandler.
"""
import logging

from .model import (
    FloqheatError,
    ValidationError,
    SingularBlockError,
    QuadratureError,
    ConvergenceError,
    SI,
    ResonatorNetwork,
    ModulationProtocol,
    PowerMatrix,
    Violation,
    occupation,
    validate,
    build_chain4,
)
from .config import ConfigError, load_config
from .langevin import (
    assemble_A,
    emitted_power,
    heat_flux_spectrum,
    integrate_power,
    spectral_correlations,
)
from .master import (
    assemble_Mn,
    converged_power_matrix,
    power_matrix,
)
from .perturbation import (
    assemble_Npert,
    delta_n14_closed_form,
    delta_n14_general,
    delta_power_weak_coupling,
    power_second_order,
)
from .scenarios import (
    SweepSpec,
    SweepRow,
    MethodComparison,
    compare_methods,
    default_chain,
    operating_point,
    rectification,
    spectrum_run,
    sweep,
)
from .timedomain import (
    MomentSamples,
    cycle_average_power,
    cycle_averaged_moments,
    evolve_to_cycle,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
