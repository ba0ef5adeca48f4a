"""polaron-lab: strong-coupling polaron numerics on periodic grids.

Library layout:

* ``spectral_core``  - grids, fields, transforms, Coulomb-type kernels
* ``pekar``          - ground-state (Choquard) minimization and its identities
* ``lp_dynamics``    - coupled electron/phonon effective dynamics
* ``fock_sim``       - exact simulation on a truncated Fock space
* ``npolaron``       - multi-electron ground states and dynamics
* ``radial_oracle``  - independent radial reference solver
* ``runner``/``cli`` - reproducible experiment orchestration
* ``acceptance``     - the desk-scale acceptance suite
"""

from .errors import (
    BlowUpError,
    ConvergenceError,
    GridMismatchError,
    MeasureConsistencyError,
    PolaronLabError,
    ProjectionError,
    SchemaError,
    SizingError,
    UnsupportedKernelError,
)
from .spectral_core import (
    FormFactor,
    Grid,
    HartreeEnergy,
    WaveField,
    hartree_energy,
    kernel_potential,
    kinetic_energy,
)
from .pekar import (
    PekarSolution,
    coherent_displacement,
    energy_gradient,
    load_solution,
    minimize_pekar,
    pekar_energy,
    save_solution,
)
from .lp_dynamics import (
    LPConfig,
    LPState,
    OscillatorRep,
    QuadratureRep,
    df_energy,
    df_error_integral,
    evolve,
    initial_state,
    stationary_label,
    step,
)
from .fock_sim import (
    FockBasis,
    FockConfig,
    FockOperatorSet,
    assemble,
    coherent_state,
    discrete_pekar,
    error_sweep_coherent,
    error_sweep_stationary,
    ground_state,
    inequality_suite,
    make_defect_evaluator,
    projector_identities,
    weyl_apply,
)
from .npolaron import PTConfig, PTSolution, binding_scan, dfn_evolve, minimize_pt, pt_energy
from .radial_oracle import radial_ground_state

__version__ = "0.1.0"
