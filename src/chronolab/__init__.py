"""chronolab: a numerical laboratory for clock-extended Hamiltonian systems.

Classical side: a canonical pair (T, S) is adjoined to an autonomous system,
the combined energy is pinned to zero, and the extended flow is checked to
reproduce the original one.  Quantum side: the same construction on a
truncated system space tensored with a finite clock register; the zero-energy
constraint selects the physical subspace, whose induced time measurement is
a genuine POVM with non-orthogonal, non-idempotent effects.
"""

from .classical import (
    EquivalenceReport,
    ExtendedPhaseState,
    ExtendedSystem,
    HamiltonianSystem,
    PhaseState,
    Trajectory,
    check_equivalence,
    coordinate,
    extend_state,
    free_particle,
    harmonic_oscillator,
    integrate_extended,
    integrate_original,
    poisson_bracket,
    quartic_oscillator,
)
from .config import ScenarioConfig, parse_config, serialize_config
from .constraint import (
    MatchedPair,
    MissDiagnostic,
    PhysicalState,
    PhysicalSubspace,
    make_physical_state,
    principal_angles,
    snap_energies,
    solve_constraint_kernel,
    solve_constraint_spectral,
    stationarity_check,
)
from .errors import (
    ChronolabError,
    ConfigError,
    DivergenceError,
    InvalidInputError,
    NoPhysicalStatesError,
    NumericalFailureError,
)
from .povm import (
    EventOperator,
    TimePOVM,
    build_time_povm,
    conditional_state,
    conditional_states,
    covariance_report,
    event_probability,
    pm_violation_report,
    projective_clock_povm,
    time_distribution,
)
from .quantum import (
    ClockSpace,
    ExtendedSpace,
    SystemSpace,
    build_clock,
    build_extended,
    build_system_space,
    commutator_residual,
    evolve_extended,
    evolve_factored,
    gaussian_clock_state,
    separable_state,
    uncertainty_product,
)
from .scenarios import AuditReport, bundled_scenarios, run_scenario

__version__ = "0.1.0"
