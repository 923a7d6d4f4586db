"""Classical dynamics in the complex plane for the PT-symmetric potential
V(z) = -(zeta cosh 2z - iM)^2: closed orbits, escape thresholds,
complex-energy tunneling between lattice wells, and the quasi-exactly
solvable spectrum of the quantum counterpart."""

from .analysis import (
    BoundaryResult,
    Chirality,
    CrossingDirection,
    CrossingEvent,
    DwellSegment,
    OrbitClass,
    OrbitKind,
    TunnelingStats,
    anchor_episodes,
    classify_orbit,
    closed_orbit_boundary,
    detect_axis_crossings,
    dwell_segments,
    measure_tunneling,
    self_intersections,
    separatrix_offset,
    spiral_chirality,
    spiral_windows,
    tunnel_well_pair,
)
from .dynamics import (
    PARITY_POINT,
    SystemParams,
    hamiltonian,
    potential,
    potential_gradient,
    real_axis_hermitian_potential,
)
from .errors import (
    AmbiguousOrbitError,
    BracketingError,
    ClassificationMismatchError,
    DegenerateWindingError,
    DomainError,
    InsufficientCrossingsError,
    NonFiniteStateError,
    PtwellsError,
    UnsupportedOrderError,
)
from .integrator import (
    IntegratorConfig,
    MomentumBranch,
    PhaseState,
    Termination,
    Trajectory,
    derivative,
    initial_momentum,
    integrate,
)
from .spectrum import PTPhase, PTPhaseReport, QESLevel, pt_phase, qes_levels
from .wells import Side, WellIndex, nearest_well, well_center, well_x

__version__ = "0.1.0"
