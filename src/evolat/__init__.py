"""Upper bounds on quantum evolution complexity via lattice optimization."""

__version__ = "0.1.0"

from .engine import (
    ComplexityMetric,
    ComplexityPipeline,
    ComplexityTrace,
    NonlocalityMatrix,
    PlateauStats,
    bi_invariant_complexity,
    bi_invariant_trace,
    complexity_ceiling,
    local_conservation_laws,
    nonlocality_matrix,
    plateau_stats,
)
from .lattice import (
    TriangularLattice,
    babai_nearest_plane,
    enumerate_cvp,
    greedy_descent,
    method_ladder,
    plateau_estimate,
)
from .linalg import (
    HermitianMatrix,
    Spectrum,
    eigendecompose,
    normalize_energies,
    normalize_spectrum,
)
from .spectral import UnfoldedSpacings, ks_distance, poisson_density, unfold, wigner_surmise

__all__ = [name for name in dir() if not name.startswith("_")]
