"""relspec: a numerical laboratory for relative spectral geometry on
cylinders with funnel, cusp, and boundary ends under conformal surgery."""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    BumpSpec,
    EndModel,
    MetricProfile,
    SurfaceSpec,
    Truncation,
    build_weight,
    flat_cylinder,
    relative_area,
)
from .discretize import Eigensystem, make_grid, solve_modes  # noqa: F401
from .spectral import TraceSeries, heat_trace, relative_trace_series, spectral_gap  # noqa: F401
from .zeta import (  # noqa: F401
    DeterminantResult,
    HeatInvariants,
    determinant_from_series,
    fit_heat_invariants,
)
