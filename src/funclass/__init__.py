"""Analysis of functions sampled on uniform grids: subadditivity of any order,
largest subadditive minorants, periodic monotonicity with heights and
envelopes, and star-convexity with central sets."""

from .grid import (
    GridError,
    GridFunction,
    Tolerance,
    Witness,
    Witnesses,
    read_csv,
    read_json,
    sample,
    write_csv,
    write_json,
)
from .periodic import (
    EnvelopeSet,
    HatBoundReport,
    HeightProfile,
    PeriodSpec,
    PeriodicCheckResult,
    PeriodicDecomposition,
    PerturbationReport,
    check_hat_bound,
    decompose,
    envelopes,
    greatest_periodic_minorant,
    heights,
    is_periodically_increasing,
    perturbation_check,
)
from .starconvex import (
    RegionCheckReport,
    RegionKind,
    RegionSpec,
    ShapeClass,
    StarReport,
    StarWitness,
    central_set,
    classify_shape,
    is_center,
    region_star_check,
)
from .subadd import (
    MinorantResult,
    PowerFit,
    SubadditivityReport,
    check_order,
    check_order_offset,
    check_weak_bound,
    fit_power,
    functional_equation_residual,
    minimal_order,
    nth_root_transform,
    ratio_coefficient,
    ratio_transform,
    subadditive_minorant,
)

__version__ = "0.1.0"
