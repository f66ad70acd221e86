"""trisieve: screen rational triangles in the hard obtuse window.

The library implements the usable-unit obstruction for rational
triangles (angles p/n, q/n, r/n of a straight angle), the counting
function S(p, q) with its exact spectral decomposition into Ramanujan
sums, the residue-class error bounds that bite when n has a large prime
factor, and per-denominator density surveys. Brute-force oracles back
every closed form at desk scale.
"""

from .arith import (
    FactorProfile,
    UnitSet,
    divisors,
    factor_profile,
    is_prime,
    ramanujan,
    ramanujan_divisor_sum,
    ramanujan_oracle,
    unit_set,
)
from .criterion import (
    MODE_TWO_OF_THREE,
    MODE_TWO_PQ,
    WitnessReport,
    count_S,
    find_witness,
    ineq_holds,
    sweep_window,
)
from .fourier import (
    BoundCheck,
    ExceptionalSet,
    SpectralDecomposition,
    exceptional_set,
    interval_hat,
    main_term,
    sigma_residue,
    spectral_S,
    verify_error_bound,
)
from .survey import (
    CSV_HEADER,
    SurveyRecord,
    in_region_C,
    omega_plus_member,
    record_row,
    survey_n,
    survey_range,
    write_csv,
)
from .triangle import (
    FAMILY_HOOPER,
    FAMILY_NONE,
    FAMILY_ONE,
    FAMILY_TWO,
    TriangleClass,
    TriangleParams,
    classify,
    hard_window_pairs,
    normalize,
)

__version__ = "0.1.0"
