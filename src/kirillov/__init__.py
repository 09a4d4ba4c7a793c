"""Jordan-type censuses of nilpotent matrices over finite fields.

Type A counts come from the removable-cell recursion.  The g2 counts
come from censuses of the parametrized 7x7 representation plus exact
interpolation: ``g2_interpolate`` and the CLI take the torus-weighted
route (4q^4 tuples) unless asked for the exhaustive one (all q^6), the
default of ``g2_census``.  See the README for the CLI surface.
"""

from .errors import (
    BadCharacteristic,
    BadPrime,
    DuplicateAbscissa,
    InexactDivision,
    InsufficientPoints,
    InvalidRankSequence,
    NonIntegerCoefficients,
    NotAField,
    NotNilpotent,
    NotPrime,
    PredicateMismatch,
    TooLarge,
    ZeroPolynomial,
)
from .fields import (
    FieldCtx,
    FMatrix,
    field_of_order,
    jordan_type,
    make_prime_field,
    rank_sequence,
)
from .intpoly import (
    IntPoly,
    SplitForm,
    Verdict,
    ddf_degrees,
    irreducibility,
    poly_interpolate,
    split_qfactors,
)
from .multipoly import MultiPoly
from .partitions import (
    Partition,
    RemovableCell,
    jordan_type_from_ranks,
    partitions_of,
)
from .typea import (
    ValuationProfile,
    brute_force_census,
    conservation_sum,
    kirillov_recursion,
    reducibility_scan,
    valuation_profile,
    vla_table_n4,
)
from .g2 import (
    CensusReport,
    G2Params,
    build_chevalley,
    closed_form_case_counts,
    expected_polynomials,
    g2_census,
    g2_interpolate,
    predicted_rank_sequence,
    springer_check,
    verify_displayed_powers,
    x_of,
)

__all__ = [name for name in dir() if not name.startswith("_")]
