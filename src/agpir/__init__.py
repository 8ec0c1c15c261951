"""X-secure, T-private information retrieval from curve evaluation codes.

The construction aligns every unwanted cross term of the server responses
into a fixed low-dimensional noise space while the requested fragments stay
in an independent information space; genus-0 schemes recover the classical
cross-subspace alignment codes, and genus-1 schemes trade a few extra
servers for feasibility at smaller field sizes.
"""

from .agcode import (
    LinearCode,
    evaluation_code,
    is_grs,
    min_distance,
    subset_rank_check,
)
from .curve import (
    INFINITY,
    AffinePoint,
    EllipticCurve,
    ProjectiveLine,
    admissible_traces,
    attained_traces,
    find_curve,
    hasse_window,
)
from .field import PrimeField
from .function_space import (
    Divisor,
    QuadraticPlace,
    RationalFunction,
    Y_ZEROS,
    basis_poles_at_infinity,
    interp_basis_g0,
    interp_basis_g1,
    noise_basis_g1,
    rr_dim,
)
from .pir_scheme import (
    Database,
    SchemeInstance,
    SchemeParams,
    build_scheme,
    check_noise_containment,
    decode,
    make_queries,
    scheme_descriptor,
    scheme_from_descriptor,
    server_respond,
    server_view,
    store,
    verify_scheme,
)
from .rates import SweepRow, max_rate_g0, max_rate_g1, rows_to_csv, sweep
from .sim_harness import (
    Transcript,
    exhaustive_privacy_oracle,
    exhaustive_security_oracle,
    run_retrieval,
)

__all__ = [
    "AffinePoint",
    "Database",
    "Divisor",
    "EllipticCurve",
    "INFINITY",
    "LinearCode",
    "PrimeField",
    "ProjectiveLine",
    "QuadraticPlace",
    "RationalFunction",
    "SchemeInstance",
    "SchemeParams",
    "SweepRow",
    "Transcript",
    "Y_ZEROS",
    "admissible_traces",
    "attained_traces",
    "basis_poles_at_infinity",
    "build_scheme",
    "check_noise_containment",
    "decode",
    "evaluation_code",
    "exhaustive_privacy_oracle",
    "exhaustive_security_oracle",
    "find_curve",
    "hasse_window",
    "interp_basis_g0",
    "interp_basis_g1",
    "is_grs",
    "make_queries",
    "max_rate_g0",
    "max_rate_g1",
    "min_distance",
    "noise_basis_g1",
    "rows_to_csv",
    "rr_dim",
    "run_retrieval",
    "scheme_descriptor",
    "scheme_from_descriptor",
    "server_respond",
    "server_view",
    "store",
    "subset_rank_check",
    "sweep",
    "verify_scheme",
]
