"""Exact staircases of best rational approximation and their order dynamics.

Everything is integer or Fraction arithmetic on continued fraction
expansions; no floats are consulted for any decision.
"""

__version__ = "0.1.0"

from .cf_engine import (
    ConvergentState,
    ExplicitSource,
    PartialQuotientSource,
    PeriodicSource,
    RationalBracket,
    RuleSource,
    SeededSource,
    bracket,
    initial_state,
    parse_source,
    tail_bracket,
)
from .errors import (
    CapExceeded,
    ComparisonUndecided,
    EnumerationInferenceFailed,
    HypothesisNotMet,
    IndexOutOfRange,
    InfeasibleSchedule,
    IrrMeasureError,
    LengthMismatch,
    NotAJumpPoint,
    PatternMismatch,
    QuotientUnderflow,
    SourceExhausted,
    UnknownLabel,
)
from .order_dynamics import (
    ChangeMoment,
    ChangeTrace,
    FunctionTuple,
    JumpEvent,
    build_events,
    change_trace,
    clamp_start,
    distinct_vectors,
    iter_events,
    order_vector_at,
    tuple_from_header,
)
from .psi import (
    ApproximationError,
    brute_force_psi,
    iter_brute_force_psi,
    nearest_integer_distance,
    psi_at,
    psi_left_limit,
)
from .structure_verify import (
    BoundCheck,
    PrejumpScanReport,
    TripleCoincidenceReport,
    VerificationReport,
    bound_check,
    check_prejump_reversal,
    check_triple_coincidence,
    preimage,
    project,
    sign_changes,
    verify_structure,
)
from .synth import (
    EventCertificate,
    JumpSchedule,
    SynthesisResult,
    default_prefixes,
    extremal_schedule,
    load_schedule,
    merge_congruences,
    replay_check,
    synthesize,
)
from .triangle_perm import (
    apply_pi,
    canonical_pairs,
    cycle_decomposition,
    linear_index,
    pi_order,
    position_permutation,
    render_diagram,
    triangle_size,
)
