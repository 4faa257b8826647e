"""Simulation and verification toolkit for homogeneous fragmentation processes.

A fragment of mass m splits at a constant rate into pieces (m*s1, m*s2, ...)
drawn from a dislocation model, independently of everything else.  The
package simulates the resulting ranked mass population and its partition-
valued discretization, evaluates the moment function phi that controls all
mean quantities, and cross-checks simulation against the analytic layer
through martingale, spine, and window-count estimators.
"""

from .analytics import GeometricDetection, PhiDerivatives, PhiEvaluator, detect_geometric
from .errors import (
    BarrierFlagsMissingError,
    BelowPLowerError,
    BracketNotFoundError,
    BudgetExceededError,
    ConfigError,
    DustNotSupportedError,
    FragmentationError,
    InvalidModelError,
    ModelNotFiniteError,
    NonPositiveEntryError,
    NotComputableError,
    OutsideRegimeError,
    RegimeWarning,
    SumExceedsOneError,
    ThinningDirectionError,
    TrivialSplitError,
    UnknownFamilyError,
)
from .ldp import (
    PresenceEstimate,
    RatioTrace,
    corollary_functional,
    estimate_V_manyto1,
    presence_summary,
    ratio_trace,
    window_center,
)
from .martingales import (
    MCResult,
    additive,
    derivative,
    derivative_sensitivity,
    mc_mean,
    truncated_ma,
)
from .measures import (
    AtomicModel,
    DislocationModel,
    MassPartition,
    PowerTailBinaryModel,
    UniformBinaryModel,
    model_from_json,
    model_to_json,
    truncate_family,
    validate,
)
from .partitions import (
    NestedPartitionPath,
    PartitionOfN,
    block_frequency_estimates,
    paintbox,
    simulate_partition,
    simulate_partitions,
    split_rate,
    tagged_xi,
)
from .ranked import (
    PopulationSnapshot,
    empirical_interval_count,
    empirical_moment,
    simulate,
)
from .streams import Stream, derive_key, mix64, replica_key
from .tilting import (
    TaggedLine,
    esscher_exponent,
    simulate_event_log,
    simulate_spine,
    simulate_subordinator,
    thin_fiber,
    tilted_split_rate,
)

__version__ = "0.1.0"
