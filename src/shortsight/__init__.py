"""Exact diagnostics for learning from fixed-length trajectory windows in
tabular finite-horizon MDPs: does a windowed interface keep enough
information to identify optimal policies?"""

from .counterexamples import (
    FAMILIES,
    ClaimCheck,
    CounterexampleSpec,
    PropositionReport,
    build_aliasing,
    build_counterexample,
    build_greedy,
    build_prefix,
    commit_policies,
    greedy_policies,
    verify_proposition,
)
from .errors import (
    DocumentError,
    InvalidParam,
    InvalidTrajectory,
    ModelMismatch,
    ParseError,
    PolicyMismatch,
    ShortsightError,
    ValidationError,
)
from .evaluate import OccupancyTable, full_return, occupancy, step_rewards, truncated_return
from .mdp import (
    Policy,
    TabularMDP,
    Trajectory,
    build_mdp,
    half_behavior,
    make_nonstationary,
    make_stationary,
    policy_at_index,
    policy_class_size,
    rational,
    validate_mdp,
)
from .observation import (
    ObservationModel,
    ObservedSegment,
    SegmentDistribution,
    all_window_starts,
    coarsen,
    distributions_equal,
    identity_phi,
    observe,
    segment_distribution,
    validate_model,
    validate_policy,
)
from .offline import EmpiricalSegmentStats, OfflineDataset, empirical_segments, sample_dataset, tv_distance
from .sufficiency import (
    DEFAULT_CAP,
    OrderingReport,
    PolicyClass,
    SufficiencyVerdict,
    Witness,
    check_objective_consistency,
    check_sufficiency,
)

__version__ = "0.1.0"
