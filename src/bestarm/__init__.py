"""Fixed-confidence best-arm identification with gap-entropy elimination.

Library plus CLI simulator: instance analytics (gap groups, complexity,
gap entropy, conjectured bound), the four sampling primitives, the
elimination solvers, a confidence-laddered parallel wrapper, a sign-test
harness, and a seeded Monte-Carlo bench.
"""

from .instances import (
    GapProfile,
    Instance,
    conjectured_bound,
    format_instance,
    group_index,
    make_discrete_instance,
    parse_instance,
    profile,
    profile_csv_row,
)
from .oracle import SamplingOracle
from .primitives import (
    BudgetExceededError,
    EstimateMap,
    MeanRequest,
    TallyRequest,
    elimination,
    frac_test,
    med_elim,
    run_plan,
    unif_sampl,
    unif_sample_size,
)
from .solvers import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    OK,
    REJECTED,
    RoundEvent,
    RunOutcome,
    baseline_successive_elimination,
    complexity_guessing,
    entropy_elimination,
    known_complexity,
)
from .parallel import copy_seed, parallel_simulation
from .signxi import (
    LossProfile,
    SignResult,
    measure_loss_profile,
    run_sign_trial,
    sign_instance,
    solve_sign_xi,
)
from .bench import (
    ALGORITHMS,
    TrialReport,
    equal_h_pair,
    generate_instances,
    run_one_trial,
    run_trials,
    write_reports,
)

__version__ = "0.1.0"
