"""Fixed-confidence best-arm identification with gap-entropy elimination.

Library plus CLI simulator: instance analytics (gap groups, complexity,
gap entropy, conjectured bound), the four sampling primitives, the
elimination solver plans and their ``solve`` driver, a confidence-laddered
parallel wrapper, a sign-test harness, and a seeded Monte-Carlo bench.
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
from .oracle import MeanRequest, SamplingOracle, TallyRequest
from .primitives import (
    BudgetExceededError,
    run_plan,
    unif_sample_size,
)
from .solvers import (
    BUDGET_EXCEEDED,
    OK,
    REJECTED,
    RoundEvent,
    RunOutcome,
    baseline_successive_elimination_plan,
    complexity_guessing_plan,
    entropy_elimination_plan,
    known_complexity_plan,
    solve,
)
from .parallel import parallel_simulation
from .signxi import LossProfile, measure_loss_profile, sign_instance
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
