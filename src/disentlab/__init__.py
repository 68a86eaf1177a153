"""Verification lab for weakly supervised disentanglement.

Synthetic oracle worlds, weak-supervision samplers, exact and Monte-Carlo
consistency/restrictiveness metrics, a fact-closure calculus with traces,
and an exhaustive distribution-matching learner, all cross-checked by
independent brute-force oracles.
"""

from .calculus import Fact, FactSet, closure, derive, entails, nuisance_closure, parse_facts, plan_supervision
from .continuous import DiskRotationWorld, RotationCandidate, rotation_world
from .errors import DisentlabError
from .indexset import IndexSet
from .learner import enumerate_matched, find_violating_model, verify_guarantee
from .metrics import (
    EvaluationTarget,
    MatchCheckResult,
    MigReport,
    ScoreReport,
    holds,
    mc_match_check,
    mig,
    normalized_consistency,
    normalized_restrictiveness,
    raw_consistency,
)
from .supervision import (
    AugmentedTable,
    SupervisionSpec,
    augmented_table,
    read_dataset,
    sample_records,
    tables_match,
    write_dataset,
)
from .verify import (
    check_assumptions,
    check_fact_brute,
    check_nuisance_guarantee,
    exhaustive_bijection_sweep,
    run_counterexample_suite,
    soundness_sweep,
    verify_theorem_guarantees,
    zigzag_guard,
)
from .worlds import (
    CandidateModel,
    DiscreteWorld,
    load_world,
    random_world,
    save_world,
    schematic_world,
    uniform_world,
    world_from_doc,
    zigzag_connected_support,
)

__version__ = "0.1.0"
