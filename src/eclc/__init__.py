"""Resource-bounded linear-logic inference over energy-weighted Kripke
frames, with a scenario DSL, deterministic simulation drivers, and
exact reporting statistics."""

from .calculus import (
    COST_INVALID,
    DEPTH_EXCEEDED,
    NO_RULE_APPLIES,
    SEARCH_BUDGET_EXCEEDED,
    PreconditionError,
    ProofResult,
    ProofTree,
    Sequent,
    TransitionOutcome,
    cost_valid,
    measure,
    prove,
    render_proof,
    transition,
)
from .dsl import ParseError, ScenarioConfig, parse_formula, parse_scenario, serialize_scenario
from .formula import (
    Atom,
    Bang,
    CostModel,
    Diamond,
    Formula,
    Lolli,
    Tensor,
    With,
    base_cost,
    coherence,
    curvature_cost,
    decohere,
    format_formula,
)
from .frame import Frame, PathCost, UnknownWorldError, World, accessible, eval_diamond, eval_prop, hop_distance, hop_distances, path_cost
from .metrics import (
    ContingencyTable,
    FitResult,
    fisher_exact_two_tailed,
    fit_exponential,
    persistence_score,
    shannon_entropy,
)
from .observer import (
    NOT_ESTABLISHED,
    PRESERVED,
    VIOLATED,
    Observer,
    observer_sees,
    observer_valuation,
    persistence_check,
)
from .sim import (
    ScenarioError,
    ScenarioReport,
    TrialRecord,
    WorldRow,
    derive_trial_seed,
    run_accessibility,
    run_coherence,
    run_reciprocity,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "Atom", "Bang", "CostModel", "Diamond", "Formula", "Lolli", "Tensor", "With",
    "base_cost", "coherence", "curvature_cost", "format_formula",
    "Frame", "PathCost", "UnknownWorldError", "World",
    "accessible", "eval_diamond", "eval_prop", "hop_distance", "hop_distances", "path_cost",
    "COST_INVALID", "DEPTH_EXCEEDED", "NO_RULE_APPLIES", "SEARCH_BUDGET_EXCEEDED",
    "PreconditionError", "ProofResult", "ProofTree", "Sequent", "TransitionOutcome",
    "cost_valid", "measure", "prove", "render_proof", "transition",
    "NOT_ESTABLISHED", "PRESERVED", "VIOLATED", "Observer",
    "observer_sees", "observer_valuation", "persistence_check",
    "ContingencyTable", "FitResult",
    "fisher_exact_two_tailed", "fit_exponential", "persistence_score", "shannon_entropy",
    "ParseError", "ScenarioConfig", "parse_formula", "parse_scenario", "serialize_scenario",
    "ScenarioError", "ScenarioReport", "TrialRecord", "WorldRow",
    "decohere", "derive_trial_seed",
    "run_accessibility", "run_coherence", "run_reciprocity", "run_scenario",
    "__version__",
]
