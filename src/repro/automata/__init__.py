"""Discrete-time I/O automata — the paper's formal substrate (§2).

This package implements Definitions 1–9 of the paper: automata with
power-set I/O alphabets and one-time-unit transitions, runs and traces,
synchronous parallel composition, the refinement preorder ``⊑``,
incomplete automata with refusal sets, and the chaotic closure that
turns partial knowledge into a safe over-approximation.
"""

from .analysis import (
    deadlock_witness,
    prune_unreachable,
    reachable_deadlocks,
    reachable_states,
    shortest_run_to,
    transition_cover_runs,
)
from .automaton import Automaton, State, Transition
from .chaos import (
    CHAOS_PROPOSITION,
    ChaosState,
    ClosureState,
    S_ALL,
    S_DELTA,
    chaotic_automaton,
    chaotic_closure,
    closure_base_state,
    is_chaos_state,
    run_stays_in_learned_part,
)
from .chaos import chaotic_core_transitions, closure_state_transitions
from .composition import composable, compose, compose_all, orthogonal
from .dot import to_dot
from .incomplete import IncompleteAutomaton, Refusal
from .incremental import (
    ClosureCache,
    ClosureUpdate,
    IncrementalProduct,
    IncrementalVerifier,
    ProductUpdate,
    VerificationStep,
)
from .interaction import IDLE, Interaction, InteractionUniverse
from .refinement import (
    chaos_tolerant_labels,
    exact_labels,
    refinement_counterexample,
    refines,
    simulates,
    simulation_relation,
)
from .runs import Run, Trace, enumerate_runs, enumerate_traces, run_of_transitions
from .transform import complete, hide, minimize, pad_states, rename_signals, restrict

__all__ = [
    "Automaton",
    "State",
    "Transition",
    "Interaction",
    "InteractionUniverse",
    "IDLE",
    "Run",
    "Trace",
    "enumerate_runs",
    "enumerate_traces",
    "run_of_transitions",
    "composable",
    "orthogonal",
    "compose",
    "compose_all",
    "reachable_states",
    "prune_unreachable",
    "shortest_run_to",
    "reachable_deadlocks",
    "deadlock_witness",
    "transition_cover_runs",
    "simulation_relation",
    "simulates",
    "refines",
    "refinement_counterexample",
    "exact_labels",
    "chaos_tolerant_labels",
    "IncompleteAutomaton",
    "Refusal",
    "CHAOS_PROPOSITION",
    "ClosureState",
    "ChaosState",
    "S_ALL",
    "S_DELTA",
    "chaotic_automaton",
    "chaotic_closure",
    "chaotic_core_transitions",
    "closure_state_transitions",
    "ClosureCache",
    "ClosureUpdate",
    "IncrementalProduct",
    "IncrementalVerifier",
    "ProductUpdate",
    "VerificationStep",
    "is_chaos_state",
    "closure_base_state",
    "run_stays_in_learned_part",
    "restrict",
    "rename_signals",
    "hide",
    "complete",
    "minimize",
    "pad_states",
    "to_dot",
]
