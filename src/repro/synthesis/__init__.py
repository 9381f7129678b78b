"""Iterative behavior synthesis — the paper's primary contribution (§3–4).

Initial synthesis from the structural interface, the verify → test →
learn loop with chaotic-closure abstractions, and reporting in the
paper's notation.
"""

from .initial import StateLabeler, initial_abstraction, initial_model
from .driver import IterationRecord, SynthesisResult, Verdict
from .iterate import IntegrationSynthesizer
from .learning import RefusalMode, learn, learn_blocked, learn_regular, refuse
from .multi import MultiLegacySynthesizer
from .settings import SynthesisSettings
from .report import (
    coverage_summary,
    knowledge_gaps,
    render_counter_totals,
    render_counterexample_listing,
    render_iteration_table,
    render_markdown_report,
    render_state,
    result_to_dict,
    summarize,
)

__all__ = [
    "initial_model",
    "initial_abstraction",
    "StateLabeler",
    "learn",
    "learn_regular",
    "learn_blocked",
    "refuse",
    "RefusalMode",
    "IntegrationSynthesizer",
    "SynthesisResult",
    "SynthesisSettings",
    "IterationRecord",
    "Verdict",
    "MultiLegacySynthesizer",
    "render_counterexample_listing",
    "render_iteration_table",
    "render_state",
    "summarize",
    "result_to_dict",
    "knowledge_gaps",
    "coverage_summary",
    "render_counter_totals",
    "render_markdown_report",
]
