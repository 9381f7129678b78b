"""Rendering synthesis artifacts in the paper's notation.

Counterexamples print in the shape of Listing 1.1 — alternating lines
of composed states (``shuttle1.noConvoy, shuttle2.s_all``) and message
exchanges (``shuttle2.convoyProposal!, shuttle1.convoyProposal?``) —
and synthesis runs summarize into a per-iteration table.
"""

from __future__ import annotations

from ..automata.automaton import State
from ..automata.chaos import ChaosState, ClosureState
from ..automata.interaction import Interaction
from ..automata.runs import Run
from ..obs.metrics import record_counters
from .iterate import SynthesisResult

__all__ = [
    "SCHEMA_VERSION",
    "render_state",
    "render_counterexample_listing",
    "render_iteration_table",
    "summarize",
    "result_to_dict",
    "knowledge_gaps",
    "coverage_summary",
    "render_counter_totals",
    "render_markdown_report",
]

#: Version of the :func:`result_to_dict` JSON shape.  Bump the minor
#: component when keys are added (consumers tolerate extras), the major
#: component when keys are renamed, removed, or change meaning.
SCHEMA_VERSION = "2.0"


def knowledge_gaps(model, universe):
    """The interactions still *unknown* per learned state.

    A ``PROVEN`` verdict means the context never needs these — claim C2
    made concrete: everything returned here is behavior the proof did
    not have to learn.  Returns ``{state: frozenset[Interaction]}``,
    omitting states with no gaps.
    """
    gaps = {}
    for state in sorted(model.states, key=repr):
        known = {t.interaction for t in model.automaton.transitions_from(state)}
        refused = model.refused(state)
        unknown = frozenset(
            interaction
            for interaction in universe
            if interaction not in known and interaction not in refused
        )
        if unknown:
            gaps[state] = unknown
    return gaps


def coverage_summary(model, universe) -> str:
    """Human-readable knowledge coverage of a learned model."""
    total = len(model.states) * len(universe)
    decided = sum(
        len({t.interaction for t in model.automaton.transitions_from(state)})
        + len(model.refused(state))
        for state in model.states
    )
    gaps = knowledge_gaps(model, universe)
    lines = [
        f"knowledge coverage: {decided}/{total} (state, interaction) pairs decided "
        f"({100.0 * decided / total:.0f}%)" if total else "knowledge coverage: empty model",
    ]
    for state, unknown in gaps.items():
        rendered = ", ".join(str(interaction) for interaction in sorted(unknown, key=lambda i: i.sort_key()))
        lines.append(f"  {render_state(state)}: unknown {rendered}")
    if not gaps:
        lines.append("  (complete for the universe)")
    return "\n".join(lines)


def render_state(state: State) -> str:
    """A closure/chaos/plain state in the figures' notation."""
    if isinstance(state, ChaosState):
        return state.kind
    if isinstance(state, ClosureState):
        return render_state(state.base)
    if isinstance(state, tuple):
        return "(" + ", ".join(render_state(part) for part in state) + ")"
    return str(state)


def _message_line(
    interaction: Interaction,
    *,
    context_name: str,
    legacy_name: str,
    legacy_inputs: frozenset[str],
    legacy_outputs: frozenset[str],
) -> str:
    parts: list[str] = []
    for signal in sorted(interaction.outputs & legacy_outputs):
        parts.append(f"{legacy_name}.{signal}!, {context_name}.{signal}?")
    for signal in sorted(interaction.inputs & legacy_inputs):
        parts.append(f"{context_name}.{signal}!, {legacy_name}.{signal}?")
    remaining = (interaction.outputs - legacy_outputs) | (
        interaction.inputs - legacy_inputs - interaction.outputs
    )
    for signal in sorted(remaining - legacy_inputs - legacy_outputs):
        parts.append(f"{context_name}.{signal}")
    return "; ".join(parts) if parts else "(idle)"


def render_counterexample_listing(
    run: Run,
    *,
    context_name: str = "shuttle1",
    legacy_name: str = "shuttle2",
    legacy_inputs: frozenset[str],
    legacy_outputs: frozenset[str],
) -> str:
    """Render a composed counterexample run like the paper's Listing 1.1."""

    def state_line(state: State) -> str:
        if not isinstance(state, tuple) or len(state) != 2:
            return render_state(state)
        context_state, legacy_state = state
        return (
            f"{context_name}.{render_state(context_state)}, "
            f"{legacy_name}.{render_state(legacy_state)}"
        )

    lines = [state_line(run.start)]
    current = run.start
    for interaction, target in run.steps:
        lines.append(
            _message_line(
                interaction,
                context_name=context_name,
                legacy_name=legacy_name,
                legacy_inputs=legacy_inputs,
                legacy_outputs=legacy_outputs,
            )
        )
        lines.append(state_line(target))
        current = target
    if run.blocked is not None:
        lines.append(
            "blocked: "
            + _message_line(
                run.blocked,
                context_name=context_name,
                legacy_name=legacy_name,
                legacy_inputs=legacy_inputs,
                legacy_outputs=legacy_outputs,
            )
        )
    del current
    return "\n".join(lines)


def render_iteration_table(result: SynthesisResult) -> str:
    """A fixed-width per-iteration table of a synthesis run.

    One header line, one row per iteration (pinned by the tests) — the
    incremental work counters ride along as the last three columns,
    sourced from :func:`repro.obs.metrics.record_counters` so the table
    and the JSON export can never disagree.
    """
    header = (
        f"{'it':>3} {'|S_l|':>5} {'|T|':>5} {'|T̄|':>5} {'|closure|':>9} "
        f"{'φ':>5} {'¬δ':>5} {'violated':>9} {'test':>10} {'gain':>5} "
        f"{'hits':>6} {'miss':>6} {'fixwork':>8}"
    )
    rows = [header, "-" * len(header)]
    for record in result.iterations:
        counters = record_counters(record)
        rows.append(
            f"{record.index:>3} {record.model_states:>5} {record.model_transitions:>5} "
            f"{record.model_refusals:>5} {record.closure_states:>9} "
            f"{str(record.property_holds):>5} {str(record.deadlock_free):>5} "
            f"{record.violated or '-':>9} "
            f"{(record.test_verdict.value if record.test_verdict else ('fast' if record.fast_conflict else '-')):>10} "
            f"{record.knowledge_gained:>5} "
            f"{counters['product_hits']:>6} {counters['product_misses']:>6} "
            f"{counters['checker_fixpoint_work']:>8}"
        )
    return "\n".join(rows)


def _run_to_jsonable(run) -> dict | None:
    if run is None:
        return None
    return {
        "start": render_state(run.start),
        "steps": [
            {"interaction": str(interaction), "target": render_state(target)}
            for interaction, target in run.steps
        ],
        "blocked": str(run.blocked) if run.blocked is not None else None,
    }


def result_to_dict(result: SynthesisResult) -> dict:
    """A JSON-serialisable audit record of a synthesis run.

    Contains the verdict, the property, per-iteration statistics, and
    the violation witness (rendered states/interactions) — everything a
    CI pipeline or report generator needs, without live objects.  The
    shape is versioned by the leading ``schema_version`` key (see
    :data:`SCHEMA_VERSION`), pinned by ``tests/test_report.py``.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "verdict": result.verdict.value,
        "property": str(result.property),
        "violation_kind": result.violation_kind,
        "violation_witness": _run_to_jsonable(result.violation_witness),
        "totals": {
            "iterations": result.iteration_count,
            "tests": result.total_tests,
            "replays": result.total_replays,
            "learned_states": result.learned_states,
            "learned_transitions": result.learned_transitions,
            "learned_refusals": result.learned_refusals,
        },
        "iterations": [
            {
                "index": record.index,
                "model": {
                    "states": record.model_states,
                    "transitions": record.model_transitions,
                    "refusals": record.model_refusals,
                },
                "closure_states": record.closure_states,
                "composed_states": record.composed_states,
                "property_holds": record.property_holds,
                "deadlock_free": record.deadlock_free,
                "violated": record.violated,
                "fast_conflict": record.fast_conflict,
                "test_verdict": record.test_verdict.value if record.test_verdict else None,
                "tests_executed": record.tests_executed,
                "knowledge_gained": record.knowledge_gained,
                # Incremental-engine counters in the two namespaces of
                # StepStats (product_*) and CheckerStats (checker_*);
                # record_counters is the single source of this shape.
                "counters": record_counters(record),
            }
            for record in result.iterations
        ],
    }


def render_counter_totals(result: SynthesisResult) -> str:
    """Run totals of the ``product_*`` / ``checker_*`` counter namespaces.

    Sums :func:`repro.obs.metrics.record_counters` over every iteration.
    """
    totals: dict[str, int] = {}
    for record in result.iterations:
        for name, value in record_counters(record).items():
            totals[name] = totals.get(name, 0) + value
    width = max(len(name) for name in totals) if totals else 0
    return "\n".join(f"{name:<{width}}  {value}" for name, value in totals.items())


def render_markdown_report(
    result: SynthesisResult,
    *,
    universe=None,
    legacy_inputs: frozenset[str] | None = None,
    legacy_outputs: frozenset[str] | None = None,
    title: str = "Integration report",
) -> str:
    """A complete, self-contained markdown report of one synthesis run.

    Suitable for attaching to a CI job or review ticket: verdict and
    totals, the per-iteration table, the violation witness in the
    paper's listing notation (when signal sets are supplied), and the
    knowledge-coverage appendix (when a universe is supplied).
    """
    sections = [f"# {title}", "", "```", summarize(result), "```", ""]
    sections += ["## Iterations", "", "```", render_iteration_table(result), "```", ""]
    sections += ["## Counters", "", "```", render_counter_totals(result), "```", ""]
    if result.violation_witness is not None and legacy_inputs is not None and legacy_outputs is not None:
        sections += [
            "## Violation witness",
            "",
            "```",
            render_counterexample_listing(
                result.violation_witness,
                legacy_inputs=legacy_inputs,
                legacy_outputs=legacy_outputs,
            ),
            "```",
            "",
        ]
    if universe is not None:
        sections += [
            "## Learned-knowledge coverage",
            "",
            "```",
            coverage_summary(result.final_model, universe),
            "```",
            "",
        ]
    return "\n".join(sections)


def summarize(result: SynthesisResult) -> str:
    """A short human-readable summary of a synthesis run."""
    lines = [
        f"verdict: {result.verdict.value}",
        f"property: {result.property}",
        f"iterations: {result.iteration_count}",
        f"tests executed: {result.total_tests} (replays: {result.total_replays})",
        (
            "learned model: "
            f"{result.learned_states} states, {result.learned_transitions} transitions, "
            f"{result.learned_refusals} refusals"
        ),
    ]
    if result.violation_witness is not None:
        lines.append(f"violation kind: {result.violation_kind}")
    return "\n".join(lines)
