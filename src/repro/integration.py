"""The top-level façade: one call from architecture to verdicts.

This is the workflow of the paper's Figure 2 as a single entry point:

1. verify the modeled part of the architecture (patterns, port
   refinement, optional system properties) — modeling errors are
   reported before any legacy component is touched;
2. for every legacy placement, extract its context (``M_a^c``) and run
   the iterative verify → test → learn synthesis against the supplied
   executable component, checking the conjunction of the pattern
   constraints the placement participates in (plus any extra
   properties);
3. when a pattern instance binds *several* legacy placements, the §7
   multi-legacy synthesis handles them jointly.

Example::

    from repro.integration import integrate

    report = integrate(
        architecture,
        {"follower": rear_shuttle_binary},
        labelers={"follower": railcab.rear_state_labeler},
    )
    assert report.ok
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata.interaction import InteractionUniverse
from .errors import ModelError, SynthesisError
from .legacy.component import LegacyComponent
from .logic.formulas import Formula, conjunction
from .muml.architecture import Architecture
from .muml.verification import ArchitectureVerificationReport, verify_architecture
from .synthesis.initial import StateLabeler
from .synthesis.driver import SynthesisResult, Verdict
from .synthesis.iterate import IntegrationSynthesizer
from .synthesis.multi import MultiLegacySynthesizer
from .synthesis.settings import SynthesisSettings

__all__ = ["IntegrationReport", "SynthesisSettings", "integrate"]


@dataclass(frozen=True)
class IntegrationReport:
    """Combined outcome of modeled-part verification and all syntheses."""

    architecture: ArchitectureVerificationReport
    placements: dict[str, SynthesisResult]
    joint: SynthesisResult | None = None
    skipped_placements: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (
            self.architecture.ok
            and all(result.verdict is Verdict.PROVEN for result in self.placements.values())
            and (self.joint is None or self.joint.verdict is Verdict.PROVEN)
            and not self.skipped_placements
        )

    def findings(self) -> list[str]:
        problems = list(self.architecture.findings())
        for name, result in sorted(self.placements.items()):
            if result.verdict is not Verdict.PROVEN:
                problems.append(
                    f"legacy placement {name!r}: {result.verdict.value}"
                    + (f" ({result.violation_kind})" if result.violation_kind else "")
                )
        if self.joint is not None and self.joint.verdict is not Verdict.PROVEN:
            problems.append(
                f"joint multi-legacy synthesis: {self.joint.verdict.value}"
                + (f" ({self.joint.violation_kind})" if self.joint.violation_kind else "")
            )
        for name in self.skipped_placements:
            problems.append(f"legacy placement {name!r}: no executable component supplied")
        return problems

    def require_ok(self) -> "IntegrationReport":
        """Raise ``SynthesisError`` with all findings unless ``ok``."""
        if self.ok:
            return self
        raise SynthesisError(
            "integration failed:\n" + "\n".join(f"  - {finding}" for finding in self.findings())
        )


def _instances_with_multiple_legacy(architecture: Architecture) -> bool:
    for instance in architecture.instances:
        legacy_count = sum(
            1
            for component, _ in instance.bindings.values()
            if component in architecture.legacy_placements
        )
        if legacy_count >= 2:
            return True
    return False


def integrate(
    architecture: Architecture,
    components: dict[str, LegacyComponent],
    *,
    labelers: dict[str, StateLabeler] | None = None,
    universes: dict[str, InteractionUniverse] | None = None,
    extra_properties: "dict[str, list[Formula]] | None" = None,
    system_properties: "list[Formula] | tuple[Formula, ...]" = (),
    settings: SynthesisSettings | None = None,
) -> IntegrationReport:
    """Verify the modeled part, then integrate every legacy placement.

    ``components`` maps legacy placement names to their executable
    harnesses; placements without a component are reported (and fail
    the report) rather than silently skipped.  ``settings`` carries the
    loop-tuning knobs (:class:`SynthesisSettings`) shared by every
    placement — single and multi-legacy alike.
    """
    settings = settings if settings is not None else SynthesisSettings()
    labelers = labelers or {}
    universes = universes or {}
    extra_properties = extra_properties or {}

    architecture_report = verify_architecture(
        architecture, system_properties=system_properties
    )

    placements: dict[str, SynthesisResult] = {}
    joint: SynthesisResult | None = None
    skipped: list[str] = []

    if _instances_with_multiple_legacy(architecture):
        missing = sorted(architecture.legacy_placements - components.keys())
        if missing:
            skipped.extend(missing)
        else:
            names = sorted(architecture.legacy_placements)
            constraints: list[Formula] = []
            for instance in architecture.instances:
                constraints.append(instance.pattern.constraint)
            for name in names:
                constraints.extend(extra_properties.get(name, ()))
            try:
                modeled = architecture.compose_known()
            except ModelError:
                modeled = None  # purely legacy-vs-legacy architectures
            renamed = {
                name: components[name] for name in names
            }
            joint = MultiLegacySynthesizer(
                modeled,
                [renamed[name] for name in names],
                conjunction(list(dict.fromkeys(constraints))),
                labelers={
                    component.name: labelers[name]
                    for name, component in renamed.items()
                    if name in labelers
                },
                universes={
                    component.name: universes[name]
                    for name, component in renamed.items()
                    if name in universes
                },
                settings=settings,
            ).run()
        return IntegrationReport(
            architecture=architecture_report,
            placements=placements,
            joint=joint,
            skipped_placements=tuple(skipped),
        )

    for name in sorted(architecture.legacy_placements):
        if name not in components:
            skipped.append(name)
            continue
        extraction = architecture.context_for(name)
        component = components[name]
        if (
            component.inputs != extraction.legacy_inputs
            or component.outputs != extraction.legacy_outputs
        ):
            raise SynthesisError(
                f"component for placement {name!r} has interface "
                f"I={sorted(component.inputs)}/O={sorted(component.outputs)} but the "
                f"architecture expects I={sorted(extraction.legacy_inputs)}/"
                f"O={sorted(extraction.legacy_outputs)}"
            )
        properties = list(extraction.constraints) + list(extra_properties.get(name, ()))
        synthesizer = IntegrationSynthesizer(
            extraction.context,
            component,
            conjunction(properties),
            labeler=labelers.get(name),
            universe=universes.get(name),
            settings=settings,
            port=name,
        )
        placements[name] = synthesizer.run()

    return IntegrationReport(
        architecture=architecture_report,
        placements=placements,
        joint=joint,
        skipped_placements=tuple(skipped),
    )
