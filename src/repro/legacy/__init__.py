"""Executable legacy components: black-box harness and interfaces.

Wraps a concrete (hidden) behavior behind the execution/monitoring
protocol the paper assumes: reset, per-period stepping, port
observation, and state probes gated by instrumentation level with a
probe-effect model for live monitoring.

:mod:`repro.legacy.remote` moves the same contract out of process: a
supervised subprocess host behind a length-prefixed frame protocol,
with real (kill-based) deadlines and one warm spare host.
"""

from .component import Instrumentation, LegacyComponent, StepOutcome
from .interface import InterfaceDescription, interface_of

#: Names re-exported lazily from :mod:`repro.legacy.remote` (PEP 562).
#: Lazy so ``python -m repro.legacy.remote`` — the component host entry
#: point — does not import the module twice (once via this package
#: ``__init__``, once as ``__main__``), which would trip runpy's
#: double-import warning in every spawned host.
_REMOTE_NAMES = frozenset(
    {
        "RemoteComponent",
        "RemotePolicy",
        "ComponentHost",
        "rehost",
        "resolve_remote",
        "REMOTE_PROTOCOL_VERSION",
        "REMOTE_ENV",
    }
)


def __getattr__(name: str):
    if name in _REMOTE_NAMES:
        from . import remote

        return getattr(remote, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _REMOTE_NAMES)


__all__ = [
    "LegacyComponent",
    "StepOutcome",
    "Instrumentation",
    "InterfaceDescription",
    "interface_of",
    "RemoteComponent",
    "RemotePolicy",
    "ComponentHost",
    "rehost",
    "resolve_remote",
    "REMOTE_PROTOCOL_VERSION",
    "REMOTE_ENV",
]
