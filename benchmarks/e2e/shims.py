"""Outside-in per-layer timing: shims around each layer's public entry point.

The program's own tracer stays ``NULL_TRACER`` in every pass, so a
rewrite of its in-program emission path cannot move these numbers.
Instead, :class:`LayerShims` temporarily rebinds each layer's entry
point (a class attribute, or a module global as bound by its caller) to
a wrapper that appends ``(layer, thread, start, duration)`` to an
in-memory list; :func:`fold` turns one call's records into per-layer
self time with ``repro.obs.export.fold_self_time``.
"""

from __future__ import annotations

import functools
import threading
import time

import repro.integration
import repro.legacy.remote
import repro.synthesis.iterate
import repro.synthesis.multi
import repro.testing.robust
from repro.automata.incremental import ClosureCache, IncrementalProduct, IncrementalVerifier
from repro.logic.checker import ModelChecker
from repro.obs.export import fold_self_time
from repro.obs.tracer import Span

#: The outermost layer: the runner times ``integrate()`` itself.
TOP = "integration"

_LOOPS = (repro.synthesis.iterate, repro.synthesis.multi)

#: ``(layer, owner, attribute)`` for every shimmed entry point.  Module
#: functions are rebound where the loop modules import them, so only the
#: synthesis loops' own calls are attributed (``learn_blocked`` calling
#: ``learn_regular`` inside ``repro.synthesis.learning`` stays one call).
TARGETS = (
    ("muml.verification", repro.integration, "verify_architecture"),
    ("synthesis.loop", repro.synthesis.iterate.IntegrationSynthesizer, "run"),
    ("synthesis.loop", repro.synthesis.multi.MultiLegacySynthesizer, "run"),
    ("incremental.verifier", IncrementalVerifier, "step"),
    ("incremental.closure", ClosureCache, "update"),
    ("incremental.product", IncrementalProduct, "update"),
    ("checker", ModelChecker, "check"),
    *(("counterexample", loop, name) for loop in _LOOPS for name in ("counterexample", "counterexamples")),
    ("robust.execute", repro.testing.robust.RobustExecutor, "execute"),
    *(("replay", module, "replay") for module in (*_LOOPS, repro.testing.robust)),
    *(
        ("learning", loop, name)
        for loop in _LOOPS
        for name in ("learn_regular", "learn_blocked", "refuse")
    ),
    ("remote.spawn", repro.legacy.remote, "rehost"),
    ("remote.step", repro.legacy.remote.RemoteComponent, "step"),
)


class LayerShims:
    """Installs and removes the timing wrappers; owns the record list."""

    def __init__(self) -> None:
        self.records: list[tuple[str, int, float, float]] = []
        # ``vars`` sees the raw function a class stores, not a bound method.
        self._bindings = [
            (owner, attribute, vars(owner)[attribute], self._wrap(layer, vars(owner)[attribute]))
            for layer, owner, attribute in TARGETS
        ]

    def _wrap(self, layer: str, function):
        records = self.records
        clock = time.perf_counter
        thread = threading.get_ident

        @functools.wraps(function)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                records.append((layer, thread(), start, clock() - start))

        return timed

    # Installed per pass, not per call: rebinding class and module
    # attributes discards the interpreter's specialised lookups on them.
    def __enter__(self) -> "LayerShims":
        for owner, attribute, _, wrapper in self._bindings:
            setattr(owner, attribute, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, original, _ in self._bindings:
            setattr(owner, attribute, original)

    def call(self, function, *args):
        """Run ``function`` as the top layer (inside ``with shims:``)."""
        start = time.perf_counter()
        try:
            return function(*args)
        finally:
            self.records.append((TOP, threading.get_ident(), start, time.perf_counter() - start))

    def take(self) -> list[tuple[str, int, float, float]]:
        """Hand over the records collected so far and start a new list."""
        taken = list(self.records)
        self.records.clear()
        return taken


def fold(records) -> dict[str, list]:
    """``layer -> [calls, self seconds, total seconds]`` for one call's records."""
    spans = [Span(name, str(thread), start, duration) for name, thread, start, duration in records]
    return {row["name"]: [row["count"], row["self"], row["total"]] for row in fold_self_time(spans)}
