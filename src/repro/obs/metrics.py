"""Deterministic metrics: counters, gauges, and fixed-bucket histograms.

The synthesis pipeline grew ad-hoc counter plumbing one PR at a time:
``StepStats`` on the incremental product, ``CheckerStats.as_dict()`` on
the model checker, the ``product_*`` / ``checker_*`` namespaces on the
iteration records.  :class:`MetricsRegistry` is the common sink those
vocabularies publish into — and the single source reports and exporters
read from:

* :func:`record_counters` renders one iteration record's counter
  namespaces as a plain dict (the canonical shape used by
  ``result_to_dict`` and the markdown report);
* :func:`publish_record` folds the same counters into a registry;
* ``CheckerStats.publish_to`` and ``WorkerPool.publish_to`` snapshot
  their own dicts via :meth:`MetricsRegistry.absorb`;
* as a span sink of its :class:`~repro.obs.tracer.Tracer`, the registry
  derives the ``test_execute_seconds`` / ``monitor_replay_seconds``
  histograms from the ``test.execute`` / ``monitor.replay`` spans.

Determinism: histograms use *fixed* bucket bounds (never computed from
the data), and every ``as_dict`` is sorted by name, so the exported
metrics of a run are byte-identical across hash seeds and schedulers —
only wall-clock histogram tallies may move between adjacent buckets.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "DEFAULT_TIME_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "record_counters",
    "publish_record",
]

#: Fixed wall-clock bucket upper bounds, in seconds (roughly half-decade
#: steps from 0.1 ms to 10 s).  Fixed bounds keep the *shape* of the
#: exported histogram independent of the data, so trace diffs stay
#: meaningful run-over-run.
DEFAULT_TIME_BOUNDS: tuple[float, ...] = (
    0.0001,
    0.00032,
    0.001,
    0.0032,
    0.01,
    0.032,
    0.1,
    0.32,
    1.0,
    3.2,
    10.0,
)


#: Span names whose durations the registry observes, and the histogram
#: each lands in: test execution and monitor replay are the loop phases
#: whose latency the engine does not control.
_SPAN_HISTOGRAMS = {
    "test.execute": "test_execute_seconds",
    "monitor.replay": "monitor_replay_seconds",
}


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A last-write-wins numeric metric (snapshots, sizes, ratios)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float | int = 0

    def set(self, value: float | int) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A fixed-bound histogram of observations (typically durations).

    ``bounds`` are inclusive upper bounds; observations above the last
    bound land in the overflow bucket, so ``len(counts) == len(bounds) + 1``
    and ``sum(counts) == count`` always hold.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_TIME_BOUNDS):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must be strictly increasing, got {bounds!r}")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def as_dict(self) -> dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
        }


class MetricsRegistry:
    """Get-or-create home of every counter, gauge, and histogram.

    One registry accompanies one :class:`~repro.obs.tracer.Tracer`
    (disabled streams have none: call sites check ``tracer.enabled``);
    instrumented code reaches it as ``tracer.metrics``.  All accessors
    are get-or-create, so publication sites never need registration
    boilerplate.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # --------------------------------------------------------------- accessors

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, bounds: tuple[float, ...] = DEFAULT_TIME_BOUNDS) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, bounds)
        return metric

    # -------------------------------------------------------------- shorthands

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float | int) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def on_span(self, span) -> None:
        """Span-sink hook: fold test and replay durations into histograms."""
        name = _SPAN_HISTOGRAMS.get(span.name)
        if name is not None:
            self.histogram(name).observe(span.duration)

    def absorb(self, mapping: dict, prefix: str = "") -> None:
        """Snapshot a counter dict (``CheckerStats.as_dict()``-style).

        Numeric values become gauges (last write wins, so absorbing the
        same source repeatedly never double-counts); integer sequences
        become one indexed gauge per element.  Booleans and other value
        types are skipped.
        """
        for name in sorted(mapping):
            value = mapping[name]
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                self.set_gauge(prefix + name, value)
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, (int, float)) and not isinstance(item, bool):
                        self.set_gauge(f"{prefix}{name}[{index}]", item)

    # ----------------------------------------------------------------- export

    def as_dict(self) -> dict[str, dict]:
        """Deterministic (name-sorted) snapshot of every metric."""
        return {
            "counters": {name: self._counters[name].value for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].value for name in sorted(self._gauges)},
            "histograms": {
                name: self._histograms[name].as_dict() for name in sorted(self._histograms)
            },
        }


# -------------------------------------------------- iteration-record plumbing

#: Counters shared by ``IterationRecord`` and ``MultiIterationRecord``,
#: in the canonical export order.
_RECORD_COUNTERS = (
    "closure_groups_reused",
    "closure_groups_rebuilt",
    "dirty_states",
    "affected_states",
    "product_hits",
    "product_misses",
    "checker_fixpoint_work",
    "test_retries",
    "test_timeouts",
    "tests_inconclusive",
    "quarantine_size",
)


def record_counters(record) -> dict[str, int]:
    """The ``product_*`` / ``checker_*`` counter namespaces of one record.

    Works on both ``IterationRecord`` and ``MultiIterationRecord`` (the
    two share every counter field).  The key order matches the
    ``counters`` object of ``result_to_dict`` exactly — this function is
    its single source.
    """
    return {name: getattr(record, name) for name in _RECORD_COUNTERS}


def publish_record(registry: MetricsRegistry, record) -> None:
    """Accumulate one iteration record's counters into a registry.

    Every counter increments its same-named registry counter, except
    ``quarantine_size``: a current size, not accumulated work, so it
    lands in a gauge.
    """
    for name, value in record_counters(record).items():
        if name == "quarantine_size":
            registry.set_gauge(name, value)
        else:
            registry.inc(name, value)
    registry.inc("loop_iterations")
    registry.inc("loop_tests_executed", record.tests_executed)
    registry.inc("loop_knowledge_gained", record.knowledge_gained)
