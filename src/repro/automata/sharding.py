"""A shared thread pool for the synthesis loop's side work.

Verification runs sequentially; two loop steps still fan out onto
threads:

* batched monitor replays (several counterexamples re-run against the
  learned model at once) use :meth:`WorkerPool.map`;
* per-test wall-clock deadlines of the robust executor use
  :meth:`WorkerPool.call`.

One process-wide instance (:func:`get_pool`) creates its executor
lazily and reuses it, so repeated iterations never pay thread start-up
twice.  ``map`` preserves task order, so results never depend on
scheduling.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Sequence, TypeVar

from ..errors import TestTimeoutError

__all__ = ["WorkerPool", "get_pool"]

_T = TypeVar("_T")
_R = TypeVar("_R")


class WorkerPool:
    """A lazily created, reusable thread executor.

    The executor is re-created when a caller asks for more workers than
    it currently holds.
    """

    def __init__(self) -> None:
        self._executor: ThreadPoolExecutor | None = None
        self._workers = 0
        self.stats: dict[str, int] = {
            "pool_map_calls": 0,
            "pool_tasks": 0,
            "pool_inline_calls": 0,
            "pool_executor_creations": 0,
            "pool_deadline_calls": 0,
            "pool_deadline_timeouts": 0,
        }

    def _threads(self, workers: int) -> ThreadPoolExecutor:
        if self._executor is not None and self._workers >= workers:
            return self._executor
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._executor = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-pool")
        self._workers = workers
        self.stats["pool_executor_creations"] += 1
        return self._executor

    def map(
        self, function: Callable[[_T], _R], tasks: Sequence[_T], *, workers: int
    ) -> list[_R]:
        """Run ``function`` over ``tasks`` on threads, results in task order."""
        self.stats["pool_map_calls"] += 1
        self.stats["pool_tasks"] += len(tasks)
        if len(tasks) <= 1:
            self.stats["pool_inline_calls"] += 1
            return [function(task) for task in tasks]
        return list(self._threads(workers).map(function, tasks))

    def call(self, function: Callable[[], _R], *, timeout: float) -> _R:
        """Run ``function`` on a pool thread under a wall-clock deadline.

        The robust test executor routes per-test deadlines through here
        (one supervised execution at a time, so one worker suffices).
        On expiry the straggler is *joined* — never abandoned — before
        :class:`~repro.errors.TestTimeoutError` is raised: the function
        typically drives a live component, and letting a zombie thread
        keep stepping it would corrupt the next attempt.  Deadline
        enforcement is therefore only as hard as the function's own
        stalls are finite (injected hangs always are).
        """
        self.stats["pool_deadline_calls"] += 1
        future = self._threads(1).submit(function)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            self.stats["pool_deadline_timeouts"] += 1
            try:
                future.result()  # join the straggler; discard its outcome
            except Exception:
                pass
            raise TestTimeoutError(
                f"test execution exceeded its {timeout:.3f}s deadline"
            ) from None

    def publish_to(self, registry) -> None:
        """Snapshot the dispatch counters into a metrics registry.

        Gauge semantics (via ``MetricsRegistry.absorb``), so publishing
        after every iteration never double-counts.
        """
        registry.absorb(self.stats)

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = None
        self._workers = 0


_POOL = WorkerPool()
atexit.register(_POOL.shutdown)


def get_pool() -> WorkerPool:
    """The process-wide worker pool."""
    return _POOL
