"""Process-pool plumbing: worker-count resolution and ``parallel_map``.

Two knobs pick the worker count everywhere in the tree:

- an explicit ``workers=N`` argument always wins;
- otherwise the ``REPRO_WORKERS`` environment variable;
- otherwise the caller's default — libraries default to serial
  (``resolve_workers(None) == 1``: importing repro never silently forks),
  while CLI entry points and benchmarks default to
  :func:`default_workers`, which is ``os.cpu_count()``-aware.

:func:`parallel_map` is the tree's one process pool (evaluation sweeps,
benchmarks and the network fan-out): it runs ``fn`` over ``items`` on
forked workers and returns results in input order. It accepts *closures*
— the pool is forked after the function and items are parked in module
globals, so children inherit them by COW memory instead of pickling (the
per-cell sweep closures and the per-switch network closure capture whole
traces; shipping those per task would drown the win). Only the item
index crosses the pipe going in; results are pickled coming back.
Platforms without ``fork``, ``workers=1``, a single item and a map nested
inside a task all take one serial branch: a plain loop in the calling
process with identical semantics.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence

from repro.obs import get_observability

#: Upper bound on auto-detected workers: fan-out beyond this sees
#: diminishing returns on the workloads this repo runs and risks
#: oversubscribing CI runners.
MAX_AUTO_WORKERS = 16


def _env_workers() -> "int | None":
    """The ``REPRO_WORKERS`` override, or ``None`` when it is unset."""
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if not env:
        return None
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"REPRO_WORKERS={env!r} is not an integer") from None


def default_workers() -> int:
    """CPU-count-aware default for CLI/benchmark entry points."""
    return _env_workers() or max(1, min(os.cpu_count() or 1, MAX_AUTO_WORKERS))


def resolve_workers(workers: "int | None") -> int:
    """Normalize a ``workers=`` argument (library default: serial)."""
    if workers is not None:
        return max(1, int(workers))
    return _env_workers() or 1


def fork_context() -> "multiprocessing.context.BaseContext | None":
    """The fork start method, or ``None`` where it does not exist."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


# -- fork-inherited task state (parallel_map) -------------------------------
#: Set immediately before the pool forks; children inherit these by COW.
_TASK_FN: "Callable[[Any], Any] | None" = None
_TASK_ITEMS: "Sequence[Any] | None" = None


def _invoke_indexed(index: int) -> Any:
    """Child-side trampoline: look the task up in inherited globals."""
    return _TASK_FN(_TASK_ITEMS[index])


def parallel_map(
    fn: "Callable[[Any], Any]",
    items: Iterable[Any],
    workers: "int | None" = None,
    label: str = "map",
    obs=None,
) -> list:
    """Map ``fn`` over ``items`` on a process pool; results in input order.

    Exceptions raised by ``fn`` propagate to the caller (the first failing
    item's exception, like the builtin ``map``). ``label`` names the obs
    span/counters so sweeps and benchmarks can be told apart.
    """
    global _TASK_FN, _TASK_ITEMS
    items = list(items)
    obs = obs if obs is not None else get_observability()
    n_workers = min(resolve_workers(workers), len(items))
    # One worker, no fork, or a nested map (a task spawning its own map,
    # which must not fork a pool from inside a pool worker): run serially.
    ctx = fork_context() if n_workers > 1 and _TASK_FN is None else None
    if ctx is None:
        with obs.span("parallel.map", label=label, workers=1, tasks=len(items)):
            return [fn(item) for item in items]

    _TASK_FN, _TASK_ITEMS = fn, items
    try:
        with obs.span(
            "parallel.map", label=label, workers=n_workers, tasks=len(items)
        ):
            obs.counter(
                "sonata_parallel_tasks_total",
                "tasks dispatched to worker processes",
            ).inc(len(items), label=label)
            with ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx) as pool:
                results = list(pool.map(_invoke_indexed, range(len(items))))
        return results
    finally:
        _TASK_FN, _TASK_ITEMS = None, None
