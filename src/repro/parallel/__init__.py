"""``repro.parallel`` — process-parallel execution across the pipeline.

Three layers build on this package (DESIGN.md §11):

- **network**: :meth:`repro.network.runtime.NetworkRuntime.run` fans the
  per-switch pipelines over :func:`parallel_map` at every worker count;
  forked workers inherit their trace splits, and the parent merges
  reports, metrics and fault accounting deterministically;
- **evaluation**: :func:`parallel_map` runs independent sweep/benchmark
  cells concurrently;
- **surface**: ``--workers N`` on the CLI and benchmarks, resolved by
  :func:`resolve_workers` / :func:`default_workers` (env override
  ``REPRO_WORKERS``).

Everything degrades gracefully: ``workers=1``, platforms without
``fork`` and maps nested inside a task run the same tasks one after
another in the calling process, so the network fan-out has one path for
every worker count.
"""

from repro.parallel.pool import (
    MAX_AUTO_WORKERS,
    default_workers,
    fork_context,
    parallel_map,
    resolve_workers,
)

__all__ = [
    "MAX_AUTO_WORKERS",
    "default_workers",
    "fork_context",
    "parallel_map",
    "resolve_workers",
]
