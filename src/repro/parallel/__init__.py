"""``repro.parallel`` — process-parallel execution across the pipeline.

Three layers build on this package (DESIGN.md §11):

- **network**: :meth:`repro.network.runtime.NetworkRuntime.run` fans the
  per-switch pipelines over :func:`parallel_map`; forked workers inherit
  their trace splits, and the parent merges reports, metrics and fault
  accounting deterministically;
- **evaluation**: :func:`parallel_map` runs independent sweep/benchmark
  cells concurrently;
- **surface**: ``--workers N`` on the CLI and benchmarks, resolved by
  :func:`resolve_workers` / :func:`default_workers` (env override
  ``REPRO_WORKERS``).

Everything degrades gracefully: ``workers=1`` is exactly the serial code
path, and platforms without ``fork`` run every map serially.
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
