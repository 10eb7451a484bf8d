"""Retired shared-memory trace handoff.

Network fan-out forks through :func:`repro.parallel.parallel_map`, so
every worker inherits its trace split by copy-on-write and no trace
crosses a process boundary.
"""


class TraceShmPool:
    """Retired owner of a fan-out's shared-memory segments; nothing
    constructs it.

    Kept importable for external tooling that still wraps its
    ``__exit__``.
    """

    #: Trace bytes written into shared memory: always none.
    shared_bytes = 0

    def __enter__(self) -> "TraceShmPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False
