"""A micro-batch stream processor (Spark Streaming substitute).

Sonata's runtime ships the residual portion of each query here: the
operators the switch could not execute, plus all joins. The engine follows
the discretized-stream model — tuples arrive in per-window batches, keyed
state lives only within a window (Sonata's stateful operators are windowed,
§2.1), and query outputs are produced at window boundaries.
"""

from repro.streaming.rowops import apply_operators, apply_operator
from repro.streaming.dstream import DStream, StreamingContext
from repro.streaming.engine import StreamProcessor

__all__ = [
    "apply_operators",
    "apply_operator",
    "DStream",
    "StreamingContext",
    "StreamProcessor",
]
