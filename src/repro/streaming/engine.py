"""The stream-processor component driven by Sonata's runtime.

The runtime builds one :class:`StreamProcessor` per run and registers
each planned sub-query instance's residual operators with it (a sub-query
at one refinement transition). Each window, the emitter delivers tuple
batches; the engine executes the residual operators and assembles join
trees, producing the per-query outputs that the runtime feeds back into
the data plane as refinement filters. The batched engine does both on
:class:`~repro.exec.ColumnarState` batches; :meth:`StreamProcessor.process`
is the row-wise oracle's. Per-instance load is counted in the obs
counters ``sonata_sp_tuples_{in,out}_total``; per-window load is in the
runtime's :class:`~repro.runtime.runtime.WindowReport`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.errors import PlanningError
from repro.core.operators import Operator
from repro.core.query import JoinNode
from repro.exec import ColumnarState, Row
from repro.obs import get_observability
from repro.streaming.batchops import apply_operators_state, assemble_join_tree
from repro.streaming.rowops import apply_operators


class StreamProcessor:
    """Executes residual operators and joins for all registered instances."""

    def __init__(self, obs=None) -> None:
        #: Instance key -> its residual operators.
        self._residuals: dict[str, tuple[Operator, ...]] = {}
        self.obs = obs if obs is not None else get_observability()
        self._m_in = self.obs.counter(
            "sonata_sp_tuples_in_total",
            "tuples entering a stream-processor instance",
        )
        self._m_out = self.obs.counter(
            "sonata_sp_tuples_out_total",
            "rows leaving a stream-processor instance's residual chain",
        )

    # -- registration ----------------------------------------------------
    def register(self, key: str, residual_ops: Sequence[Operator]) -> None:
        if key in self._residuals:
            raise PlanningError(f"stream instance {key!r} already registered")
        self._residuals[key] = tuple(residual_ops)

    def _residual(self, key: str) -> tuple[Operator, ...]:
        try:
            return self._residuals[key]
        except KeyError:
            raise PlanningError(f"unknown stream instance {key!r}") from None

    # -- execution ----------------------------------------------------------
    def process(
        self,
        key: str,
        rows: list[Row],
        tables: Mapping[str, set] | None = None,
    ) -> list[Row]:
        """Run one instance's residual chain over a delivered batch."""
        out = apply_operators(rows, self._residual(key), tables)
        self._m_in.inc(len(rows), instance=key)
        self._m_out.inc(len(out), instance=key)
        return out

    def process_state(
        self,
        key: str,
        state: ColumnarState,
        tables: Mapping[str, set] | None = None,
    ) -> ColumnarState:
        """Run one instance's residual chain over a columnar batch, on the
        shared :mod:`repro.exec` kernels."""
        out = apply_operators_state(state, self._residual(key), tables)
        self._m_in.inc(state.n_rows, instance=key)
        self._m_out.inc(out.n_rows, instance=key)
        return out

    def record_raw_mirror(self, key: str, tuples_in: int, tuples_out: int) -> None:
        """Count a raw-mirrored window the runtime executed itself in the
        instance's in/out counters."""
        self._m_in.inc(tuples_in, instance=key)
        self._m_out.inc(tuples_out, instance=key)

    def execute_join_tree(
        self,
        node: "int | JoinNode",
        leaf_outputs: Mapping[int, "ColumnarState | None"],
        tables: Mapping[str, set] | None = None,
    ) -> ColumnarState:
        """Join the window's per-leaf sub-query output states (``None``: an
        inactive leaf, see :func:`repro.streaming.batchops.assemble_join_tree`)."""
        state = assemble_join_tree(node, leaf_outputs, tables)
        return state if state is not None else ColumnarState(columns={})
