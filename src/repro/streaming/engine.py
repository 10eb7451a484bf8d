"""The stream-processor component driven by Sonata's runtime.

The runtime registers one :class:`SubQueryRuntime` per planned sub-query
instance (a sub-query at one refinement transition). Each window, the
emitter delivers tuple batches; the engine executes the residual operators
and assembles join trees, producing the per-query outputs that the runtime
feeds back into the data plane as refinement filters. The batched engine
does both on :class:`~repro.exec.ColumnarState` batches; :meth:`process`
is the row-wise oracle's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.errors import PlanningError
from repro.core.operators import Operator
from repro.core.query import JoinNode
from repro.exec import ColumnarState, Row
from repro.obs import get_observability
from repro.streaming.batchops import apply_operators_state, assemble_join_tree
from repro.streaming.rowops import apply_operators


@dataclass
class SubQueryRuntime:
    """Residual execution state for one planned sub-query instance."""

    key: str
    residual_ops: tuple[Operator, ...]
    tuples_in: int = 0
    tuples_out: int = 0

    def process(
        self, rows: list[Row], tables: Mapping[str, set] | None = None
    ) -> list[Row]:
        self.tuples_in += len(rows)
        out = apply_operators(rows, self.residual_ops, tables)
        self.tuples_out += len(out)
        return out

    def process_state(
        self, state: ColumnarState, tables: Mapping[str, set] | None = None
    ) -> ColumnarState:
        """Columnar twin of :meth:`process` (the batched engine's path):
        the residual chain runs on the shared :mod:`repro.exec` kernels."""
        self.tuples_in += state.n_rows
        out = apply_operators_state(state, self.residual_ops, tables)
        self.tuples_out += out.n_rows
        return out


class StreamProcessor:
    """Executes residual operators and joins for all registered instances."""

    def __init__(self, obs=None) -> None:
        self._instances: dict[str, SubQueryRuntime] = {}
        self.total_tuples_received = 0
        #: Observability context; the in/out counters below are kept in
        #: lockstep with :meth:`load_report` (asserted by
        #: ``tests/integration/test_observability.py``).
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
    def register(self, key: str, residual_ops: Sequence[Operator]) -> SubQueryRuntime:
        if key in self._instances:
            raise PlanningError(f"stream instance {key!r} already registered")
        runtime = SubQueryRuntime(key=key, residual_ops=tuple(residual_ops))
        self._instances[key] = runtime
        return runtime

    def instance(self, key: str) -> SubQueryRuntime:
        try:
            return self._instances[key]
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
        self.total_tuples_received += len(rows)
        out = self.instance(key).process(rows, tables)
        self._m_in.inc(len(rows), instance=key)
        self._m_out.inc(len(out), instance=key)
        return out

    def process_state(
        self,
        key: str,
        state: ColumnarState,
        tables: Mapping[str, set] | None = None,
    ) -> ColumnarState:
        """Run one instance's residual chain over a columnar batch."""
        n = state.n_rows
        self.total_tuples_received += n
        out = self.instance(key).process_state(state, tables)
        self._m_in.inc(n, instance=key)
        self._m_out.inc(out.n_rows, instance=key)
        return out

    def record_raw_mirror(self, key: str, tuples_in: int, tuples_out: int) -> None:
        """Account a raw-mirrored window the runtime executed itself: the
        instance's :meth:`load_report` totals and the obs counters move
        together."""
        runtime = self.instance(key)
        runtime.tuples_in += tuples_in
        runtime.tuples_out += tuples_out
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

    # -- accounting ----------------------------------------------------------
    def load_report(self) -> dict[str, dict[str, int]]:
        """Tuples in/out per instance — the paper's headline metric."""
        return {
            key: {"tuples_in": inst.tuples_in, "tuples_out": inst.tuples_out}
            for key, inst in self._instances.items()
        }
