"""Deterministic fault injection and graceful degradation (robustness).

The paper's runtime (§5) already reacts to one failure signal — register
overflow from hash collisions — but assumes every other channel is
lossless and instantaneous. This package makes the remaining channels
first-class fault surfaces:

- the switch → emitter mirror channel (tuple drop, duplication, reorder
  past the window deadline);
- register pressure (forced chain overflow, modelling traffic far above
  the training-data sizing);
- the control-plane channel carrying dynamic filter-table updates
  (loss, delayed application);
- whole switches in network-wide mode (hard failure and flapping);
- the switch → collector report channel (missed collection deadline).

Injection is fully deterministic: every decision is a pure function of
its position in a stream keyed by ``(scope, channel, window, instance,
kind/op_index)`` (a counter-based splitmix64 uniform, see
:mod:`repro.faults.injector`), so two runs with the same
:class:`FaultSpec` produce byte-identical accounting, enabling one channel
never perturbs another's stream, and the batched engine applies the same
decisions as vectorized masks that the per-packet oracle draws one by
one.

The matching degradation machinery lives in the runtimes and is tuned by
:class:`DegradationPolicy`: bounded retry-with-backoff for filter-table
updates, a per-window watchdog that closes windows without late data (and
records what was missed), automatic fallback of a pressured on-switch
instance to raw-mirror execution, and collector-side quorum merging with
the pigeonhole threshold correction when only k of n switches report.
"""

from repro.faults.injector import FaultInjector
from repro.faults.spec import DegradationPolicy, FaultSpec, parse_fault_spec

__all__ = [
    "DegradationPolicy",
    "FaultInjector",
    "FaultSpec",
    "parse_fault_spec",
]
