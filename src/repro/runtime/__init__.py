"""Sonata's runtime (§5): drives the switch, emitter and stream processor.

A :class:`SonataRuntime` holds a :class:`~repro.planner.plans.Plan` and
its run settings. Each run builds its pipeline from the plan: it installs
every instance's tables on a fresh simulated PISA switch, builds an empty
emitter, registers the residual operators with a new stream processor,
and then executes the trace window by window: packets flow through the
switch, mirrored tuples flow through the emitter to the stream processor,
per-level query outputs feed the dynamic refinement filter tables for the
next window, and finest-level outputs are the query detections.
"""

from repro.runtime.emitter import Emitter
from repro.runtime.runtime import RunReport, SonataRuntime, WindowReport
from repro.runtime.drivers import PlanArtifacts, compile_plan, export_plan
from repro.runtime.reaction import MitigationPolicy, Mitigator, run_with_mitigation

__all__ = [
    "Emitter",
    "SonataRuntime",
    "RunReport",
    "WindowReport",
    "PlanArtifacts",
    "compile_plan",
    "export_plan",
    "MitigationPolicy",
    "Mitigator",
    "run_with_mitigation",
]
