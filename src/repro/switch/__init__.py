"""Behavioural PISA switch: parser, match-action pipeline, registers, P4 gen.

Models the protocol-independent switch architecture of §3.1–3.2: a
programmable parser builds a packet header vector (PHV), a fixed number of
physical stages applies match-action tables with per-stage limits on
stateful actions (A) and register bits (B), and a deparser/mirror path
sends report-marked packets to the stream processor. Resource constraints
(S, A, B, M) are enforced at install time by the rules of
``repro.switch.resources``, which the query planner's ILP also reads.
"""

from repro.switch.config import SwitchConfig
from repro.switch.registers import RegisterChain, RegisterSpec
from repro.switch.tables import LogicalTable
from repro.switch.compiler import CompiledSubQuery, compile_subquery
from repro.switch.simulator import PISASwitch, MirroredTuple

__all__ = [
    "SwitchConfig",
    "RegisterSpec",
    "RegisterChain",
    "LogicalTable",
    "CompiledSubQuery",
    "compile_subquery",
    "PISASwitch",
    "MirroredTuple",
]
