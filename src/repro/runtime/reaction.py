"""Closed-loop reaction to detections (the paper's long-term goal, §8).

The conclusion positions Sonata "as a building block for closed-loop
reaction to network events, in real time and at scale". This module closes
that loop inside the reproduction: a :class:`Mitigator` watches a query's
detections and, once a key has been reported for ``confirm_windows``
consecutive windows, installs an ingress drop rule on the switch; rules
expire after ``ttl_windows`` windows without fresh detections, so a
subsiding attack un-quarantines automatically.

Dropping at ingress interacts with telemetry in the obvious way: dropped
traffic is no longer measured, so a mitigated key's counts fall below the
query threshold, the detection disappears, and — after the TTL — the rule
is removed. If the attack resumes, it is re-detected and re-blocked. That
oscillation is inherent to drop-based mitigation and is surfaced in the
mitigation log rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.runtime.runtime import SonataRuntime, WindowReport


@dataclass(frozen=True)
class MitigationPolicy:
    """What to block when a query fires.

    ``field`` is the packet field to match (usually the query's victim /
    offender key, e.g. ``ipv4.dIP``); ``confirm_windows`` consecutive
    detections are required before blocking (transient spikes are spared);
    ``ttl_windows`` is the rule lifetime after the last detection.
    """

    qid: int
    field: str
    confirm_windows: int = 2
    ttl_windows: int = 4


@dataclass
class MitigationEvent:
    window_index: int
    action: str  # "block" | "expire"
    field: str
    value: Any
    qid: int


class Mitigator:
    """Installs/expires drop rules on a runtime's switch from detections."""

    def __init__(self, runtime: SonataRuntime, policies: list[MitigationPolicy]) -> None:
        self.runtime = runtime
        self.policies = {policy.qid: policy for policy in policies}
        self._streak: dict[tuple[int, Any], int] = {}
        #: rule -> (deadline window, qid of the detection that installed
        #: or last refreshed it)
        self._expiry: dict[tuple[str, Any], tuple[int, int]] = {}
        self.log: list[MitigationEvent] = []

    def observe(self, report: WindowReport) -> None:
        """Feed one closed window; installs and expires rules as needed."""
        seen_this_window: set[tuple[int, Any]] = set()
        for qid, policy in self.policies.items():
            for row in report.detections.get(qid, []):
                value = row.get(policy.field)
                if value is None:
                    continue
                key = (qid, value)
                seen_this_window.add(key)
                self._streak[key] = self._streak.get(key, 0) + 1
                rule = (policy.field, value)
                if self._streak[key] >= policy.confirm_windows:
                    if rule not in self._expiry:
                        self.runtime.switch.add_drop_rule(*rule)
                        self.log.append(
                            MitigationEvent(
                                report.index, "block", policy.field, value, qid
                            )
                        )
                    self._expiry[rule] = (report.index + policy.ttl_windows, qid)
        # Reset streaks for keys that went quiet.
        for key in list(self._streak):
            if key not in seen_this_window:
                del self._streak[key]
        # Expire stale rules.
        for rule, (deadline, qid) in list(self._expiry.items()):
            if report.index >= deadline:
                self.runtime.switch.remove_drop_rule(*rule)
                del self._expiry[rule]
                self.log.append(
                    MitigationEvent(report.index, "expire", rule[0], rule[1], qid)
                )

    def active_rules(self) -> set[tuple[str, Any]]:
        return set(self._expiry)


def run_with_mitigation(
    runtime: SonataRuntime,
    trace,
    policies: list[MitigationPolicy],
    window: float | None = None,
):
    """Execute a trace with mitigation; returns ``(run_report, mitigator)``.

    This is :meth:`SonataRuntime.run` with the mitigator's ``observe`` as
    its ``on_window`` hook: each closing window reaches the mitigator
    before the next one starts, so installed drop rules shape subsequent
    traffic. The run starts from a fresh install, as every run does.
    """
    mitigator = Mitigator(runtime, policies)
    return runtime.run(trace, window=window, on_window=mitigator.observe), mitigator
