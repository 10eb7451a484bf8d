#!/usr/bin/env python
"""Closed-loop reaction: detect a SYN flood, then drop it in the data plane.

The paper's stated long-term goal (§8) is to use Sonata "as a building
block for closed-loop reaction to network events". This example wires a
mitigation policy to the newly-opened-connections query: after the victim
is reported in two consecutive windows, the runtime installs an ingress
drop rule on the switch; when the (now invisible) attack stops being
detected, the rule ages out. The example asserts what it shows, and that a
later plain run on the same runtime matches a fresh runtime's.

Run: python examples/closed_loop_mitigation.py
"""

from repro.packets import BackboneConfig, Trace, attacks, generate_backbone
from repro.planner import QueryPlanner
from repro.queries.library import build_query
from repro.runtime import SonataRuntime
from repro.runtime.reaction import MitigationPolicy, run_with_mitigation
from repro.utils.iputil import format_ip, parse_ip

VICTIM = parse_ip("203.0.113.50")


def main() -> None:
    backbone = generate_backbone(BackboneConfig(duration=24.0, pps=1_500))
    flood = attacks.syn_flood(VICTIM, start=3.0, duration=21.0, pps=200)
    trace = Trace.merge([backbone, flood])

    query = build_query("newly_opened_tcp_conns", qid=1, Th=150)
    planner = QueryPlanner([query], trace, window=3.0)
    plan = planner.plan("sonata")
    runtime = SonataRuntime(plan)

    policy = MitigationPolicy(
        qid=1, field="ipv4.dIP", confirm_windows=2, ttl_windows=3
    )
    report, mitigator = run_with_mitigation(runtime, trace, [policy])

    print("window  tuples->SP  detections")
    for window in report.windows:
        victims = ",".join(
            format_ip(r["ipv4.dIP"]) for r in window.detections.get(1, [])
        )
        print(f"{window.index:>6}  {window.total_tuples:>10}  {victims or '-'}")

    print("\nmitigation log:")
    for event in mitigator.log:
        print(
            f"  window {event.window_index}: {event.action} "
            f"{event.field}={format_ip(event.value)}"
        )
    print(f"\npackets dropped in the data plane: {runtime.switch.packets_dropped}")

    detected = [
        any(r["ipv4.dIP"] == VICTIM for r in window.detections.get(1, []))
        for window in report.windows
    ]
    blocks = [e.window_index for e in mitigator.log if e.action == "block"]
    expires = [e.window_index for e in mitigator.log if e.action == "expire"]
    # Blocked in the window that closes the confirm_windows-th detection.
    first = blocks[0]
    assert sum(detected[: first + 1]) == policy.confirm_windows
    assert all(detected[first - policy.confirm_windows + 1 : first + 1])
    # Absent from detections while the rule is installed (it still
    # filters the window whose close expires it).
    for block in blocks:
        until = next((e for e in expires if e > block), len(detected) - 1)
        assert not any(detected[block + 1 : until + 1])
    # Re-detected once the rule has expired.
    assert expires and any(detected[expires[0] + 1 :])
    # A later plain run starts from a fresh install: no drop rule remains.
    again = runtime.run(trace)
    fresh = SonataRuntime(plan).run(trace)
    assert [w.detections for w in again.windows] == [
        w.detections for w in fresh.windows
    ]


if __name__ == "__main__":
    main()
