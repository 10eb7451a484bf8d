"""Output checks: result digests and planted-victim detection."""

from __future__ import annotations

import hashlib

import numpy as np


def _canon(value):
    return repr(_plain(value))


def _rows(rows) -> list:
    return sorted(
        tuple(sorted((k, _canon(v)) for k, v in row.items())) for row in rows
    )


def _detections(detections) -> list:
    return sorted((qid, _rows(rows)) for qid, rows in detections.items())


def digest(report) -> str:
    """Hash of every window's detections and per-instance (or per-switch
    and collector) tuple counts; identical runs give identical digests."""
    h = hashlib.sha256()
    for w in report.windows:
        if hasattr(w, "tuples_per_instance"):
            counts = sorted(w.tuples_per_instance.items())
        else:
            counts = (list(w.switch_tuples), w.collector_tuples)
        h.update(repr((w.index, _detections(w.detections), counts)).encode())
    return h.hexdigest()[:16]


def victim_hits(report, victims: dict[str, int], qids: dict[str, int], delays):
    """Per planted victim, ``{window: detected}`` over the full windows.

    A query refined over ``k`` levels reports at its finest level from
    window ``k - 1`` on (``delays``); earlier windows are not checked, nor
    is the last window, which the end of the trace may cut short.
    """
    return {
        name: {
            w.index: any(
                victim in [_plain(v) for v in row.values()]
                for row in w.detections.get(qids[name], [])
            )
            for w in report.windows[delays.get(qids[name], 0):-1]
        }
        for name, victim in victims.items()
    }


#: Queries whose planted attack shows in one window only: zorro's shell
#: command lands once, mid-trace (see ``build_workload``).
ONE_SHOT = {"zorro"}


def missed_victims(hits: dict, delays: dict[int, int], qids) -> list[str]:
    """``query@window`` for every planted victim the output must contain.

    A query executed at one level is exact, so its victim must be in every
    full window. Refinement is exact only for monotone aggregates: a
    coarse prefix can fall under its relaxed threshold in a window where
    the victim itself stays above (``syn_flood`` subtracts the ACKs of
    every host in the prefix). A refined or one-shot query's victim must
    be detected in some window; a refined query's recall is reported.
    """
    missed = []
    for name, per_window in hits.items():
        if name in ONE_SHOT or delays.get(qids[name], 0):
            if not any(per_window.values()):
                missed.append(f"{name}@every")
            continue
        missed.extend(f"{name}@{i}" for i, hit in per_window.items() if not hit)
    return missed


def _plain(value):
    return value.item() if isinstance(value, np.generic) else value
