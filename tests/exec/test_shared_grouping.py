"""The window-scoped grouping memo (``exec.kernels.shared_grouping``).

Inside a scope, a grouping whose key columns are the very same array
objects as an earlier grouping's, in any order, reuses that grouping's
sort. These tests pin what a hit returns (exactly a fresh sort's
outputs, ``unique`` in the requested key order), what misses (equal
content in other arrays, anything outside a scope), that the scope
keeps nothing alive after it exits, and that on a ``large``-rate window
the stream processor's two Distincts over the same mirrored columns sort
once, with the batched replay still equal to the rowwise oracle.
"""

from __future__ import annotations

import gc
import itertools
import weakref

import numpy as np
import pytest

from repro.evaluation.workloads import build_workload
from repro.exec import ColumnarState, group_first_occurrence, group_keys
from repro.exec import kernels
from repro.exec.kernels import shared_grouping
from repro.planner import QueryPlanner
from repro.queries.library import build_queries
from repro.runtime import SonataRuntime
from repro.streaming import batchops


@pytest.fixture
def sorts(monkeypatch) -> list[int]:
    """The length of every ``_sorted_runs`` call, in call order."""
    calls: list[int] = []
    sorted_runs = kernels._sorted_runs

    def counting(codes, width):
        calls.append(len(codes))
        return sorted_runs(codes, width)

    monkeypatch.setattr(kernels, "_sorted_runs", counting)
    return calls


def _state(n: int = 5_000, seed: int = 3) -> ColumnarState:
    rng = np.random.default_rng(seed)
    return ColumnarState(
        columns={
            "a": rng.integers(0, 40, n),
            "b": rng.integers(-3, 3, n).astype(np.int32),
            "c": rng.choice([0.0, -0.0, 1.5, np.nan], n),
        }
    )


def _fresh(state: ColumnarState, keys) -> tuple:
    """What the kernel returns with no scope open."""
    return group_first_occurrence(state, keys)


class TestHit:
    def test_permuted_keys_share_one_sort(self, sorts):
        state = _state()
        with shared_grouping():
            results = {}
            for keys in itertools.permutations(("a", "b", "c")):
                results[keys] = group_first_occurrence(state, keys)
                if len(results) == 1:
                    # The float column's 64 bits densify: three sorts.
                    first_sorts = len(sorts)
        assert len(sorts) == first_sorts == 3
        base_unique, base_first, base_inverse = results[("a", "b", "c")]
        for keys, (unique, first_rows, inverse) in results.items():
            want = _fresh(state, keys)
            for got, expected in zip((unique, first_rows, inverse), want):
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)
            assert np.array_equal(first_rows, base_first)
            assert np.array_equal(inverse, base_inverse)
            perm = [("a", "b", "c").index(k) for k in keys]
            assert np.array_equal(unique, base_unique[:, perm])

    def test_group_keys_and_runs_share_the_sort(self, sorts):
        state = _state()
        with shared_grouping():
            unique, first_rows = group_keys(state, ["b", "a"])
            *_, inverse, order, starts = group_first_occurrence(
                state, ["a", "b"], runs=True
            )
        assert len(sorts) == 1
        want_unique, want_first, want_inverse = _fresh(state, ["b", "a"])
        assert np.array_equal(unique, want_unique)
        assert np.array_equal(first_rows, want_first)
        assert np.array_equal(inverse, want_inverse)
        # The reused runs partition the rows by key, each in row order.
        runs = np.split(order, starts[1:])
        assert all(np.all(np.diff(run) > 0) for run in runs)
        assert all(len(set(inverse[run])) == 1 for run in runs)


class TestMiss:
    def test_equal_content_in_other_arrays_sorts_again(self, sorts):
        state = _state()
        copy = ColumnarState(
            columns={k: col.copy() for k, col in state.columns.items()}
        )
        with shared_grouping():
            first = group_first_occurrence(state, ["a", "b"])
            second = group_first_occurrence(copy, ["b", "a"])
        assert len(sorts) == 2
        for got, expected in zip(first, _fresh(state, ["a", "b"])):
            assert np.array_equal(got, expected)
        for got, expected in zip(second, _fresh(state, ["b", "a"])):
            assert np.array_equal(got, expected)

    def test_a_different_key_set_sorts_again(self, sorts):
        state = _state()
        with shared_grouping():
            group_keys(state, ["a", "b"])
            unique, first_rows = group_keys(state, ["a"])
        assert len(sorts) == 2
        want_unique, want_first, _inverse = _fresh(state, ["a"])
        assert np.array_equal(unique, want_unique)
        assert np.array_equal(first_rows, want_first)

    def test_nothing_is_cached_outside_a_scope(self, sorts):
        state = _state()
        group_keys(state, ["a", "b"])
        group_keys(state, ["a", "b"])
        assert len(sorts) == 2
        assert kernels._WINDOW_GROUPS.get() is None

    def test_a_closed_scope_shares_nothing_with_the_next(self, sorts):
        state = _state()
        for _ in range(2):
            with shared_grouping():
                group_keys(state, ["a", "b"])
        assert len(sorts) == 2


def test_scope_keeps_no_reference_after_exit():
    state = _state()
    column = state.columns["a"]
    ref = weakref.ref(column)
    with shared_grouping():
        group_keys(state, ["a", "b"])
        del state, column
        gc.collect()
        assert ref() is not None  # the open memo holds its key columns
    gc.collect()
    assert ref() is None
    assert kernels._WINDOW_GROUPS.get() is None


@pytest.fixture(scope="module")
def large_window():
    """One 3 s window at 60k pps of the three ``large`` queries (~175k
    packets) and the plan trained on it."""
    names = ("ddos", "newly_opened_tcp_conns", "superspreader")
    trace = build_workload(names, duration=3.0, pps=60_000.0, seed=1).trace
    plan = QueryPlanner(build_queries(list(names), window=3.0), trace, window=3.0).plan(
        "sonata"
    )
    return trace, plan


def test_large_window_distincts_sort_once(large_window, monkeypatch, sorts):
    """``ddos`` groups the mirrored packets by ``(dIP, sIP)`` and
    ``superspreader`` by ``(sIP, dIP)``, over the same trace columns: one
    sort of the window serves both, and the replay equals the oracle."""
    trace, plan = large_window
    cuts = {qp.query.name: qp.instances[0].cut for qp in plan.query_plans.values()}
    assert cuts["ddos"] == cuts["superspreader"] == 1
    distincts: list[tuple] = []

    def spying(state, keys):
        distincts.append(tuple(keys))
        return group_keys(state, keys)

    monkeypatch.setattr(batchops, "group_keys", spying)
    batched = SonataRuntime(plan).run(trace)
    pairs = [keys for keys in distincts if len(keys) == 2]
    assert sorted(pairs) == sorted(
        [("ipv4.dIP", "ipv4.sIP"), ("ipv4.sIP", "ipv4.dIP")] * len(batched.windows)
    )
    # Cut 1 mirrors every packet, so both Distincts group the window.
    n = batched.windows[0].packets
    assert n > 170_000
    assert sorts.count(n) == 1
    monkeypatch.undo()
    rowwise = SonataRuntime(plan, engine="rowwise").run(trace)
    assert len(batched.windows) == len(rowwise.windows)
    for b, r in zip(batched.windows, rowwise.windows):
        assert b.detections == r.detections
        assert b.tuples_per_instance == r.tuples_per_instance
        assert b.level_outputs == r.level_outputs
