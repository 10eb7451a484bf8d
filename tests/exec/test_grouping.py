"""``group_first_occurrence`` and ``group_keys`` against a pure-Python
first-occurrence dict, and ``keys_in`` (built on the same packed codes)
against set membership.

The kernel packs every key column into one ``uint64`` code, densifying
when the packed key would pass 64 bits, and sorts ``code << b | row``
words (``b`` bits per row index) by value; a code too wide for that
sorts a hash of it instead, checked exact, with an argsort fallback.
These tests pin its outputs (values, dtypes, order) to the row-wise
definition: keys numbered in the order the rows first show them, float
columns compared by their bit patterns.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.evaluation.workloads import build_workload
from repro.exec import (
    UPDATE_FUNCS,
    ColumnarState,
    Vocab,
    canonical_state,
    first_occurrences,
    group_first_occurrence,
    group_keys,
    init_value,
    keys_in,
    running_groups,
)
from repro.exec import kernels

I64 = np.iinfo(np.int64)


def _cell(column: np.ndarray, i: int) -> int:
    value = column[i]
    if column.dtype.kind == "f":
        return int(np.array([value], dtype=np.float64).view(np.int64)[0])
    return int(value)


def reference(columns: dict[str, np.ndarray]):
    """First-occurrence grouping with a dict, one row at a time."""
    n = len(next(iter(columns.values())))
    ids: dict[tuple, int] = {}
    first_rows: list[int] = []
    inverse: list[int] = []
    for i in range(n):
        key = tuple(_cell(col, i) for col in columns.values())
        if key not in ids:
            ids[key] = len(ids)
            first_rows.append(i)
        inverse.append(ids[key])
    unique = np.array(list(ids), dtype=np.int64).reshape(len(ids), len(columns))
    return (
        unique,
        np.array(first_rows, dtype=np.int64),
        np.array(inverse, dtype=np.int64),
    )


def assert_matches_reference(columns: dict[str, np.ndarray]) -> None:
    state = ColumnarState(columns=columns)
    got = group_first_occurrence(state, list(columns))
    want = reference(columns)
    for name, g, w in zip(("unique", "first_rows", "inverse"), got, want):
        assert g.dtype == w.dtype, name
        assert g.shape == w.shape, name
        assert np.array_equal(g, w), name
    assert (np.diff(got[1]) > 0).all()


_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1.5, -2.25]

_COLUMN_KINDS = {
    "small": (np.int64, st.integers(0, 7)),
    "negative": (np.int32, st.integers(-3, 3)),
    "port": (np.uint16, st.integers(0, 2**16 - 1)),
    "ip": (np.uint32, st.integers(0, 2**32 - 1)),
    "wide": (np.int64, st.sampled_from([I64.min, I64.max, -1, 0, 1, 2**40])),
    "full": (np.int64, st.integers(I64.min, I64.max)),
    "float": (np.float64, st.sampled_from(_FLOATS)),
}


@st.composite
def grouping_columns(draw) -> dict[str, np.ndarray]:
    n = draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=4))
    columns = {}
    for j, kind in enumerate(kinds):
        dtype, values = _COLUMN_KINDS[kind]
        # Few distinct values per column, so groups repeat.
        pool = draw(st.lists(values, min_size=1, max_size=4))
        cells = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        columns[f"k{j}"] = np.array(cells, dtype=dtype)
    return columns


class TestGroupFirstOccurrence:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(grouping_columns())
    def test_matches_reference(self, columns):
        assert_matches_reference(columns)

    def test_empty_state(self):
        state = ColumnarState(columns={"a": np.empty(0, dtype=np.uint32)})
        unique, first_rows, inverse = group_first_occurrence(state, ["a"])
        assert unique.shape == (0, 1) and unique.dtype == np.int64
        assert first_rows.dtype == np.int64 and len(first_rows) == 0
        assert inverse.dtype == np.int64 and len(inverse) == 0

    def test_one_row(self):
        assert_matches_reference({"a": np.array([5], dtype=np.uint32)})

    def test_int64_extremes_in_one_column(self):
        assert_matches_reference(
            {"a": np.array([I64.max, I64.min, 0, I64.max, -1, I64.min])}
        )

    def test_negative_ids(self):
        assert_matches_reference(
            {
                "name": np.array([-1, 3, -1, 0, 3, -1], dtype=np.int32),
                "port": np.array([80, 80, 80, 53, 80, 53], dtype=np.uint16),
            }
        )

    def test_float_bits(self):
        # 0.0 and -0.0 differ by their sign bit, so they group apart;
        # every nan with the same bits groups together.
        columns = {"ts": np.array([0.0, -0.0, np.nan, np.inf, 0.0, np.nan, -0.0])}
        assert_matches_reference(columns)
        state = ColumnarState(columns=columns)
        _unique, first_rows, _inverse = group_first_occurrence(state, ["ts"])
        assert first_rows.tolist() == [0, 1, 2, 3]

    def test_widths_summing_to_64_pack_without_densify(self):
        rng = np.random.default_rng(7)
        columns = {
            "hi": rng.choice(np.array([0, 2**32 - 1], dtype=np.uint32), 50),
            "lo": rng.choice(np.array([0, 1, 2**32 - 1], dtype=np.uint32), 50),
        }
        with mock.patch.object(kernels, "_densify", wraps=kernels._densify) as spy:
            assert_matches_reference(columns)
        assert spy.call_count == 0

    def test_wide_keys_densify_code_and_column(self):
        # Three full-span columns: the second forces the running code to
        # dense ids, and the column itself is still too wide to fit.
        rng = np.random.default_rng(11)
        pool = np.array([I64.min, I64.max, 0, -5, 2**62], dtype=np.int64)
        columns = {f"k{j}": rng.choice(pool, 60) for j in range(3)}
        with mock.patch.object(kernels, "_densify", wraps=kernels._densify) as spy:
            assert_matches_reference(columns)
        assert spy.call_count == 4

    def test_three_32_bit_columns(self):
        rng = np.random.default_rng(3)
        columns = {
            name: rng.choice(rng.integers(0, 2**32, 4), 80).astype(np.uint32)
            for name in ("dIP", "sIP", "seq")
        }
        with mock.patch.object(kernels, "_densify", wraps=kernels._densify) as spy:
            assert_matches_reference(columns)
        assert spy.call_count >= 1


def _paths(columns: dict[str, np.ndarray]) -> int:
    """``_run_starts`` calls of one grouping: 1 for the value sort, 2 for
    the checked hash sort, 3 when the check falls back to an argsort."""
    with mock.patch.object(kernels, "_run_starts", wraps=kernels._run_starts) as spy:
        assert_matches_reference(columns)
    return spy.call_count


class TestSortPaths:
    """The boundary between the value sort and the hashed sort, and the
    hashed sort's fallback. 17 rows take ``b = 5`` bits of row index."""

    N = 17

    def _column(self, bits: int) -> np.ndarray:
        """``N`` cells spanning exactly ``bits`` bits, values repeating."""
        rng = np.random.default_rng(bits)
        pool = np.concatenate([[0, 2**bits - 1], rng.integers(0, 2**bits, 6)])
        return rng.permutation(
            np.concatenate([pool, rng.choice(pool, self.N - len(pool))])
        )

    def test_width_plus_row_bits_64_sorts_values(self):
        assert _paths({"k": self._column(59)}) == 1

    def test_width_plus_row_bits_65_sorts_hashes(self):
        assert _paths({"k": self._column(60)}) == 2

    def test_two_columns_at_the_boundary(self):
        rng = np.random.default_rng(4)
        hi = rng.choice(np.array([0, 2**32 - 1], dtype=np.uint32), self.N)
        for lo_bits, paths in ((27, 1), (28, 2)):
            lo = rng.choice(np.array([0, 5, 2**lo_bits - 1], dtype=np.int64), self.N)
            assert _paths({"hi": hi, "lo": lo}) == paths

    def test_hash_collision_falls_back_exactly(self):
        # Codes 0 and c with c * _HASH < 2**b share every hash bit; rows
        # of the two interleave, so the check must catch it.
        n = 1_000
        b = (n - 1).bit_length()
        inverse = pow(int(kernels._HASH), -1, 2**64)
        c = next(
            c
            for c in (inverse * j % 2**64 for j in range(1, 2**b))
            if 2 ** (64 - b) <= c < 2**63
        )
        assert (c * int(kernels._HASH)) % 2**64 >> b == 0
        rng = np.random.default_rng(9)
        column = rng.choice(np.array([0, c, 7, 2**40], dtype=np.int64), n)
        assert _paths({"k": column}) == 3


@pytest.fixture(scope="module")
def large_window() -> ColumnarState:
    """One 3 s window at 60k pps of the three-query trace (~175k rows)."""
    trace = build_workload(
        ("ddos", "newly_opened_tcp_conns", "superspreader"),
        duration=3.0, pps=60_000.0, seed=1,
    ).trace
    return ColumnarState.from_trace(trace)


class TestScale:
    """A full training window at the ``large`` rate, through the trace's
    strided columns: 18 bits of row index, and the two full 32-bit IPs
    take the hashed sort."""

    @pytest.mark.parametrize("keys", [("ipv4.dIP", "ipv4.sIP"), ("ipv4.dIP",)])
    def test_large_window_matches_reference(self, large_window, keys):
        assert large_window.n_rows > 2**17
        assert_matches_reference({k: large_window.columns[k] for k in keys})

    def test_group_keys_on_large_window(self, large_window):
        keys = ["ipv4.dIP", "ipv4.sIP"]
        unique, first_rows = group_keys(large_window, keys)
        want, want_first, _inverse = group_first_occurrence(large_window, keys)
        assert np.array_equal(unique, want)
        assert np.array_equal(first_rows, want_first)


class TestGroupKeys:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(grouping_columns())
    def test_equals_group_first_occurrence(self, columns):
        state = ColumnarState(columns=columns)
        unique, first_rows = group_keys(state, list(columns))
        want, want_first, _inverse = group_first_occurrence(state, list(columns))
        for got, expected in ((unique, want), (first_rows, want_first)):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def test_empty_state(self):
        state = ColumnarState(columns={"a": np.empty(0, dtype=np.uint32)})
        unique, first_rows = group_keys(state, ["a"])
        assert unique.shape == (0, 1) and unique.dtype == np.int64
        assert first_rows.dtype == np.int64 and len(first_rows) == 0


class TestFirstOccurrences:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-5, 2**40), max_size=60))
    def test_matches_np_unique(self, values):
        values = np.array(values, dtype=np.int64)
        _distinct, want = np.unique(values, return_index=True)
        got = first_occurrences(values)
        assert got.dtype == np.int64
        assert sorted(got.tolist()) == sorted(want.tolist())


class TestKeysIn:
    """``keys_in`` against set membership of the materialized keys."""

    def _cache(self, columns, vocabs, keys):
        state = canonical_state(ColumnarState(columns, vocabs), keys)
        unique, _first, _inv = group_first_occurrence(state, keys)
        return unique, {k: state.vocabs[k] for k in keys if k in state.vocabs}

    @settings(max_examples=60, deadline=None)
    @given(grouping_columns(), st.data())
    def test_int_keys_match_reference(self, columns, data):
        keys = list(columns)
        unique, vocabs = self._cache(columns, {}, keys)
        n = len(next(iter(columns.values())))
        rows = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
        probe = ColumnarState({k: col[rows] for k, col in columns.items()})
        hit = keys_in(unique, keys, vocabs, probe)
        wanted = {tuple(_cell(col, i) for col in columns.values()) for i in rows}
        assert hit.tolist() == [tuple(row) in wanted for row in unique.tolist()]

    def test_vocab_keys_match_on_values(self):
        """Probe ids are recoded by value: duplicate entries, absent cells
        and values the cache lacks all resolve like the row engines."""
        keys = ["dns.rr.name", "ipv4.dIP"]
        unique, vocabs = self._cache(
            {
                "dns.rr.name": np.array([0, 1, 2, -1, 3]),
                "ipv4.dIP": np.array([7, 7, 7, 7, 8]),
            },
            {"dns.rr.name": Vocab(["a.com", "b.com", "a.com", ""])},
            keys,
        )
        probe = ColumnarState(
            {
                "dns.rr.name": np.array([2, 0, 1, 0]),
                "ipv4.dIP": np.array([7, 7, 7, 8]),
            },
            {"dns.rr.name": Vocab(["", "zzz", "a.com"])},
        )
        hit = keys_in(unique, keys, vocabs, probe)
        names = [vocabs["dns.rr.name"][i] for i in unique[:, 0].tolist()]
        found = {(name, dip) for name, dip, h in zip(names, unique[:, 1], hit) if h}
        assert found == {("a.com", 7), ("", 7), ("", 8)}

    def test_empty_probe_or_cache(self):
        unique = np.array([[1], [2]])
        empty = ColumnarState({"k": np.empty(0, dtype=np.int64)})
        assert keys_in(unique, ["k"], {}, empty).tolist() == [False, False]
        probe = ColumnarState({"k": np.array([1])})
        assert keys_in(unique[:0], ["k"], {}, probe).tolist() == []


def running_reference(inverse, values, func) -> list[int]:
    """Each row's register value right after its update, folded one row
    at a time through the scalar ALU."""
    stored: dict[int, int] = {}
    out = []
    for g, arg in zip(inverse.tolist(), values.tolist()):
        stored[g] = (
            UPDATE_FUNCS[func](stored[g], arg) if g in stored else init_value(func, arg)
        )
        out.append(stored[g])
    return out


class TestRunningGroups:
    """``running_groups`` over a grouping's runs equals the scalar fold."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 9), st.integers(-1_000, 1_000)), max_size=200
        ),
        func=st.sampled_from(["count", "sum", "max", "min", "or"]),
    )
    def test_matches_scalar_fold(self, data, func):
        # Ids 0-9 drawn at random leave some groups empty.
        inverse = np.array([g for g, _ in data], dtype=np.int64)
        values = np.array([v for _, v in data], dtype=np.int64)
        order = np.argsort(inverse, kind="stable")
        starts = np.flatnonzero(np.r_[True, np.diff(inverse[order]) != 0])[: len(order)]
        got = running_groups(order, starts, values, func)
        assert got.dtype == np.int64
        assert got.tolist() == running_reference(inverse, values, func)

    @pytest.mark.parametrize("func", ["count", "sum", "max", "min", "or"])
    def test_runs_of_the_grouping_sort(self, func):
        """The runs ``group_first_occurrence(runs=True)`` returns are
        ordered by key code, not by group id; within each, rows keep row
        order, which is all the running aggregate needs."""
        rng = np.random.default_rng(5)
        state = ColumnarState(columns={"k": rng.integers(0, 50, 3_000) * 7919})
        values = rng.integers(-5, 100, 3_000)
        _u, _f, inverse, order, starts = group_first_occurrence(
            state, ["k"], runs=True
        )
        got = running_groups(order, starts, values, func)
        assert got.tolist() == running_reference(inverse, values, func)

    def test_no_rows(self):
        empty = np.empty(0, dtype=np.int64)
        assert running_groups(empty, empty, empty, "max").tolist() == []
