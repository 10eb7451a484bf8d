"""The cost estimator against the per-transition method it replaced.

The estimator runs each (sub-query, level) chain once per window and
prices every filtered transition ``r_prev -> r`` from that run's key
columns. The oracle here is the direct method: ``execute_subquery`` on
every augmented chain, the filtered ones behind their filter table, and a
separate threshold-free run per coarse level for the relaxed minima. Both
must agree exactly on every library query, a ``dns.rr.name``-keyed query,
relaxation on and off, 4 and 8 levels, and one- and multi-window training.
"""

from dataclasses import replace

import pytest

from repro.analytics import execute_subquery
from repro.core.fields import FIELDS, coarsen_value
from repro.evaluation.workloads import build_workload
from repro.packets import Trace, attacks
from repro.planner.costs import CostEstimator, _median
from repro.planner.refinement import (
    ROOT_LEVEL,
    augmented_subquery,
    can_coarsen,
    filter_table_name,
    rewrite_thresholds,
    trailing_threshold_fields,
)
from repro.queries.library import EXTENSION_QUERIES, QUERY_LIBRARY, build_queries
from repro.streaming.rowops import assemble_join_tree

WINDOW = 3.0


def reference_costs(estimator: CostEstimator, query):
    """(transitions, relaxed thresholds, output keys per level), with every
    augmented chain executed on every window."""
    spec = estimator.spec_for(query)
    windows = estimator.windows()
    levels = spec.levels if spec is not None else (32,)
    pairs = spec.transitions() if spec is not None else [(ROOT_LEVEL, 32)]
    original = {
        (sq.subid, level): thresholds
        for sq in query.subqueries
        if spec is not None and (thresholds := trailing_threshold_fields(sq))
        for level in levels
    }
    relaxed = original if estimator.relax_thresholds else {}
    transitions = {pair: {} for pair in pairs}

    def active(level):
        return [
            sq
            for sq in query.subqueries
            if spec is None or can_coarsen(sq, spec, level)
        ]

    def run(sq, r_prev, level, feed):
        augmented = sq
        if spec is not None:
            augmented = augmented_subquery(
                sq, spec, r_prev, level, relaxed.get((sq.subid, level))
            )
        results = []
        for w_index, window in enumerate(windows):
            tables = {}
            if r_prev != ROOT_LEVEL:
                name = filter_table_name(sq.qid, r_prev)
                tables[name] = feed[r_prev][max(w_index - 1, 0)]
            results.append(execute_subquery(augmented, window, tables))
        transitions[(r_prev, level)][sq.subid] = estimator._price(
            augmented,
            r_prev,
            level,
            [float(r.input_rows) for r in results],
            [[stat.rows_out for stat in r.stats] for r in results],
        )
        return results

    def root_keys(level):
        leaves = [{} for _ in windows]
        for sq in active(level):
            for leaf, result in zip(leaves, run(sq, ROOT_LEVEL, level, {})):
                leaf[sq.subid] = result.rows()
        outputs = [assemble_join_tree(query.join_tree, leaf) or [] for leaf in leaves]
        if spec is None:
            return [{tuple(sorted(r.items())) for r in rows} for rows in outputs]
        key = spec.key_field
        return [{row[key] for row in rows if key in row} for rows in outputs]

    feed = {levels[-1]: root_keys(levels[-1])}
    if estimator.relax_thresholds and original:
        relaxed = relax(spec, query, windows, original, feed[levels[-1]])
    for level in levels[:-1]:
        feed[level] = root_keys(level)
    for r_prev, level in pairs:
        if r_prev != ROOT_LEVEL:
            for sq in active(level):
                run(sq, r_prev, level, feed)
    output_keys = {
        level: _median([float(len(keys)) for keys in feed[level]])
        for level in levels
    }
    return transitions, relaxed, output_keys


def relax(spec, query, windows, original, truth):
    """§4.1's relaxed thresholds, one threshold-free run per coarse level."""
    field = FIELDS.get(spec.key_field)
    subqueries = {sq.subid: sq for sq in query.subqueries}
    relaxed = {}
    for (subid, level), thresholds in original.items():
        relaxed[(subid, level)] = dict(thresholds)
        satisfied = [{coarsen_value(field, k, level) for k in keys} for keys in truth]
        if level == spec.finest or not any(satisfied):
            continue
        sq = subqueries[subid]
        stripped = replace(
            sq, operators=rewrite_thresholds(sq.operators, None, bounds=False)
        )
        coarse = augmented_subquery(stripped, spec, ROOT_LEVEL, level)
        minima = {fld: [] for fld in thresholds}
        for window, keys in zip(windows, satisfied):
            if not keys:
                continue
            rows = execute_subquery(coarse, window).rows()
            for fld, values in minima.items():
                counts = {row[spec.key_field]: row.get(fld) for row in rows if fld in row}
                found = [counts[k] for k in keys if counts.get(k) is not None]
                if found:
                    values.append(min(found))
        relaxed[(subid, level)] = {
            fld: max(value, min(minima[fld]) - 1) if minima[fld] else value
            for fld, value in thresholds.items()
        }
    return relaxed


@pytest.fixture(scope="module")
def queries():
    library = build_queries(list(QUERY_LIBRARY), window=WINDOW)
    dns = EXTENSION_QUERIES["malicious_domains"].query(qid=99, Th=40)
    return library + [dns]


@pytest.fixture(scope="module")
def traces():
    workload = build_workload(list(QUERY_LIBRARY), duration=6.0, pps=300.0, seed=5)
    flood = attacks.dns_domain_flood(
        "c2.malware-botnet.info", 0x08080808, start=0.0, duration=6.0,
        n_clients=300, seed=7,
    )
    multi = Trace.merge([workload.trace, flood])
    one = multi.time_range(multi.start_ts, multi.start_ts + WINDOW)
    return {"one_window": one, "multi_window": multi}


@pytest.mark.parametrize("max_levels", [4, 8])
@pytest.mark.parametrize("relax", [True, False], ids=["relaxed", "original"])
@pytest.mark.parametrize("training", ["one_window", "multi_window"])
def test_matches_per_transition_method(queries, traces, training, relax, max_levels):
    estimator = CostEstimator(
        queries, traces[training], window=WINDOW, max_levels=max_levels,
        relax_thresholds=relax,
    )
    windows = len(estimator.windows())
    assert (windows == 1) == (training == "one_window")
    refined = 0
    for query, costs in zip(queries, estimator.estimate().values()):
        transitions, relaxed, output_keys = reference_costs(estimator, query)
        assert costs.relaxed_thresholds == relaxed, query.name
        assert costs.output_keys_per_level == output_keys, query.name
        assert list(costs.transitions) == list(transitions)
        for pair, per_sub in transitions.items():
            assert list(costs.transitions[pair]) == list(per_sub), (query.name, pair)
            for subid, want in per_sub.items():
                got = costs.transitions[pair][subid]
                where = (query.name, pair, subid)
                assert got.augmented.operators == want.augmented.operators, where
                assert got.cuts == want.cuts, where
                assert got.key_estimates == want.key_estimates, where
                assert got.sized_tables == want.sized_tables, where
        refined += costs.spec is not None and any(output_keys.values())
    # Every query really zooms in: its levels have output keys.
    assert refined == len(queries)
