"""Tests for P4 code generation."""

import pytest

from repro.queries.library import QUERY_LIBRARY, build_query
from repro.planner.collisions import size_register
from repro.switch.compiler import compile_subquery
from repro.switch.config import SwitchConfig
from repro.switch.p4gen import generate_p4


def compiled_instances(name, qid):
    query = build_query(name, qid=qid)
    instances = []
    config = SwitchConfig.paper_default()
    for sq in query.subqueries:
        compiled = compile_subquery(sq)
        sized = []
        for t in compiled.tables:
            if t.stateful and t.register is not None:
                sized.append(
                    t.sized(
                        size_register(
                            t.register.name, 1024, t.register.key_bits,
                            t.register.value_bits, config,
                        )
                    )
                )
            else:
                sized.append(t)
        compiled.tables[:] = sized
        instances.append((sq.name, compiled, compiled.compilable_operators))
    return instances


class TestGeneration:
    @pytest.mark.parametrize("name", list(QUERY_LIBRARY))
    def test_program_structure(self, name):
        program = generate_p4(
            compiled_instances(name, 800 + QUERY_LIBRARY[name].number), name
        )
        # v1model skeleton
        for marker in (
            "#include <v1model.p4>",
            "parser SonataParser",
            "control SonataIngress",
            "control SonataDeparser",
            "V1Switch(",
            "struct metadata_t",
        ):
            assert marker in program, f"{marker} missing for {name}"
        assert program.count("{") == program.count("}")

    def test_stateful_query_has_registers_and_hash(self):
        program = generate_p4(compiled_instances("newly_opened_tcp_conns", 812))
        assert "register<bit<32>>" in program
        assert "HashAlgorithm.crc32" in program
        assert "clone(CloneType.I2E" in program

    def test_folded_threshold_emitted(self):
        program = generate_p4(compiled_instances("newly_opened_tcp_conns", 813))
        assert "if (val >" in program  # the folded threshold check

    def test_every_folded_threshold_emitted(self):
        """A folded filter may hold several thresholds; the switch reports
        a key only when its running aggregate passes all of them."""
        from repro.core.expressions import Const
        from repro.core.query import PacketStream, Query

        sq = Query(
            PacketStream(name="two", qid=815)
            .map(keys=("ipv4.dIP",), values=(Const(1),))
            .reduce(keys=("ipv4.dIP",), func="sum")
            .filter(("count", "gt", 2), ("count", "ge", 30))
        ).subquery(0)
        compiled = compile_subquery(sq)
        assert compiled.tables[-1].folded_filter is not None
        program = generate_p4([("q815", compiled, compiled.compilable_operators)])
        assert "if (val > 2 && val >= 30)" in program

    def test_refinement_mask_emitted(self):
        from repro.core.query import Query
        from repro.core.expressions import Const, Prefixed
        from repro.core.query import PacketStream

        stream = (
            PacketStream(name="ref", qid=814)
            .map(keys=(Prefixed("ipv4.dIP", 8),), values=(Const(1),))
            .reduce(keys=("ipv4.dIP",), func="sum")
        )
        instances = []
        compiled = compile_subquery(Query(stream).subquery(0))
        instances.append(("ref", compiled, compiled.compilable_operators))
        program = generate_p4(instances)
        assert "& 0xff000000" in program

    def test_loc_scales_with_query_complexity(self):
        def loc(name, qid):
            program = generate_p4(compiled_instances(name, qid))
            return sum(1 for line in program.splitlines() if line.strip())

        assert loc("slowloris", 820) > loc("newly_opened_tcp_conns", 821)

    def test_distinct_emits_membership_guard(self):
        program = generate_p4(compiled_instances("superspreader", 822))
        assert "_active = 0" in program
