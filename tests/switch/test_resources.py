"""Tests for the switch's install-time resource rules."""

import pytest

from repro.core.errors import ResourceExhaustedError
from repro.core.expressions import Const
from repro.core.fields import TCP_SYN
from repro.core.operators import Filter, Predicate
from repro.core.query import PacketStream, Query
from repro.switch.compiler import compile_subquery
from repro.switch.config import SwitchConfig
from repro.switch.registers import RegisterSpec
from repro.switch.resources import (
    StageLedger,
    chain_violation,
    header_fields,
    stage_demand,
)
from repro.switch.tables import LogicalTable

OP = Filter((Predicate("tcp.flags", "eq", 2),))


def stateless(name):
    return LogicalTable(name, "filter", 0, OP, True, stateful=False)


def stateful(name, bits=6400, placeholder=False):
    # d=1, 64-bit slots: bits / 64 slots.
    register = RegisterSpec(
        f"{name}_r", n_slots=bits // 64, d=1, key_bits=32, placeholder=placeholder
    )
    return LogicalTable(name, "reduce_upd", 0, OP, True, stateful=True, register=register)


class TestStageDemand:
    def test_keys_are_switch_config_fields(self):
        for table in (stateless("a"), stateful("b")):
            for budget in stage_demand(table):
                assert hasattr(SwitchConfig(), budget)

    def test_stateful_table_takes_bits_action_and_slot(self):
        assert stage_demand(stateful("b", bits=640)) == {
            "register_bits_per_stage": 640,
            "stateful_actions_per_stage": 1,
            "stateless_actions_per_stage": 1,
        }
        assert stage_demand(stateless("a")) == {"stateless_actions_per_stage": 1}


class TestPlace:
    def test_first_fit_in_increasing_stages(self):
        ledger = StageLedger(SwitchConfig(stages=4))
        chain = [stateless("a"), stateful("b"), stateless("c")]
        assert ledger.place(chain, {}) == {"a": 0, "b": 1, "c": 2}

    def test_pinned_stages_are_kept_and_bound_the_gaps(self):
        ledger = StageLedger(SwitchConfig(stages=8))
        chain = [stateless("a"), stateless("b"), stateful("c"), stateless("d")]
        assert ledger.place(chain, {"c": 5}) == {"a": 0, "b": 1, "c": 5, "d": 6}

    def test_full_stages_are_skipped(self):
        config = SwitchConfig(stages=4, stateful_actions_per_stage=1)
        ledger = StageLedger(config)
        ledger.place([stateful("x")], {"x": 1})
        assert ledger.place([stateful("b")], {}) == {"b": 0}
        assert ledger.place([stateless("a"), stateful("c")], {}) == {"a": 0, "c": 2}

    def test_pinned_order_must_increase_c4(self):
        ledger = StageLedger(SwitchConfig(stages=4))
        with pytest.raises(ResourceExhaustedError, match="C4"):
            ledger.place([stateless("a"), stateful("b")], {"a": 2, "b": 2})

    def test_no_room_before_the_next_pinned_table_names_the_budget(self):
        config = SwitchConfig(stages=4, stateless_actions_per_stage=1)
        ledger = StageLedger(config)
        ledger.place([stateless("x")], {"x": 0})
        with pytest.raises(ResourceExhaustedError, match="stateless_actions_per_stage"):
            ledger.place([stateless("a"), stateful("b")], {"b": 1})

    def test_stage_outside_the_switch_names_stages(self):
        ledger = StageLedger(SwitchConfig(stages=2))
        with pytest.raises(ResourceExhaustedError, match="stages"):
            ledger.place([stateful("b")], {"b": 2})


class TestTake:
    @pytest.mark.parametrize(
        "config, budget",
        [
            (SwitchConfig(register_bits_per_stage=10_000), "register_bits_per_stage"),
            (SwitchConfig(stateful_actions_per_stage=1), "stateful_actions_per_stage"),
            (SwitchConfig(stateless_actions_per_stage=1), "stateless_actions_per_stage"),
        ],
    )
    def test_reports_the_overrun_budget(self, config, budget):
        ledger = StageLedger(config)
        ledger.take(stateful("a"), 0)
        assert not ledger.fits(stateful("b"), 0)
        with pytest.raises(ResourceExhaustedError, match=f"over {budget}="):
            ledger.take(stateful("b"), 0)

    def test_usage_is_kept_per_stage(self):
        ledger = StageLedger(SwitchConfig())
        ledger.take(stateful("a", bits=640), 3)
        ledger.take(stateless("b"), 3)
        assert ledger.used["register_bits_per_stage"] == {3: 640}
        assert ledger.used["stateful_actions_per_stage"] == {3: 1}
        assert ledger.used["stateless_actions_per_stage"] == {3: 2}


class TestChainViolation:
    def test_installable_chain(self):
        assert chain_violation([stateless("a"), stateful("b")], SwitchConfig()) is None

    def test_more_tables_than_stages(self):
        reason = chain_violation([stateless("a"), stateless("b")], SwitchConfig(stages=1))
        assert "over stages=1" in reason

    def test_unsized_stateful_table(self):
        reason = chain_violation([stateful("b", placeholder=True)], SwitchConfig())
        assert "lacks register sizing" in reason

    def test_register_over_the_single_register_cap(self):
        config = SwitchConfig(max_single_register_bits=1_000)
        reason = chain_violation([stateful("b", bits=6400)], config)
        assert "6400 over max_single_register_bits=1000" in reason


def test_header_fields_grow_with_the_cut():
    stream = (
        PacketStream(name="q", qid=1)
        .filter(("tcp.flags", "eq", TCP_SYN))
        .map(keys=("ipv4.dIP",), values=(Const(1),))
        .reduce(keys=("ipv4.dIP",), func="sum")
    )
    compiled = compile_subquery(Query(stream).subquery(0))
    assert header_fields(compiled, 0) == {}
    assert header_fields(compiled, 1) == {"tcp.flags": 8}
    assert header_fields(compiled, 3) == {"tcp.flags": 8, "ipv4.dIP": 32}
