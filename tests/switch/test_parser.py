"""Tests for the programmable-parser model."""

import re

import pytest

from repro.core.errors import CompilationError, ResourceExhaustedError
from repro.switch.parser import ParserConfig


class TestParserConfig:
    def test_extracted_bits(self):
        parser = ParserConfig()
        parser.require(["ipv4.dIP", "tcp.flags"])
        assert parser.extracted_bits == 32 + 8

    def test_derived_fields_ignored(self):
        parser = ParserConfig()
        parser.require(["count", "ipv4.dIP"])
        assert parser.fields == {"ipv4.dIP"}

    def test_payload_rejected(self):
        parser = ParserConfig()
        with pytest.raises(CompilationError):
            parser.require(["payload"])

    def test_parse_depth(self):
        parser = ParserConfig()
        parser.require(["pktlen"])
        assert parser.parse_depth == 0
        parser.require(["ipv4.dIP"])
        assert parser.parse_depth == 1
        parser.require(["tcp.dPort"])
        assert parser.parse_depth == 2
        parser.require(["dns.qtype"])
        assert parser.parse_depth == 3

    def test_release(self):
        parser = ParserConfig()
        parser.require(["ipv4.dIP", "tcp.flags"])
        parser.release(["tcp.flags"])
        assert parser.fields == {"ipv4.dIP"}

    def test_describe(self):
        parser = ParserConfig()
        parser.require(["ipv4.dIP"])
        assert "ipv4.dIP" in parser.describe()


class TestSwitchIntegration:
    def _install(self, switch):
        from tests.switch.test_simulator import compiled_newly_opened, size_tables

        compiled = compiled_newly_opened()
        switch.install("i", compiled, 4, size_tables(compiled, 4))
        return compiled

    def test_parser_follows_installs(self):
        from repro.switch import PISASwitch

        switch = PISASwitch()
        self._install(switch)
        assert "tcp.flags" in switch.parser.fields
        assert "ipv4.dIP" in switch.parser.fields
        usage = switch.resource_usage()
        assert usage["parser_header_bits"] >= 40
        assert usage["parse_depth"] == 2

    def test_uninstall_shrinks_parser(self):
        from repro.switch import PISASwitch

        switch = PISASwitch()
        self._install(switch)
        switch.uninstall("i")
        assert switch.parser.fields == set()

    def test_phv_header_budget_enforced(self):
        from repro.switch import PISASwitch, SwitchConfig

        switch = PISASwitch(SwitchConfig(phv_header_bits=8))
        with pytest.raises(ResourceExhaustedError):
            self._install(switch)

    @pytest.mark.parametrize("budget", [8, 32])
    def test_phv_header_error_reports_the_bits_it_would_extract(self, budget):
        from repro.switch import PISASwitch, SwitchConfig

        switch = PISASwitch(SwitchConfig(phv_header_bits=budget))
        with pytest.raises(ResourceExhaustedError) as info:
            self._install(switch)
        match = re.search(r"(\d+) over phv_header_bits=(\d+)", str(info.value))
        assert match and int(match.group(2)) == budget
        assert int(match.group(1)) > budget
        # The rolled-back parser keeps nothing from the refused instance.
        assert switch.parser.fields == set()
