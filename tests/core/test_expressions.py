"""Tests for map/predicate value expressions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.errors import QueryValidationError
from repro.core.expressions import (
    Const,
    Difference,
    FieldRef,
    Prefixed,
    Quantized,
    Ratio,
    as_expression,
)
from repro.exec import ColumnarState, eval_expression


def _columns(**values):
    return ColumnarState({name: np.asarray(column) for name, column in values.items()})


class TestFieldRef:
    def test_evaluate(self):
        expr = FieldRef("ipv4.dIP")
        assert expr.evaluate({"ipv4.dIP": 7}) == 7
        assert expr.name == "ipv4.dIP"

    def test_rename(self):
        expr = FieldRef("pktlen", "bytes")
        assert expr.name == "bytes"

    def test_columnar_matches_scalar(self):
        expr = FieldRef("x")
        cols = _columns(x=[1, 2, 3])
        assert list(eval_expression(expr, cols)[0]) == [1, 2, 3]

    def test_switch_supported(self):
        assert FieldRef("ipv4.dIP").switch_supported

    def test_width_from_registry(self):
        assert FieldRef("ipv4.dIP").width() == 32
        assert FieldRef("tcp.flags").width() == 8


class TestConst:
    def test_evaluate(self):
        assert Const(1).evaluate({}) == 1
        assert Const(1).name == "count"

    def test_columnar_length(self):
        out, _ = eval_expression(Const(5, "x"), _columns(a=[1, 2, 3]))
        assert list(out) == [5, 5, 5]


class TestPrefixed:
    def test_evaluate(self):
        expr = Prefixed("ipv4.dIP", 8)
        assert expr.evaluate({"ipv4.dIP": 0x0A010203}) == 0x0A000000

    def test_name_defaults_to_field(self):
        assert Prefixed("ipv4.dIP", 8).name == "ipv4.dIP"

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.sampled_from([4, 8, 16, 24, 32]),
    )
    def test_columnar_matches_scalar(self, addr, level):
        expr = Prefixed("ipv4.dIP", level)
        scalar = expr.evaluate({"ipv4.dIP": addr})
        columnar = eval_expression(
            expr, _columns(**{"ipv4.dIP": np.array([addr], dtype=np.uint32)})
        )[0][0]
        assert scalar == int(columnar)


class TestQuantized:
    def test_evaluate(self):
        expr = Quantized("pktlen", 16)
        assert expr.evaluate({"pktlen": 100}) == 96
        assert expr.evaluate({"pktlen": 96}) == 96

    def test_power_of_two_switch_supported(self):
        assert Quantized("pktlen", 16).switch_supported
        assert not Quantized("pktlen", 10).switch_supported

    def test_rejects_zero_step(self):
        with pytest.raises(QueryValidationError):
            Quantized("pktlen", 0)

    @given(st.integers(min_value=0, max_value=65535), st.sampled_from([2, 10, 16, 100]))
    def test_columnar_matches_scalar(self, value, step):
        expr = Quantized("pktlen", step)
        assert expr.evaluate({"pktlen": value}) == int(
            eval_expression(expr, _columns(pktlen=[value]))[0][0]
        )


class TestRatio:
    def test_fixed_point(self):
        expr = Ratio("conns", "bytes", "cpb")
        assert expr.evaluate({"conns": 1, "bytes": 1_000_000}) == 1

    def test_zero_denominator(self):
        expr = Ratio("a", "b")
        assert expr.evaluate({"a": 5, "b": 0}) == 0

    def test_never_switch_supported(self):
        assert not Ratio("a", "b").switch_supported

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_columnar_matches_scalar(self, a, b):
        expr = Ratio("a", "b")
        assert expr.evaluate({"a": a, "b": b}) == int(
            eval_expression(expr, _columns(a=[a], b=[b]))[0][0]
        )


class TestDifference:
    def test_evaluate(self):
        assert Difference("syns", "acks").evaluate({"syns": 10, "acks": 3}) == 7

    @given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=-1000, max_value=1000))
    def test_columnar_matches_scalar(self, a, b):
        expr = Difference("a", "b")
        assert expr.evaluate({"a": a, "b": b}) == int(
            eval_expression(expr, _columns(a=[a], b=[b]))[0][0]
        )


class TestCoercion:
    def test_string_becomes_fieldref(self):
        expr = as_expression("ipv4.dIP")
        assert isinstance(expr, FieldRef)

    def test_expression_passthrough(self):
        expr = Const(1)
        assert as_expression(expr) is expr

    def test_garbage_rejected(self):
        with pytest.raises(QueryValidationError):
            as_expression(42)  # type: ignore[arg-type]
